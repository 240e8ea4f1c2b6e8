"""Performance-fault injection for synthetic build chains.

The paper's Table 5 evaluation runs test executions in which "a variety of
different problematic inputs and scenarios (e.g., increased latency on
certain interfaces) are simulated in the network, often overlapping in
time", and notes that "the vast majority of these simulated problems do not
lead to any noticeable impact on the collected metrics". We mirror that:
each injected fault has a kind, an interval, a magnitude, and an
``impactful`` flag — only impactful faults visibly perturb the CPU series
and count as ground-truth performance problems.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FAULT_KINDS", "InjectedFault", "apply_fault", "inject_faults"]

#: Supported fault kinds and how they perturb the CPU series.
FAULT_KINDS = ("level_shift", "spike", "drift", "noise_burst")

#: Injected fault intervals span this many timesteps, inclusive.
MIN_FAULT_LENGTH = 5
MAX_FAULT_LENGTH = 25


@dataclass(frozen=True)
class InjectedFault:
    """A simulated problem in a test execution.

    ``magnitude`` is in absolute CPU percentage points. ``impactful``
    faults alter the series; non-impactful ones only exist as simulated
    scenarios with no metric signature (and are *not* ground-truth
    anomalies).
    """

    kind: str
    start: int
    length: int
    magnitude: float
    impactful: bool = True

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}")
        if self.start < 0 or self.length < 1:
            raise ValueError("fault needs start >= 0 and length >= 1")
        if self.magnitude <= 0:
            raise ValueError("magnitude must be positive")

    @property
    def end(self) -> int:
        """Exclusive end index."""
        return self.start + self.length

    def interval(self) -> tuple[int, int]:
        return (self.start, self.end)

    def overlaps(self, timestep: int) -> bool:
        return self.start <= timestep < self.end


def apply_fault(cpu: np.ndarray, fault: InjectedFault, rng: np.random.Generator) -> np.ndarray:
    """Return a copy of ``cpu`` with the fault's signature applied.

    Non-impactful faults return the series unchanged.
    """
    cpu = np.asarray(cpu, dtype=np.float64).copy()
    if fault.end > len(cpu):
        raise ValueError(f"fault interval {fault.interval()} exceeds series length {len(cpu)}")
    if not fault.impactful:
        return cpu
    window = slice(fault.start, fault.end)
    length = fault.length
    if fault.kind == "level_shift":
        cpu[window] += fault.magnitude
    elif fault.kind == "spike":
        # Triangular spike peaking mid-interval.
        ramp = 1.0 - np.abs(np.linspace(-1.0, 1.0, length))
        cpu[window] += fault.magnitude * ramp
    elif fault.kind == "drift":
        cpu[window] += fault.magnitude * np.linspace(0.0, 1.0, length)
    elif fault.kind == "noise_burst":
        cpu[window] += rng.normal(0.0, fault.magnitude, length)
    return np.clip(cpu, 0.0, 100.0)


def inject_faults(
    cpu: np.ndarray,
    rng: np.random.Generator,
    n_impactful: int,
    n_harmless: int,
    magnitude_range: tuple[float, float] = (8.0, 25.0),
) -> tuple[np.ndarray, list[InjectedFault]]:
    """Inject a mix of impactful and harmless faults into one CPU series.

    Returns the perturbed series and the fault records (impactful first).
    Fault intervals may overlap, as in the paper's test scenarios.
    """
    n = len(cpu)
    if n <= MAX_FAULT_LENGTH:
        raise ValueError(
            f"series of length {n} too short for faults up to {MAX_FAULT_LENGTH}"
        )
    faults: list[InjectedFault] = []
    out = np.asarray(cpu, dtype=np.float64).copy()
    for impactful, count in ((True, n_impactful), (False, n_harmless)):
        for _ in range(count):
            length = int(rng.integers(MIN_FAULT_LENGTH, MAX_FAULT_LENGTH + 1))
            start = int(rng.integers(0, n - length))
            kind = FAULT_KINDS[rng.integers(0, len(FAULT_KINDS))]
            magnitude = float(rng.uniform(*magnitude_range))
            fault = InjectedFault(
                kind=kind, start=start, length=length, magnitude=magnitude, impactful=impactful
            )
            out = apply_fault(out, fault, rng)
            faults.append(fault)
    return out, faults
