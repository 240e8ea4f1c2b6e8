"""Synthetic carrier-grade VNF testing dataset (telecom build chains).

Substitute for the paper's proprietary dataset (§4.2.1): "125 build chains
for multiple combinations of testbed, build type, SUT, and test case ...
nearly one hundred testbeds, several types of SUT, and hundreds of test
cases and builds", sampled at 15-minute intervals.

The generator is built around a **compositional latent-factor model**,
which is exactly the structure environment embeddings can exploit and
per-chain models cannot:

- every EM value (each testbed, SUT, test case, build) carries a latent
  vector; build versions of the same *type* (S/B/D/T) share a type latent
  plus a small per-version perturbation — this is why Figure 6 finds
  embeddings clustering by build type;
- an environment's CPU response function (base load, per-driver weights,
  non-linearity, autoregressive inertia) is a smooth function of its EM
  latents, so environments overlapping in EM values behave similarly
  (§3.1: "some environments will be similar to each other, especially
  those with certain overlap of EM labels");
- contextual features are derived from a per-test-case workload profile
  (daily curve / constant / ramp / bursty), mirroring Table 2's WMs and
  PMs (demand, client UEs, success ratios, 50x response codes, ...).

Ground-truth performance problems are injected into the *current* build of
a configurable set of focus chains (the paper's 11 test executions with 35
confirmed problems); harmless simulated faults with no metric signature
are injected too, as in the paper. One optional *rare testbed* appears in
only a single short-history chain to reproduce the coverage pathology of
Table 7.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .chains import BuildChain, ServiceChainTopology, TestExecution, VNFPlacement
from .environment import Environment, Testbed, random_testbed
from .faults import inject_faults

__all__ = [
    "TelecomConfig",
    "TelecomDataset",
    "generate_telecom",
    "ChainedTelecomConfig",
    "ChainedTelecomDataset",
    "generate_chained_telecom",
    "FEATURE_NAMES",
]

#: Contextual features collected per timestep (Table 2's WMs and PMs).
FEATURE_NAMES = [
    "client_ue",
    "burst_period",
    "demand_mbps",
    "active_sessions",
    "packet_cnt_mod0",
    "packet_cnt_mod1",
    "success_ratio_mod0",
    "success_ratio_mod1",
    "response_code_50x",
    "net_tx",
    "net_rx",
    "jitter_ms",
]

_BUILD_TYPES = ("S", "B", "D", "T")  # stable, beta, debug, test
_BUILD_TYPE_WEIGHTS = (0.40, 0.25, 0.20, 0.15)
_SUT_NAMES = ("SUT_A", "SUT_B", "SUT_D", "SUT_DB", "SUT_F", "SUT_LB")
_TESTCASE_NAMES = (
    "Testcase_Endurance",
    "Testcase_Load",
    "Testcase_Regression",
    "Testcase_Volume",
    "Testcase_Stress",
    "Testcase_Capacity",
    "Testcase_Failover",
    "Testcase_Soak",
    "Testcase_Smoke",
    "Testcase_Upgrade",
    "Testcase_Latency",
    "Testcase_Scale",
)
_PROFILES = ("daily-curve", "constant", "ramp", "burst")


@dataclass
class TelecomConfig:
    """Knobs for the build-chain simulator.

    Defaults approximate the paper's scale (125 chains); tests use much
    smaller configurations.
    """

    n_chains: int = 125
    n_testbeds: int = 25
    builds_per_chain: tuple[int, int] = (3, 5)
    timesteps_per_build: tuple[int, int] = (100, 140)
    latent_dim: int = 4
    n_focus: int = 11  # focus test executions carrying ground-truth problems
    impactful_per_focus: tuple[int, int] = (2, 5)
    harmless_per_focus: tuple[int, int] = (2, 6)
    fault_magnitude: tuple[float, float] = (8.0, 25.0)
    include_rare_testbed: bool = True
    rare_history_timesteps: int = 17  # Table 7: 17 training examples
    noise_std: float = 2.4
    # Response-surface knobs: how strongly EM latents shape the response.
    driver_weight_scale: float = 8.0
    base_spread: float = 7.0
    nonlin_scale: float = 10.0
    saturation_scale: float = 14.0
    amplitude_range: tuple[float, float] = (0.65, 1.25)
    build_effect: float = 1.5
    # Benign load surges in current builds (Table 1's "surge" form factor):
    # the workload legitimately spikes, CPU follows, and only models with
    # contextual features can tell this apart from a performance problem.
    surge_probability: float = 0.7
    surge_factor: tuple[float, float] = (1.2, 1.45)
    # Emit a memory KPI alongside CPU. Debug ("D") builds leak slightly:
    # memory drifts upward over the execution — a second resource with its
    # own failure signature, per §4.2's multi-resource claim.
    emit_memory: bool = False
    ar_range: tuple[float, float] = (0.15, 0.5)
    seed: int = 7

    def __post_init__(self) -> None:
        if self.n_chains < 1:
            raise ValueError("n_chains must be >= 1")
        if self.n_testbeds < 1:
            raise ValueError("n_testbeds must be >= 1")
        if self.builds_per_chain[0] < 2:
            raise ValueError("chains need at least 2 builds (history + current)")
        if self.builds_per_chain[0] > self.builds_per_chain[1]:
            raise ValueError("builds_per_chain range is inverted")
        if self.timesteps_per_build[0] < 40:
            raise ValueError("need at least 40 timesteps per build")
        if self.n_focus > self.n_chains:
            raise ValueError("n_focus cannot exceed n_chains")
        max_combos = self.n_testbeds * len(_SUT_NAMES) * len(_TESTCASE_NAMES)
        if self.n_chains > max_combos:
            raise ValueError(
                f"n_chains={self.n_chains} exceeds distinct (testbed, sut, testcase) combos ({max_combos})"
            )


@dataclass
class TelecomDataset:
    """The generated corpus of build chains."""

    chains: list[BuildChain]
    feature_names: list[str]
    config: TelecomConfig
    focus_indices: list[int] = field(default_factory=list)
    # Full Table 1 metadata per testbed id: the hardware/virtualization/
    # OS/application labels behind each Testbed_NN abstraction (§3.1).
    testbeds: dict[str, Testbed] = field(default_factory=dict)

    @property
    def n_chains(self) -> int:
        return len(self.chains)

    @property
    def focus_chains(self) -> list[BuildChain]:
        """Chains whose current build is a focus test execution (Table 5)."""
        return [self.chains[i] for i in self.focus_indices]

    def environments(self, include_current: bool = True) -> list[Environment]:
        """All distinct environments, ordered by first appearance."""
        seen: dict[Environment, None] = {}
        for chain in self.chains:
            executions = chain.executions if include_current else chain.history
            for execution in executions:
                seen.setdefault(execution.environment)
        return list(seen)

    def total_timesteps(self) -> int:
        return sum(chain.total_timesteps() for chain in self.chains)

    def total_ground_truth_problems(self) -> int:
        return sum(len(chain.current.impactful_faults) for chain in self.focus_chains)

    def history_training_series(self) -> list[tuple[Environment, np.ndarray, np.ndarray]]:
        """(environment, features, cpu) for every historical execution.

        This is the paper's training pool: current builds are held out.
        """
        out = []
        for chain in self.chains:
            for execution in chain.history:
                out.append((execution.environment, execution.features, execution.cpu))
        return out


def _stable_unit_vectors(names: list[str], dim: int, salt: str) -> dict[str, np.ndarray]:
    """Deterministic latent vector per name (independent of insertion order)."""
    latents = {}
    for name in names:
        digest = hashlib.sha256(f"{salt}:{name}".encode()).digest()
        rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
        latents[name] = rng.standard_normal(dim)
    return latents


class _ResponseModel:
    """Maps EM latents to a CPU response function's parameters."""

    def __init__(self, config: "TelecomConfig", rng: np.random.Generator):
        k = config.latent_dim
        self.latent_dim = k
        self.config = config
        # Driver vector has 6 entries (see _drivers): per-driver weights come
        # from a global bilinear map over the summed EM latents.
        self.driver_map = rng.standard_normal((6, 3 * k)) / np.sqrt(3 * k)
        self.base_testbed = rng.standard_normal(k) / np.sqrt(k)
        self.base_build = rng.standard_normal(k) / np.sqrt(k)
        self.nonlin_sut = rng.standard_normal(k) / np.sqrt(k)
        self.nonlin_testcase = rng.standard_normal(k) / np.sqrt(k)
        self.ar_testcase = rng.standard_normal(k) / np.sqrt(k)
        self.sat_sut = rng.standard_normal(k) / np.sqrt(k)
        self.sat_testbed = rng.standard_normal(k) / np.sqrt(k)

    def parameters(
        self,
        testbed_latent: np.ndarray,
        sut_latent: np.ndarray,
        testcase_latent: np.ndarray,
        build_latent: np.ndarray,
    ) -> dict[str, float | np.ndarray]:
        cfg = self.config
        config_build_effect = cfg.build_effect
        z = np.concatenate([testbed_latent, sut_latent, testcase_latent])
        weights = cfg.driver_weight_scale * (self.driver_map @ z)
        base = (
            45.0
            + cfg.base_spread * (self.base_testbed @ testbed_latent)
            + config_build_effect * (self.base_build @ build_latent)
        )
        nonlin = cfg.nonlin_scale / (
            1.0 + np.exp(-(self.nonlin_sut @ sut_latent + self.nonlin_testcase @ testcase_latent))
        )
        lo, hi = cfg.ar_range
        ar = lo + (hi - lo) / (1.0 + np.exp(-(self.ar_testcase @ testcase_latent)))
        # Saturation/threshold regime: extra CPU kicks in sharply once the
        # load driver crosses an environment-specific knee — the "complex
        # resource usage" linear models cannot extrapolate (§4.2.1).
        sat_scale = cfg.saturation_scale / (1.0 + np.exp(-(self.sat_sut @ sut_latent)))
        sat_knee = 0.55 + 0.25 / (1.0 + np.exp(-(self.sat_testbed @ testbed_latent)))
        return {
            "weights": weights,
            "base": float(base),
            "nonlin": float(nonlin),
            "ar": float(ar),
            "sat_scale": float(sat_scale),
            "sat_knee": float(sat_knee),
        }


def _workload_profile(
    testcase: str, n: int, rng: np.random.Generator, amplitude: float = 1.0
) -> np.ndarray:
    """Latent load level u_t in [0, 1], shaped by the test-case profile.

    ``amplitude`` scales the whole profile: test executions are driven at
    different intensities, so an individual chain's history may never
    visit the high-load regime its *current* build explores — while the
    pooled corpus (which Env2Vec trains on) does. This is the data-sharing
    advantage of §2's "natural groupings over the build chains".
    """
    profile = _PROFILES[int(hashlib.sha256(testcase.encode()).digest()[0]) % len(_PROFILES)]
    t = np.arange(n)
    if profile == "daily-curve":
        base = 0.5 + 0.35 * np.sin(2 * np.pi * t / 96.0 - 1.2)  # 96 x 15 min = 1 day
    elif profile == "constant":
        base = np.full(n, 0.55)
    elif profile == "ramp":
        base = 0.2 + 0.6 * t / max(n - 1, 1)
    else:  # burst
        base = np.full(n, 0.3)
        for start in rng.choice(n, size=max(1, n // 40), replace=False):
            base[start : start + int(rng.integers(4, 12))] += rng.uniform(0.3, 0.5)
    wander = np.cumsum(rng.normal(0, 0.01, n))
    shaped = base + 0.05 * rng.standard_normal(n) + wander - wander.mean()
    return np.clip(amplitude * shaped, 0.02, 1.05)


def _apply_benign_surges(
    u: np.ndarray, config: "TelecomConfig", rng: np.random.Generator
) -> np.ndarray:
    """Scale 1-2 windows of the load profile up: a legitimate traffic surge."""
    u = u.copy()
    for _ in range(int(rng.integers(1, 3))):
        length = int(rng.integers(6, 18))
        if len(u) <= length:
            continue
        start = int(rng.integers(0, len(u) - length))
        u[start : start + length] *= rng.uniform(*config.surge_factor)
    return np.clip(u, 0.02, 1.25)


def _contextual_features(u: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Realize Table 2-style WM/PM columns from the latent load u_t."""
    n = len(u)
    demand = 200.0 + 850.0 * u * rng.lognormal(0, 0.04, n)
    errors = rng.poisson(0.4 + 4.0 * u**2).astype(np.float64)
    columns = {
        "client_ue": np.round(40.0 + 220.0 * u + rng.normal(0, 5, n)).clip(1, None),
        "burst_period": rng.lognormal(1.0, 0.25, n),
        "demand_mbps": demand,
        "active_sessions": np.round(100.0 + 900.0 * u + rng.normal(0, 20, n)).clip(1, None),
        "packet_cnt_mod0": demand * 110.0 * rng.lognormal(0, 0.06, n),
        "packet_cnt_mod1": demand * 65.0 * rng.lognormal(0, 0.08, n),
        "success_ratio_mod0": np.clip(0.998 - 0.03 * u**2 + rng.normal(0, 0.002, n), 0.8, 1.0),
        "success_ratio_mod1": np.clip(0.995 - 0.05 * u**2 + rng.normal(0, 0.003, n), 0.8, 1.0),
        "response_code_50x": errors,
        "net_tx": demand * 0.12 * rng.lognormal(0, 0.05, n),
        "net_rx": demand * 0.10 * rng.lognormal(0, 0.05, n),
        "jitter_ms": np.clip(1.0 + 6.0 * u + rng.lognormal(0, 0.3, n), 0.1, None),
    }
    return np.stack([columns[name] for name in FEATURE_NAMES], axis=1)


def _drivers(u: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Normalized workload drivers the CPU response acts on (6 columns).

    All drivers are deterministic functions of the observable features, so
    a sufficiently expressive model can recover the response.
    """
    demand = features[:, FEATURE_NAMES.index("demand_mbps")] / 1000.0
    errors = features[:, FEATURE_NAMES.index("response_code_50x")] / 5.0
    success_drop = (1.0 - features[:, FEATURE_NAMES.index("success_ratio_mod1")]) * 50.0
    tx = features[:, FEATURE_NAMES.index("net_tx")] / 120.0
    jitter = features[:, FEATURE_NAMES.index("jitter_ms")] / 8.0
    return np.stack([demand, demand**2, errors, success_drop, tx, jitter], axis=1)


def _memory_series(
    u: np.ndarray,
    features: np.ndarray,
    params: dict,
    environment_build_type: str,
    noise_std: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Memory (%% of RAM): load-following with slow dynamics; debug builds leak."""
    drivers = _drivers(u, features)
    base = 0.6 * params["base"] + 10.0
    core = base + 0.5 * (drivers @ params["weights"])
    rho = min(0.95, params["ar"] + 0.3)  # memory moves slower than CPU
    mem = np.empty(len(u))
    mem[0] = core[0]
    noise = rng.normal(0, 0.5 * noise_std, len(u))
    for i in range(1, len(u)):
        mem[i] = rho * mem[i - 1] + (1.0 - rho) * core[i] + noise[i]
    if environment_build_type == "D":
        mem = mem + np.linspace(0.0, 6.0, len(u))  # slow leak
    return np.clip(mem, 2.0, 98.0)


def _cpu_series(
    u: np.ndarray,
    features: np.ndarray,
    params: dict,
    noise_std: float,
    rng: np.random.Generator,
) -> np.ndarray:
    drivers = _drivers(u, features)
    load = drivers[:, 0]
    core = (
        params["base"]
        + drivers @ params["weights"]
        + params["nonlin"] * load**2
        + params["sat_scale"] / (1.0 + np.exp(-12.0 * (load - params["sat_knee"])))
    )
    rho = params["ar"]
    cpu = np.empty(len(u))
    cpu[0] = core[0]
    noise = rng.normal(0, noise_std, len(u))
    for i in range(1, len(u)):
        cpu[i] = rho * cpu[i - 1] + (1.0 - rho) * core[i] + noise[i]
    return np.clip(cpu, 2.0, 98.0)


def generate_telecom(config: TelecomConfig | None = None) -> TelecomDataset:
    """Generate the full corpus of build chains."""
    config = config or TelecomConfig()
    rng = np.random.default_rng(config.seed)
    k = config.latent_dim

    testbed_names = [f"Testbed_{i:02d}" for i in range(1, config.n_testbeds + 1)]
    testbed_latents = _stable_unit_vectors(testbed_names, k, "testbed")
    sut_latents = _stable_unit_vectors(list(_SUT_NAMES), k, "sut")
    testcase_latents = _stable_unit_vectors(list(_TESTCASE_NAMES), k, "testcase")
    type_latents = _stable_unit_vectors(list(_BUILD_TYPES), k, "buildtype")
    response = _ResponseModel(config, rng)

    # Sample distinct (testbed, sut, testcase) chain identities.
    combos = [
        (tb, sut, tc)
        for tb in testbed_names
        for sut in _SUT_NAMES
        for tc in _TESTCASE_NAMES
    ]
    chosen = rng.choice(len(combos), size=config.n_chains, replace=False)
    chain_keys = [combos[i] for i in sorted(chosen)]

    build_latents: dict[str, np.ndarray] = {}

    def build_latent(name: str) -> np.ndarray:
        if name not in build_latents:
            build_type = name.removeprefix("Build_")[0]
            digest = hashlib.sha256(f"buildver:{name}".encode()).digest()
            version_rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
            build_latents[name] = type_latents[build_type] + 0.15 * version_rng.standard_normal(k)
        return build_latents[name]

    chains: list[BuildChain] = []
    for testbed, sut, testcase in chain_keys:
        n_builds = int(rng.integers(config.builds_per_chain[0], config.builds_per_chain[1] + 1))
        build_type = rng.choice(_BUILD_TYPES, p=_BUILD_TYPE_WEIGHTS)
        first_version = int(rng.integers(1, 12))
        executions = []
        for b in range(n_builds):
            build_name = f"Build_{build_type}{first_version + b:02d}"
            env = Environment(testbed=testbed, sut=sut, testcase=testcase, build=build_name)
            n_steps = int(rng.integers(config.timesteps_per_build[0], config.timesteps_per_build[1] + 1))
            amplitude = float(rng.uniform(*config.amplitude_range))
            u = _workload_profile(testcase, n_steps, rng, amplitude)
            if b == n_builds - 1 and rng.random() < config.surge_probability:
                u = _apply_benign_surges(u, config, rng)
            features = _contextual_features(u, rng)
            params = response.parameters(
                testbed_latents[testbed],
                sut_latents[sut],
                testcase_latents[testcase],
                build_latent(build_name),
            )
            cpu = _cpu_series(u, features, params, config.noise_std, rng)
            extra = {}
            if config.emit_memory:
                extra["memory"] = _memory_series(
                    u, features, params, env.build_type, config.noise_std, rng
                )
            executions.append(
                TestExecution(
                    environment=env, features=features, cpu=cpu, extra_kpis=extra
                )
            )
        chains.append(BuildChain(executions=executions))

    # Optionally replace one chain with the Table 7 pathology: a testbed
    # seen nowhere else, whose single historical execution is tiny.
    rare_index: int | None = None
    if config.include_rare_testbed:
        rare_index = len(chains) - 1
        donor = chains[rare_index]
        testbed = "Testbed_rare"
        rare_latent = _stable_unit_vectors([testbed], k, "testbed")[testbed]
        _, sut, testcase = donor.key
        build_type = donor.builds[0].removeprefix("Build_")[0]
        executions = []
        for b, n_steps in enumerate((config.rare_history_timesteps, config.timesteps_per_build[0])):
            build_name = f"Build_{build_type}{50 + b:02d}"
            env = Environment(testbed=testbed, sut=sut, testcase=testcase, build=build_name)
            amplitude = float(rng.uniform(*config.amplitude_range))
            u = _workload_profile(testcase, n_steps, rng, amplitude)
            features = _contextual_features(u, rng)
            params = response.parameters(
                rare_latent,
                sut_latents[sut],
                testcase_latents[testcase],
                build_latent(build_name),
            )
            cpu = _cpu_series(u, features, params, config.noise_std, rng)
            extra = {}
            if config.emit_memory:
                extra["memory"] = _memory_series(
                    u, features, params, env.build_type, config.noise_std, rng
                )
            executions.append(
                TestExecution(
                    environment=env, features=features, cpu=cpu, extra_kpis=extra
                )
            )
        chains[rare_index] = BuildChain(executions=executions)

    # Choose the focus executions (the paper's 11) and inject faults into
    # their current builds. The rare chain, when present, is always a focus
    # case so Table 7's under-performing execution exists.
    candidates = [i for i in range(len(chains)) if i != rare_index]
    n_random_focus = config.n_focus - (1 if rare_index is not None else 0)
    focus = sorted(rng.choice(candidates, size=n_random_focus, replace=False).tolist())
    if rare_index is not None:
        focus.append(rare_index)
    for index in focus:
        current = chains[index].current
        n_impactful = int(rng.integers(*config.impactful_per_focus))
        n_harmless = int(rng.integers(*config.harmless_per_focus))
        cpu, faults = inject_faults(
            current.cpu,
            rng,
            n_impactful=n_impactful,
            n_harmless=n_harmless,
            magnitude_range=config.fault_magnitude,
        )
        current.cpu = cpu
        current.faults = faults

    # Materialize the full Table 1 metadata for every testbed that appears.
    testbed_rng = np.random.default_rng(config.seed + 1)
    testbeds = {
        name: random_testbed(name, testbed_rng)
        for name in sorted({chain.key[0] for chain in chains})
    }

    return TelecomDataset(
        chains=chains,
        feature_names=list(FEATURE_NAMES),
        config=config,
        focus_indices=focus,
        testbeds=testbeds,
    )


@dataclass
class ChainedTelecomConfig(TelecomConfig):
    """Knobs for chained-VNF (service chain) workload generation.

    Extends the independent-chain simulator: build chains are grouped
    into service chains of ``chain_length`` members, and each downstream
    member's CPU series is coupled to its upstream neighbor's. The
    coupling is *placement-dependent*: remote hops receive the upstream
    load delayed and damped (queueing/buffering between hosts), while
    co-located hops contend for the same CPUs with no delay. Upstream
    fault deltas therefore bleed downstream **without** downstream
    ground-truth labels — the confound that makes chained topologies a
    harder detection problem than independent ones.
    """

    chain_length: tuple[int, int] = (2, 4)
    colocation_probability: float = 0.35
    delay_range: tuple[int, int] = (1, 4)
    damping_range: tuple[float, float] = (0.55, 0.9)
    queue_gain: float = 0.4
    colocation_coupling: float = 0.3
    latency_gain: float = 0.35

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.chain_length[0] < 2:
            raise ValueError("service chains need at least 2 members")
        if self.chain_length[0] > self.chain_length[1]:
            raise ValueError("chain_length range is inverted")
        if not 0.0 <= self.colocation_probability <= 1.0:
            raise ValueError("colocation_probability must be in [0, 1]")
        if not 1 <= self.delay_range[0] <= self.delay_range[1]:
            raise ValueError("delay_range must satisfy 1 <= lo <= hi")
        if not 0.0 < self.damping_range[0] <= self.damping_range[1] <= 1.0:
            raise ValueError("damping_range must lie in (0, 1]")
        if self.queue_gain < 0 or self.colocation_coupling < 0 or self.latency_gain < 0:
            raise ValueError("coupling gains must be >= 0")


@dataclass
class ChainedTelecomDataset(TelecomDataset):
    """A telecom corpus whose build chains form coupled service chains."""

    topologies: list[ServiceChainTopology] = field(default_factory=list)


def _propagated_load(upstream: np.ndarray, n: int, delay: int) -> np.ndarray:
    """Upstream series as seen ``delay`` steps later, trimmed/held to ``n``."""
    if delay > 0:
        upstream = np.concatenate([np.full(delay, upstream[0]), upstream[:-delay]])
    if len(upstream) >= n:
        return upstream[:n]
    return np.concatenate([upstream, np.full(n - len(upstream), upstream[-1])])


def _couple_downstream(
    down: TestExecution,
    up: TestExecution,
    placement: VNFPlacement,
    config: ChainedTelecomConfig,
) -> None:
    """Mix the upstream member's load into a downstream execution in place.

    The coupling signal is the upstream *CPU deviation from its mean*, so
    upstream fault spikes (which live in CPU, not in the workload
    features) propagate downstream as unlabeled CPU excursions.
    """
    n = down.n_timesteps
    propagated = _propagated_load(up.cpu, n, placement.delay)
    deviation = propagated - propagated.mean()
    gain = config.colocation_coupling if placement.colocated else config.queue_gain
    down.cpu = np.clip(down.cpu + placement.damping * gain * deviation, 2.0, 98.0)
    # Placement-dependent latency: jitter grows with upstream load, more
    # per queueing hop — observable, so context-aware models can adapt.
    jitter_col = FEATURE_NAMES.index("jitter_ms")
    hops = 1 + placement.delay
    jitter_shift = config.latency_gain * hops * np.clip(deviation / 20.0, -1.0, None)
    down.features[:, jitter_col] = np.clip(
        down.features[:, jitter_col] * (1.0 + np.maximum(jitter_shift, 0.0)), 0.1, None
    )


def generate_chained_telecom(config: ChainedTelecomConfig | None = None) -> ChainedTelecomDataset:
    """Generate a corpus whose build chains are wired into service chains.

    Starts from the independent corpus of :func:`generate_telecom` (same
    seed → identical marginals), then groups build chains into service
    chains and rewrites every downstream execution with its upstream
    coupling, position by position, so load (and fault) deltas compound
    along the chain. The rare-testbed chain, when present, stays
    independent — its Table 7 pathology must not be confounded.
    """
    config = config or ChainedTelecomConfig()
    base = generate_telecom(config)
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0x5EC]))

    rare_index = len(base.chains) - 1 if config.include_rare_testbed else None
    eligible = [i for i in range(len(base.chains)) if i != rare_index]
    order = [eligible[i] for i in rng.permutation(len(eligible))]

    topologies: list[ServiceChainTopology] = []
    cursor = 0
    while len(order) - cursor >= config.chain_length[0]:
        length = int(rng.integers(config.chain_length[0], config.chain_length[1] + 1))
        length = min(length, len(order) - cursor)
        members = tuple(order[cursor : cursor + length])
        cursor += length
        placements = [
            VNFPlacement(position=0, testbed=base.chains[members[0]].key[0])
        ]
        for position in range(1, length):
            colocated = bool(rng.random() < config.colocation_probability)
            placements.append(
                VNFPlacement(
                    position=position,
                    testbed=base.chains[members[position]].key[0],
                    colocated=colocated,
                    delay=0 if colocated else int(rng.integers(*config.delay_range)),
                    damping=float(rng.uniform(*config.damping_range)),
                )
            )
        topologies.append(
            ServiceChainTopology(
                name=f"service_chain_{len(topologies):03d}",
                members=members,
                placements=tuple(placements),
            )
        )

    for topology in topologies:
        for position in range(1, len(topology)):
            up_chain = base.chains[topology.members[position - 1]]
            down_chain = base.chains[topology.members[position]]
            placement = topology.placements[position]
            # Pair executions from the most recent backwards so the
            # current builds (the detection targets) are always coupled.
            n_pairs = min(len(up_chain), len(down_chain))
            for offset in range(1, n_pairs + 1):
                _couple_downstream(
                    down_chain.executions[-offset],
                    up_chain.executions[-offset],
                    placement,
                    config,
                )

    return ChainedTelecomDataset(
        chains=base.chains,
        feature_names=base.feature_names,
        config=config,
        focus_indices=base.focus_indices,
        testbeds=base.testbeds,
        topologies=topologies,
    )
