"""Detector-vs-topology experiment: the encoder zoo on coupled workloads.

The paper evaluates detection on *independent* build chains (§4.2). In
production, VNFs are deployed as service chains — upstream load propagates
downstream with placement-dependent delay and CPU coupling, so a member's
resource series is no longer explained by its own workload alone, and
upstream fault deltas bleed downstream without ground-truth labels.

:func:`run_encoder_topology_table` re-runs the §4.2.2 alarm protocol for
every registered sequence encoder over both topologies: the same pooled
training, the same :class:`~repro.core.anomaly.ContextualAnomalyDetector`,
only the corpus (independent vs. :func:`~repro.data.generate_chained_telecom`)
and the time-series branch vary. The output is the detector-vs-topology F1
table reported in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.anomaly import AlarmScore
from ..data.telecom import (
    ChainedTelecomConfig,
    TelecomConfig,
    TelecomDataset,
    generate_chained_telecom,
    generate_telecom,
)
from .telecom_experiments import DEFAULT_N_LAGS, _detect_with_model, train_env2vec_telecom

__all__ = [
    "ENCODER_ZOO",
    "TopologyRow",
    "TopologyComparisonResult",
    "run_encoder_topology_table",
]

#: Encoders compared by the topology experiment (the ISSUE's zoo; the
#: registry may hold more — pass ``encoders=available_encoders()`` for all).
ENCODER_ZOO = ("gru", "lstm", "stacked", "bidirectional", "attention")


@dataclass(frozen=True)
class TopologyRow:
    """One (encoder, topology) cell of the comparison."""

    encoder: str
    topology: str  # "independent" or "chained"
    f1: float
    precision: float  # A_T, the true-alarm rate
    recall: float  # fraction of ground-truth problems hit by an alarm
    n_alarms: int
    problems_detected: int
    total_problems: int


@dataclass
class TopologyComparisonResult:
    """All rows of the detector-vs-topology grid plus run parameters."""

    rows: list[TopologyRow]
    gamma: float
    n_lags: int
    seed: int

    def row(self, encoder: str, topology: str) -> TopologyRow:
        for row in self.rows:
            if row.encoder == encoder and row.topology == topology:
                return row
        raise KeyError(f"no row for encoder={encoder!r} topology={topology!r}")

    def table(self) -> str:
        """The grid as a GitHub-markdown table (encoder rows, topology columns)."""
        encoders = sorted({row.encoder for row in self.rows}, key=self._zoo_order)
        lines = [
            "| encoder | independent F1 | chained F1 | ΔF1 | chained A_T | chained recall |",
            "|---|---|---|---|---|---|",
        ]
        for encoder in encoders:
            independent = self.row(encoder, "independent")
            chained = self.row(encoder, "chained")
            lines.append(
                f"| {encoder} | {independent.f1:.3f} | {chained.f1:.3f} "
                f"| {independent.f1 - chained.f1:+.3f} "
                f"| {chained.precision:.3f} | {chained.recall:.3f} |"
            )
        return "\n".join(lines)

    @staticmethod
    def _zoo_order(name: str) -> tuple[int, str]:
        try:
            return (ENCODER_ZOO.index(name), name)
        except ValueError:
            return (len(ENCODER_ZOO), name)


def _score_dataset(
    dataset: TelecomDataset,
    encoder: str,
    n_lags: int,
    gamma: float,
    fast: bool,
    seed: int,
    **params,
) -> AlarmScore:
    """Train one encoder variant on the pooled history, score focus chains."""
    model = train_env2vec_telecom(
        dataset, n_lags=n_lags, fast=fast, seed=seed, encoder=encoder, **params
    )
    scores = [
        _detect_with_model(model, chain, n_lags, gamma, self_calibrated=False)
        for chain in dataset.focus_chains
    ]
    return sum(scores, AlarmScore(0, 0))


def run_encoder_topology_table(
    independent: TelecomDataset | None = None,
    chained: TelecomDataset | None = None,
    encoders: tuple[str, ...] = ENCODER_ZOO,
    n_lags: int = DEFAULT_N_LAGS,
    gamma: float = 2.0,
    fast: bool = True,
    seed: int = 0,
    **params,
) -> TopologyComparisonResult:
    """F1 per (encoder, topology) over independent and chained corpora.

    When datasets are not supplied, paper-scale defaults are generated
    with matching seeds so the two topologies share every marginal
    except the service-chain coupling. Extra keyword arguments reach
    :class:`~repro.core.model.Env2VecRegressor` (e.g. ``gru_hidden=8``).
    """
    independent = independent if independent is not None else generate_telecom(TelecomConfig())
    chained = (
        chained if chained is not None else generate_chained_telecom(ChainedTelecomConfig())
    )
    rows: list[TopologyRow] = []
    for encoder in encoders:
        for topology, dataset in (("independent", independent), ("chained", chained)):
            score = _score_dataset(dataset, encoder, n_lags, gamma, fast, seed, **params)
            recall = (
                score.problems_detected / score.total_problems if score.total_problems else 0.0
            )
            rows.append(
                TopologyRow(
                    encoder=encoder,
                    topology=topology,
                    f1=score.f1,
                    precision=score.true_alarm_rate,
                    recall=recall,
                    n_alarms=score.n_alarms,
                    problems_detected=score.problems_detected,
                    total_problems=score.total_problems,
                )
            )
    return TopologyComparisonResult(rows=rows, gamma=gamma, n_lags=n_lags, seed=seed)
