"""Corpus statistics: EM coverage and balance diagnostics.

§6 recommends "test case executions by testing engineers to be as balanced
as possible, especially in terms of the underlying testbeds", because EM
values with thin coverage get poorly trained embeddings (Table 7). This
module computes the statistics an engineer would check before trusting a
trained model: per-field value coverage (executions and timesteps), the
corpus totals, and a balance score.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .environment import EM_FIELDS
from .telecom import TelecomDataset

__all__ = ["FieldCoverage", "CorpusStats", "corpus_stats"]


@dataclass
class FieldCoverage:
    """Coverage of one EM field's values across the training pool."""

    field: str
    executions: dict[str, int]
    timesteps: dict[str, int]

    @property
    def n_values(self) -> int:
        return len(self.executions)

    def thinnest(self, k: int = 3) -> list[tuple[str, int]]:
        """The k values with the fewest training timesteps."""
        return sorted(self.timesteps.items(), key=lambda item: item[1])[:k]

    def balance(self) -> float:
        """Normalized entropy of the timestep distribution in [0, 1].

        1.0 means perfectly balanced coverage; values near 0 mean a few EM
        values dominate (the §6 warning sign).
        """
        counts = np.array(list(self.timesteps.values()), dtype=np.float64)
        if len(counts) <= 1:
            return 1.0
        p = counts / counts.sum()
        entropy = -(p * np.log(p)).sum()
        return float(entropy / np.log(len(counts)))


@dataclass
class CorpusStats:
    """Corpus-wide totals plus per-field coverage."""

    n_chains: int
    n_environments: int
    n_executions: int
    n_timesteps: int
    n_problem_executions: int
    fields: dict[str, FieldCoverage]

    def table(self) -> str:
        lines = [
            "Corpus statistics",
            f"  chains={self.n_chains}  environments={self.n_environments}  "
            f"executions={self.n_executions}  timesteps={self.n_timesteps:,}  "
            f"problem executions={self.n_problem_executions}",
        ]
        for field in EM_FIELDS:
            coverage = self.fields[field]
            thinnest = ", ".join(f"{v}({n})" for v, n in coverage.thinnest(2))
            lines.append(
                f"  {field:<9} values={coverage.n_values:<4} "
                f"balance={coverage.balance():.2f}  thinnest: {thinnest}"
            )
        return "\n".join(lines)


def corpus_stats(dataset: TelecomDataset) -> CorpusStats:
    """Compute coverage statistics over a corpus's training pool.

    Only historical executions count — the paper's training pool; the
    current builds under test are left out.
    """
    executions = []
    for chain in dataset.chains:
        executions.extend(chain.history)
    if not executions:
        raise ValueError("corpus has no executions to analyse")

    fields: dict[str, FieldCoverage] = {}
    for field in EM_FIELDS:
        execution_counts: Counter[str] = Counter()
        timestep_counts: Counter[str] = Counter()
        for execution in executions:
            value = getattr(execution.environment, field)
            execution_counts[value] += 1
            timestep_counts[value] += execution.n_timesteps
        fields[field] = FieldCoverage(
            field=field,
            executions=dict(execution_counts),
            timesteps=dict(timestep_counts),
        )
    return CorpusStats(
        n_chains=dataset.n_chains,
        n_environments=len({e.environment for e in executions}),
        n_executions=len(executions),
        n_timesteps=sum(e.n_timesteps for e in executions),
        n_problem_executions=sum(1 for e in executions if e.has_performance_problem),
        fields=fields,
    )
