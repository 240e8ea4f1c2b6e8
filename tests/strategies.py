"""Shared hypothesis strategies for hostile scoring inputs.

Every cross-path equivalence in this repo (coalesced = per-execution,
batched = chunked, encoded-once = encoded-per-window) has the same shape:
generate a batch of executions, score it two ways, compare bytes. These
strategies generate the batches. They lean on the inputs that break such
contracts: window totals on either side of a chunk boundary, environments
the vocabulary has never seen (whole or field by field), runs that repeat
or alternate one environment, and equal environments that are distinct
objects.

:data:`DERANDOMIZED` is the profile these properties run under: a fixed
example budget and a fixed example sequence, so tier-1 time is bounded
and a failure reproduces on every run.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from repro.data import Environment, TestExecution

__all__ = [
    "CHUNK_BOUNDARY_TOTALS",
    "DERANDOMIZED",
    "environment_pool",
    "execution_batches",
    "environment_runs",
]

#: Window totals around the compiled forward's 1024-row chunk.
CHUNK_BOUNDARY_TOTALS = (1, 1023, 1024, 1025, 2049)

DERANDOMIZED = settings(
    derandomize=True,
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def environment_pool(known: list[Environment]) -> list[Environment]:
    """Known environments, one fully unseen (``<unk>`` in every field),
    and one mix-and-match (every field seen, never together)."""
    first, last = known[0], known[-1]
    unseen = Environment("unseen-tb", "unseen-sut", "unseen-tc", "unseen-build")
    mixed = Environment(first.testbed, last.sut, first.testcase, last.build)
    return [*known, unseen, mixed]


def _copy(environment: Environment) -> Environment:
    """An equal environment that is a distinct object."""
    return Environment(*environment.as_tuple())


@st.composite
def environment_runs(draw, pool: list[Environment], max_runs: int = 6) -> list[Environment]:
    """A per-row environment list: runs of one object, alternations
    (A, B, A), and equal-but-distinct copies, drawn from ``pool``."""
    runs = draw(
        st.lists(
            st.tuples(st.integers(0, len(pool) - 1), st.integers(1, 6), st.booleans()),
            max_size=max_runs,
        )
    )
    environments: list[Environment] = []
    for index, length, copied in runs:
        environment = _copy(pool[index]) if copied else pool[index]
        environments.extend([environment] * length)
    return environments


@st.composite
def execution_batches(
    draw,
    pool: list[Environment],
    *,
    total: int,
    n_features: int,
    n_lags: int,
    max_executions: int = 6,
) -> list[TestExecution]:
    """Executions whose window counts add up to ``total``.

    Each execution draws its environment from ``pool`` (so neighbours
    repeat or alternate), as the pool's own object or an equal copy; some
    executions have a constant CPU series. Arrays come from a numpy
    generator seeded by the draw, so examples stay small to shrink.
    """
    n_executions = draw(st.integers(1, min(max_executions, total)))
    cuts = draw(
        st.lists(
            st.integers(1, total - 1),
            min_size=n_executions - 1,
            max_size=n_executions - 1,
            unique=True,
        )
        if n_executions > 1
        else st.just([])
    )
    counts = np.diff([0, *sorted(cuts), total])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    executions = []
    for windows in counts:
        index = draw(st.integers(0, len(pool) - 1))
        environment = _copy(pool[index]) if draw(st.booleans()) else pool[index]
        steps = int(windows) + n_lags
        if draw(st.booleans()):
            cpu = np.full(steps, rng.uniform(10.0, 90.0))
        else:
            cpu = rng.uniform(10.0, 90.0, steps)
        executions.append(
            TestExecution(
                environment=environment,
                features=rng.standard_normal((steps, n_features)),
                cpu=cpu,
            )
        )
    return executions
