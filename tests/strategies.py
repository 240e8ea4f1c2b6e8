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

from repro.core.anomaly import GaussianErrorModel
from repro.data import Environment, TestExecution

__all__ = [
    "CHUNK_BOUNDARY_TOTALS",
    "DERANDOMIZED",
    "ID_MATRIX_ROWS",
    "MAX_BATCH",
    "MAX_BATCH_SIZES",
    "detection_rows",
    "environment_pool",
    "execution_batches",
    "environment_runs",
    "id_matrices",
    "out_of_range_ids",
    "scoring_rows",
    "window_series",
]

#: Window totals around the compiled forward's 1024-row chunk.
CHUNK_BOUNDARY_TOTALS = (1, 1023, 1024, 1025, 2049)

#: Id-matrix row counts: one row, and either side of the compiled
#: forward's 1024-row chunk.
ID_MATRIX_ROWS = (1, 1023, 1024, 1025)

#: The serve micro-batch bound the e2e benchmark runs at, and batch
#: sizes at its boundaries: one row, one short, exactly full, one over.
MAX_BATCH = 64
MAX_BATCH_SIZES = (1, MAX_BATCH - 1, MAX_BATCH, MAX_BATCH + 1)

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
def id_matrices(draw, sizes: tuple[int, ...], rows: tuple[int, ...] = ID_MATRIX_ROWS) -> np.ndarray:
    """An ``(n, len(sizes))`` int64 environment-id matrix, field ``j``'s
    ids in ``[0, sizes[j])`` and ``sizes[j] - 1`` its ``<unk>`` id.

    Rows come in runs of a few distinct environments, as a batch of
    executions repeats each one over its windows: known environments,
    fully ``<unk>`` rows, and mixed rows with some fields ``<unk>``.
    """
    n = draw(st.sampled_from(rows))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes_array = np.array(sizes)
    known = rng.integers(0, np.maximum(sizes_array - 1, 1), (4, len(sizes)))
    unknown = sizes_array - 1
    mixed = np.where(rng.random((2, len(sizes))) < 0.5, unknown, known[:2])
    distinct = np.vstack([known, unknown[None, :], mixed])
    runs = rng.integers(0, len(distinct), max(1, n // 64 + 1))
    return np.repeat(distinct[runs], -(-n // len(runs)), axis=0)[:n].astype(np.int64)


@st.composite
def out_of_range_ids(draw, sizes: tuple[int, ...]) -> np.ndarray:
    """A small valid id matrix with one id out of its field's range:
    negative, or at or past the end, where an unchecked gather over the
    tables stacked row-wise would read the next field's rows."""
    ids = draw(id_matrices(sizes, rows=(1, 2, 5)))
    row = draw(st.integers(0, len(ids) - 1))
    field = draw(st.integers(0, len(sizes) - 1))
    size = sizes[field]
    ids[row, field] = draw(st.integers(-size - 3, -1) | st.integers(size, size + 3))
    return ids


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


@st.composite
def scoring_rows(
    draw,
    pool: list[Environment],
    *,
    n_features: int,
    n_lags: int,
    sizes: tuple[int, ...] = MAX_BATCH_SIZES,
    mixed_widths: bool = False,
) -> list[tuple[TestExecution, GaussianErrorModel | None]]:
    """``(execution, error_model)`` rows, as the serve layer scores them.

    The row count comes from ``sizes``. Each execution has 2–12 windows,
    features drawn as float64, float32 or small ints (``TestExecution``
    stores float64 either way), sometimes a constant CPU series, an
    environment from ``pool`` (own object or equal copy) and either no
    error model (self-calibrated) or a
    Gaussian one. With ``mixed_widths``, some batches have rows with a
    feature count other than ``n_features``, which a model cannot
    consume.
    """
    n_rows = draw(st.sampled_from(sizes))
    mixed_widths = mixed_widths and draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(n_rows):
        steps = n_lags + int(rng.integers(2, 13))
        width = n_features
        if mixed_widths and rng.random() < 0.2:
            width = int(rng.choice([1, n_features - 1, n_features + 2]))
        features = _features(rng, steps, width)
        environment = pool[int(rng.integers(len(pool)))]
        if rng.random() < 0.5:
            environment = _copy(environment)
        error_model = None
        if rng.random() < 0.5:
            error_model = GaussianErrorModel(
                mu=float(rng.normal(0.0, 2.0)), sigma=float(rng.uniform(0.5, 8.0))
            )
        if rng.random() < 0.2:
            cpu = np.full(steps, rng.uniform(10.0, 90.0))
        else:
            cpu = rng.uniform(10.0, 90.0, steps)
        execution = TestExecution(environment=environment, features=features, cpu=cpu)
        rows.append((execution, error_model))
    return rows


def _features(rng: np.random.Generator, steps: int, width: int) -> np.ndarray:
    """A feature block as float64, float32 or small ints."""
    kind = rng.integers(3)
    if kind == 0:
        return rng.standard_normal((steps, width))
    if kind == 1:
        return rng.standard_normal((steps, width)).astype(np.float32)
    return rng.integers(-3, 4, (steps, width))


@st.composite
def window_series(draw, *, max_lags: int = 6) -> tuple[list[tuple], int]:
    """``(series, n_lags)``: ``(features, target)`` pairs to window.

    One series, a few, or a serve micro-batch's worth; every series has
    ``n_lags + 1`` timesteps (exactly one window) or more, and all share
    one feature width, which varies between examples. Features come as
    float64, float32 or small ints, and a target is sometimes constant
    or a plain list.
    """
    n_lags = draw(st.integers(1, max_lags))
    n_series = draw(st.sampled_from((1, 2, 5, *MAX_BATCH_SIZES[1:])))
    width = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    series = []
    for _ in range(n_series):
        steps = n_lags + 1 + int(rng.integers(0, 12) if rng.random() < 0.8 else 0)
        kind = rng.integers(3)
        if kind == 0:
            target = np.full(steps, rng.uniform(10.0, 90.0))
        elif kind == 1:
            target = rng.uniform(10.0, 90.0, steps).tolist()
        else:
            target = rng.uniform(10.0, 90.0, steps)
        series.append((_features(rng, steps, width), target))
    return series, n_lags


#: Row shapes :func:`detection_rows` draws, one per row.
DETECTION_PATTERNS = ("clear", "all_flagged", "first_step", "last_step", "noisy")


@st.composite
def detection_rows(
    draw, *, max_rows: int = MAX_BATCH + 1, self_calibrated: bool = False
) -> list[tuple]:
    """``(predicted, observed, error_model, pattern)`` rows for the detector.

    Rows fall into a few length groups (so grouped detection stacks
    several rows at once) and follow one of :data:`DETECTION_PATTERNS`:
    predictions equal to the observations (nothing flagged), every step
    far off under a tight Gaussian model, a spike on the first or the
    last step, or plain noise. About half the rows are self-calibrated
    (``error_model=None``); rows with fewer than two steps always carry
    a Gaussian model, since self-calibration needs two samples. With
    ``self_calibrated``, the served batch's shape: every row has the same
    length, at least two steps, and no error model.
    """
    n_rows = draw(st.integers(1, max_rows))
    if self_calibrated:
        lengths = [draw(st.integers(2, 9))]
    else:
        lengths = draw(st.lists(st.integers(0, 9), min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(n_rows):
        steps = lengths[int(rng.integers(len(lengths)))]
        pattern = DETECTION_PATTERNS[int(rng.integers(len(DETECTION_PATTERNS)))]
        observed = rng.uniform(10.0, 90.0, steps)
        error_model = None
        if not self_calibrated and (steps < 2 or pattern == "all_flagged" or rng.random() < 0.5):
            error_model = GaussianErrorModel(
                mu=float(rng.normal(0.0, 1.0)), sigma=float(rng.uniform(0.5, 3.0))
            )
        if pattern == "clear":
            predicted = observed.copy()
        elif pattern == "all_flagged":
            predicted = observed + rng.choice([-1.0, 1.0], steps) * rng.uniform(40.0, 60.0, steps)
        else:
            predicted = observed + rng.normal(0.0, 1.0 if pattern != "noisy" else 8.0, steps)
            if steps and pattern == "first_step":
                predicted[0] += 50.0
            elif steps and pattern == "last_step":
                predicted[-1] -= 50.0
        rows.append((predicted, observed, error_model, pattern))
    return rows

