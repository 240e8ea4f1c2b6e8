"""Locks the curated public import surface of the workflow and obs packages.

``__all__`` is the contract: every listed name must resolve, and the set
itself must not drift silently — adding or removing a public name should
require touching this test, which is the point.
"""

import repro.obs
import repro.resilience
import repro.serve
import repro.workflow

WORKFLOW_API = {
    # TSDB
    "TimeSeriesDB", "Series", "SeriesNotFound", "AmbiguousSeries",
    # discovery + collection
    "ServiceDiscovery", "EMRegistry", "MetricCollector", "RU_METRIC",
    "SAMPLE_INTERVAL_SECONDS",
    # stores
    "AlarmStore", "AlarmRecord", "ModelStore", "ModelVersion",
    "CorruptModelError",
    # orchestration
    "TestingCampaign", "DayReport",
    # checkpointing
    "CampaignState", "save_checkpoint", "load_latest_checkpoint",
    "checkpoint_days",
    # promql
    "promql_query", "parse_promql", "PromQLError", "InstantSample",
    "HistogramQuantile",
    # reporting
    "execution_report", "campaign_summary", "observability_summary", "sparkline",
    # drift
    "DriftMonitor", "PageHinkley", "DriftDecision",
    # pipelines
    "TrainingPipeline", "TrainingResult", "PredictionPipeline", "PredictBatch",
    "PipelineRun", "SkippedExecution", "build_prediction_frame",
}

SERVE_API = {
    # service + facade
    "Env2VecService", "ServeClient", "ServeConfig",
    # request/response types
    "PredictRequest", "PredictResponse", "ScrapeRequest", "ScrapeResponse",
    "ServiceOverloaded",
    # health / supervision surface
    "HealthReport", "WorkerState",
    # load generation
    "LoadProfile", "LoadReport", "arrival_offsets", "run_load",
}

RESILIENCE_API = {
    # failure taxonomy
    "ResilienceError", "TransientError", "TransientTSDBError",
    "ExecutionQuarantined", "CircuitOpen",
    "DeadlineExceeded", "RetryExhausted",
    # policies
    "Clock", "SimulatedClock", "Retry",
    "CircuitBreaker", "BREAKER_CLOSED", "BREAKER_OPEN", "BREAKER_HALF_OPEN",
    # chaos
    "ChaosProfile", "FlakyTSDB",
    # quarantine
    "DeadLetterRecord", "DeadLetterStore",
}

OBS_API = {
    "Observability", "get_observability",
    "MetricsRegistry", "Counter", "Gauge", "Histogram", "HistogramTimer",
    "MetricSample",
    "DEFAULT_BUCKETS", "LATENCY_BUCKETS",
    "Span", "SpanTracker", "span",
    "render_prometheus", "TSDBExporter",
}


def _check_surface(module, expected):
    declared = set(module.__all__)
    assert declared == expected, (
        f"{module.__name__}.__all__ drifted: "
        f"missing {sorted(expected - declared)}, extra {sorted(declared - expected)}"
    )
    for name in sorted(declared):
        assert getattr(module, name, None) is not None, (
            f"{module.__name__}.__all__ lists {name!r} but it does not resolve"
        )
    assert len(module.__all__) == len(declared), "duplicate names in __all__"


def test_workflow_public_api():
    _check_surface(repro.workflow, WORKFLOW_API)


def test_obs_public_api():
    _check_surface(repro.obs, OBS_API)


def test_resilience_public_api():
    _check_surface(repro.resilience, RESILIENCE_API)


def test_serve_public_api():
    _check_surface(repro.serve, SERVE_API)


def test_serve_internal_stays_private():
    """Nothing from serve._internal may leak into the public surface."""
    for name in repro.serve.__all__:
        obj = getattr(repro.serve, name)
        module = getattr(obj, "__module__", "")
        assert "._internal" not in module, (
            f"repro.serve.{name} resolves to private module {module}"
        )


def test_parallel_importable_first():
    """repro.serve must load cleanly as the *first* repro import.

    The serve layer imports the workflow; an import cycle between them
    would only surface for one load order, so probe serve-first in a
    fresh interpreter.
    """
    import subprocess
    import sys

    probe = "import repro.serve; import repro.workflow"
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


def test_resilience_does_not_import_workflow_at_module_level():
    """The workflow imports resilience; the reverse edge would be a cycle."""
    import subprocess
    import sys

    probe = (
        "import sys; import repro.resilience; "
        "bad = [m for m in sys.modules if m.startswith('repro.workflow')]; "
        "assert not bad, f'repro.resilience eagerly imported {bad}'"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


def test_obs_does_not_import_workflow_at_module_level():
    """The obs package must stay importable before/without the workflow.

    tsdb imports obs for self-instrumentation; the reverse edge is only
    allowed lazily (inside TSDBExporter.__init__), otherwise the import
    cycle would be load-order dependent.
    """
    import subprocess
    import sys

    probe = (
        "import sys; import repro.obs; "
        "bad = [m for m in sys.modules if m.startswith('repro.workflow')]; "
        "assert not bad, f'repro.obs eagerly imported {bad}'"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
