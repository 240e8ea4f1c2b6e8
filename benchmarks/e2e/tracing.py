"""Outside-in layer tracing for the end-to-end benchmark.

The benchmark times each layer by wrapping the layer's public callables
from here, at the name the caller looks up at call time: module-level
functions in the module that calls them (``build_windows`` in
``repro.workflow.prediction_pipeline``), methods on their class, and,
for the serve path, attributes of the one service instance under test.
Every patch is undone when tracing stops, so untraced phases run the
program unmodified. Nothing is imported from ``repro.serve._internal``.

Spans are kept in memory (name, start, end, parent, trace id) and
written out by :meth:`Tracer.dump`. Synchronous spans nest on one stack
owned by the thread that installed the tracer; a span's *self* time is
its duration minus the time its child spans cover, so the self times of
all spans plus the untraced remainder add up to the traced wall time.
``supervisor.score`` is awaited, so it is not a stack span: other
requests run on the loop while it waits. It is timed on its own and
shows up as the ``score`` stage of the requests it carried.

Per-request serve stages come from linking each request's execution
object to the batch that scored it: the loader stamps *due* and *submit*,
the batch's first scoring call stamps *batch start*, the end of scoring
stamps *scored*, ``fan_in`` stamps *batch end*, and the loader stamps the
*response*.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from .loadgen import percentile

__all__ = ["SPAN_NAMES", "STAGES", "Tracer"]

clock = time.perf_counter

#: (span name, module, attribute) for every wrapped callable.
TARGETS = (
    ("data.windows", "repro.workflow.prediction_pipeline", "build_windows"),
    ("data.windows", "repro.workflow.orchestrator", "build_windows"),
    ("data.windows", "repro.workflow.training_pipeline", "build_windows_multi"),
    ("nn.train", "repro.nn.training", "Trainer.fit"),
    ("nn.eval", "repro.nn.training", "Trainer.evaluate"),
    ("nn.infer", "repro.nn.inference", "InferenceModel.predict"),
    ("core.compile", "repro.core.model", "Env2VecRegressor.compile"),
    ("core.compile", "repro.core.model", "Env2VecRegressor.from_bytes"),
    ("core.detect", "repro.core.anomaly", "ContextualAnomalyDetector.detect"),
    ("core.detect", "repro.core.anomaly", "ContextualAnomalyDetector.detect_many"),
    ("core.detect", "repro.core.anomaly", "ContextualAnomalyDetector.detect_self_calibrated"),
    ("workflow.train", "repro.workflow.training_pipeline", "TrainingPipeline.train"),
    ("workflow.collect", "repro.workflow.collector", "MetricCollector.collect"),
    ("workflow.read_back", "repro.workflow.collector", "MetricCollector.read_back"),
    ("workflow.campaign", "repro.workflow.orchestrator", "TestingCampaign.run_day"),
    ("workflow.calibrate", "repro.workflow.prediction_pipeline", "PredictionPipeline.calibrate"),
    ("workflow.score", "repro.workflow.prediction_pipeline", "PredictionPipeline.score_executions"),
    ("workflow.fan_in", "repro.workflow.prediction_pipeline", "PredictionPipeline.fan_in"),
    ("workflow.alarms", "repro.workflow.alarms", "AlarmStore.push"),
)

#: Every stack span name, including the instance-level ones.
SPAN_NAMES = tuple(dict.fromkeys([name for name, _, _ in TARGETS] + ["serve.admit", "loadgen.request"]))

#: Per-request serve stages, in order; their durations sum to the
#: request's latency from its due time.
STAGES = ("lateness", "queue_wait", "score", "merge", "commit")

#: Raw spans kept for the trace file; aggregates are exact regardless.
SPAN_CAP = 20_000

#: Slots of a request's stamp list: [due, submit, batch start, scored, batch end].
_BATCH_START, _SCORED, _BATCH_END = 2, 3, 4


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: list = []
        self.dropped_spans = 0
        self.trace_id: str | None = None
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.failures: defaultdict[str, int] = defaultdict(int)
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.wall = 0.0
        #: while true, completed requests add their stage durations.
        self.collect_stages = False
        self.stage_samples: list[tuple[float, ...]] = []
        self._pending: dict[int, list[float]] = {}
        self._stack: list[list] = []
        self._patches: list[tuple] = []
        self._instances: dict = {}
        self._since: float | None = None
        self._origin = clock()
        self._thread: int | None = None
        self._after = {
            "data.windows": self._after_windows,
            "nn.train": self._after_train,
            "nn.infer": self._after_infer,
            "workflow.score": self._after_score,
            "workflow.fan_in": self._after_fan_in,
        }
        self._before = {
            "nn.infer": self._before_infer,
            "workflow.score": self._before_score,
        }

    # -- installing ----------------------------------------------------

    def install(self, *, service=None, stream=None) -> None:
        """Wrap every target (and the given instances) and start the clock."""
        if self._since is not None:
            raise RuntimeError("tracer is already installed")
        self._thread = threading.get_ident()
        for name, module, attribute in TARGETS:
            owner = importlib.import_module(module)
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, raw)
            setattr(owner, leaf, wrapped)
            self._patches.append((owner, leaf, raw))
        if service is not None:
            self._patch_instance(service, "submit_predict", self._wrap("serve.admit", service.submit_predict))
            if service.supervisor is not None:
                self._patch_instance(service.supervisor, "score", self._wrap_score(service.supervisor.score))
        if stream is not None:
            self._patch_instance(stream, "next", self._wrap("loadgen.request", stream.next))
        self._instances = {"service": service, "stream": stream}
        self._since = clock()

    def uninstall(self) -> None:
        """Restore every patched name and stop the clock."""
        if self._since is None:
            return
        self.wall += clock() - self._since
        self._since = None
        for owner, leaf, raw in reversed(self._patches):
            if raw is None:
                delattr(owner, leaf)
            else:
                setattr(owner, leaf, raw)
        self._patches.clear()

    @contextmanager
    def active(self, *, service=None, stream=None):
        """Trace the body of a ``with`` block."""
        self.install(service=service, stream=stream)
        try:
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def suspended(self):
        """Run the body unpatched, e.g. while worker processes fork.

        Forked workers must inherit the program as it is, so the parent's
        patches come off around the fork and go back on afterwards.
        """
        if self._since is None:
            yield
            return
        instances = self._instances
        self.uninstall()
        try:
            yield
        finally:
            self.install(**instances)

    def _patch_instance(self, instance, attribute: str, wrapped) -> None:
        setattr(instance, attribute, wrapped)
        self._patches.append((instance, attribute, None))

    # -- spans ---------------------------------------------------------

    def _open(self, name: str) -> list:
        index = -1
        if len(self.spans) < SPAN_CAP:
            index = len(self.spans)
            self.spans.append(None)
        else:
            self.dropped_spans += 1
        parent = self._stack[-1][3] if self._stack else -1
        frame = [name, clock(), 0.0, index, parent]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, failed: bool = False) -> float:
        end = clock()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        name, start, child, index, parent = frame
        duration = end - start
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        if not self._stack or self._stack[-1][0] != name:
            self.calls[name] += 1
        if failed:
            self.failures[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            self.spans[index] = (name, start - self._origin, end - self._origin, parent, self.trace_id)
        return end

    def _wrap(self, name: str, fn):
        before = self._before.get(name)
        after = self._after.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            token = before(args) if before is not None else None
            frame = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(frame, failed=True)
                raise
            end = tracer._close(frame)
            if after is not None:
                after(args, result, token, end)
            return result

        return traced

    def _wrap_score(self, fn):
        """``supervisor.score`` is awaited: time it off the span stack."""
        tracer = self

        @functools.wraps(fn)
        async def traced(rows):
            executions = [row[0] for row in rows]
            start = clock()
            tracer._stamp(executions, _BATCH_START, start, first_only=True)
            tracer._batch_trace_id(executions)
            try:
                return await fn(rows)
            finally:
                end = clock()
                tracer.counts["serve.supervisor.score_s"] += end - start
                tracer.counts["serve.supervisor.scores"] += 1
                tracer._stamp(executions, _SCORED, end)

        return traced

    # -- per-layer hooks -------------------------------------------------

    def _after_windows(self, args, result, token, end) -> None:
        self.counts["data.windows.rows"] += len(result[2])

    def _after_train(self, args, result, token, end) -> None:
        trainer, targets = args[0], args[2]
        epochs = len(result.train_loss)
        n = len(targets)
        self.counts["nn.train.epochs"] += epochs
        self.counts["nn.train.batches"] += epochs * -(-n // trainer.batch_size)
        self.counts["nn.train.windows"] += epochs * n

    def _before_infer(self, args):
        cache = args[0].env_cache
        return None if cache is None else (cache.hits, cache.misses)

    def _after_infer(self, args, result, token, end) -> None:
        self.counts["nn.infer.rows"] += len(result)
        if token is not None:
            cache = args[0].env_cache
            self.counts["nn.infer.cache_hits"] += cache.hits - token[0]
            self.counts["nn.infer.cache_misses"] += cache.misses - token[1]

    def _before_score(self, args):
        executions = args[2]
        self._stamp(executions, _BATCH_START, clock(), first_only=True)
        self._batch_trace_id(executions)

    def _after_score(self, args, result, token, end) -> None:
        self.counts["workflow.score.rows"] += sum(len(predicted) for _, predicted, _ in result)
        self._stamp(args[2], _SCORED, end)

    def _after_fan_in(self, args, result, token, end) -> None:
        linked = self._stamp(args[1], _BATCH_END, end)
        if linked:
            self.counts["serve.batches"] += 1
            self.counts["serve.batch_rows"] += len(args[1])

    # -- serve request linking ---------------------------------------------

    def submitted(self, request, due: float, at: float) -> None:
        """Loader hook: a request was sent (``due`` is its schedule slot)."""
        self._pending[id(request.execution)] = [due, at, 0.0, 0.0, 0.0]

    def completed(self, request, at: float, ok: bool) -> None:
        """Loader hook: a request's response (or failure) arrived."""
        stamps = self._pending.pop(id(request.execution), None)
        if stamps is None or not ok or not self.collect_stages:
            return
        due, submit, batch_start, scored, batch_end = stamps
        if not (batch_start and scored and batch_end):
            self.counts["serve.unlinked"] += 1
            return
        self.stage_samples.append(
            (submit - due, batch_start - submit, scored - batch_start, batch_end - scored, at - batch_end)
        )

    def _stamp(self, executions, slot: int, at: float, first_only: bool = False) -> int:
        linked = 0
        for execution in executions:
            stamps = self._pending.get(id(execution))
            if stamps is None:
                continue
            linked += 1
            if not (first_only and stamps[slot]):
                stamps[slot] = at
        return linked

    def _batch_trace_id(self, executions) -> None:
        for execution in executions:
            if id(execution) in self._pending:
                self.trace_id = f"batch@{self._pending[id(execution)][1] - self._origin:.6f}"
                return

    # -- results ---------------------------------------------------------

    def layer_metrics(self, max_batch: int = 0) -> dict:
        """Per-layer metrics over everything traced so far."""
        wall = self.wall
        if wall <= 0:
            raise RuntimeError("nothing was traced")
        counts = self.counts
        metrics = {"trace.wall_s": wall}
        for name in SPAN_NAMES:
            metrics[f"{name}.self_share"] = self.self_s[name] / wall
        metrics["trace.untraced_frac"] = 1.0 - sum(self.self_s.values()) / wall
        metrics["trace.span_failures"] = sum(self.failures.values())
        metrics["data.windows.calls"] = self.calls["data.windows"]
        metrics["data.windows.rows"] = int(counts["data.windows.rows"])
        metrics["nn.train.epochs"] = int(counts["nn.train.epochs"])
        metrics["nn.train.batches"] = int(counts["nn.train.batches"])
        metrics["nn.train.windows_per_s"] = _ratio(counts["nn.train.windows"], self.total_s["nn.train"])
        infer_calls = self.calls["nn.infer"]
        metrics["nn.infer.calls"] = infer_calls
        metrics["nn.infer.rows"] = int(counts["nn.infer.rows"])
        metrics["nn.infer.rows_per_call"] = _ratio(counts["nn.infer.rows"], infer_calls)
        metrics["nn.infer.rows_per_s"] = _ratio(counts["nn.infer.rows"], self.total_s["nn.infer"])
        lookups = counts["nn.infer.cache_hits"] + counts["nn.infer.cache_misses"]
        metrics["nn.infer.env_cache_hit_ratio"] = _ratio(counts["nn.infer.cache_hits"], lookups)
        metrics["core.compile.calls"] = self.calls["core.compile"]
        metrics["core.detect.calls"] = self.calls["core.detect"]
        metrics["workflow.collect.calls"] = self.calls["workflow.collect"]
        metrics["workflow.calibrate.calls"] = self.calls["workflow.calibrate"]
        metrics["workflow.score.calls"] = self.calls["workflow.score"]
        metrics["workflow.score.rows"] = int(counts["workflow.score.rows"])
        metrics["workflow.alarms.pushed"] = self.calls["workflow.alarms"]
        batches = int(counts["serve.batches"])
        batch_mean = _ratio(counts["serve.batch_rows"], batches)
        metrics["serve.batches"] = batches
        metrics["serve.batch_size_mean"] = batch_mean
        metrics["serve.batch_fill"] = _ratio(batch_mean, max_batch)
        totals = [sum(column) for column in zip(*self.stage_samples)] or [0.0] * len(STAGES)
        latency = sum(totals)
        for stage, total in zip(STAGES, totals):
            metrics[f"serve.{stage}_share"] = _ratio(total, latency)
        return metrics

    def stage_summary(self) -> dict:
        """Per-stage p50/p90 in ms over the collected requests."""
        if not self.stage_samples:
            return {"n": 0}
        summary = {"n": len(self.stage_samples)}
        for stage, column in zip(STAGES, zip(*self.stage_samples)):
            summary[stage] = {
                "p50_ms": percentile(column, 50) * 1e3,
                "p90_ms": percentile(column, 90) * 1e3,
            }
        return summary

    def dump(self, path: Path) -> None:
        """Write the raw spans and per-layer aggregates as JSON."""
        payload = {
            "span_fields": ["name", "start_s", "end_s", "parent", "trace_id"],
            "spans": self.spans,
            "span_cap": SPAN_CAP,
            "dropped_spans": self.dropped_spans,
            "wall_s": self.wall,
            "layers": {
                name: {
                    "calls": self.calls[name],
                    "self_s": self.self_s[name],
                    "total_s": self.total_s[name],
                    "failures": self.failures[name],
                }
                for name in SPAN_NAMES
            },
            "counts": dict(self.counts),
            "stages": self.stage_summary(),
        }
        Path(path).write_text(json.dumps(payload) + "\n")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
