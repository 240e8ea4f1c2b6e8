"""Benchmark — the Env2Vec training step: seconds per epoch and a per-layer table.

Retraining is the testing loop's largest periodic cost (§6 of the paper
reports about 30 minutes per Env2Vec retrain). This benchmark measures
it in two ways:

- **seconds per epoch** on the end-to-end campaign's training set
  (12 chains × 5 builds × 100–140 steps, the history builds of every
  chain, 3 lags, 10 % validation, batch 256), one row per registered
  encoder — the comparison axis of arXiv 2109.14276, which compares
  recurrent architectures for anomaly detection in VNF chains;
- **one training step, layer by layer** (default GRU, batch 256, 3
  lags, hidden 16): forward and backward time of the encoder, the body
  (everything else in ``Env2VecModel.forward``: fnn, dropout, combine,
  embeddings and head) and the loss, the tape's own bookkeeping during
  backward (topological sort and gradient routing), and the optimizer
  (``zero_grad`` + ``step``); plus the whole step and the GRU encoder's
  forward + backward, timed without instrumentation over blocks of
  consecutive repetitions.

The step runs ``model(**batch)`` itself, with the encoder's ``forward``
timed from outside, so the body row is the model's forward minus the
encoder's on any tree: a tree that records one node per layer reports
the sum of its fnn … head nodes there. Backward times come from
wrapping each tape node's backward closure with a timer; the node's
layer is the forward segment that created it. The ``tape`` row is the
whole ``loss.backward()`` minus those closures.

- **a warm campaign day, stage by stage**: the end-to-end campaign
  (the same corpus, seed 1, collector on, 10 epochs) run day by day,
  with each warm day's wall split into collect, calibrate, score,
  branch rows, fine-tune steps, copy, publish, exporter and compile by
  wrapping those calls from outside (each stage's own time: a stage
  nested in another is taken out of it; every call inside the
  ``train.publish`` span is the publish's). What no stage covers is
  reported as ``other``; the stages must cover the day's wall within
  :data:`STAGE_COVERAGE`. The e2e tracer wraps ``Trainer.fit`` only,
  so this table is where a warm fine-tune's time shows.

With ``--baseline-src`` the harness also measures another checkout's
``src`` tree in the same process, imported as the package
``repro_baseline``. The two trees alternate step by step and fit by fit,
so the slow episodes of a shared host land on both, and the report gives
each tree's medians and their ratio::

    PYTHONPATH=src:benchmarks python benchmarks/bench_training.py \\
        --baseline-src ../parent/src

The comparison first gates the training step (:func:`step_gate`): over
:data:`STEP_GATE_PAIRS` pairs of interleaved blocks of
:data:`STEP_GATE_STEPS` uninstrumented steps per tree, each pair running
the trees in both orders, the median ratio of this tree's time to the
other's must stay under :data:`STEP_CEILING`. ``--inject-cost 0.03``
busy-waits 3 % of a baseline step after every step of this tree, to
show that the gate fails on such a cost; it runs the gate alone and
writes no results.

Results go to ``benchmarks/results/BENCH_training.json`` and the rendered
table to ``benchmarks/results/training.txt``; the run exits non-zero when
the step gate fails or the warm-day stages miss their coverage.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from conftest import alternate, import_tree, spin

RESULTS_DIR = Path(__file__).parent / "results"

N_LAGS = 3
BATCH = 256
HIDDEN = 16
#: Timed training steps per tree (after three warm-up steps).
STEP_REPEATS = 40
#: Training epochs per encoder for the seconds-per-epoch rows.
EPOCHS = 2
#: Timed fits per encoder and tree.
ROUNDS = 5
#: Consecutive steps (and encoder passes) per uninstrumented timing block.
BLOCK = 10
LAYERS = ("encoder", "body", "loss", "tape", "optimizer")

#: The end-to-end campaign workload's corpus (``benchmarks/e2e``).
CORPUS = dict(
    n_chains=12, n_testbeds=25, builds_per_chain=(5, 5), timesteps_per_build=(100, 140),
    n_focus=3, include_rare_testbed=False, seed=1,
)

#: The step gate: this tree's training step over the baseline tree's, as
#: the median ratio of interleaved blocks, stays under this. The per-layer
#: speedups and the GRU encoder's forward + backward are diagnostics.
STEP_CEILING = 1.02
#: Pairs of interleaved blocks of the step gate, and steps per block and tree.
STEP_GATE_PAIRS = 201
STEP_GATE_STEPS = 5

#: Campaigns per tree for the warm-day stage table (days 1-4 of each).
STAGE_CAMPAIGNS = 12
#: Share of a warm day's wall the named stages must cover.
STAGE_COVERAGE = 0.9
#: (stage, module, attribute) wrapped for the warm-day table. A name a
#: tree does not define is skipped on it: ``_frozen_branches`` is the
#: branch pass of trees that recompute the rows inside every fine-tune,
#: ``copy`` that of trees which copy the serving model in memory.
STAGE_TARGETS = (
    ("collect", "workflow.orchestrator", "TestingCampaign._collect_day"),
    ("calibrate", "workflow.prediction_pipeline", "PredictionPipeline.history_error_model"),
    ("score", "workflow.prediction_pipeline", "PredictionPipeline.execute"),
    ("branch rows", "workflow.prediction_pipeline", "PredictionPipeline.branch_rows"),
    ("branch rows", "workflow.training_pipeline", "TrainingPipeline._branch_rows"),
    ("branch rows", "core.model", "Env2VecModel._frozen_branches"),
    ("fine-tune steps", "core.model", "Env2VecRegressor.fine_tune"),
    ("copy", "core.model", "Env2VecRegressor.copy"),
    ("copy", "core.model", "Env2VecRegressor.from_bytes"),
    ("copy", "core.model", "Env2VecRegressor.to_bytes"),
    ("publish", "workflow.model_store", "ModelStore.publish"),
    ("exporter", "obs.export", "TSDBExporter.tick"),
    ("compile", "core.model", "Env2VecRegressor.compile"),
)
STAGES = tuple(dict.fromkeys(stage for stage, _, _ in STAGE_TARGETS))
#: The span around a training run's publish: the blob it serializes and
#: the store write. ``to_bytes`` outside it is the warm copy's.
PUBLISH_SPAN = "train.publish"

def _training_set(pkg: str):
    data = importlib.import_module(pkg + ".data")
    windows = importlib.import_module(pkg + ".data.windows")
    dataset = data.generate_telecom(data.TelecomConfig(**CORPUS))
    records = [(e.environment, e.features, e.cpu) for chain in dataset.chains for e in chain.history]
    X, history, y, series_ids = windows.build_windows_multi([(f, c) for _, f, c in records], N_LAGS)
    environments = [records[i][0] for i in series_ids]
    # The training pipeline's 10 % validation split, same seed.
    order = np.random.default_rng(0).permutation(len(y))
    n_val = max(1, int(len(y) * 0.1))
    val_idx, train_idx = order[:n_val], order[n_val:]
    val = ([environments[i] for i in val_idx], X[val_idx], history[val_idx], y[val_idx])
    train = ([environments[i] for i in train_idx], X[train_idx], history[train_idx], y[train_idx])
    return train, val


def epoch_seconds(pkgs: dict[str, str]) -> dict[str, dict]:
    """Median seconds per epoch of ``Env2VecRegressor.fit`` for every encoder
    and tree, the trees' fits alternating."""
    data = {label: _training_set(pkg) for label, pkg in pkgs.items()}
    encoders = importlib.import_module("repro.nn").available_encoders()
    times = {label: {name: [] for name in encoders} for label in pkgs}
    for name in encoders:
        for round_ in range(ROUNDS):
            for label in alternate(pkgs, round_):
                core = importlib.import_module(pkgs[label] + ".core")
                train, val = data[label]
                model = core.Env2VecRegressor(
                    n_lags=N_LAGS, encoder=name, max_epochs=EPOCHS, batch_size=BATCH,
                    patience=EPOCHS, seed=0,
                )
                start = time.perf_counter()
                model.fit(*train, val=val)
                elapsed = time.perf_counter() - start
                times[label][name].append(elapsed / model.history_.epochs_run)
    return {
        label: {
            name: {"epoch_s": statistics.median(samples), "n_train": len(data[label][0][3])}
            for name, samples in rows.items()
        }
        for label, rows in times.items()
    }


class _Timer:
    def __init__(self):
        self.forward = dict.fromkeys(LAYERS, 0.0)
        self.backward = dict.fromkeys(LAYERS, 0.0)

    def segment(self, layer: str, fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        self.forward[layer] += time.perf_counter() - start
        return out


def _tag_nodes(output, layer: str, tagged: set, timer: _Timer) -> None:
    """Wrap the backward closure of every untagged node behind ``output``."""
    stack = [output]
    while stack:
        node = stack.pop()
        if id(node) in tagged or node._backward is None:
            continue
        tagged.add(id(node))
        inner = node._backward

        def timed(grad, inner=inner):
            start = time.perf_counter()
            inner(grad)
            timer.backward[layer] += time.perf_counter() - start

        node._backward = timed
        stack.extend(node._parents)


class _StepSession:
    """One tree's fitted GRU model, optimizer and batch, for timed steps."""

    def __init__(self, pkg: str):
        core = importlib.import_module(pkg + ".core")
        self.nn = importlib.import_module(pkg + ".nn")
        train, _ = _training_set(pkg)
        envs, X, history, y = (part[:BATCH] for part in train)
        regressor = core.Env2VecRegressor(n_lags=N_LAGS, max_epochs=1, batch_size=BATCH, seed=0)
        regressor.fit(envs, X, history, y)
        self.model = regressor.model
        self.batch = batch = regressor._batch(envs, X, history)
        self.cf, self.hist, self.env = batch["cf"], batch["history"], batch["env"]
        self.targets = (np.asarray(y) - regressor._y_mean) / regressor._y_std
        self.optimizer = self.nn.Adam(self.model.parameters(), lr=1e-4)
        self.model.train()

    def _step(self) -> None:
        self.optimizer.zero_grad()
        predicted = self.model(**self.batch)
        self.nn.mse_loss(predicted, self.nn.Tensor(self.targets)).backward()
        self.optimizer.step()

    def _encoder_pass(self) -> None:
        out = self.model.encoder(self.nn.Tensor(self.hist[:, :, None]))
        out.backward(np.ones(out.shape))

    def block(self) -> dict[str, float]:
        """Milliseconds per training step and per GRU encoder forward +
        backward, uninstrumented, over ``BLOCK`` consecutive repetitions."""
        times = {}
        for key, fn in (("step_ms", self._step), ("gru_encoder_forward_backward_ms", self._encoder_pass)):
            start = time.perf_counter()
            for _ in range(BLOCK):
                fn()
            times[key] = 1e3 * (time.perf_counter() - start) / BLOCK
        return times

    def sample(self) -> dict[str, float]:
        """One instrumented training step, in milliseconds per layer and phase."""
        nn, model, optimizer = self.nn, self.model, self.optimizer
        timer = _Timer()
        tagged: set = set()
        start = time.perf_counter()
        optimizer.zero_grad()
        timer.forward["optimizer"] += time.perf_counter() - start

        encoder, encoded = model.encoder, []

        def timed_encoder(sequence):
            encoded.append(timer.segment("encoder", type(encoder).forward, encoder, sequence))
            return encoded[-1]

        encoder.forward = timed_encoder  # shadows the class's forward on this instance
        try:
            start = time.perf_counter()
            predicted = model(**self.batch)
            timer.forward["body"] += time.perf_counter() - start - timer.forward["encoder"]
        finally:
            del encoder.forward
        _tag_nodes(encoded[0], "encoder", tagged, timer)
        _tag_nodes(predicted, "body", tagged, timer)
        loss = timer.segment("loss", nn.mse_loss, predicted, nn.Tensor(self.targets))
        _tag_nodes(loss, "loss", tagged, timer)

        start = time.perf_counter()
        loss.backward()
        backward_s = time.perf_counter() - start
        timer.backward["tape"] = backward_s - sum(timer.backward.values())

        start = time.perf_counter()
        optimizer.step()
        timer.backward["optimizer"] += time.perf_counter() - start

        sample = {}
        for layer in LAYERS:
            sample[f"{layer}.forward_ms"] = 1e3 * timer.forward[layer]
            sample[f"{layer}.backward_ms"] = 1e3 * timer.backward[layer]
        return sample


def step_breakdown(pkgs: dict[str, str], repeats: int = STEP_REPEATS) -> dict[str, dict]:
    """Median milliseconds of one training step for each tree, the trees
    alternating round by round: per layer from an instrumented step, and
    the whole step and the GRU encoder from an uninstrumented block (the
    wrapped closures and graph walks would dilute their ratios)."""
    sessions = {label: _StepSession(pkg) for label, pkg in pkgs.items()}
    samples: dict[str, list] = {label: [] for label in sessions}
    for round_ in range(repeats + 3):
        for label in alternate(sessions, round_):
            session = sessions[label]
            samples[label].append({**session.sample(), **session.block()})
    # The first rounds warm caches and allocator pools.
    return {
        label: {key: statistics.median(s[key] for s in runs[3:]) for key in runs[0]}
        for label, runs in samples.items()
    }


def step_gate(pkgs: dict[str, str], pairs: int = STEP_GATE_PAIRS, inject_cost: float = 0.0) -> dict:
    """The median ratio of this tree's (``change``) training step to the
    baseline's over pairs of interleaved blocks, against :data:`STEP_CEILING`.

    A pair runs the trees as A B B A, and its ratio is the sum of this
    tree's two blocks over the baseline's. A block that follows one of
    its own tree runs about 8 % faster than one that follows the other
    tree, so a single block's ratio mostly measures the order; the pair
    gives each tree one of each. With ``inject_cost`` every step of this
    tree busy-waits that share of a baseline step, sized from warm-up
    blocks.
    """
    sessions = {label: _StepSession(pkg) for label, pkg in pkgs.items()}

    def block(label: str, extra_s: float = 0.0) -> float:
        step = sessions[label]._step
        start = time.perf_counter()
        for _ in range(STEP_GATE_STEPS):
            step()
            if extra_s:
                spin(extra_s)
        return time.perf_counter() - start

    baseline_s = statistics.median(block("baseline") for _ in range(11)) / STEP_GATE_STEPS
    extra = {"baseline": 0.0, "change": inject_cost * baseline_s}
    for label in sessions:
        block(label, extra[label])  # warm-up
    ratios, per_step = [], {label: [] for label in sessions}
    for _ in range(pairs):
        seconds = dict.fromkeys(sessions, 0.0)
        for order in range(2):
            for label in alternate(sessions, order):
                seconds[label] += block(label, extra[label])
        ratios.append(seconds["change"] / seconds["baseline"])
        for label, value in seconds.items():
            per_step[label].append(1e3 * value / (2 * STEP_GATE_STEPS))
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    return {
        "ceiling": STEP_CEILING,
        "pairs": pairs,
        "steps_per_block": STEP_GATE_STEPS,
        "inject_cost": inject_cost,
        "injected_ms_per_step": 1e3 * extra["change"],
        "baseline_ms_per_step": statistics.median(per_step["baseline"]),
        "change_ms_per_step": statistics.median(per_step["change"]),
        "ratio": median,
        "ratio_q1": q1,
        "ratio_q3": q3,
        "pass": median < STEP_CEILING,
    }


def render_step_gate(gate: dict) -> str:
    return (
        f"  step gate: this tree over the baseline, median of {gate['pairs']} pairs of interleaved "
        f"blocks of {gate['steps_per_block']} steps: baseline {gate['baseline_ms_per_step']:.3f} ms, "
        f"change {gate['change_ms_per_step']:.3f} ms, ratio {gate['ratio']:.4f} "
        f"[{gate['ratio_q1']:.4f}, {gate['ratio_q3']:.4f}] (ceiling {gate['ceiling']:.2f}) "
        + ("pass" if gate["pass"] else "FAIL")
        + (f" ({gate['injected_ms_per_step']:.3f} ms injected per step)" if gate["inject_cost"] else "")
    )


class _StageClock:
    """Each stage's own milliseconds: time in a nested stage is its, not
    its caller's."""

    def __init__(self):
        self.ms = dict.fromkeys(STAGES, 0.0)
        #: ``train.publish`` spans entered.
        self.publishes = 0
        self._stack: list = []

    def wrap(self, stage: str, fn):
        def timed(*args, **kwargs):
            with self.timing(stage):
                return fn(*args, **kwargs)

        return timed

    @contextmanager
    def timing(self, stage: str):
        # A call inside the publish (the blob, the store write) is the publish's.
        if self._stack and self._stack[-1][2] == "publish":
            stage = "publish"
        frame = [time.perf_counter(), 0.0, stage]
        self._stack.append(frame)
        try:
            yield
        finally:
            self._stack.pop()
            elapsed = time.perf_counter() - frame[0]
            self.ms[stage] += 1e3 * (elapsed - frame[1])
            if self._stack:
                self._stack[-1][1] += elapsed


def _patch_stages(pkg: str, clock: _StageClock) -> list:
    patches = []
    for stage, module, attribute in STAGE_TARGETS:
        owner_name, leaf = attribute.split(".")
        owner = getattr(importlib.import_module(f"{pkg}.{module}"), owner_name)
        raw = owner.__dict__.get(leaf)
        if raw is None:
            continue
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(clock.wrap(stage, raw.__func__))
        else:
            wrapped = clock.wrap(stage, raw)
        setattr(owner, leaf, wrapped)
        patches.append((owner, leaf, raw))
    observability = importlib.import_module(f"{pkg}.obs.observability").Observability
    raw_span = observability.__dict__["span"]

    @contextmanager
    def publish_span(inner):
        clock.publishes += 1
        with inner as span, clock.timing("publish"):
            yield span

    def span(obs, name: str):
        inner = raw_span(obs, name)
        return publish_span(inner) if name == PUBLISH_SPAN else inner

    observability.span = span
    patches.append((observability, "span", raw_span))
    return patches


class _CampaignSession:
    """One tree's e2e-shaped campaigns, their warm days split by stage."""

    def __init__(self, pkg: str):
        self.pkg = pkg
        data = importlib.import_module(pkg + ".data")
        dataset = data.generate_telecom(data.TelecomConfig(**CORPUS))
        n_days = max(len(chain) for chain in dataset.chains)
        self.days = [[c.executions[d] for c in dataset.chains if d < len(c)] for d in range(n_days)]
        self.workflow = importlib.import_module(pkg + ".workflow")

    def sample(self) -> dict[str, float]:
        """One campaign: milliseconds per warm day, by stage and in all."""
        params = {"max_epochs": 10, "batch_size": BATCH, "patience": 10}
        campaign = self.workflow.TestingCampaign(use_collector=True, model_params=params)
        campaign.run_day(0, self.days[0])
        clock = _StageClock()
        patches = _patch_stages(self.pkg, clock)
        warm, wall = 0, 0.0
        try:
            for day in range(1, len(self.days)):
                start = time.perf_counter()
                report = campaign.run_day(day, self.days[day])
                wall += time.perf_counter() - start
                warm += not report.drift_detected
        finally:
            for owner, leaf, raw in reversed(patches):
                setattr(owner, leaf, raw)
        if warm != len(self.days) - 1:
            raise RuntimeError("a full fit ran on a day the stage table assumes warm")
        if clock.publishes != warm:
            raise RuntimeError(f"{clock.publishes} {PUBLISH_SPAN} spans in {warm} warm days")
        sample = {stage: ms / warm for stage, ms in clock.ms.items()}
        sample["day"] = 1e3 * wall / warm
        sample["other"] = sample["day"] - sum(clock.ms.values()) / warm
        return sample


def warm_day_stages(pkgs: dict[str, str], campaigns: int = STAGE_CAMPAIGNS) -> dict[str, dict]:
    """Median milliseconds per warm campaign day, by stage, for each tree,
    the trees' campaigns alternating."""
    sessions = {label: _CampaignSession(pkg) for label, pkg in pkgs.items()}
    samples: dict[str, list] = {label: [] for label in sessions}
    for round_ in range(campaigns + 1):
        for label in alternate(sessions, round_):
            samples[label].append(sessions[label].sample())
    # The first campaign warms caches and allocator pools.
    return {
        label: {key: statistics.median(s[key] for s in runs[1:]) for key in runs[0]}
        for label, runs in samples.items()
    }


def stage_coverage(stages: dict[str, float]) -> float:
    """Share of the warm day's wall the named stages cover."""
    return 1.0 - stages["other"] / stages["day"]


def measure(pkgs: dict[str, str]) -> dict:
    step, epochs, days = step_breakdown(pkgs), epoch_seconds(pkgs), warm_day_stages(pkgs)
    return {
        **{
            label: {"step": step[label], "epochs": epochs[label], "warm_day": days[label]}
            for label in pkgs
        },
        "environment": {
            "cores": os.cpu_count(),
            "numpy": np.__version__,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        },
    }


def compare(baseline_src: str) -> dict:
    """This tree (``change``) against another checkout (``baseline``)."""
    pkgs = {"baseline": import_tree(baseline_src), "change": "repro"}
    gate = step_gate(pkgs)
    result = measure(pkgs)
    result["step_gate"] = gate
    baseline, change = result["baseline"], result["change"]
    result["speedup"] = {
        "step": baseline["step"]["step_ms"] / change["step"]["step_ms"],
        "gru_encoder_forward_backward": (
            baseline["step"]["gru_encoder_forward_backward_ms"]
            / change["step"]["gru_encoder_forward_backward_ms"]
        ),
        "epoch_s": {
            name: baseline["epochs"][name]["epoch_s"] / change["epochs"][name]["epoch_s"]
            for name in change["epochs"]
        },
        "warm_day": baseline["warm_day"]["day"] / change["warm_day"]["day"],
    }
    result["config"] = {
        "batch": BATCH, "n_lags": N_LAGS, "hidden": HIDDEN, "rounds": ROUNDS,
        "epochs": EPOCHS, "step_repeats": STEP_REPEATS, "corpus": CORPUS,
        "stage_campaigns": STAGE_CAMPAIGNS, "stage_coverage": STAGE_COVERAGE,
    }
    return result


def render(result: dict) -> str:
    base, change = result["baseline"], result["change"]
    lines = [
        "Env2Vec training — parent vs change in one process, median of "
        f"{result['config']['step_repeats']} interleaved steps and "
        f"{result['config']['rounds']} interleaved fits per encoder "
        f"({result['environment']['cores']} cores)",
        "",
        f"  one step (batch {BATCH}, {N_LAGS} lags, hidden {HIDDEN}, gru), ms",
        f"  {'layer':<12}{'fwd parent':>12}{'fwd change':>12}{'bwd parent':>12}{'bwd change':>12}",
    ]
    for layer in LAYERS:
        row = [base["step"][f"{layer}.forward_ms"], change["step"][f"{layer}.forward_ms"],
               base["step"][f"{layer}.backward_ms"], change["step"][f"{layer}.backward_ms"]]
        lines.append(f"  {layer:<12}" + "".join(f"{value:12.3f}" for value in row))
    speed = result["speedup"]
    lines += [
        f"  {'step':<12}{base['step']['step_ms']:12.3f}{change['step']['step_ms']:12.3f}"
        f"   speedup {speed['step']:.2f}x (diagnostic)",
        f"  gru encoder forward+backward speedup {speed['gru_encoder_forward_backward']:.2f}x "
        "(diagnostic)",
        render_step_gate(result["step_gate"]),
        "",
        f"  seconds per epoch, campaign training set ({change['epochs']['gru']['n_train']} windows)",
        f"  {'encoder':<16}{'parent':>10}{'change':>10}{'speedup':>10}",
    ]
    for name, row in change["epochs"].items():
        lines.append(
            f"  {name:<16}{base['epochs'][name]['epoch_s']:10.3f}{row['epoch_s']:10.3f}"
            f"{speed['epoch_s'][name]:9.2f}x"
        )
    lines += [
        "",
        f"  a warm campaign day (e2e campaign, seed {CORPUS['seed']}, days 1-4), ms, "
        f"median of {result['config']['stage_campaigns']} campaigns",
        f"  {'stage':<16}{'parent':>10}{'change':>10}",
    ]
    for stage in (*STAGES, "other", "day"):
        lines.append(f"  {stage:<16}{base['warm_day'][stage]:10.2f}{change['warm_day'][stage]:10.2f}")
    lines.append(
        f"  stages cover {stage_coverage(base['warm_day']):.1%} (parent) and "
        f"{stage_coverage(change['warm_day']):.1%} (change) of the day; "
        f"warm day speedup {speed['warm_day']:.2f}x"
    )
    return "\n".join(lines)


def gate_failures(result: dict) -> list[str]:
    """A failed step gate, and a stage table that does not cover its day,
    as readable lines (empty when all hold)."""
    gate = result["step_gate"]
    failures = [] if gate["pass"] else [
        f"step ratio {gate['ratio']:.4f} is over its {gate['ceiling']:.2f} ceiling"
    ]
    for label in ("baseline", "change"):
        coverage = stage_coverage(result[label]["warm_day"])
        if coverage < STAGE_COVERAGE:
            failures.append(f"{label} warm-day stages cover {coverage:.1%} of the day")
    return failures


def test_bench_training_harness():
    """Smoke run of the per-layer step measurement on this tree."""
    step = step_breakdown({"change": "repro"}, repeats=3)["change"]
    assert step["step_ms"] > 0
    assert all(step[f"{layer}.forward_ms"] >= 0 for layer in LAYERS if layer != "tape")


def test_warm_day_stage_table():
    """Smoke run of the warm-day stage table on this tree."""
    stages = warm_day_stages({"change": "repro"}, campaigns=1)["change"]
    assert stages["day"] > 0 and stages["fine-tune steps"] > 0
    assert stage_coverage(stages) >= STAGE_COVERAGE


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--baseline-src", help="another checkout's src/ to compare against")
    parser.add_argument(
        "--inject-cost", type=float, default=0.0,
        help="busy-wait this share of a baseline step after every step of this tree "
        "and run only the step gate (needs --baseline-src)",
    )
    args = parser.parse_args(argv)
    if not args.baseline_src:
        print(json.dumps(measure({"change": "repro"}), indent=2))
        return 0
    if args.inject_cost:
        pkgs = {"baseline": import_tree(args.baseline_src), "change": "repro"}
        gate = step_gate(pkgs, inject_cost=args.inject_cost)
        print(render_step_gate(gate))
        return 0 if gate["pass"] else 1
    result = compare(args.baseline_src)
    text = render(result)
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_training.json").write_text(json.dumps(result, indent=2) + "\n")
    (RESULTS_DIR / "training.txt").write_text(text + "\n")
    failures = gate_failures(result)
    for line in failures:
        print(line, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
