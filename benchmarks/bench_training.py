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
  lags, hidden 16): forward and backward time of the fnn, dropout,
  encoder, combine, embeddings, head and loss nodes, the tape's own
  bookkeeping during backward (topological sort and gradient routing),
  and the optimizer (``zero_grad`` + ``step``); plus the whole step and
  the GRU encoder's forward + backward, timed without instrumentation
  over blocks of consecutive repetitions.

Backward times come from wrapping each tape node's backward closure with
a timer; the node's layer is the forward segment that created it. The
``tape`` row is the whole ``loss.backward()`` minus those closures.

With ``--baseline-src`` the harness also measures another checkout's
``src`` tree in the same process, imported as the package
``repro_baseline``. The two trees alternate step by step and fit by fit,
so the slow episodes of a shared host land on both, and the report gives
each tree's medians and their ratio::

    PYTHONPATH=src:benchmarks python benchmarks/bench_training.py \\
        --baseline-src ../parent/src

Results go to ``benchmarks/results/BENCH_training.json`` and the rendered
table to ``benchmarks/results/training.txt``; the run exits non-zero when
a speedup falls below its floor (:data:`FLOORS`).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

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
LAYERS = ("fnn", "dropout", "encoder", "combine", "embeddings", "head", "loss", "tape", "optimizer")

#: The end-to-end campaign workload's corpus (``benchmarks/e2e``).
CORPUS = dict(
    n_chains=12, n_testbeds=25, builds_per_chain=(5, 5), timesteps_per_build=(100, 140),
    n_focus=3, include_rare_testbed=False, seed=1,
)

#: Floors this change is held to (parent / change).
FLOORS = {"step": 1.3, "gru_encoder_forward_backward": 1.5}

#: Keeps the directory that aliases a baseline tree alive for the process.
_ALIASES: list[tempfile.TemporaryDirectory] = []


def _import_tree(src: str) -> str:
    """Import another checkout's ``src/repro`` as the package ``repro_baseline``.

    Every import inside the package is relative, so a symlink under a new
    name gives a second, independent copy of it next to this tree's.
    """
    alias = tempfile.TemporaryDirectory()
    _ALIASES.append(alias)
    (Path(alias.name) / "repro_baseline").symlink_to(Path(src).resolve() / "repro")
    sys.path.insert(0, alias.name)
    importlib.import_module("repro_baseline")
    return "repro_baseline"


def _order(labels, round_: int) -> list:
    """Alternate which tree goes first from one round to the next."""
    labels = list(labels)
    return labels if round_ % 2 == 0 else labels[::-1]


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
            for label in _order(pkgs, round_):
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

        a = timer.segment("fnn", model.fnn, nn.Tensor(self.cf))
        _tag_nodes(a, "fnn", tagged, timer)
        v_fs = timer.segment("dropout", model.fnn_dropout, a)
        _tag_nodes(v_fs, "dropout", tagged, timer)
        v_ts = timer.segment("encoder", model.encoder, nn.Tensor(self.hist[:, :, None]))
        _tag_nodes(v_ts, "encoder", tagged, timer)
        v_d = timer.segment(
            "combine", lambda: model.combine(nn.Tensor.concat([v_ts, v_fs], axis=1))
        )
        _tag_nodes(v_d, "combine", tagged, timer)
        c = timer.segment("embeddings", model.embeddings, self.env)
        _tag_nodes(c, "embeddings", tagged, timer)
        predicted = timer.segment("head", lambda: (v_d * c).sum(axis=1))
        _tag_nodes(predicted, "head", tagged, timer)
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
        for label in _order(sessions, round_):
            session = sessions[label]
            samples[label].append({**session.sample(), **session.block()})
    # The first rounds warm caches and allocator pools.
    return {
        label: {key: statistics.median(s[key] for s in runs[3:]) for key in runs[0]}
        for label, runs in samples.items()
    }


def measure(pkgs: dict[str, str]) -> dict:
    step, epochs = step_breakdown(pkgs), epoch_seconds(pkgs)
    return {
        **{label: {"step": step[label], "epochs": epochs[label]} for label in pkgs},
        "environment": {
            "cores": os.cpu_count(),
            "numpy": np.__version__,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        },
    }


def compare(baseline_src: str) -> dict:
    """This tree (``change``) against another checkout (``baseline``)."""
    result = measure({"baseline": _import_tree(baseline_src), "change": "repro"})
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
    }
    result["config"] = {
        "batch": BATCH, "n_lags": N_LAGS, "hidden": HIDDEN, "rounds": ROUNDS,
        "epochs": EPOCHS, "step_repeats": STEP_REPEATS, "corpus": CORPUS,
    }
    result["floors"] = FLOORS
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
        f"   speedup {speed['step']:.2f}x (floor {FLOORS['step']}x)",
        f"  gru encoder forward+backward speedup {speed['gru_encoder_forward_backward']:.2f}x "
        f"(floor {FLOORS['gru_encoder_forward_backward']}x)",
        "",
        f"  seconds per epoch, campaign training set ({change['epochs']['gru']['n_train']} windows)",
        f"  {'encoder':<16}{'parent':>10}{'change':>10}{'speedup':>10}",
    ]
    for name, row in change["epochs"].items():
        lines.append(
            f"  {name:<16}{base['epochs'][name]['epoch_s']:10.3f}{row['epoch_s']:10.3f}"
            f"{speed['epoch_s'][name]:9.2f}x"
        )
    return "\n".join(lines)


def below_floors(result: dict) -> list[str]:
    """The floors a comparison misses, as readable lines (empty when all hold)."""
    return [
        f"{name} speedup {result['speedup'][name]:.2f}x is below its {floor}x floor"
        for name, floor in FLOORS.items()
        if result["speedup"][name] < floor
    ]


def test_bench_training_harness():
    """Smoke run of the per-layer step measurement on this tree."""
    step = step_breakdown({"change": "repro"}, repeats=3)["change"]
    assert step["step_ms"] > 0
    assert all(step[f"{layer}.forward_ms"] >= 0 for layer in LAYERS if layer != "tape")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--baseline-src", help="another checkout's src/ to compare against")
    args = parser.parse_args(argv)
    if not args.baseline_src:
        print(json.dumps(measure({"change": "repro"}), indent=2))
        return 0
    result = compare(args.baseline_src)
    text = render(result)
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_training.json").write_text(json.dumps(result, indent=2) + "\n")
    (RESULTS_DIR / "training.txt").write_text(text + "\n")
    failures = below_floors(result)
    for line in failures:
        print(line, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
