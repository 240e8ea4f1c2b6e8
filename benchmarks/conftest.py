"""Shared fixtures for the benchmark harness.

The telecom corpus and the two pooled models (Env2Vec, RFNN_all) are
expensive to build, so they are created once per session and shared by all
telecom benchmarks. Dataset generation and model training happen *outside*
the timed sections; each benchmark times its own experiment driver.

Run with ``pytest benchmarks/ --benchmark-only``; add ``-s`` to see the
reproduced tables inline. Every benchmark also appends its rendered output
to ``benchmarks/results/`` so the tables survive output capture.
"""

from __future__ import annotations

import importlib
import sys
import tempfile
import time
from pathlib import Path

import pytest

from repro.data import TelecomConfig, generate_telecom
from repro.eval import run_chain_mae, train_env2vec_telecom, train_rfnn_all_telecom

RESULTS_DIR = Path(__file__).parent / "results"


#: Keeps the directories that alias baseline trees alive for the process.
_ALIASES: list[tempfile.TemporaryDirectory] = []


def import_tree(src: str) -> str:
    """Import another checkout's ``src/repro`` as the package ``repro_baseline``.

    Every import inside the package is relative, so a symlink under a new
    name gives a second, independent copy of it next to this tree's. The
    ``--baseline-src`` benchmarks measure both trees in one process this
    way, alternating them, so a shared host's slow episodes land on both.
    """
    alias = tempfile.TemporaryDirectory()
    _ALIASES.append(alias)
    (Path(alias.name) / "repro_baseline").symlink_to(Path(src).resolve() / "repro")
    sys.path.insert(0, alias.name)
    importlib.import_module("repro_baseline")
    return "repro_baseline"


def alternate(labels, round_: int) -> list:
    """Alternate which tree goes first from one round to the next."""
    labels = list(labels)
    return labels if round_ % 2 == 0 else labels[::-1]


def spin(seconds: float) -> None:
    """Busy-wait ``seconds``: an injected CPU cost, not a sleep."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def emit(name: str, text: str) -> None:
    """Print a reproduced table and persist it under benchmarks/results/."""
    print(f"\n{'=' * 72}\n{text}\n{'=' * 72}")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


@pytest.fixture(scope="session")
def telecom_dataset():
    """The paper-scale corpus: 125 chains, 11 focus executions."""
    return generate_telecom(TelecomConfig())


@pytest.fixture(scope="session")
def env2vec_model(telecom_dataset):
    """The single Env2Vec model trained on all historical executions."""
    return train_env2vec_telecom(telecom_dataset, fast=False)


@pytest.fixture(scope="session")
def rfnn_all_model(telecom_dataset):
    """The pooled no-embeddings baseline."""
    return train_rfnn_all_telecom(telecom_dataset, fast=False)


@pytest.fixture(scope="session")
def chain_mae_result(telecom_dataset, env2vec_model, rfnn_all_model):
    """Per-chain MAE/MSE shared by the Figure 3 and Figure 4 benchmarks."""
    return run_chain_mae(telecom_dataset, env2vec_model, rfnn_all_model)
