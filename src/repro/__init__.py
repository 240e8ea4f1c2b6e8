"""Env2Vec — accelerating VNF testing with deep learning (EuroSys 2020).

A full from-scratch reproduction of the paper's system:

- :mod:`repro.nn` — the deep-learning stack (autograd, Dense/GRU/Embedding,
  Adam, early stopping) standing in for Keras/TensorFlow.
- :mod:`repro.ml` — classical baselines (Ridge, random forest, SVR) and
  utilities (scalers, grid search, PCA) standing in for scikit-learn.
- :mod:`repro.htm` — a compact HTM implementation backing the HTM-AD
  baseline.
- :mod:`repro.data` — the EM schema, build chains, and synthetic KDN /
  telecom dataset generators with fault injection.
- :mod:`repro.core` — the Env2Vec model (FNN + GRU + environment
  embeddings, Hadamard head), the FNN/RFNN baselines, the contextual
  anomaly detector, and the unseen-environment protocol.
- :mod:`repro.workflow` — the Figure 2 testing workflow: TSDB, service
  discovery, collector, training/prediction pipelines (the one scoring
  path), alarm and model stores, and the multi-day campaign.
- :mod:`repro.serve` — the always-on serving layer, including the
  supervised worker processes (the only owner of parallelism) and their
  in-order fan-in.
- :mod:`repro.eval` — metrics and per-table/figure experiment drivers.

Quickstart::

    from repro.data import generate_telecom, TelecomConfig
    from repro.eval import train_env2vec_telecom, run_anomaly_table

    dataset = generate_telecom(TelecomConfig(n_chains=20, n_focus=4))
    model = train_env2vec_telecom(dataset)
    table5 = run_anomaly_table(dataset, model)
    print(table5.table("Performance problems detected"))
"""

from .core.anomaly import ContextualAnomalyDetector
from .core.model import Env2VecModel, Env2VecRegressor
from .data.environment import Environment
from .data.kdn import load_all_kdn, load_kdn
from .data.telecom import TelecomConfig, generate_telecom

__version__ = "1.0.0"

__all__ = [
    "Env2VecModel",
    "Env2VecRegressor",
    "ContextualAnomalyDetector",
    "Environment",
    "TelecomConfig",
    "generate_telecom",
    "load_kdn",
    "load_all_kdn",
    "__version__",
]
