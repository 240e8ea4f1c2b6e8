"""Model (de)serialization.

The paper notes (§6) that the full Env2Vec artifact — the DL weights plus
the environment embeddings — serializes to under 10 MB and is served over
HTTP to the prediction pipeline. Here we persist a model's state dict plus
an arbitrary JSON-serializable config blob into one ``.npz`` blob;
:mod:`repro.workflow.model_store` layers the paper's fetch/publish workflow
on top of this format.
"""

from __future__ import annotations

import io
import json

import numpy as np

from .layers import Module

__all__ = ["save_model_bytes", "load_model_bytes"]

_CONFIG_KEY = "__config__"


def save_model_bytes(model: Module, config: dict | None = None) -> bytes:
    """Serialize a model's parameters (+ config) into uncompressed npz bytes."""
    buffer = io.BytesIO()
    arrays = {name: data for name, data in model.state_dict().items()}
    if _CONFIG_KEY in arrays:
        raise ValueError(f"parameter name {_CONFIG_KEY!r} is reserved")
    arrays[_CONFIG_KEY] = np.frombuffer(json.dumps(config or {}).encode("utf-8"), dtype=np.uint8)
    np.savez(buffer, **arrays)
    return buffer.getvalue()


def load_model_bytes(blob: bytes) -> tuple[dict[str, np.ndarray], dict]:
    """Inverse of :func:`save_model_bytes`; returns (state_dict, config)."""
    with np.load(io.BytesIO(blob)) as archive:
        arrays = {name: archive[name] for name in archive.files}
    config_raw = arrays.pop(_CONFIG_KEY, None)
    config = json.loads(config_raw.tobytes().decode("utf-8")) if config_raw is not None else {}
    return arrays, config
