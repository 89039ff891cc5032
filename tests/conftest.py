import json

import numpy as np
import pytest

from unlearnkit import UnlearnConfig
from unlearnkit.data import generate
from unlearnkit.unlearn import train_original


def central_difference(loss_fn, model, h=1e-5):
    """Finite-difference gradient oracle over the model's flat parameter vector."""
    base = model.param_vector()
    grad = np.zeros_like(base)
    for i in range(base.size):
        bumped = base.copy()
        bumped[i] += h
        model.set_param_vector(bumped)
        up = loss_fn(model)
        bumped[i] = base[i] - h
        model.set_param_vector(bumped)
        down = loss_fn(model)
        grad[i] = (up - down) / (2.0 * h)
    model.set_param_vector(base)
    return grad


def v1_checkpoint_record(model) -> dict:
    """The version-1 checkpoint record of ``model``: the version-2 header, with
    every parameter array a flat list of Python floats."""
    record = model.to_dict()
    record["format_version"] = 1
    for i, layer in enumerate(model.layers):
        record["params"][f"layers.{i}.weight"] = layer.weight.ravel().tolist()
        record["params"][f"layers.{i}.bias"] = layer.bias.ravel().tolist()
    for entry in record["adapters"]:
        adapter = model.layers[entry["layer"]].adapter
        entry["down"], entry["up"] = adapter.down.ravel().tolist(), adapter.up.ravel().tolist()
    return record


def v1_checkpoint_bytes(model) -> bytes:
    """The bytes a version-1 writer saved for ``model``."""
    return json.dumps(v1_checkpoint_record(model), indent=2, sort_keys=True).encode()


def max_rel_err(a, b, floor=1e-6):
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)))


@pytest.fixture(scope="session")
def tiny_split():
    cfg = UnlearnConfig(data_name="gaussian_blobs:c3:s30:d4:noise0.1", seed=3)
    return generate(cfg.data_spec()).with_deletion(5)


@pytest.fixture(scope="session")
def tiny_original(tiny_split):
    cfg = UnlearnConfig(data_name="gaussian_blobs:c3:s30:d4:noise0.1", seed=3,
                        backbone="mlp:16", train_epochs=25)
    return train_original(tiny_split, cfg), cfg
