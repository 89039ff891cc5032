import json
from pathlib import Path

import numpy as np
import pytest

from unlearnkit import UnlearnConfig
from unlearnkit.data import generate
from unlearnkit.unlearn import METHODS, train_original


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


def run_statuses(root) -> dict:
    """Each run directory under the artifacts ``root`` that holds a ``status.json``, mapped
    to the record that file holds."""
    return {path.parent: json.loads(path.read_text())
            for path in sorted(Path(root).glob("*/*/status.json"))}


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


def spy_trained_rows(monkeypatch, key=lambda config: config.seed) -> dict:
    """Record the training-row indices every registered method trains on.

    Each planner in ``METHODS`` is wrapped so that its plan's passes append
    the rows of every part of every step, in the order the training loop
    draws them, to the returned dict's list under ``key(config)`` of the
    run (its seed by default). The passes are only wrapped, so the draws
    and the training are those of an unspied run.
    """
    trained: dict = {}

    def spied(planner):
        def plan(f, split, config):
            rows = trained.setdefault(key(config), [])

            def steps(inner):
                for parts in inner:
                    rows.extend(part[0] for part in parts)
                    yield parts

            result = planner(f, split, config)
            return result._replace(passes=((phase, ascending, steps(inner))
                                           for phase, ascending, inner in result.passes))
        return plan

    for name, method in list(METHODS.items()):
        monkeypatch.setitem(METHODS, name, method._replace(plan=spied(method.plan)))
    return trained


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
    return train_original(tiny_split, cfg).model, cfg
