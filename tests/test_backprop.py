"""The graph-free training step: explicit layer backprop over one flat buffer."""

import numpy as np
import pytest

from unlearnkit import (OptimizerState, ParamMask, SuperLossParams, apply_curriculum,
                        attach_adapter, backward, build_model, cross_entropy, kl_loss,
                        merge_adapter, optimizer_step)
from unlearnkit.unlearn import loss_and_grad

from conftest import central_difference, max_rel_err


def _batch(model, n=9, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, model.input_dim))
    y = rng.integers(0, model.num_classes, n)
    teacher = rng.standard_normal((n, model.num_classes)) * 2.0
    return x, y, teacher


def _adapted():
    m = attach_adapter(build_model(5, 4, "mlp:7,6", seed=3), 1, rank=2, scale=0.7, seed=4)
    m.set_param_vector(np.random.default_rng(8).standard_normal(m.num_trainable()) * 0.3)
    return m


def _ce_kl(m, x, y, t):
    logits = m.forward(x)  # one forward pass feeds both terms, as in SCRUB
    return (cross_entropy(logits, y, reduction="none")
            + kl_loss(logits, t, 1.7, reduction="none")).mean()


# case -> (model factory, kernel kwargs, Tensor loss over (model, x, y, teacher))
CASES = {
    "ce": (lambda: build_model(5, 4, "mlp:7,6", seed=1), dict(kind="ce"),
           lambda m, x, y, t: cross_entropy(m.forward(x), y)),
    "kl": (lambda: build_model(5, 4, "mlp:7,6", seed=1), dict(kind="kl"),
           lambda m, x, y, t: kl_loss(m.forward(x), t, 1.7)),
    "ce+kl": (lambda: build_model(5, 4, "mlp:7,6", seed=2), dict(kind="ce+kl"), _ce_kl),
    "curriculum": (lambda: build_model(5, 4, "mlp:7,6", seed=1), dict(kind="ce", curriculum=True),
                   lambda m, x, y, t: apply_curriculum(
                       cross_entropy(m.forward(x), y, reduction="none"),
                       SuperLossParams(lam=0.8))),
    "adapter": (_adapted, dict(kind="ce+kl"), _ce_kl),
    "tanh": (lambda: build_model(5, 4, "mlp:7,6:tanh", seed=5), dict(kind="ce+kl"), _ce_kl),
}


def _kernel(model, x, y, teacher, kind, curriculum=False):
    return loss_and_grad(model, x, labels=y if "ce" in kind else None,
                         teacher=teacher if "kl" in kind else None, temperature=1.7,
                         curriculum=SuperLossParams(lam=0.8) if curriculum else None)


@pytest.mark.parametrize("case", sorted(CASES))
def test_step_kernel_gradient_is_bytewise_the_graph_gradient(case):
    make, kwargs, graph_loss = CASES[case]
    model = make()
    x, y, teacher = _batch(model)
    loss = graph_loss(model, x, y, teacher)
    want = backward(model, loss)
    value, got = _kernel(model, x, y, teacher, **kwargs)
    assert got.tobytes() == want.tobytes()
    assert value == loss.item()


def test_step_kernel_accumulates_two_batches_like_a_summed_graph():
    model = build_model(5, 4, "mlp:7,6", seed=6)
    xa, _, ta = _batch(model, seed=1)
    xb, _, tb = _batch(model, n=5, seed=2)
    want = backward(model, kl_loss(model.forward(xa), ta) + kl_loss(model.forward(xb), tb))
    loss_and_grad(model, xa, teacher=ta)
    _, got = loss_and_grad(model, xb, teacher=tb, accumulate=True)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("case", ["ce+kl", "adapter", "tanh"])
def test_step_kernel_gradient_matches_finite_differences(case):
    make, kwargs, _ = CASES[case]
    model = make()
    x, y, teacher = _batch(model, seed=4)
    grad = _kernel(model, x, y, teacher, **kwargs)[1].copy()
    fd = central_difference(lambda m: _kernel(m, x, y, teacher, **kwargs)[0], model)
    assert max_rel_err(grad, fd) < 1e-4


@pytest.mark.parametrize("kind", ["sgd", "adam"])
def test_masked_step_leaves_masked_buffer_bytes_unchanged(kind):
    model = build_model(4, 3, "mlp:6", seed=2)
    n = model.num_trainable()
    state = OptimizerState(kind, 0.1)
    optimizer_step(state, model, np.ones(n))  # stale Adam moments everywhere
    mask = ParamMask(np.random.default_rng(0).random(n) < 0.5)
    before = model.params.copy()
    optimizer_step(state, model, np.linspace(0.5, 1.5, n), mask)
    frozen = ~mask.selected
    assert model.params[frozen].tobytes() == before[frozen].tobytes()
    assert np.all(model.params[mask.selected] != before[mask.selected])


def test_set_param_vector_writes_through_to_layer_views():
    model = build_model(3, 2, "mlp:4", seed=0)
    views = [t.data for t in model.trainable_tensors()]
    values = np.arange(model.num_trainable(), dtype=np.float64)
    model.set_param_vector(values)
    offset = 0
    for layer_view, t in zip(views, model.trainable_tensors()):
        assert t.data is layer_view and np.shares_memory(t.data, model.params)
        assert np.array_equal(t.data.ravel(), values[offset:offset + t.data.size])
        offset += t.data.size
    assert np.array_equal(model.param_vector(), values)
    assert not np.shares_memory(model.param_vector(), model.params)


def test_set_param_vector_on_an_adapted_model_leaves_the_base_frozen():
    model = attach_adapter(build_model(3, 2, "mlp:4", seed=0), 0, rank=2)
    base = [layer.weight.data.copy() for layer in model.layers]
    model.set_param_vector(np.ones(model.num_trainable()))
    assert np.array_equal(model.layers[0].adapter.up.data, np.ones((4, 2)))
    for layer, ref in zip(model.layers, base):
        assert np.array_equal(layer.weight.data, ref)


def _tensors(model):
    out = []
    for layer in model.layers:
        out += [layer.weight.data, layer.bias.data]
        if layer.adapter is not None:
            out += [layer.adapter.down.data, layer.adapter.up.data]
    return out


@pytest.mark.parametrize("derive", ["clone", "attach", "merge"])
def test_derived_models_never_share_a_buffer(derive):
    original = attach_adapter(build_model(4, 3, "mlp:5", seed=1), 0, rank=2, seed=2)
    original.set_param_vector(np.random.default_rng(3).standard_normal(original.num_trainable()))
    if derive == "clone":
        derived = original.clone()
    elif derive == "attach":
        derived = attach_adapter(original, 1, rank=2)
    else:
        derived = merge_adapter(original)
    digest = original.param_digest()
    for mine in _tensors(derived):
        assert not any(np.shares_memory(mine, theirs) for theirs in _tensors(original))
    derived.set_param_vector(derived.param_vector() + 1.0)
    optimizer_step(OptimizerState.adam(0.1), derived, np.ones(derived.num_trainable()))
    assert original.param_digest() == digest
