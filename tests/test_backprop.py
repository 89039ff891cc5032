"""The training step: explicit layer backprop over one flat buffer."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from unlearnkit import (Model, OptimizerState, ParamMask, SuperLossParams, attach_adapter,
                        build_model, merge_adapter, optimizer_step)
from unlearnkit.unlearn import loss_and_grad

from conftest import central_difference, max_rel_err

TEMPERATURE, LAM, TAU = 1.7, 0.8, 1.2


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


# case -> (model factory, kernel kwargs)
CASES = {
    "ce": (lambda: build_model(5, 4, "mlp:7,6", seed=1), dict(kind="ce")),
    "kl": (lambda: build_model(5, 4, "mlp:7,6", seed=1), dict(kind="kl")),
    "ce+kl": (lambda: build_model(5, 4, "mlp:7,6", seed=2), dict(kind="ce+kl")),
    "curriculum": (lambda: build_model(5, 4, "mlp:7,6", seed=1),
                   dict(kind="ce", curriculum=True)),
    "adapter": (_adapted, dict(kind="ce+kl")),
    "tanh": (lambda: build_model(5, 4, "mlp:7,6:tanh", seed=5), dict(kind="ce+kl")),
}


def _kernel(model, x, y, teacher, kind, curriculum=False):
    return loss_and_grad(model, x, labels=y if "ce" in kind else None,
                         teacher=teacher if "kl" in kind else None, temperature=TEMPERATURE,
                         curriculum=[SuperLossParams(lam=LAM, tau=TAU)] if curriculum else None)


def _log_softmax(z):
    z = z - z.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def _oracle(model, x, y, teacher, kind, curriculum=False):
    """The step's loss value from a plain forward with each layer's effective weight."""
    h = x
    for i, layer in enumerate(model.layers):
        w = layer.weight
        if layer.adapter is not None:
            w = w + layer.adapter.scale * (layer.adapter.up @ layer.adapter.down)
        h = h @ w.T + layer.bias
        if i < len(model.layers) - 1:
            h = np.tanh(h) if model.activation == "tanh" else np.maximum(h, 0.0)
    rows = np.zeros(len(x))
    if "ce" in kind:
        rows -= _log_softmax(h)[np.arange(len(y)), y]
    if "kl" in kind:
        ls, lt = _log_softmax(h / TEMPERATURE), _log_softmax(teacher / TEMPERATURE)
        rows += (np.exp(ls) * (ls - lt)).sum(axis=1)
    if not curriculum:
        return rows.mean()
    beta = np.maximum((rows - TAU) / LAM, -2.0 / math.e)
    log_sigma = -np.array([float(mpmath.lambertw(b / 2.0).real) for b in beta])
    return np.mean((rows - TAU) * np.exp(log_sigma) + LAM * log_sigma ** 2)


@pytest.mark.parametrize("case", sorted(CASES))
def test_step_kernel_value_matches_a_numpy_oracle(case):
    make, kwargs = CASES[case]
    model = make()
    x, y, teacher = _batch(model)
    value = _kernel(model, x, y, teacher, **kwargs)[0]
    assert value == pytest.approx(_oracle(model, x, y, teacher, **kwargs), rel=1e-12)


def test_step_kernel_accumulates_two_batches_bytewise():
    model = build_model(5, 4, "mlp:7,6", seed=6)
    xa, _, ta = _batch(model, seed=1)
    xb, _, tb = _batch(model, n=5, seed=2)
    ga = loss_and_grad(model, xa, teacher=ta)[1].copy()  # the buffer is reused
    want = ga + loss_and_grad(model, xb, teacher=tb)[1]
    loss_and_grad(model, xa, teacher=ta)
    _, got = loss_and_grad(model, xb, teacher=tb, accumulate=True)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("case", sorted(CASES))
def test_step_kernel_gradient_matches_finite_differences(case):
    make, kwargs = CASES[case]
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

    def layer_views():
        return [t for layer in model.layers for t in (layer.weight, layer.bias)]

    views = layer_views()
    values = np.arange(model.num_trainable(), dtype=np.float64)
    model.set_param_vector(values)
    offset = 0
    for layer_view, t in zip(views, layer_views(), strict=True):
        assert t is layer_view and np.shares_memory(t, model.params)
        assert np.array_equal(t.ravel(), values[offset:offset + t.size])
        offset += t.size
    assert np.array_equal(model.param_vector(), values)
    assert not np.shares_memory(model.param_vector(), model.params)


def test_set_param_vector_on_an_adapted_model_leaves_the_base_frozen():
    model = attach_adapter(build_model(3, 2, "mlp:4", seed=0), 0, rank=2)
    base = [layer.weight.copy() for layer in model.layers]
    model.set_param_vector(np.ones(model.num_trainable()))
    assert np.array_equal(model.layers[0].adapter.up, np.ones((4, 2)))
    for layer, ref in zip(model.layers, base):
        assert np.array_equal(layer.weight, ref)


def _arrays(model):
    out = []
    for layer in model.layers:
        out += [layer.weight, layer.bias]
        if layer.adapter is not None:
            out += [layer.adapter.down, layer.adapter.up]
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
    for mine in _arrays(derived):
        assert not any(np.shares_memory(mine, theirs) for theirs in _arrays(original))
    derived.set_param_vector(derived.param_vector() + 1.0)
    optimizer_step(OptimizerState("adam", 0.1), derived, np.ones(derived.num_trainable()))
    assert original.param_digest() == digest


_WIDTHS = st.one_of(st.integers(1, 64), st.just(256))


@settings(max_examples=150, deadline=None)
@given(batch=st.integers(1, 300), fan_in=_WIDTHS, fan_out=_WIDTHS,
       lead=st.sampled_from([(), (1,), (2,)]), adapter=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(batch=252, fan_in=63, fan_out=63, lead=(), adapter=False, seed=0)
@example(batch=252, fan_in=63, fan_out=63, lead=(1,), adapter=False, seed=0)
def test_weight_gradient_layout_keeps_the_bytes_of_the_transposed_product(
        batch, fan_in, fan_out, lead, adapter, seed):
    """A layer's weight gradient holds the bytes of ``(h^T @ g)^T``, for a
    layer input ``h`` and output gradient ``g``, unstacked or stacked (K = 1,
    the path every solo run trains on, and K = 2); so do an adapter's ``down``
    and ``up`` gradients, from their own inputs and output gradients.

    The golden digests were recorded with this form. The contiguous
    ``g^T @ h`` is the same sum but not the same bytes at every shape (a
    batch of 252 over a 63 x 63 layer on OpenBLAS differs in its last bits).
    """
    rng = np.random.default_rng(seed)
    models = [build_model(fan_in, 2, f"mlp:{fan_out}", seed=k) for k in range(max(lead, default=1))]
    if adapter:
        models = [attach_adapter(m, 0, rank=min(fan_in, fan_out, 3), scale=0.7) for m in models]
        for m in models:
            m.set_param_vector(rng.standard_normal(m.num_trainable()))
    model = Model.stack(models) if lead else models[0]
    h = rng.standard_normal(lead + (batch, fan_in))
    g = rng.standard_normal(lead + (batch, fan_out))
    ad = model.layers[0].adapter
    mid = None if ad is None else h @ ad.down.swapaxes(-1, -2)
    model.grad.fill(0.0)
    model._backprop_layer(0, ([h, None], [mid, None]), g)

    def transposed(a, b):  # added into a zeroed buffer, as the layer does
        return (0.0 + (a.swapaxes(-1, -2) @ b).swapaxes(-1, -2)).tobytes()

    if ad is None:
        pairs = [(model._grad_views[0][0], transposed(h, g))]
    else:
        g_low = g * ad.scale
        g_down, g_up = model._grad_views[0]
        pairs = [(g_down, transposed(h, g_low @ ad.up)), (g_up, transposed(mid, g_low))]
    for got, want in pairs:
        assert got.tobytes() == want
