import numpy as np
import pytest

from unlearnkit import ConfigError, attach_adapter, build_model, merge_adapter
from unlearnkit.optim import OptimizerState, optimizer_step
from unlearnkit.unlearn import loss_and_grad

from conftest import central_difference, max_rel_err


def test_rank_validation():
    m = build_model(8, 3, "mlp:8", seed=0)
    with pytest.raises(ConfigError):
        attach_adapter(m, 0, rank=0)
    with pytest.raises(ConfigError):
        attach_adapter(m, 0, rank=9)
    with pytest.raises(ConfigError):
        attach_adapter(m, 5, rank=1)
    adapted = attach_adapter(m, 0, rank=2)
    with pytest.raises(ConfigError):
        attach_adapter(adapted, 0, rank=2)


def test_fresh_adapter_preserves_forward():
    m = build_model(4, 3, "mlp:6,6", seed=1)
    adapted = attach_adapter(m, 1, rank=2, seed=9)
    x = np.random.default_rng(0).standard_normal((5, 4))
    assert np.array_equal(m.logits(x), adapted.logits(x))


def test_attach_leaves_original_untouched():
    m = build_model(4, 3, "mlp:6", seed=1)
    digest = m.param_digest()
    attach_adapter(m, 0, rank=2)
    assert m.param_digest() == digest
    assert all(layer.adapter is None for layer in m.layers)


def test_trainable_counts_rank2_on_8x8():
    m = build_model(8, 3, "mlp:8", seed=0)
    adapted = attach_adapter(m, 0, rank=2)
    assert adapted.num_trainable() == 32


def test_only_adapter_params_are_trainable():
    m = build_model(4, 3, "mlp:6", seed=2)
    adapted = attach_adapter(m, 0, rank=2)
    assert adapted.num_trainable() == 2 * 4 + 6 * 2
    base_digest_before = m.param_digest()
    x = np.random.default_rng(1).standard_normal((8, 4))
    y = np.random.default_rng(2).integers(0, 3, 8)
    opt = OptimizerState("adam", 0.05)
    for _ in range(10):
        grad = loss_and_grad(adapted, x, labels=y)[1]
        optimizer_step(opt, adapted, grad)
    for layer, ref in zip(adapted.layers, m.layers):
        assert np.array_equal(layer.weight, ref.weight)
        assert np.array_equal(layer.bias, ref.bias)
    assert m.param_digest() == base_digest_before


def test_adapter_gradient_matches_fd():
    m = build_model(3, 3, "mlp:5", seed=3)
    adapted = attach_adapter(m, 0, rank=2, seed=4)
    # give the zero 'up' matrix some mass so the gradient path is generic
    adapted.set_param_vector(np.random.default_rng(5).standard_normal(adapted.num_trainable()) * 0.3)
    x = np.random.default_rng(6).standard_normal((4, 3))
    y = np.array([0, 1, 2, 0])
    grad = loss_and_grad(adapted, x, labels=y)[1].copy()
    fd = central_difference(lambda mm: loss_and_grad(mm, x, labels=y)[0], adapted)
    assert max_rel_err(grad, fd) < 1e-4


def test_gradient_through_an_adapter_above_another_matches_fd():
    # Layer 2's adapter passes its input gradient down to layer 0's.
    base = build_model(4, 3, "mlp:6,5", seed=1)
    adapted = attach_adapter(attach_adapter(base, 0, rank=2, seed=2), 2, rank=2, scale=0.7, seed=3)
    rng = np.random.default_rng(4)
    adapted.set_param_vector(rng.standard_normal(adapted.num_trainable()) * 0.3)
    x = np.random.default_rng(5).standard_normal((5, 4))
    y = np.array([0, 1, 2, 1, 0])
    grad = loss_and_grad(adapted, x, labels=y)[1].copy()
    fd = central_difference(lambda mm: loss_and_grad(mm, x, labels=y)[0], adapted)
    assert max_rel_err(grad, fd) < 1e-4


@pytest.mark.parametrize("seed", range(6))
def test_merge_matches_adapted_forward_and_rank(seed):
    rng = np.random.default_rng(seed)
    m = build_model(6, 3, "mlp:7,5", seed=seed)
    layer = int(rng.integers(0, 2))
    rank = int(rng.integers(1, 5))
    adapted = attach_adapter(m, layer, rank=rank, scale=float(rng.uniform(0.2, 2.0)), seed=seed + 50)
    adapted.set_param_vector(rng.standard_normal(adapted.num_trainable()) * 0.4)
    merged = merge_adapter(adapted)
    assert all(layer.adapter is None for layer in merged.layers)
    x = rng.standard_normal((10, 6))
    assert np.max(np.abs(merged.logits(x) - adapted.logits(x))) < 1e-6
    delta = merged.layers[layer].weight - m.layers[layer].weight
    singular = np.linalg.svd(delta, compute_uv=False)
    assert np.all(singular[rank:] <= 1e-8 * singular[0])
