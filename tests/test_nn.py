import json
import math

import numpy as np
import pytest

from unlearnkit import (ConfigError, Model, NumericError, ShapeError, build_model,
                        count_flos, softmax)
from unlearnkit.lora import attach_adapter
from unlearnkit.nn import kl_rows, parse_backbone, representation_rows, validate_labels
from unlearnkit.unlearn import loss_and_grad

from conftest import central_difference, max_rel_err


def test_zero_weight_model_gives_uniform_softmax():
    m = build_model(4, 3, "mlp:5", seed=0)
    m.set_param_vector(np.zeros(m.num_trainable()))
    logits = m.logits(np.random.default_rng(0).standard_normal((6, 4)))
    assert np.array_equal(logits, np.zeros((6, 3)))
    probs = softmax(logits)
    assert np.allclose(probs, 1.0 / 3.0)


def test_identity_single_layer_forward():
    m = Model(2, [], 2, seed=0)
    m.set_param_vector(np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0]))  # W=I, b=0
    assert np.allclose(m.logits(np.array([[1.0, 2.0]])), [[1.0, 2.0]])


def test_two_layer_forward_matches_handrolled_matmul_oracle():
    # Oracle: explicit triple loops, independent of the numpy matmul path.
    m = build_model(2, 3, "mlp:4", seed=7)
    x = np.random.default_rng(1).standard_normal((3, 2))
    w0, b0 = m.layers[0].weight, m.layers[0].bias
    w1, b1 = m.layers[1].weight, m.layers[1].bias

    def dense(inp, w, b):
        out = [[0.0] * w.shape[0] for _ in range(len(inp))]
        for i in range(len(inp)):
            for j in range(w.shape[0]):
                acc = b[j]
                for k in range(w.shape[1]):
                    acc += inp[i][k] * w[j][k]
                out[i][j] = acc
        return out

    hidden = [[max(v, 0.0) for v in row] for row in dense(x.tolist(), w0, b0)]
    expected = np.array(dense(hidden, w1, b1))
    assert np.allclose(m.logits(x), expected, atol=1e-12)


def test_forward_shape_errors():
    m = build_model(3, 2, "mlp:4", seed=0)
    with pytest.raises(ShapeError):
        m.forward_cache(np.ones((2, 5)))
    with pytest.raises(ShapeError):
        m.forward_cache(np.ones(3))


def test_gradient_of_squared_weight_is_two_w():
    # f(w) = w^2 realized as (logit)^2 with unit input and weight 3.
    model = Model(1, [], 2, seed=0)
    model.set_param_vector(np.array([3.0, 0.0, 0.0, 0.0]))
    out, cache = model.forward_cache(np.array([[1.0]]))
    grad = model.backprop(cache, 2.0 * out)  # d(sum out**2)/d out
    assert abs(grad[0] - 6.0) < 1e-4


def test_uniform_softmax_balanced_labels_zero_bias_gradient():
    m = build_model(2, 2, "mlp:3", seed=0)
    m.set_param_vector(np.zeros(m.num_trainable()))
    x = np.random.default_rng(0).standard_normal((4, 2))
    y = np.array([0, 1, 0, 1])
    grad = loss_and_grad(m, x, labels=y)[1]
    final_bias = grad[-2:]  # last two entries are the output bias
    assert np.allclose(final_bias, 0.0, atol=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_cross_entropy_gradient_matches_fd(seed):
    rng = np.random.default_rng(seed)
    m = build_model(3, 4, "mlp:6,5", seed=seed)
    x = rng.standard_normal((5, 3))
    y = rng.integers(0, 4, 5)
    grad = loss_and_grad(m, x, labels=y)[1].copy()
    fd = central_difference(lambda mm: loss_and_grad(mm, x, labels=y)[0], m)
    assert max_rel_err(grad, fd) < 1e-4


def test_cross_entropy_validates_labels():
    m = build_model(2, 3, "mlp:4", seed=0)
    logits = m.logits(np.ones((2, 2)))
    with pytest.raises(ConfigError):
        validate_labels(logits, np.array([0, 3]))
    with pytest.raises(ShapeError):
        validate_labels(logits, np.array([0, 1, 2]))
    with pytest.raises(ShapeError):
        validate_labels(logits[0], np.array([0, 1]))


@pytest.mark.parametrize("bad", [-1, 3])
def test_step_kernel_rejects_labels_out_of_range(bad):
    m = build_model(3, 3, "mlp:4", seed=0)
    x = np.random.default_rng(0).standard_normal((2, 3))
    with pytest.raises(ConfigError, match=r"labels must lie in \[0, 3\)"):
        loss_and_grad(m, x, labels=[bad, 0])


def test_kl_identical_logits_is_zero():
    logits = np.random.default_rng(0).standard_normal((4, 3))
    assert kl_rows(logits, logits, 1.0)[0].mean() == 0.0


def test_kl_against_direct_summation_oracle_with_clamp():
    # softmax([0, -1e4]) underflows to exactly [1, 0]: the 0 * log(0) term needs the clamp.
    p = np.array([1.0, 0.0])
    q = np.array([0.5, 0.5])
    floor = 1e-12
    oracle = sum(pi * (math.log(max(min(pi, 1.0), floor)) - math.log(max(min(qi, 1.0), floor)))
                 for pi, qi in zip(p, q))
    got = float(kl_rows(np.array([[0.0, -1e4]]), np.array([[0.0, 0.0]]), 1.0)[0][0])
    assert math.isfinite(got) and got > 0
    assert abs(got - oracle) < 1e-12


def test_kl_temperature_halves_logits_before_softmax():
    rng = np.random.default_rng(2)
    s = rng.standard_normal((3, 4))
    t = rng.standard_normal((3, 4))
    floor = 1e-12
    ps, pt = softmax(s / 2.0), softmax(t / 2.0)
    oracle = np.mean([
        sum(ps[i, j] * (math.log(max(ps[i, j], floor)) - math.log(max(pt[i, j], floor)))
            for j in range(4))
        for i in range(3)
    ])
    assert abs(kl_rows(s, t, 2.0)[0].mean() - oracle) < 1e-12


def test_kl_nonnegative_zero_iff_equal():
    rng = np.random.default_rng(5)
    for _ in range(200):
        s = rng.standard_normal((2, 5)) * 3
        t = rng.standard_normal((2, 5)) * 3
        v = kl_rows(s, t, 1.0)[0].mean()
        assert v >= 0.0
        assert kl_rows(s, s, 1.0)[0].mean() == 0.0
        if not np.allclose(softmax(s), softmax(t)):
            assert v > 0.0


def test_kl_gradient_matches_fd():
    rng = np.random.default_rng(9)
    m = build_model(2, 3, "mlp:5", seed=4)
    x = rng.standard_normal((4, 2))
    teacher = rng.standard_normal((4, 3))
    grad = loss_and_grad(m, x, teacher=teacher, temperature=1.7)[1].copy()
    fd = central_difference(
        lambda mm: loss_and_grad(mm, x, teacher=teacher, temperature=1.7)[0], m)
    assert max_rel_err(grad, fd) < 1e-4


def test_kl_errors():
    with pytest.raises(ShapeError):
        kl_rows(np.ones((2, 3)), np.ones((2, 4)), 1.0)
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(ConfigError):
            kl_rows(np.ones((2, 3)), np.ones((2, 3)), bad)
    with pytest.raises(NumericError):
        kl_rows(np.array([[np.inf, 0.0]]), np.ones((1, 2)), 1.0)


def test_representation_distance_value_and_gradient():
    rng = np.random.default_rng(3)
    m = build_model(3, 3, "mlp:6", seed=1)
    x = rng.standard_normal((4, 3))
    target = rng.standard_normal((4, 6))

    def loss_and_grad_of(mm):
        _, cache = mm.forward_cache(x)
        rows, row_grad = representation_rows(cache[0][-1], target)
        mm.grad.fill(0.0)
        return rows.mean(), mm.backprop_hidden(cache, row_grad(np.full(len(rows), 1.0 / len(rows))))

    hidden = np.maximum(x @ m.layers[0].weight.T + m.layers[0].bias, 0.0)
    expected = np.mean(((hidden - target) ** 2).sum(axis=1))
    value, grad = loss_and_grad_of(m)
    assert abs(value - expected) < 1e-12
    grad = grad.copy()
    fd = central_difference(lambda mm: loss_and_grad_of(mm)[0], m)
    assert max_rel_err(grad, fd) < 1e-4
    # the output layer never feeds the representation, so its gradient is zero
    out_params = m.layers[-1].weight.size + m.layers[-1].bias.size
    assert np.array_equal(grad[-out_params:], np.zeros(out_params))


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(11)
    z = rng.standard_normal((50, 7)) * 20
    assert np.all(np.abs(softmax(z).sum(axis=1) - 1.0) < 1e-6)


def test_count_flos_convention():
    m = Model(9, [], 100, seed=0)  # 9*100 + 100 = 1000 parameters
    assert m.num_params() == 1000
    assert count_flos(m, 10, 5) == 3.0e5
    assert count_flos(m, 10, 0) == 0.0
    doubled = Model(19, [], 100, seed=0)  # 2000 parameters
    assert count_flos(doubled, 10, 5) == 2 * count_flos(m, 10, 5)


def test_checkpoint_roundtrip_is_bit_exact(tmp_path):
    m = build_model(4, 3, "mlp:7,5:tanh", seed=42)
    path = tmp_path / "model.json"
    m.save(path)
    loaded = Model.load(path)
    assert loaded.param_digest() == m.param_digest()
    assert loaded.to_dict() == m.to_dict()
    loaded.save(tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def _adapted(model, layer, rank, seed=0):
    """``model`` with a rank-``rank`` adapter on ``layer`` whose ``up`` is not zero."""
    out = attach_adapter(model, layer, rank, scale=0.5, seed=seed)
    up = out.layers[layer].adapter.up
    up[...] = np.random.default_rng(seed).standard_normal(up.shape)
    return out


def _stack_member():
    models = [build_model(6, 4, "mlp:9,5", seed=s) for s in range(3)]
    Model.stack(models)
    return models[1]  # now a view of row 1 of the stacked buffer


def _non_finite():
    m = build_model(3, 2, "mlp:4", seed=1)
    m.layers[0].weight[0, :3] = [np.nan, np.inf, -np.inf]
    m.layers[1].bias[0] = -0.0
    return m


@pytest.mark.parametrize("make", [
    lambda: build_model(8, 3, "mlp:32,32", seed=0),
    lambda: build_model(64, 10, "mlp:256,256", seed=3),
    lambda: _adapted(build_model(8, 3, "mlp:32,32", seed=2), 1, 8),
    lambda: build_model(4, 3, "mlp:7,5:tanh", seed=42),
    _stack_member,
    _non_finite,
    lambda: Model(2, [], 2, seed=0),
], ids=["default", "wide", "adapter", "tanh", "stack_member", "non_finite", "no_hidden"])
def test_save_writes_the_bytes_of_json_dumps(tmp_path, make):
    m = make()
    path = tmp_path / "model.json"
    m.save(path)
    assert path.read_bytes() == json.dumps(m.to_dict(), indent=2, sort_keys=True).encode()


def test_layer_dims_read_the_last_two_axes_on_a_stacked_model():
    models = [build_model(5, 3, "mlp:7,4", seed=s) for s in range(3)]
    stacked = Model.stack(models)
    dims = [(5, 7), (7, 4), (4, 3)]
    assert [(layer.in_dim, layer.out_dim) for layer in stacked.layers] == dims
    assert [(layer.in_dim, layer.out_dim) for layer in models[0].layers] == dims


@pytest.mark.parametrize("make", [
    lambda: build_model(6, 4, "mlp:64,48", seed=0),
    lambda: Model.stack([build_model(6, 4, "mlp:64,48", seed=s) for s in range(3)]),
    lambda: _adapted(build_model(6, 4, "mlp:64,48,32", seed=1), 1, 8),
    lambda: build_model(6, 4, "mlp:40,30,20:tanh", seed=2),
    lambda: Model.stack([build_model(6, 4, "mlp:40,30,20:tanh", seed=s) for s in range(3)]),
], ids=["2d", "stacked", "adapter", "tanh", "stacked_tanh"])
def test_logits_match_forward_cache_bytewise_as_batches_grow_and_shrink(make):
    m = make()
    rng = np.random.default_rng(5)
    returned = []
    for rows in (7, 300, 20, 301, 1):
        x = rng.standard_normal(m._lead + (rows, 6))
        logits = m.logits(x)
        assert logits.tobytes() == m.forward_cache(x)[0].tobytes()
        returned.append((logits, logits.copy()))
    for logits, copy in returned:  # a later call never writes into an earlier result
        assert logits.tobytes() == copy.tobytes()


def test_parse_backbone():
    assert parse_backbone("mlp:16,8") == ([16, 8], "relu")
    assert parse_backbone("mlp") == ([32], "relu")
    assert parse_backbone("mlp:4:tanh") == ([4], "tanh")
    for bad in ("cnn:3", "mlp:0", "mlp:4:swish", "mlp:a,b"):
        with pytest.raises(ConfigError):
            parse_backbone(bad)


def test_checkpoint_version_is_enforced(tmp_path):
    m = build_model(3, 2, "mlp:4", seed=0)
    record = m.to_dict()
    record["format_version"] = 99
    with pytest.raises(ConfigError):
        Model.from_dict(record)

