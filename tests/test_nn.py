import base64
import hashlib
import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from unlearnkit import (ConfigError, Model, NumericError, ShapeError, build_model,
                        count_flos, softmax)
from unlearnkit.lora import attach_adapter
from unlearnkit.nn import ACTIVATIONS, kl_rows, parse_backbone, validate_labels
from unlearnkit.unlearn import loss_and_grad

from conftest import (central_difference, max_rel_err, v1_checkpoint_bytes,
                      v1_checkpoint_record)


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


def test_a_non_finite_loss_in_loss_and_grad_reads_step_0():
    model = build_model(2, 2, "mlp:3", seed=0)
    with pytest.raises(NumericError, match=r"^training loss became non-finite \(step 0\)$"):
        loss_and_grad(model, np.array([[np.nan, 0.0]]), labels=np.array([0]))


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


checkpoint_kinds = pytest.mark.parametrize("make", [
    lambda: build_model(8, 3, "mlp:32,32", seed=0),
    lambda: build_model(64, 10, "mlp:256,256", seed=3),
    lambda: _adapted(build_model(8, 3, "mlp:32,32", seed=2), 1, 8),
    lambda: build_model(4, 3, "mlp:7,5:tanh", seed=42),
    _stack_member,
    _non_finite,
    lambda: Model(2, [], 2, seed=0),
], ids=["default", "wide", "adapter", "tanh", "stack_member", "non_finite", "no_hidden"])


@checkpoint_kinds
def test_save_writes_the_bytes_of_json_dumps(tmp_path, make):
    m = make()
    path = tmp_path / "model.json"
    m.save(path)
    assert path.read_bytes() == json.dumps(m.to_dict(), indent=2, sort_keys=True).encode()


@checkpoint_kinds
def test_version_1_checkpoints_load_to_the_same_parameters(tmp_path, make):
    m = make()
    path = tmp_path / "model.json"
    path.write_bytes(v1_checkpoint_bytes(m))
    loaded = Model.load(path)
    assert loaded.param_digest() == m.param_digest()
    loaded.save(path)  # and resave as version 2, byte for byte
    m.save(tmp_path / "direct.json")
    assert path.read_bytes() == (tmp_path / "direct.json").read_bytes()


def test_version_2_checkpoint_bytes_are_pinned(tmp_path):
    m = _adapted(build_model(8, 3, "mlp:32,32", seed=2), 1, 8)
    path = tmp_path / "model.json"
    m.save(path)
    record = json.loads(path.read_bytes())
    assert record["format_version"] == 2
    # Each array is base64 of its little-endian float64 bytes, read here by struct.
    for encoded, array in ((record["params"]["layers.2.weight"], m.layers[2].weight),
                           (record["adapters"][0]["up"], m.layers[1].adapter.up)):
        raw = base64.b64decode(encoded, validate=True)
        assert struct.unpack(f"<{array.size}d", raw) == tuple(array.ravel().tolist())
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "c8a9fa3079efd34d28d9ba303be872ce55c289fdca19a8340e38801ae250463f"


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@pytest.mark.parametrize("make", [
    lambda: build_model(8, 3, "mlp:32,32", seed=0),
    lambda: _adapted(build_model(6, 4, "mlp:9,5", seed=1), 1, 2),
    _stack_member,
], ids=["default", "rank2_adapter", "stack_member"])
@given(data=st.data())
def test_any_float64_bit_pattern_survives_a_checkpoint_round_trip(tmp_path, make, data):
    # NaN payloads, signalling NaNs, -0.0 and subnormals included: bytes, not values.
    m = make()
    bits = m._buffer.view(np.uint64)
    bits[...] = data.draw(arrays(np.uint64, bits.shape))
    path = tmp_path / "model.json"
    m.save(path)
    loaded = Model.load(path)
    assert loaded._buffer.view(np.uint64).tobytes() == bits.tobytes()
    assert loaded.param_digest() == m.param_digest()


def _keep(value, n):
    """The first ``n`` values of an encoded array, in its own encoding."""
    if isinstance(value, str):
        return base64.b64encode(base64.b64decode(value)[:8 * n]).decode()
    return value[:n]


def _truncated(record):
    return json.dumps(record, indent=2, sort_keys=True)[:3000]


def _not_an_object(record):
    return json.dumps([record])


def _missing_key(record):
    del record["params"]["layers.1.bias"]


def _wrong_length(record):  # layers.0.weight of mlp:32,32 on 8 inputs holds 256
    record["params"]["layers.0.weight"] = _keep(record["params"]["layers.0.weight"], 255)


def _bad_encoding(record):
    bias = record["params"]["layers.0.bias"]
    record["params"]["layers.0.bias"] = "not base64!" if isinstance(bias, str) else ["x"] * 32


def _adapter_on_missing_layer(record):
    record["adapters"][0]["layer"] = 3


def _adapter_wrong_length(record):  # up of layer 1 at rank 4 holds 32 * 4
    record["adapters"][0]["up"] = _keep(record["adapters"][0]["up"], 127)


@pytest.mark.parametrize("version", [1, 2], ids=["v1", "v2"])
@pytest.mark.parametrize("break_it,message", [
    pytest.param(_truncated, r"line \d+ column \d+", id="truncated"),
    pytest.param(_not_an_object, "not a JSON object", id="not_an_object"),
    pytest.param(_missing_key, "no key 'layers.1.bias'", id="missing_key"),
    pytest.param(_wrong_length, "array layers.0.weight has", id="wrong_length"),
    pytest.param(_bad_encoding, "array layers.0.bias does not decode", id="bad_encoding"),
    pytest.param(_adapter_on_missing_layer, "adapters.0 is on layer 3",
                 id="adapter_on_missing_layer"),
    pytest.param(_adapter_wrong_length, "array adapters.0.up has", id="adapter_wrong_length"),
])
def test_a_malformed_checkpoint_raises_config_error_naming_file_and_array(
        tmp_path, version, break_it, message):
    m = _adapted(build_model(8, 3, "mlp:32,32", seed=2), 1, 4)
    record = m.to_dict() if version == 2 else v1_checkpoint_record(m)
    text = break_it(record) or json.dumps(record, indent=2, sort_keys=True)
    path = tmp_path / "model.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match=message) as info:
        Model.load(path)
    assert str(info.value).startswith(f"bad checkpoint {path}: ")


def test_layer_dims_read_the_last_two_axes_on_a_stacked_model():
    models = [build_model(5, 3, "mlp:7,4", seed=s) for s in range(3)]
    stacked = Model.stack(models)
    dims = [(5, 7), (7, 4), (4, 3)]
    assert [(layer.in_dim, layer.out_dim) for layer in stacked.layers] == dims
    assert [(layer.in_dim, layer.out_dim) for layer in models[0].layers] == dims


def _plain_forward(m, x):
    """Logits, layer inputs, adapter projections and pre-activations of ``m``
    by the plain expressions ``x @ W.T + b``, each in a fresh array."""
    act = {"relu": lambda z: np.maximum(z, 0.0), "tanh": np.tanh}[m.activation]
    h, inputs, mids, pre = x, [], [], []
    for i, layer in enumerate(m.layers):
        inputs.append(h)
        mid = None
        if layer.adapter is not None:
            ad = layer.adapter
            mid = h @ ad.down.swapaxes(-1, -2)
            z = h @ layer.weight.swapaxes(-1, -2) + ad.scale * (mid @ ad.up.swapaxes(-1, -2))
            z = z + layer.bias[..., None, :]
        else:
            z = h @ layer.weight.swapaxes(-1, -2) + layer.bias[..., None, :]
        mids.append(mid)
        if i < len(m.layers) - 1:
            pre.append(z)
            h = act(z)
    return z, inputs, mids, pre


def _with_exact_zero_unit(m):
    """``m`` with hidden unit 0 of layer 0 zeroed, so its pre-activation is exactly 0.0."""
    m.layers[0].weight[..., 0, :] = 0.0
    m.layers[0].bias[..., 0] = 0.0
    return m


@pytest.mark.parametrize("make", [
    lambda: build_model(6, 4, "mlp:64,48", seed=0),
    lambda: Model.stack([build_model(6, 4, "mlp:64,48", seed=s) for s in range(3)]),
    lambda: _adapted(build_model(6, 4, "mlp:64,48,32", seed=1), 1, 8),
    lambda: build_model(6, 4, "mlp:40,30,20:tanh", seed=2),
    lambda: Model.stack([build_model(6, 4, "mlp:40,30,20:tanh", seed=s) for s in range(3)]),
    lambda: Model.stack([_adapted(build_model(6, 4, "mlp:24,16", seed=s), 1, 2, seed=s)
                         for s in range(2)]),
], ids=["2d", "stacked", "adapter", "tanh", "stacked_tanh", "stacked_rank2_adapter"])
def test_logits_match_forward_cache_bytewise_as_batches_grow_and_shrink(make):
    # Both are checked against the plain expressions, byte for byte: logits, every
    # cached activation and adapter projection, and the activation's backward mask.
    m = _with_exact_zero_unit(make())
    forward, backward = ACTIVATIONS[m.activation]
    rng = np.random.default_rng(5)
    returned = []
    for rows in (7, 300, 20, 301, 1):
        x = rng.standard_normal(m._lead + (rows, 6))
        x[..., 0, 0] = np.nan  # every pre-activation of row 0 is NaN
        expected_logits, expected_inputs, expected_mids, expected_pre = _plain_forward(m, x)
        logits = m.logits(x)
        assert logits.tobytes() == expected_logits.tobytes()
        cached_logits, (inputs, mids) = m.forward_cache(x)
        assert cached_logits.tobytes() == expected_logits.tobytes()
        assert [a.tobytes() for a in inputs] == [a.tobytes() for a in expected_inputs]
        assert [None if a is None else a.tobytes() for a in mids] == \
               [None if a is None else a.tobytes() for a in expected_mids]
        for y, z in zip(inputs[1:], expected_pre):
            g = rng.standard_normal(z.shape)
            plain = g * (z > 0.0) if m.activation == "relu" else g * (1.0 - forward(z) ** 2)
            assert backward(g, y).tobytes() == plain.tobytes()
        if m.activation == "relu":  # the crafted values reach the mask
            assert (expected_pre[0][..., 1:, 0] == 0.0).all()
            assert np.isnan(expected_pre[0][..., 0, :]).all()
        returned.append((logits, logits.copy()))
    for logits, copy in returned:  # a later call never writes into an earlier result
        assert logits.tobytes() == copy.tobytes()


def test_relu_backward_masks_exactly_where_the_pre_activation_is_positive():
    z = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1.0, -1.0])
    forward, backward = ACTIVATIONS["relu"]
    g = np.arange(1.0, z.size + 1.0)
    y = z.copy()
    forward(y, out=y)  # in place, as forward_cache runs it
    assert backward(g, y).tobytes() == (g * (z > 0.0)).tobytes()


def test_a_repeated_forward_allocates_only_the_logits():
    m = build_model(64, 10, "mlp:256,256", seed=0)
    rng = np.random.default_rng(0)
    m.forward_cache(rng.standard_normal((256, 64)))
    x = rng.standard_normal((256, 64))
    y, b = np.zeros((256, 256)), np.zeros(256)
    tracemalloc.start()
    try:
        y += b  # a broadcast ufunc takes a transient iterator buffer, as the bias add does
        ufunc_buffer = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        logits, _ = m.forward_cache(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= logits.nbytes + ufunc_buffer + 4096


@pytest.mark.parametrize("rows", [100, 1800])
def test_an_adapted_layer_holds_one_adapter_temporary(rows):
    """``logits`` of ``mlp:256,256`` with an adapter on layer 1 holds one ``(rows, 256)``
    adapter term at a time, scaled in place, not the product and its scaled copy. At
    1800 rows numpy's temporary elision already reused the product for the scaling;
    at 100 rows (a 200 KiB term, under elision's 256 KiB floor) it did not."""
    m = _adapted(build_model(64, 10, "mlp:256,256", seed=0), 1, 8)
    x = np.random.default_rng(0).standard_normal((rows, 64))
    m.logits(x)  # grows the workspace
    y, b = np.zeros((rows, 256)), np.zeros(256)
    tracemalloc.start()
    try:
        y += b  # the bias add's transient iterator buffer
        ufunc_buffer = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        m.logits(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    term, mid = rows * 256 * 8, rows * 8 * 8
    assert peak <= term + mid + ufunc_buffer + 4096


@pytest.mark.parametrize("make", [
    lambda: build_model(6, 4, "mlp:16,12,8", seed=0),
    lambda: build_model(6, 4, "mlp:16,12,8:tanh", seed=0),
    lambda: _adapted(build_model(6, 4, "mlp:16,12,8", seed=1), 1, 2),
    lambda: Model.stack([build_model(6, 4, "mlp:16,12,8:tanh", seed=s) for s in range(2)]),
], ids=["relu", "tanh", "adapter", "stacked"])
def test_backprop_writes_into_no_gradient_its_caller_passed(make):
    """Backprop writes each hidden activation's gradient over that activation, and
    nothing else a caller holds: the gradient it was given, the batch, the adapter
    projections and the logits keep their bytes."""
    m = make()
    rng = np.random.default_rng(0)
    x = rng.standard_normal(m._lead + (5, 6))
    logits, cache = m.forward_cache(x)
    inputs, mids = cache
    g = rng.standard_normal(logits.shape)
    kept = [g, logits, inputs[0]] + [mid for mid in mids if mid is not None]
    before = [a.tobytes() for a in kept]
    m.backprop(cache, g)
    assert [a.tobytes() for a in kept] == before


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



@pytest.mark.parametrize("num_classes, activation, message", [
    (1, "relu", "num_classes must be >= 2, got 1"),
    (3, "gelu", "unknown activation 'gelu'; choose from \\['relu', 'tanh'\\]"),
])
def test_a_model_with_one_class_or_an_unknown_activation_raises_config_error(
        num_classes, activation, message):
    with pytest.raises(ConfigError, match=message):
        Model(4, [8], num_classes, activation)


def test_set_param_vector_of_the_wrong_size_raises_and_keeps_the_parameters():
    m = build_model(4, 3, "mlp:5", seed=1)
    before = m.param_vector()
    with pytest.raises(ShapeError, match=f"vector has 3 entries, model has {before.size}"):
        m.set_param_vector(np.zeros(3))
    np.testing.assert_array_equal(m.param_vector(), before)
