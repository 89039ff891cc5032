import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from unlearnkit import (ConfigError, Model, OptimizerState, ParamMask, ShapeError,
                        build_model, optimizer_step)


def _one_param_model(w):
    m = Model(1, [], 2, seed=0)
    m.set_param_vector(np.array([w, 0.0, 0.0, 0.0]))
    return m


def test_sgd_descent_step():
    m = _one_param_model(1.0)
    optimizer_step(OptimizerState("sgd", 0.1), m, np.array([2.0, 0, 0, 0]))
    assert m.param_vector()[0] == pytest.approx(0.8)


def test_sgd_ascent_via_negated_gradient():
    m = _one_param_model(1.0)
    optimizer_step(OptimizerState("sgd", 0.1), m, -np.array([2.0, 0, 0, 0]))
    assert m.param_vector()[0] == pytest.approx(1.2)


@pytest.mark.parametrize("kind", ["sgd", "adam"])
def test_all_false_mask_is_byte_identical_noop(kind):
    m = build_model(3, 2, "mlp:4", seed=5)
    before = m.param_vector().tobytes()
    state = OptimizerState(kind, 0.5)
    mask = ParamMask(np.zeros(m.num_trainable(), dtype=bool))
    optimizer_step(state, m, np.ones(m.num_trainable()), mask)
    assert m.param_vector().tobytes() == before


def test_adam_mask_blocks_even_with_stale_moments():
    m = build_model(2, 2, "mlp:3", seed=1)
    n = m.num_trainable()
    state = OptimizerState("adam", 0.1)
    optimizer_step(state, m, np.ones(n))  # moments now nonzero everywhere
    mask = ParamMask(np.zeros(n, dtype=bool))
    mask.selected[0] = True
    before = m.param_vector()
    optimizer_step(state, m, np.ones(n), mask)
    after = m.param_vector()
    assert after[0] != before[0]
    assert np.array_equal(after[1:], before[1:])


def test_a_mask_edited_between_steps_takes_effect_at_the_next_step():
    m = build_model(2, 2, "mlp:3", seed=1)
    n = m.num_trainable()
    state = OptimizerState("adam", 0.1)
    mask = ParamMask(np.zeros(n, dtype=bool))
    mask.selected[0] = True
    optimizer_step(state, m, np.ones(n), mask)
    mask.selected[:2] = [False, True]
    before = m.param_vector()
    optimizer_step(state, m, np.ones(n), mask)
    after = m.param_vector()
    assert after[0] == before[0] and after[1] != before[1]
    assert np.array_equal(after[2:], before[2:])


def test_adam_matches_reference_update():
    m = _one_param_model(1.0)
    g = np.array([2.0, 0, 0, 0])
    state = OptimizerState("adam", 0.1)
    optimizer_step(state, m, g)
    # step 1 of Adam moves exactly lr * g/(|g| + eps) regardless of beta values
    assert m.param_vector()[0] == pytest.approx(1.0 - 0.1 * 2.0 / (2.0 + 1e-8))


def test_shape_errors():
    m = build_model(2, 2, "mlp:3", seed=0)
    n = m.num_trainable()
    with pytest.raises(ShapeError):
        optimizer_step(OptimizerState("sgd", 0.1), m, np.ones(n + 1))
    with pytest.raises(ShapeError):
        optimizer_step(OptimizerState("sgd", 0.1), m, np.ones(n), ParamMask(np.ones(n + 2, dtype=bool)))


def test_optimizer_validation():
    with pytest.raises(ConfigError):
        OptimizerState("rmsprop", 0.1)
    with pytest.raises(ConfigError):
        OptimizerState("sgd", 0.0)


def test_top_fraction_mask_picks_largest_scores():
    mask = ParamMask.top_fraction(np.array([0.5, 0.1, 0.9, 0.2]), 0.5)
    assert set(np.nonzero(mask.selected)[0]) == {0, 2}
    assert len(mask) == 4


def test_top_fraction_full_and_bounds():
    assert ParamMask.top_fraction(np.arange(4.0), 1.0).selected.all()
    for bad in (0.0, 1.5, -0.2):
        with pytest.raises(ConfigError):
            ParamMask.top_fraction(np.arange(4.0), bad)


def test_top_fraction_breaks_ties_by_index():
    mask = ParamMask.top_fraction(np.array([1.0, 1.0, 1.0, 0.0]), 0.5)
    assert set(np.nonzero(mask.selected)[0]) == {0, 1}


def _adam_oracle(params, grads, selected, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam written as plain expressions, one fresh array per operation."""
    m = v = np.zeros(params.shape)
    for t, g in enumerate(grads, 1):
        g = np.where(selected, g, 0.0)
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        update = lr * m_hat / (np.sqrt(v_hat) + eps)
        np.subtract(params, update, out=params, where=selected)
    return params, m, v


# A default-sized model, one block per row, and one of 10,627 parameters, whose
# updates cross block boundaries (optim.UPDATE_BLOCK = 8192).
MODELS = {"small": (5, 3, "mlp:8,6"), "blocks": (16, 3, "mlp:128,64")}


@pytest.mark.parametrize("k", [None, 1, 3])
@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("model", MODELS)
def test_adam_matches_an_inline_oracle_bytewise_over_50_steps(k, masked, model):
    if k is None:  # one model, unstacked
        m = build_model(*MODELS[model], seed=0)
    else:
        m = Model.stack([build_model(*MODELS[model], seed=s) for s in range(k)])
    shape = m.params.shape  # (T,) alone, (K, T) stacked, a stack of one too
    rng = np.random.default_rng(11)
    grads = [rng.standard_normal(shape) * rng.choice([1e-6, 1.0, 1e3]) for _ in range(50)]
    selected = rng.random(shape) < 0.6 if masked else np.ones(shape, dtype=bool)
    expected, exp_m, exp_v = _adam_oracle(m.params.copy(), grads, selected)
    state = OptimizerState("adam", 0.01)
    for g in grads:
        optimizer_step(state, m, g, ParamMask(selected) if masked else None)
    assert m.params.tobytes() == expected.tobytes()
    assert state.m.tobytes() == exp_m.tobytes() and state.v.tobytes() == exp_v.tobytes()


def _sgd_oracle(params, grads, selected, lr=0.01):
    """SGD written as plain expressions, one fresh array per operation."""
    for g in grads:
        np.subtract(params, lr * np.where(selected, g, 0.0), out=params, where=selected)
    return params


@pytest.mark.parametrize("kind", ["sgd", "adam"])
def test_a_masked_update_of_a_row_range_crosses_blocks_as_its_oracle_moves(kind):
    stack = Model.stack([build_model(*MODELS["blocks"], seed=s) for s in range(3)])
    rng = np.random.default_rng(4)
    selected = rng.random(stack.params.shape) < 0.5
    grads = [rng.standard_normal((2, stack.params.shape[1])) for _ in range(20)]
    before = stack.params.copy()
    oracle = _sgd_oracle if kind == "sgd" else lambda *a: _adam_oracle(*a)[0]
    expected = oracle(before[1:].copy(), grads, selected[1:])
    state = OptimizerState(kind, 0.01)
    for g in grads:
        optimizer_step(state, stack, g, ParamMask(selected), slice(1, 3))
    assert stack.params[1:].tobytes() == expected.tobytes()
    assert stack.params[0].tobytes() == before[0].tobytes()


def test_adam_states_replaced_from_one_fresh_state_move_independently():
    fresh = OptimizerState("adam", 0.05)
    models = [build_model(3, 2, "mlp:4", seed=s) for s in (0, 1)]
    alone = [mm.clone() for mm in models]
    rng = np.random.default_rng(2)
    grads = [[rng.standard_normal(models[0].num_trainable()) for _ in models] for _ in range(5)]
    states = [replace(fresh) for _ in models]
    for step in grads:  # interleaved, as two phases of one run are
        for state, mm, g in zip(states, models, step):
            optimizer_step(state, mm, g)
    for i, mm in enumerate(alone):
        state = replace(fresh)
        for step in grads:
            optimizer_step(state, mm, step[i])
        assert mm.params.tobytes() == models[i].params.tobytes()


@pytest.mark.parametrize("kind", ["sgd", "adam"])
@pytest.mark.parametrize("masked", [False, True], ids=["dense", "masked"])
@pytest.mark.parametrize("model", MODELS)
def test_optimizer_step_leaves_its_gradient_as_it_was(kind, masked, model):
    stack = Model.stack([build_model(*MODELS[model], seed=s) for s in range(3)])
    rng = np.random.default_rng(0)
    mask = ParamMask(rng.random(stack.params.shape) < 0.5) if masked else None
    state = OptimizerState(kind, 0.1)
    for _ in range(2):  # the first Adam update makes its moments, the second reuses them
        gradient = rng.standard_normal((2, stack.params.shape[1]))
        before = gradient.tobytes()
        optimizer_step(state, stack, gradient, mask, slice(1, 3))
        assert gradient.tobytes() == before


def _traced_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_a_wide_adam_update_allocates_no_model_sized_scratch():
    """On ``mlp:256,256`` (85,002 parameters, 0.68 MB a copy) the first Adam update
    makes its two moments and two block-sized work arrays; it peaked at 2.72 MB when
    its work arrays were as long as the model. A masked update after it allocates one
    block's mask and indices at a time; it peaked at 1.02 MB with a masked copy of
    the whole gradient and the flat indices of all of it."""
    m = build_model(64, 10, "mlp:256,256", seed=0)
    rng = np.random.default_rng(0)
    gradient = rng.standard_normal(m.params.shape)
    mask = ParamMask(rng.random(m.params.shape) < 0.5)
    state = OptimizerState("adam", 0.01)
    assert _traced_mb(lambda: optimizer_step(state, m, gradient)) <= 1.6
    assert _traced_mb(lambda: optimizer_step(state, m, gradient, mask)) <= 0.3


def test_an_adam_state_made_for_another_model_raises_shape_error():
    state = OptimizerState("adam", 0.01)
    small, large = build_model(3, 2, "mlp:4", seed=0), build_model(3, 2, "mlp:5", seed=0)
    optimizer_step(state, small, np.ones(small.num_trainable()))
    before = large.param_vector()
    with pytest.raises(ShapeError, match="created for a different model"):
        optimizer_step(state, large, np.ones(large.num_trainable()))
    np.testing.assert_array_equal(large.param_vector(), before)
