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
