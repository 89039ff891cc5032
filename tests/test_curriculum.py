import math

import mpmath
import numpy as np
import pytest

from unlearnkit import ConfigError, DomainError, Model, NumericError, build_model, nn
from unlearnkit.curriculum import SuperLossParams, lambert_w0, superloss_weights
from unlearnkit.unlearn import loss_and_grad


def halley_oracle(x, w0=0.5, iters=200):
    """Independent Halley iteration for w*exp(w) = x, no shared code with the impl."""
    w = w0
    for _ in range(iters):
        ew = math.exp(w)
        f = w * ew - x
        denom = ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0)
        w -= f / denom
    return w


def test_lambert_identities():
    assert lambert_w0(0.0) == 0.0
    assert abs(lambert_w0(math.e) - 1.0) <= 1e-12
    assert lambert_w0(-math.exp(-1.0)) == -1.0


def test_lambert_w_of_one_against_oracles():
    got = lambert_w0(1.0)
    assert abs(got - halley_oracle(1.0)) < 1e-12
    assert abs(got - float(mpmath.lambertw(1))) < 1e-12
    assert abs(got - 0.5671432904) < 1e-9


def test_lambert_matches_mpmath_on_spread_of_points():
    for x in (-0.367, -0.3, -0.05, 0.25, 0.5, 2.0, 10.0, 123.0, 999.0):
        assert abs(lambert_w0(x) - float(mpmath.lambertw(x))) < 1e-11


def test_lambert_residual_on_grid():
    grid = np.concatenate([
        np.linspace(-math.exp(-1.0), 1.0, 4000),
        np.linspace(1.0, 1000.0, 6000),
    ])
    worst = max(abs(lambert_w0(float(x)) * math.exp(lambert_w0(float(x))) - float(x))
                for x in grid)
    assert worst < 1e-10


def test_lambert_domain_error():
    with pytest.raises(DomainError):
        lambert_w0(-1.0)
    with pytest.raises(DomainError):
        lambert_w0(float("nan"))


def sigma(loss, params):
    """The sigma that superloss_weights gives a batch of the one loss."""
    return superloss_weights(np.array([loss]), params)[1][0]


def test_sigma_at_baseline_is_one():
    params = SuperLossParams(lam=1.0, tau=0.5)
    assert sigma(0.5, params) == pytest.approx(1.0, abs=1e-12)


def test_sigma_at_clamp_boundary_is_e():
    params = SuperLossParams(lam=1.0, tau=0.0)
    assert sigma(-2.0 * math.exp(-1.0), params) == pytest.approx(math.e, abs=1e-12)


def test_sigma_at_beta_one():
    params = SuperLossParams(lam=1.0, tau=0.0)
    expected = math.exp(-halley_oracle(0.5))
    assert sigma(1.0, params) == pytest.approx(expected, abs=1e-12)
    assert sigma(1.0, params) == pytest.approx(0.7035, abs=1e-4)


def test_sigma_monotone_nonincreasing_and_positive():
    params = SuperLossParams(lam=0.8, tau=1.0)
    losses = np.linspace(-5.0, 5.0, 1000)
    sigmas = superloss_weights(losses, params)[1].tolist()
    assert all(s > 0 for s in sigmas)
    assert all(b <= a + 1e-12 for a, b in zip(sigmas, sigmas[1:]))


def test_params_validation():
    with pytest.raises(ConfigError):
        SuperLossParams(lam=0.0)
    with pytest.raises(ConfigError):
        SuperLossParams(lam=1.0, decay=1.0)


def test_batch_at_baseline_gives_zero_loss_and_mean_gradient():
    params = SuperLossParams(lam=1.0, tau=0.7, decay=0.9)
    value, sigmas, tau = superloss_weights(np.full(4, 0.7), params)
    assert value == pytest.approx(0.0, abs=1e-12)
    assert tau == pytest.approx(0.7) and params.tau == 0.7
    # d value / d l_i = sigma_i / n; sigma=1 -> plain mean grad
    assert np.allclose(sigmas / sigmas.size, np.full(4, 0.25))


def test_outlier_gets_smaller_confidence():
    params = SuperLossParams(lam=1.0, tau=1.0)
    sig_base = sigma(1.0, params)
    sig_hard = sigma(6.0, params)
    assert sig_hard < sig_base


def test_tau_initializes_to_first_batch_mean_then_tracks_ema():
    params = SuperLossParams(lam=1.0, decay=0.9)
    *_, tau = superloss_weights(np.array([1.0, 3.0]), params)
    # initialized to mean 2.0, then one EMA step toward the same mean
    assert tau == pytest.approx(2.0)
    assert params.tau is None  # the caller commits it
    params.tau = tau
    *_, tau = superloss_weights(np.array([4.0, 4.0]), params)
    assert tau == pytest.approx(0.9 * 2.0 + 0.1 * 4.0)


def test_empty_batch_rejected():
    with pytest.raises(ConfigError):
        superloss_weights(np.empty(0), SuperLossParams(lam=1.0, tau=0.0))


def test_curriculum_gradient_matches_finite_differences():
    vals = np.array([0.2, 1.4, 0.9, 0.55])
    tau, lam = 0.6, 0.8

    def value(v):
        return superloss_weights(v, SuperLossParams(lam=lam, tau=tau))[0]

    sigmas = superloss_weights(vals, SuperLossParams(lam=lam, tau=tau))[1]
    grad = sigmas / vals.size  # the documented gradient of the value
    h = 1e-6
    for i in range(vals.size):
        up, down = vals.copy(), vals.copy()
        up[i] += h
        down[i] -= h
        fd = (value(up) - value(down)) / (2 * h)
        assert grad[i] == pytest.approx(fd, abs=1e-7)


# ------------------------------------------------------ a step that raises

X = np.random.default_rng(0).standard_normal((6, 4))
Y = np.arange(6) % 3


def _nan_row(x):
    x = x.copy()
    x[..., 2, :] = np.nan
    return x


@pytest.mark.parametrize("tau", [None, 0.5])
@pytest.mark.parametrize("bad", ["nan input", "inf loss"])
def test_a_step_that_raises_leaves_the_curriculum_as_it_was(monkeypatch, bad, tau):
    """The loss check raises before tau moves, so the next clean batch
    trains as it would from a fresh state. A +inf loss row, which the
    clamped kernels never give, reaches lambert_w0 at a set tau."""
    model = build_model(4, 3, "mlp:8", seed=0)
    params = SuperLossParams(tau=tau)
    x, error = _nan_row(X), NumericError
    if bad == "inf loss":
        real = nn.cross_entropy_rows

        def inf_row(logits, labels):
            rows, row_grad = real(logits, labels)
            rows[..., 2] = np.inf
            return rows, row_grad

        monkeypatch.setattr(nn, "cross_entropy_rows", inf_row)
        x, error = X, NumericError if tau is None else DomainError
    with np.errstate(invalid="ignore"), pytest.raises(error):  # inf - inf at an unset tau
        loss_and_grad(model, x, labels=Y, curriculum=[params])
    assert params.tau == tau
    monkeypatch.undo()
    fresh = SuperLossParams(tau=tau)
    value = loss_and_grad(model, X, labels=Y, curriculum=[params])[0]
    assert value == loss_and_grad(model, X, labels=Y, curriculum=[fresh])[0]
    assert params.tau == fresh.tau
    if tau is None:
        assert value == pytest.approx(-0.0131968, abs=1e-7)
        assert params.tau == pytest.approx(1.06984, abs=1e-5)


def test_a_stacked_step_that_raises_moves_no_members_tau():
    model = Model.stack([build_model(4, 3, "mlp:8", seed=s) for s in (0, 1)])
    curricula = [SuperLossParams(), SuperLossParams(tau=0.5)]
    with pytest.raises(NumericError):  # the second member's NaN row
        loss_and_grad(model, np.stack([X, _nan_row(X)]), labels=np.stack([Y, Y]),
                      curriculum=curricula)
    assert [c.tau for c in curricula] == [None, 0.5]


def test_lambert_just_below_the_branch_point_is_clamped_to_minus_one():
    x = -math.exp(-1.0) - 1e-13
    assert x < -math.exp(-1.0)
    assert lambert_w0(x) == -1.0
