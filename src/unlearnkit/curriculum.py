"""Confidence-weighted curriculum loss with its Lambert-W closed form.

Each sample's loss l is weighted by a confidence sigma* that solves
``min_sigma (l - tau) * sigma + lam * (log sigma)**2``, down-weighting samples
far above the running baseline tau. The minimizer has the closed form
``sigma* = exp(-W(max(-2/e, (l - tau)/lam) / 2))`` on the principal branch
of the Lambert W function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError

_BRANCH_POINT = -math.exp(-1.0)  # -1/e, the lower edge of W0's domain
_MAX_ITER = 50


def lambert_w0(x: float) -> float:
    """Principal branch of the Lambert W function: solves ``w * exp(w) = x``.

    Uses a piecewise initial guess (branch-point series near -1/e, the
    log-log asymptote for large x) refined by Halley iteration, following
    Corless et al. (1996). Accurate to ``|w*exp(w) - x| < 1e-10`` across
    [-1/e, 1e3].
    """
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"lambert_w0 requires a finite argument, got {x}")
    if x < _BRANCH_POINT:
        if x > _BRANCH_POINT - 1e-12:
            x = _BRANCH_POINT
        else:
            raise DomainError(f"lambert_w0 domain is [-1/e, inf), got {x}")
    if x == 0.0:
        return 0.0
    if x == _BRANCH_POINT:
        return -1.0

    if x < -0.25:
        # Series around the branch point in p = sqrt(2 (e x + 1)).
        p = math.sqrt(2.0 * (math.e * x + 1.0))
        w = -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0 + p * (-43.0 / 540.0))))
    elif x < math.e:
        w = x * (1.0 - x + 1.5 * x * x) if abs(x) < 0.5 else math.log1p(x)
    else:
        log_x = math.log(x)
        log_log = math.log(log_x)
        w = log_x - log_log + log_log / log_x

    tol = 1e-13 * max(1.0, abs(x))
    for _ in range(_MAX_ITER):
        e_w = math.exp(w)
        residual = w * e_w - x
        if abs(residual) <= tol:
            break
        w_plus = w + 1.0
        if w_plus == 0.0:
            w_plus = 1e-300
        denom = e_w * w_plus - (w + 2.0) * residual / (2.0 * w_plus)
        step = residual / denom
        w -= step
        if abs(step) <= 1e-16 * (1.0 + abs(w)):
            break
    return w


@dataclass
class SuperLossParams:
    """State for curriculum weighting: regularizer lam and running baseline tau."""

    lam: float = 1.0
    tau: float | None = None  # initialized to the first batch mean when unset
    decay: float = 0.9

    def __post_init__(self):
        if self.lam <= 0:
            raise ConfigError(f"lam must be > 0, got {self.lam}")
        if not 0.0 <= self.decay < 1.0:
            raise ConfigError(f"decay must be in [0, 1), got {self.decay}")


def superloss_weights(losses: np.ndarray,
                      params: SuperLossParams) -> tuple[float, np.ndarray, float]:
    """Weighted scalar loss over a batch of per-sample losses, the sigmas, and
    the baseline the batch moves ``tau`` to.

    The value is ``mean_i (l_i - tau) * sigma_i + lam * (log sigma_i)**2``
    with each sigma_i computed at its loss. Its exact derivative with
    respect to l_i is ``sigma_i / n`` (the confidence is the argmin, so its
    own dependence on l_i drops out). An unset ``params.tau`` is taken as
    the batch's mean; the returned baseline is ``tau``'s moving average
    toward that mean. Assigns nothing: the caller commits the baseline to
    ``params.tau`` once the value is accepted.
    """
    vals = losses.ravel()
    if vals.size == 0:
        raise ConfigError("superloss_weights needs a non-empty batch")
    mean = float(vals.mean())
    tau = mean if params.tau is None else params.tau
    lam = params.lam
    floor = -2.0 * math.exp(-1.0)
    log_sigmas = np.array([-lambert_w0(0.5 * max(floor, (v - tau) / lam)) for v in vals])
    sigmas = np.exp(log_sigmas)
    value = float(np.mean((vals - tau) * sigmas + lam * log_sigmas ** 2))
    return value, sigmas, params.decay * tau + (1.0 - params.decay) * mean
