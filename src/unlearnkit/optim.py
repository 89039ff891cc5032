"""SGD/Adam updates over the flat parameter vector, with boolean masking.

Masking zeroes the gradient at unselected indices before any moment update,
so masked-out parameters (and their Adam moments) never move: the delta
outside the mask is exactly zero, not merely small. On a stacked model
(``nn.Model.stack``) the parameters, gradient, mask and moments are all
``(K, T)``, one row per model, and every update is elementwise, so each row
moves exactly as it would alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError
from .nn import Model

OPTIMIZERS = ("sgd", "adam")


@dataclass
class ParamMask:
    """Boolean selector over the model's flat trainable vector."""

    selected: np.ndarray

    def __post_init__(self):
        self.selected = np.asarray(self.selected, dtype=bool).ravel()

    def __len__(self) -> int:
        return self.selected.size

    @classmethod
    def top_fraction(cls, scores: np.ndarray, fraction: float) -> "ParamMask":
        """Select the top ``fraction`` of indices by score, ties broken by index."""
        scores = np.asarray(scores, dtype=np.float64).ravel()
        if not 0.0 < fraction <= 1.0:
            raise ConfigError(f"fraction must be in (0, 1], got {fraction}")
        k = max(1, int(round(fraction * scores.size)))
        order = np.argsort(-scores, kind="stable")
        mask = np.zeros(scores.size, dtype=bool)
        mask[order[:k]] = True
        return cls(mask)


@dataclass
class OptimizerState:
    """Per-run optimizer state; identical seeds and updates replay bit-identically."""

    kind: str
    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: np.ndarray | None = field(default=None, repr=False)
    v: np.ndarray | None = field(default=None, repr=False)
    # Adam's two work arrays, made with the moments; replace() leaves them unset.
    _scratch: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer {self.kind!r} ({' or '.join(OPTIMIZERS)})")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")


def optimizer_step(state: OptimizerState, model: Model, gradient: np.ndarray,
                   mask: ParamMask | None = None) -> Model:
    """Apply one descent update in place; pass a negated gradient for ascent.

    The update is subtracted from ``model.params``, the live trainable slice
    of the model's parameter buffer; masked-out coordinates subtract exactly
    +0.0, so they keep their bytes.
    """
    shape, n = model.params.shape, model.params.size
    gradient = np.asarray(gradient, dtype=np.float64)
    if gradient.size != n:
        raise ShapeError(f"gradient has {gradient.size} entries, model has {n}")
    gradient = gradient.reshape(shape)
    off = None
    if mask is not None:
        if len(mask) != n:
            raise ShapeError(f"mask has {len(mask)} entries, model has {n}")
        # Flat indices rather than a masked ufunc, which is several times slower;
        # found anew each step, since a caller may edit ``mask.selected``.
        off = np.flatnonzero(~mask.selected)
        gradient = gradient.copy()
        gradient.reshape(-1)[off] = 0.0

    if state.kind == "sgd":
        state.step += 1
        update = state.learning_rate * gradient
    else:
        if state.m is None:
            state.m = np.zeros(shape)
            state.v = np.zeros(shape)
        elif state.m.shape != shape:
            raise ShapeError("optimizer state was created for a different model")
        if state._scratch is None:
            state._scratch = (np.empty(shape), np.empty(shape))
        state.step += 1
        # In place, one ufunc at a time in the order of the textbook expressions:
        #   m = beta1 * m + (1 - beta1) * g
        #   v = beta2 * v + (1 - beta2) * g * g
        #   update = lr * (m / (1 - beta1**t)) / (sqrt(v / (1 - beta2**t)) + eps)
        m, v, (a, b) = state.m, state.v, state._scratch
        m *= state.beta1
        m += np.multiply(1.0 - state.beta1, gradient, out=a)
        v *= state.beta2
        np.multiply(1.0 - state.beta2, gradient, out=a)
        v += np.multiply(a, gradient, out=a)
        update = np.divide(m, 1.0 - state.beta1 ** state.step, out=a)
        update *= state.learning_rate
        np.divide(v, 1.0 - state.beta2 ** state.step, out=b)
        np.sqrt(b, out=b)
        b += state.eps
        update /= b
    if off is not None:  # moment history must not leak into masked-out coordinates either
        update.reshape(-1)[off] = 0.0
    np.subtract(model.params, update, out=model.params)
    return model
