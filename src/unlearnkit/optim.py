"""SGD/Adam updates over the flat parameter vector, with boolean masking.

Masking zeroes the gradient at unselected indices before any moment update,
so masked-out parameters (and their Adam moments) never move: the delta
outside the mask is exactly zero, not merely small. On a stacked model
(``nn.Model.stack``) the parameters, gradient, mask and moments are all
``(K, T)``, one row per model, and every update is elementwise, so each row
moves exactly as it would alone. An update may cover any contiguous range of
the rows, and Adam counts each row's updates on its own, so models that
step unequally often still each move as they would alone.
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
    m: np.ndarray | None = field(default=None, repr=False)
    v: np.ndarray | None = field(default=None, repr=False)
    # Adam's update count of each model, shaped (1,) alone and (K, 1) stacked,
    # made with the moments; replace() leaves it unset.
    steps: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    # Adam's two flat work arrays, grown to the largest update. They hold nothing
    # between updates, so the states replace() makes from one state share them.
    work: list = field(default_factory=list, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer {self.kind!r} ({' or '.join(OPTIMIZERS)})")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")


def optimizer_step(state: OptimizerState, model: Model, gradient: np.ndarray,
                   mask: ParamMask | None = None, rows: slice = slice(None)) -> Model:
    """Apply one descent update in place; pass a negated gradient for ascent.

    The update is subtracted from ``model.params``, the live trainable slice
    of the model's parameter buffer; masked-out coordinates subtract exactly
    +0.0, so they keep their bytes. On a stacked model, ``rows`` picks the
    models to update (all by default): ``gradient`` is theirs, ``mask``
    covers every model, and the others keep their parameters, moments and
    update counts.
    """
    params = model.params[rows]
    shape, n = params.shape, params.size
    gradient = np.asarray(gradient, dtype=np.float64)
    if gradient.size != n:
        raise ShapeError(f"gradient has {gradient.size} entries, model has {n}")
    gradient = gradient.reshape(shape)
    off = None
    if mask is not None:
        if len(mask) != model.params.size:
            raise ShapeError(f"mask has {len(mask)} entries, model has {model.params.size}")
        # Flat indices rather than a masked ufunc, which is several times slower;
        # found anew each step, since a caller may edit ``mask.selected``.
        off = np.flatnonzero(~mask.selected.reshape(model.params.shape)[rows])
        gradient = gradient.copy()
        gradient.reshape(-1)[off] = 0.0

    if state.kind == "sgd":
        update = state.learning_rate * gradient
    else:
        full = model.params.shape
        if state.m is None:
            state.m = np.zeros(full)
            state.v = np.zeros(full)
        elif state.m.shape != full:
            raise ShapeError("optimizer state was created for a different model")
        if state.steps is None:
            state.steps = np.zeros(full[:-1] + (1,), dtype=np.int64)
        if not state.work or state.work[0].size < n:
            state.work[:] = [np.empty(n), np.empty(n)]
        # In place, one ufunc at a time in the order of the textbook expressions:
        #   m = beta1 * m + (1 - beta1) * g
        #   v = beta2 * v + (1 - beta2) * g * g
        #   update = lr * (m / (1 - beta1**t)) / (sqrt(v / (1 - beta2**t)) + eps)
        # with each model's own t: the powers are taken in Python floats, one per row.
        m, v, steps = state.m[rows], state.v[rows], state.steps[rows]
        a, b = (work[:n].reshape(shape) for work in state.work)
        steps += 1
        c1, c2 = (np.array([1.0 - beta ** t for t in steps.ravel().tolist()]).reshape(steps.shape)
                  for beta in (state.beta1, state.beta2))
        m *= state.beta1
        m += np.multiply(1.0 - state.beta1, gradient, out=a)
        v *= state.beta2
        np.multiply(1.0 - state.beta2, gradient, out=a)
        v += np.multiply(a, gradient, out=a)
        update = np.divide(m, c1, out=a)
        update *= state.learning_rate
        np.divide(v, c2, out=b)
        np.sqrt(b, out=b)
        b += state.eps
        update /= b
    if off is not None:  # moment history must not leak into masked-out coordinates either
        update.reshape(-1)[off] = 0.0
    np.subtract(params, update, out=params)
    return model
