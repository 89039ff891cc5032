"""SGD/Adam updates over the flat parameter vector, with boolean masking.

Masking zeroes the gradient at unselected indices before any moment update,
so masked-out parameters (and their Adam moments) never move: the delta
outside the mask is exactly zero, not merely small. On a stacked model
(``nn.Model.stack``) the parameters, gradient, mask and moments are all
``(K, T)``, one row per model, and every update is elementwise, so each row
moves exactly as it would alone. An update may cover any contiguous range of
the rows, and Adam counts each row's updates on its own, so models that
step unequally often still each move as they would alone.

An update runs over blocks of at most ``UPDATE_BLOCK`` columns of each
row, through two work arrays of one block per row, so that nothing it
allocates grows with the model beyond the moments themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError
from .nn import Model

OPTIMIZERS = ("sgd", "adam")
UPDATE_BLOCK = 8192  # parameters per model row in one block of an update: 64 KiB of float64
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's hyperparameters


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
    m: np.ndarray | None = field(default=None, repr=False)
    v: np.ndarray | None = field(default=None, repr=False)
    # Adam's update count of each model, shaped (1,) alone and (K, 1) stacked,
    # made with the moments; replace() leaves it unset.
    steps: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    # The update's two flat work arrays, one block per updated row each, grown to
    # the largest update. They hold nothing between updates, so the states
    # replace() makes from one state share them.
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
    update counts. ``gradient`` keeps its bytes.
    """
    params = model.params[rows]
    shape, n = params.shape, params.size
    gradient = np.asarray(gradient, dtype=np.float64)
    if gradient.size != n:
        raise ShapeError(f"gradient has {gradient.size} entries, model has {n}")
    gradient = gradient.reshape(shape)
    selected = None
    if mask is not None:
        if len(mask) != model.params.size:
            raise ShapeError(f"mask has {len(mask)} entries, model has {model.params.size}")
        selected = mask.selected.reshape(model.params.shape)[rows]
    if state.kind == "adam":
        full = model.params.shape
        if state.m is None:
            state.m, state.v = np.zeros(full), np.zeros(full)
        elif state.m.shape != full:
            raise ShapeError("optimizer state was created for a different model")
        if state.steps is None:
            state.steps = np.zeros(full[:-1] + (1,), dtype=np.int64)
        # One ufunc at a time in the order of the textbook expressions:
        #   m = BETA1 * m + (1 - BETA1) * g
        #   v = BETA2 * v + (1 - BETA2) * g * g
        #   update = lr * (m / (1 - BETA1**t)) / (sqrt(v / (1 - BETA2**t)) + EPS)
        # with each model's own t: the powers are taken in Python floats, one per row.
        m, v, steps = state.m[rows], state.v[rows], state.steps[rows]
        steps += 1
        c1, c2 = (np.array([1.0 - beta ** t for t in steps.ravel().tolist()]).reshape(steps.shape)
                  for beta in (BETA1, BETA2))
        m *= BETA1  # in place, so over whole rows: the blocks below need no scratch for it
        v *= BETA2
    block = n // shape[-1] * min(shape[-1], UPDATE_BLOCK)
    if not state.work or state.work[0].size < block:
        state.work[:] = [np.empty(block), np.empty(block)]
    # Every operation is elementwise, so each block of columns moves as the whole would.
    for lo in range(0, shape[-1], UPDATE_BLOCK):
        cols = (..., slice(lo, lo + UPDATE_BLOCK))
        g = gradient[cols]
        a, b = (work[:g.size].reshape(g.shape) for work in state.work)
        off = None
        if selected is not None:
            # Flat indices rather than a masked ufunc, which is several times slower;
            # found anew each step, since a caller may edit ``mask.selected``.
            off = np.flatnonzero(~selected[cols])
            np.copyto(b, g)  # nothing writes b again before g's last read
            b.reshape(-1)[off] = 0.0
            g = b
        if state.kind == "sgd":
            update = np.multiply(state.learning_rate, g, out=a)
        else:
            mb, vb = m[cols], v[cols]
            mb += np.multiply(1.0 - BETA1, g, out=a)
            np.multiply(1.0 - BETA2, g, out=a)
            vb += np.multiply(a, g, out=a)
            update = np.divide(mb, c1, out=a)
            update *= state.learning_rate
            np.divide(vb, c2, out=b)
            np.sqrt(b, out=b)
            b += EPS
            update /= b
        if off is not None:  # moment history must not leak into masked-out coordinates either
            update.reshape(-1)[off] = 0.0
        np.subtract(params[cols], update, out=params[cols])
    return model
