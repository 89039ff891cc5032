"""Low-rank adapters: train a small delta on a frozen base layer.

An attached adapter replaces the layer's effective weight with
``W + scale * (up @ down)`` and freezes every base parameter; only adapter
matrices remain trainable. ``up`` starts at zero so a fresh adapter leaves
the forward pass untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .nn import Model


@dataclass(eq=False)  # array fields: compare adapters by identity
class LowRankAdapter:
    rank: int
    scale: float
    down: np.ndarray  # (rank, in)
    up: np.ndarray  # (out, rank)

    def delta(self) -> np.ndarray:
        """The effective weight change ``scale * (up @ down)``."""
        return self.scale * (self.up @ self.down)

    def clone(self) -> "LowRankAdapter":
        return LowRankAdapter(self.rank, self.scale, self.down.copy(), self.up.copy())


def attach_adapter(model: Model, layer_index: int, rank: int, scale: float = 1.0,
                   seed: int = 0) -> Model:
    """Return a copy of ``model`` with a fresh adapter on one layer."""
    if not 0 <= layer_index < len(model.layers):
        raise ConfigError(f"layer index {layer_index} out of range "
                          f"(model has {len(model.layers)} layers)")
    base = model.layers[layer_index]
    limit = min(base.out_dim, base.in_dim)
    if rank < 1:
        raise ConfigError(f"adapter rank must be >= 1, got {rank}")
    if rank > limit:
        raise ConfigError(f"rank {rank} exceeds min layer dimension {limit}")
    out = model.clone()
    if out.layers[layer_index].adapter is not None:
        raise ConfigError(f"layer {layer_index} already has an adapter")
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(base.in_dim)
    down = rng.uniform(-bound, bound, size=(rank, base.in_dim))
    up = np.zeros((base.out_dim, rank))
    out.layers[layer_index].adapter = LowRankAdapter(rank, float(scale), down, up)
    out._pack()
    return out


def merge_adapter(model: Model) -> Model:
    """Fold every adapter delta into its base weight; return an adapter-free copy."""
    out = model.clone()
    for layer in out.layers:
        if layer.adapter is not None:
            layer.weight = layer.weight + layer.adapter.delta()
            layer.adapter = None
    out._pack()
    return out
