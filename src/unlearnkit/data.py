"""Synthetic classification datasets and the standardized deletion protocol.

Every generator is a pure function of its spec (seed included): calling it
twice gives byte-identical arrays. Deletion sets are prefixes of one
seed-determined permutation, so the set for ratio r is always contained in
the set for ratio r+1 and capacity curves stay comparable across ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import ConfigError

GENERATORS = ("gaussian_blobs", "spiral", "ring")

DEL_RATIO_RANGE = range(1, 11)  # percent of the training set, 1..10

# Class centroids sit on a circle of this radius (first two coordinates).
# With the default noise of 0.1 this keeps classes cleanly separable while
# leaving individual points isolated enough to memorize in higher dimensions.
_BLOB_RADIUS = 0.45


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one synthetic dataset."""

    generator: str = "gaussian_blobs"
    num_classes: int = 3
    samples_per_class: int = 100
    noise: float = 0.1
    dim: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.generator not in GENERATORS:
            raise ConfigError(f"unknown generator {self.generator!r}; "
                              f"choose from {GENERATORS}")
        if self.num_classes < 2:
            raise ConfigError(f"need >= 2 classes, got {self.num_classes}")
        if self.samples_per_class < 10:
            raise ConfigError(f"need >= 10 samples per class, got {self.samples_per_class}")
        if self.dim < 2:
            raise ConfigError(f"need dim >= 2, got {self.dim}")
        if self.generator in ("spiral", "ring") and self.dim != 2:
            raise ConfigError(f"{self.generator} only supports dim=2")
        if not 0 <= self.noise < math.inf:
            raise ConfigError(f"noise must be finite and >= 0, got {self.noise}")
        if self.seed < 0:
            raise ConfigError(f"data seed must be >= 0, got {self.seed}")


def parse_data_name(name: str) -> SynthSpec:
    """Parse a compact dataset string such as ``gaussian_blobs:c3:s100:d2:noise0.1:seed0``.

    The generator name alone selects the defaults.
    """
    parts = name.split(":")
    kwargs: dict = {"generator": parts[0]}
    for part in parts[1:]:
        prefix = next((p for p in _DATA_FIELDS if part.startswith(p)), None)
        if prefix is None:
            raise ConfigError(f"unrecognized field {part!r} in data name {name!r}")
        key, kind = _DATA_FIELDS[prefix]
        try:
            kwargs[key] = kind(part[len(prefix):])
        except ValueError as exc:
            raise ConfigError(f"bad field {part!r} in data name {name!r}") from exc
    return SynthSpec(**kwargs)


# Data-name field prefix -> (SynthSpec field, type), matched in this order.
_DATA_FIELDS = {"noise": ("noise", float), "seed": ("seed", int), "c": ("num_classes", int),
                "s": ("samples_per_class", int), "d": ("dim", int)}


def format_data_name(spec: SynthSpec) -> str:
    return (f"{spec.generator}:c{spec.num_classes}:s{spec.samples_per_class}"
            f":d{spec.dim}:noise{spec.noise:g}:seed{spec.seed}")


@dataclass
class DatasetSplit:
    """Train/test tensors plus the deletion index set over the training rows."""

    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    seed: int
    del_indices: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def __post_init__(self):
        self.del_indices = np.asarray(self.del_indices, dtype=np.int64)
        n = len(self.train_y)
        if self.del_indices.size:
            ordered = np.sort(self.del_indices)  # a duplicate sits next to its twin
            if ordered[0] < 0 or ordered[-1] >= n:
                raise ConfigError("deletion indices out of range")
            if (ordered[1:] == ordered[:-1]).any():
                raise ConfigError("deletion indices contain duplicates")

    @property
    def num_classes(self) -> int:
        return int(self.train_y.max()) + 1

    @property
    def num_train(self) -> int:
        return len(self.train_y)

    # The evaluation sets are sliced once per split and shared by every caller,
    # except the remaining inputs, which nothing slices: evaluation indexes
    # D_r's logits out of the training set's (metrics.split_logits).
    @cached_property
    def retain_indices(self) -> np.ndarray:
        keep = np.ones(self.num_train, dtype=bool)
        keep[self.del_indices] = False
        return np.nonzero(keep)[0].astype(np.int64)

    @cached_property
    def forget_x(self) -> np.ndarray:
        return self.train_x[self.del_indices]

    @cached_property
    def forget_y(self) -> np.ndarray:
        return self.train_y[self.del_indices]

    @cached_property
    def retain_y(self) -> np.ndarray:
        return self.train_y[self.retain_indices]

    def with_deletion(self, del_ratio: int) -> "DatasetSplit":
        return replace(self, del_indices=sample_deletion_set(self, del_ratio))


# ----------------------------------------------------------------- generators
#
# A generator maps (spec, class, rng) to that class's noise-free points;
# generate() adds the Gaussian noise right after each class's own draws.

def blob_centroids(spec: SynthSpec) -> np.ndarray:
    """Class centroids used by the blob generator (handy as a test oracle)."""
    if spec.generator != "gaussian_blobs":
        raise ConfigError("centroids are only defined for gaussian_blobs")
    angles = 2.0 * np.pi * np.arange(spec.num_classes) / spec.num_classes
    centers = np.zeros((spec.num_classes, spec.dim))
    centers[:, 0] = _BLOB_RADIUS * np.cos(angles)
    centers[:, 1] = _BLOB_RADIUS * np.sin(angles)
    return centers


def _on_circle(radius, theta: np.ndarray) -> np.ndarray:
    return np.stack([radius * np.cos(theta), radius * np.sin(theta)], axis=1)


def _blob_points(spec: SynthSpec, cls: int, rng: np.random.Generator) -> np.ndarray:
    return np.broadcast_to(blob_centroids(spec)[cls], (spec.samples_per_class, spec.dim))


def _spiral_points(spec: SynthSpec, cls: int, rng: np.random.Generator) -> np.ndarray:
    t = np.linspace(0.25, 1.0, spec.samples_per_class)
    return _on_circle(t, 3.0 * np.pi * t + 2.0 * np.pi * cls / spec.num_classes)


def _ring_points(spec: SynthSpec, cls: int, rng: np.random.Generator) -> np.ndarray:
    theta = rng.uniform(0.0, 2.0 * np.pi, spec.samples_per_class)
    return _on_circle((cls + 1.0) / spec.num_classes, theta)


_POINT_FNS = {"gaussian_blobs": _blob_points, "spiral": _spiral_points, "ring": _ring_points}


def generate(spec: SynthSpec) -> DatasetSplit:
    """Build a dataset and its stratified 80/20 train/test split (no deletion set)."""
    rng = np.random.default_rng(spec.seed)
    xs = []
    for cls in range(spec.num_classes):
        pts = _POINT_FNS[spec.generator](spec, cls, rng)
        xs.append(pts + spec.noise * rng.standard_normal(pts.shape))
    x = np.vstack(xs)
    y = np.repeat(np.arange(spec.num_classes, dtype=np.int64), spec.samples_per_class)
    train_idx, test_idx = [], []
    n_test = max(1, round(0.2 * spec.samples_per_class))
    for cls in range(spec.num_classes):
        rows = rng.permutation(np.nonzero(y == cls)[0])
        test_idx.append(rows[:n_test])
        train_idx.append(rows[n_test:])
    train_idx = rng.permutation(np.concatenate(train_idx))
    test_idx = rng.permutation(np.concatenate(test_idx))
    return DatasetSplit(train_x=x[train_idx], train_y=y[train_idx],
                        test_x=x[test_idx], test_y=y[test_idx], seed=spec.seed)


# ----------------------------------------------------------- deletion protocol

def sample_deletion_set(split: DatasetSplit, del_ratio: int,
                        seed: int | None = None) -> np.ndarray:
    """Pick the deletion set: a prefix of one seeded permutation of train rows.

    ``del_ratio`` is a percentage in 1..10; the set size is
    ``round(ratio% * |train|)``. Prefix construction makes sets nest across
    ratios under a fixed seed.
    """
    if int(del_ratio) != del_ratio or int(del_ratio) not in DEL_RATIO_RANGE:
        raise ConfigError(f"del_ratio must be an integer in 1..10, got {del_ratio}")
    if seed is None:
        seed = split.seed
    n = split.num_train
    k = round(n * int(del_ratio) / 100.0)
    perm = np.random.default_rng(seed).permutation(n)
    return np.sort(perm[:k]).astype(np.int64)


def corrupt_labels(split: DatasetSplit, del_indices: np.ndarray, seed: int) -> np.ndarray:
    """Draw a wrong label uniformly from the other classes for each deletion row."""
    c = split.num_classes
    if c < 2:
        raise ConfigError("label corruption needs at least 2 classes")
    del_indices = np.asarray(del_indices, dtype=np.int64)
    rng = np.random.default_rng(seed)
    originals = split.train_y[del_indices]
    draws = rng.integers(0, c - 1, size=del_indices.size)
    return np.where(draws >= originals, draws + 1, draws).astype(np.int64)
