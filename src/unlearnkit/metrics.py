"""Retrain-free evaluation: accuracies, loss-threshold MIA, deletion capacity.

Every function here is a pure function of its inputs; undefined quantities
(e.g. accuracy on an empty deletion set) are reported as ``None``, never as
zero, so leaderboard averages are not silently corrupted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import nn
from .data import DatasetSplit
from .errors import ConfigError, InsufficientDataError
from .nn import Model

MIN_TEST_FOR_MIA = 10


def chance_level(num_classes: int) -> float:
    """Accuracy of random guessing, in percent."""
    return 100.0 / num_classes


def accuracy(model: Model, x: np.ndarray, y: np.ndarray) -> float:
    if len(y) == 0:
        raise ConfigError("accuracy over an empty set is undefined")
    return _accuracy_of(model.logits(x), y)


def _accuracy_of(logits: np.ndarray, y: np.ndarray) -> float:
    return 100.0 * float((np.argmax(logits, axis=1) == np.asarray(y)).mean())


def evaluate(model: Model, split: DatasetSplit) -> tuple[float, float | None, float]:
    """(acc_test, acc_f, acc_r) in percent; acc_f is None when D_f is empty."""
    if len(split.test_y) == 0 or split.num_train == 0:
        raise ConfigError("evaluate needs non-empty train and test sets")
    acc_test = accuracy(model, split.test_x, split.test_y)
    acc_r = accuracy(model, split.retain_x, split.retain_y)
    acc_f = None
    if split.del_indices.size:
        acc_f = accuracy(model, split.forget_x, split.forget_y)
    return acc_test, acc_f, acc_r


def per_sample_loss(model: Model, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Task cross-entropy per sample, from one plain forward pass."""
    logits = model.logits(x)
    return nn.cross_entropy_rows(logits, nn.validate_labels(logits, y))[0]


def loss_and_accuracy(model: Model, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """(mean task loss, accuracy in percent) from one forward pass."""
    if len(y) == 0:
        raise ConfigError("accuracy over an empty set is undefined")
    logits = model.logits(x)
    rows = nn.cross_entropy_rows(logits, nn.validate_labels(logits, y))[0]
    return float(rows.mean()), _accuracy_of(logits, y)


# ------------------------------------------------------------------------ MIA

@dataclass
class MiaAttack:
    """Loss-threshold attack: predict 'member' when loss < threshold."""

    threshold: float
    calibration_balanced_accuracy: float

    def predict_member(self, losses: np.ndarray) -> np.ndarray:
        return np.asarray(losses) < self.threshold


def fit_mia(member_losses: np.ndarray, nonmember_losses: np.ndarray) -> MiaAttack:
    """Pick the threshold maximizing balanced accuracy on calibration losses.

    Ties go to the smallest threshold so the fit is deterministic.
    """
    members = np.sort(np.asarray(member_losses, dtype=np.float64))
    nonmembers = np.sort(np.asarray(nonmember_losses, dtype=np.float64))
    if members.size == 0 or nonmembers.size == 0:
        raise InsufficientDataError("calibration needs samples on both sides")
    candidates = np.unique(np.concatenate([members, nonmembers]))
    candidates = np.append(candidates, candidates[-1] + 1.0)
    # loss < tau counts as predicted member
    tpr = np.searchsorted(members, candidates, side="left") / members.size
    tnr = 1.0 - np.searchsorted(nonmembers, candidates, side="left") / nonmembers.size
    balanced = 0.5 * (tpr + tnr)
    best = int(np.argmax(balanced))  # argmax takes the first (smallest) maximizer
    return MiaAttack(threshold=float(candidates[best]),
                     calibration_balanced_accuracy=float(balanced[best]))


def mia_success(model: Model, split: DatasetSplit, observer=None) -> float | None:
    """Percent of deletion-set samples the attack still classifies as members.

    Calibration uses retained training rows as members and the test set as
    non-members; the deletion set is never read during calibration.
    """
    if len(split.test_y) < MIN_TEST_FOR_MIA:
        raise InsufficientDataError(
            f"need >= {MIN_TEST_FOR_MIA} test samples to calibrate the attack, "
            f"got {len(split.test_y)}")
    retain_idx = split.retain_indices
    if observer is not None:
        observer(retain_idx)
    member_losses = per_sample_loss(model, split.train_x[retain_idx],
                                    split.train_y[retain_idx])
    nonmember_losses = per_sample_loss(model, split.test_x, split.test_y)
    attack = fit_mia(member_losses, nonmember_losses)
    if split.del_indices.size == 0:
        return None
    forget_losses = per_sample_loss(model, split.forget_x, split.forget_y)
    return 100.0 * float(attack.predict_member(forget_losses).mean())


# ------------------------------------------------------------------- analyses

def deletion_capacity(sweep, baseline_acc: float, tolerance: float):
    """Largest ratio (scanning from the smallest) whose accuracy stays within
    ``tolerance`` of the baseline; 0 if the first ratio already violates."""
    sweep = list(sweep)
    if not sweep:
        raise ConfigError("deletion_capacity needs a non-empty sweep")
    ratios = [r for r, _ in sweep]
    if any(b <= a for a, b in zip(ratios, ratios[1:])):
        raise ConfigError("sweep must be sorted by strictly increasing ratio")
    capacity = 0
    for ratio, acc in sweep:
        if acc >= baseline_acc - tolerance:
            capacity = ratio
        else:
            break
    return capacity


# ------------------------------------------------------------------ the report

REPORT_KEYS = ("acc_test", "acc_f", "acc_r", "seconds", "flos", "mia_success",
               "transfer_acc", "config_hash", "seed")


@dataclass
class EvalReport:
    """The full metric bundle for one run; serialized with fixed key names.

    ``transfer_acc`` is reserved: nothing computes it, so it is always null.
    """

    acc_test: float
    acc_f: float | None
    acc_r: float
    seconds: float
    flos: float
    mia_success: float | None
    transfer_acc: float | None = None
    config_hash: str = ""
    seed: int = 0

    def to_dict(self) -> dict:
        return {key: getattr(self, key) for key in REPORT_KEYS}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, d: dict) -> "EvalReport":
        return cls(**{key: d[key] for key in REPORT_KEYS})

    @classmethod
    def load(cls, path) -> "EvalReport":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def save(self, path) -> None:
        Path(path).write_text(self.to_json())


def build_report(model: Model, split: DatasetSplit, *, seconds: float, flos: float,
                 config_hash: str = "", seed: int = 0) -> EvalReport:
    acc_test, acc_f, acc_r = evaluate(model, split)
    return EvalReport(acc_test=acc_test, acc_f=acc_f, acc_r=acc_r,
                      seconds=seconds, flos=flos,
                      mia_success=mia_success(model, split),
                      config_hash=config_hash, seed=seed)
