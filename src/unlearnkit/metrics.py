"""Retrain-free evaluation: accuracies, loss-threshold MIA, deletion capacity.

Every function here is a pure function of its inputs; undefined quantities
(e.g. accuracy on an empty deletion set) are reported as ``None``, never as
zero, so leaderboard averages are not silently corrupted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import nn
from .data import DatasetSplit
from .errors import ConfigError, InsufficientDataError
from .fileio import read_json, write_atomic
from .nn import Model

MIN_TEST_FOR_MIA = 10
# float64 values one evaluation block may put in each hidden workspace buffer
# (512 KiB). At width 256 that is 256 rows, the rows of the ``wide`` training
# step, so a snapshot never grows the workspace past what that step holds.
EVAL_BLOCK_VALUES = 2**16


def chance_level(num_classes: int) -> float:
    """Accuracy of random guessing, in percent."""
    return 100.0 / num_classes


class SplitLogits(NamedTuple):
    """One model state's logits on D_test, D_r and D_f (None when D_f is empty)."""

    test: np.ndarray
    retain: np.ndarray
    forget: np.ndarray | None


def split_logits(model: Model, split: DatasetSplit) -> SplitLogits:
    """One forward pass over each evaluation set: every score derives from these.

    Each set runs in the row blocks of :func:`row_blocks`, at most
    ``EVAL_BLOCK_VALUES // max(model.hidden)`` rows each, and at least one (a
    model with no hidden layer counts as width 1), so a model's workspace holds
    at most that many rows for evaluation whatever the data's size. D_r's rows
    are gathered block by block through ``retain_indices``, never copied whole.
    """
    if len(split.test_y) == 0 or split.num_train == 0:
        raise ConfigError("evaluate needs non-empty train and test sets")
    test = _block_logits(model, split.test_x)
    retain = _block_logits(model, split.train_x, split.retain_indices)
    forget = _block_logits(model, split.forget_x) if split.del_indices.size else None
    return SplitLogits(test, retain, forget)


def row_blocks(n: int, cap: int) -> list[tuple[int, int]]:
    """``[lo, hi)`` bounds cutting ``n`` rows into ``ceil(n / cap)`` near-equal blocks.

    Block sizes differ by at most one row, so none is shorter than half of
    ``cap``: a short tail block changed the last bits of its rows' logits.
    """
    k = -(-n // cap)
    return [(n * i // k, n * (i + 1) // k) for i in range(k)]


def _block_logits(model: Model, x: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """``model``'s logits of ``x`` (of ``x[rows]`` when given), one row block at a time."""
    n = len(x if rows is None else rows)
    out = np.empty((n, model.num_classes))
    for lo, hi in row_blocks(n, max(1, EVAL_BLOCK_VALUES // max(model.hidden, default=1))):
        out[lo:hi] = model.logits(x[lo:hi] if rows is None else x[rows[lo:hi]])
    return out


def accuracies(split: DatasetSplit, logits: SplitLogits) -> tuple[float, float | None, float]:
    """(acc_test, acc_f, acc_r) in percent; acc_f is None when D_f is empty."""
    acc_f = None if logits.forget is None else _accuracy(logits.forget, split.forget_y)
    return _accuracy(logits.test, split.test_y), acc_f, _accuracy(logits.retain, split.retain_y)


def _accuracy(logits: np.ndarray, y: np.ndarray) -> float:
    return 100.0 * float(np.count_nonzero(logits.argmax(axis=-1) == y) / len(y))


def task_losses(logits: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Task cross-entropy per sample."""
    return nn.cross_entropy_rows(logits, nn.validate_labels(logits, y))[0]


def mean_task_loss(logits: np.ndarray | None, y: np.ndarray) -> float | None:
    """The mean of :func:`task_losses` as a Python float; None when ``logits`` is (empty D_f)."""
    return None if logits is None else float(np.add.reduce(task_losses(logits, y)) / len(y))


def evaluate(model: Model, split: DatasetSplit) -> tuple[float, float | None, float]:
    """:func:`accuracies` of ``model``."""
    return accuracies(split, split_logits(model, split))


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
    # np.unique's values, without the numpy.ma import it makes: each value's first occurrence
    pooled = np.sort(np.concatenate([members, nonmembers]))
    candidates = pooled[np.append(True, pooled[1:] != pooled[:-1])]
    candidates = np.append(candidates, candidates[-1] + 1.0)
    # loss < tau counts as predicted member
    tpr = np.searchsorted(members, candidates, side="left") / members.size
    tnr = 1.0 - np.searchsorted(nonmembers, candidates, side="left") / nonmembers.size
    balanced = 0.5 * (tpr + tnr)
    best = int(np.argmax(balanced))  # argmax takes the first (smallest) maximizer
    return MiaAttack(threshold=float(candidates[best]),
                     calibration_balanced_accuracy=float(balanced[best]))


def mia_success(model: Model, split: DatasetSplit) -> float | None:
    """:func:`mia_from_logits` of ``model``."""
    return mia_from_logits(split, split_logits(model, split))


def mia_from_logits(split: DatasetSplit, logits: SplitLogits) -> float | None:
    """Percent of deletion-set samples the attack still classifies as members.

    Calibration uses retained training rows as members and the test set as
    non-members; the deletion set is never read during calibration.
    """
    if len(split.test_y) < MIN_TEST_FOR_MIA:
        raise InsufficientDataError(
            f"need >= {MIN_TEST_FOR_MIA} test samples to calibrate the attack, "
            f"got {len(split.test_y)}")
    attack = fit_mia(task_losses(logits.retain, split.retain_y),
                     task_losses(logits.test, split.test_y))
    if logits.forget is None:
        return None
    forget_losses = task_losses(logits.forget, split.forget_y)
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
        """The report a run saved; a malformed one is a ConfigError naming it."""
        values = read_json(path, "run file")
        missing = [key for key in REPORT_KEYS if key not in values]
        if missing:
            raise ConfigError(f"bad run file {path}: no key {missing[0]!r}")
        return cls.from_dict(values)

    def save(self, path) -> None:
        write_atomic(path, lambda fh: fh.write(self.to_json()))


REPORT_KEYS = tuple(f.name for f in fields(EvalReport))


def build_report(split: DatasetSplit, logits: SplitLogits, *, seconds: float, flos: float,
                 config_hash: str = "", seed: int = 0) -> EvalReport:
    """The report of the model state whose :func:`split_logits` are ``logits``."""
    acc_test, acc_f, acc_r = accuracies(split, logits)
    return EvalReport(acc_test=acc_test, acc_f=acc_f, acc_r=acc_r,
                      seconds=seconds, flos=flos,
                      mia_success=mia_from_logits(split, logits),
                      config_hash=config_hash, seed=seed)
