"""Teacher-student unlearning methods over one shared training loop.

Every method produces a new model: the original is cloned (or, for exact
retraining, freshly initialized) and never mutated. Methods differ along
three axes — how knowledge is measured (task loss, output distribution,
representation), how it is corrupted on the deletion set (reversed
gradients, relabeled data, an incompetent teacher), and how it is retained
on the remaining set (matching the original model) — plus whether updates
are dense or restricted to a saliency mask.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, NamedTuple

import numpy as np

from . import metrics, nn
from .config import UnlearnConfig
from .curriculum import SuperLossParams, superloss_weights
from .data import DatasetSplit, corrupt_labels
from .errors import BudgetError, ConfigError, NumericError
from .lora import attach_adapter
from .nn import Model, build_model
from .optim import OptimizerState, ParamMask, optimizer_step

# ------------------------------------------------------------------- taxonomy

@dataclass(frozen=True)
class TeacherSpec:
    """One cell of the design-axis grid a method occupies.

    ``km``/``corrupt`` describe the teacher on the deletion set (None when the
    method has no forgetting teacher); ``retain``/``retain_km`` describe the
    teacher on the remaining data. ``scope`` is (density, locality) of the
    trainable parameters. Each method declares its cell where it registers
    (see ``register``); ``TAXONOMY`` is derived from the registry.
    """

    km: str | None  # Loss | Rep | Logit
    corrupt: str | None  # Grad | Data | Model
    retain: str  # original_f | none
    retain_km: tuple[str, ...]  # measures used on the remaining data
    scope: tuple[str, str]  # (Dense|Sparse, Internal|External)


# ---------------------------------------------------------------------- trace

TRACE_COLUMNS = ("epoch", "loss_f", "loss_r", "acc_test", "acc_f", "acc_r",
                 "flos", "seconds", "phase")


@dataclass
class TraceRow:
    epoch: int
    loss_f: float | None
    loss_r: float | None
    acc_test: float
    acc_f: float | None
    acc_r: float
    flos: float
    seconds: float
    phase: str = "train"

    def as_csv_row(self) -> list:
        def cell(v):
            return "" if v is None else v

        return [self.epoch, cell(self.loss_f), cell(self.loss_r), self.acc_test,
                cell(self.acc_f), self.acc_r, self.flos, self.seconds, self.phase]


class RunRecorder:
    """Accumulates FLOs, wall time, per-epoch metrics, and the budget check."""

    def __init__(self, split: DatasetSplit, budget_seconds: float | None = None):
        self.split = split
        self.budget_seconds = budget_seconds
        self.rows: list[TraceRow] = []
        self.flos = 0.0
        self._flos_per_sample: float | None = None  # a run trains one model
        # Snapshots evaluate these every epoch; slice them out once.
        self._test = (split.test_x, split.test_y)
        self._forget = (split.forget_x, split.forget_y)
        self._retain = (split.retain_x, split.retain_y)
        self._start = time.perf_counter()

    @property
    def seconds(self) -> float:
        return time.perf_counter() - self._start

    def add_samples(self, model: Model, num_samples: int) -> None:
        if self._flos_per_sample is None:
            self._flos_per_sample = nn.count_flos(model, 1, 1)
        self.flos += self._flos_per_sample * float(num_samples)

    def snapshot(self, epoch: int, model: Model, phase: str = "train") -> None:
        acc_test = metrics.accuracy(model, *self._test)
        loss_r, acc_r = metrics.loss_and_accuracy(model, *self._retain)
        loss_f = acc_f = None
        if self._forget[1].size:
            loss_f, acc_f = metrics.loss_and_accuracy(model, *self._forget)
        self.rows.append(TraceRow(epoch, loss_f, loss_r, acc_test, acc_f, acc_r,
                                  self.flos, self.seconds, phase))

    def check_budget(self) -> None:
        if self.budget_seconds is not None and self.seconds > self.budget_seconds:
            raise BudgetError(
                f"unlearning exceeded its budget of {self.budget_seconds:.3f}s "
                f"after {self.seconds:.3f}s", trace=self.rows)


@dataclass
class UnlearnRun:
    """Everything produced by one unlearning call."""

    method: str
    config: UnlearnConfig
    original: Model
    model: Model  # the unlearned model
    trace: list[TraceRow] = field(default_factory=list)
    seconds: float = 0.0
    flos: float = 0.0


# ------------------------------------------------------------- training loop
#
# A step is a list of parts ``(rows, x, labels | None, teacher | None)``:
# training-set row indices, their inputs, the task labels to fit and the
# model whose logits to match (KL). The parts' gradients sum into one update.
# A pass is ``(phase, ascending, steps)``, one epoch of steps; the trace
# gets a row at the end of each pass. Passes and steps are generators that
# the loop consumes once, in order: each pass draws its shuffle from the
# run's one RNG when the loop reaches it, so the draw order is fixed.

Part = tuple[np.ndarray, np.ndarray, np.ndarray | None, Model | None]
Pass = tuple[str, bool, Iterable[list[Part]]]


class Plan(NamedTuple):
    """What one run trains: a student, its passes, and the update rule.

    The student is trained in place with ``learning_rate``; every step's
    gradient gets ``l1_lambda * sign(params)`` added (when non-zero) and
    updates only the coordinates ``mask`` selects (all when None).
    """

    student: Model
    passes: Iterable[Pass]
    learning_rate: float
    curriculum: SuperLossParams | None = None
    mask: ParamMask | None = None
    l1_lambda: float = 0.0


def _curriculum_state(config: UnlearnConfig) -> SuperLossParams | None:
    if not config.curriculum:
        return None
    return SuperLossParams(lam=config.curriculum_lambda, decay=config.curriculum_decay)


def _fresh_model(split: DatasetSplit, config: UnlearnConfig, seed: int) -> Model:
    return build_model(split.train_x.shape[1], config.data_spec().num_classes,
                       config.backbone, seed=seed)


def _student(original: Model, config: UnlearnConfig) -> Model:
    """Deep copy of the original, with an adapter attached when configured."""
    student = original.clone()
    if config.adapter_rank > 0:
        student = attach_adapter(student, config.adapter_layer, config.adapter_rank,
                                 config.adapter_scale, seed=config.seed)
    return student


def _stream(rng: np.random.Generator, idx: np.ndarray, x: np.ndarray,
            labels: np.ndarray | None, teacher: Model | None, batch_size: int):
    """One shuffled pass over the training rows ``idx``, one part per step."""
    order = idx[rng.permutation(idx.size)]
    for start in range(0, order.size, batch_size):
        rows = order[start:start + batch_size]
        yield [(rows, x[rows], None if labels is None else labels[rows], teacher)]


def _epochs(rng: np.random.Generator, idx: np.ndarray, x: np.ndarray, labels: np.ndarray,
            epochs: int, batch_size: int, phase: str = "train", ascending: bool = False):
    """``epochs`` task-loss passes over the training rows ``idx``."""
    return ((phase, ascending, _stream(rng, idx, x, labels, None, batch_size))
            for _ in range(epochs))


def loss_and_grad(model: Model, x: np.ndarray, *, labels: np.ndarray | None = None,
                  teacher: np.ndarray | None = None, temperature: float = 1.0,
                  curriculum: SuperLossParams | None = None, step: int = 0,
                  accumulate: bool = False) -> tuple[float, np.ndarray]:
    """One training step's loss and gradient, on plain arrays.

    Runs one forward pass over ``x``, sums the per-row task cross-entropy
    (when ``labels`` is given) and KL to the ``teacher`` logits (when given),
    reduces the rows by their mean or by the curriculum, checks the value
    is finite, and backprops. Returns the value and the model's gradient
    buffer, overwritten unless ``accumulate`` is set.
    """
    logits, cache = model.forward_cache(x)
    terms = []
    if labels is not None:
        terms.append(nn.cross_entropy_rows(logits, labels))
    if teacher is not None:
        terms.append(nn.kl_rows(logits, teacher, temperature))
    rows = terms[0][0] if len(terms) == 1 else terms[0][0] + terms[1][0]
    if curriculum is not None:
        value, sigmas = superloss_weights(rows, curriculum)
        weights = (1.0 / rows.size) * sigmas
    else:
        value = rows.mean()
        weights = np.full(rows.size, 1.0 / rows.size)
    if not np.isfinite(value):
        raise NumericError("training loss became non-finite", step=step)
    g = terms[0][1](weights)
    if len(terms) == 2:
        g = g + terms[1][1](weights)
    if not accumulate:
        model.grad.fill(0.0)
    return value, model.backprop(cache, g)


def _drive(plan: Plan, optimizer: str, temperature: float = 1.0,
           recorder: RunRecorder | None = None, observer=None) -> Model:
    """Train ``plan.student`` in place through its passes: the one training loop.

    Every part of a step backprops into one summed gradient. A non-finite
    part makes that sum non-finite, so each part is checked on its own.
    The sum gets the L1 pull, the pass's sign and one masked optimizer
    update. Each phase name keeps its own optimizer state, so ascent and
    descent never share Adam moments. ``observer`` sees every part's row
    indices. A ``recorder`` counts each step's samples and snapshots the
    model before training (epoch 0, ``init``) and after every pass,
    numbered from 1, checking the budget after each pass.
    """
    model = plan.student
    fresh = OptimizerState(optimizer, plan.learning_rate)  # a bad recipe fails up front
    opts: dict[str, OptimizerState] = {}
    if recorder is not None:
        recorder.snapshot(0, model, "init")
    step = 0
    for number, (phase, ascending, steps) in enumerate(plan.passes, 1):
        if phase not in opts:
            opts[phase] = replace(fresh)
        for parts in steps:
            for i, (rows, x, labels, teacher) in enumerate(parts):
                if observer is not None:
                    observer(rows)
                _, grad = loss_and_grad(
                    model, x, labels=labels, temperature=temperature,
                    teacher=None if teacher is None else teacher.logits(x),
                    curriculum=plan.curriculum, step=step, accumulate=i > 0)
            if plan.l1_lambda:
                grad = grad + plan.l1_lambda * np.sign(model.params)
            optimizer_step(opts[phase], model, -grad if ascending else grad, plan.mask)
            if recorder is not None:
                recorder.add_samples(model, sum(len(part[0]) for part in parts))
            step += 1
        if recorder is not None:
            recorder.snapshot(number, model, phase)
            recorder.check_budget()
    return model


def fit(model: Model, x: np.ndarray, y: np.ndarray, *, epochs: int,
        learning_rate: float, batch_size: int, optimizer: str, seed: int,
        recorder: RunRecorder | None = None) -> Model:
    """Minibatch task-loss training of ``model`` on ``(x, y)``, in place.

    The original model's recipe: one shuffle per epoch from ``seed``, no
    curriculum, mask or L1. With a ``recorder`` the trace gets an ``init``
    row and one row per epoch.
    """
    passes = _epochs(np.random.default_rng(seed), np.arange(len(y)), x, y, epochs, batch_size)
    return _drive(Plan(model, passes, learning_rate), optimizer, recorder=recorder)


def train_original(split: DatasetSplit, config: UnlearnConfig,
                   recorder: RunRecorder | None = None) -> Model:
    """Train the original model on the full training set with the recorded recipe."""
    return fit(_fresh_model(split, config, config.seed), split.train_x, split.train_y,
               epochs=config.train_epochs, learning_rate=config.train_learning_rate,
               batch_size=config.train_batch_size, optimizer=config.optimizer,
               seed=config.seed, recorder=recorder)


# ------------------------------------------------------------------- registry
#
# A method is a planner ``(f, split, config) -> Plan`` registered with the
# design-axis cell it occupies. The registry is the one list of methods.

class Method(NamedTuple):
    """A registered method: its design-axis cell and its planner."""

    spec: TeacherSpec
    plan: Callable[[Model, DatasetSplit, UnlearnConfig], Plan]


METHODS: dict[str, Method] = {}


def register(spec: TeacherSpec):
    """Register the decorated planner under its function name."""
    def add(planner):
        METHODS[planner.__name__] = Method(spec, planner)
        return planner
    return add


def _finetune(f: Model, split: DatasetSplit, config: UnlearnConfig, idx: np.ndarray,
              labels: np.ndarray, phase: str = "train", ascending: bool = False,
              mask: ParamMask | None = None, l1_lambda: float = 0.0) -> Plan:
    """Task-loss passes over the training rows ``idx`` with the unlearning recipe."""
    passes = _epochs(np.random.default_rng(config.seed), idx, split.train_x, labels,
                     config.epochs, config.batch_size, phase, ascending)
    return Plan(_student(f, config), passes, config.learning_rate,
                _curriculum_state(config), mask, l1_lambda)


@register(TeacherSpec(None, None, "original_f", ("Loss",), ("Dense", "Internal")))
def exact_retrain(f: Model, split: DatasetSplit, config: UnlearnConfig) -> Plan:
    """Train a fresh model on the remaining data only, with the original recipe."""
    retain_idx = split.retain_indices
    if retain_idx.size == 0:
        raise ConfigError("cannot retrain: the remaining set is empty")
    passes = _epochs(np.random.default_rng(config.seed), retain_idx, split.train_x,
                     split.train_y, config.train_epochs, config.train_batch_size)
    return Plan(_fresh_model(split, config, config.seed), passes, config.train_learning_rate)


@register(TeacherSpec("Loss", "Grad", "none", (), ("Dense", "Internal")))
def neg_grad(f: Model, split: DatasetSplit, config: UnlearnConfig) -> Plan:
    """Gradient ascent on the task loss over the deletion set only."""
    return _finetune(f, split, config, split.del_indices, split.train_y, "ascent", True)


@register(TeacherSpec("Loss", "Data", "original_f", ("Loss",), ("Dense", "Internal")))
def rand_label(f: Model, split: DatasetSplit, config: UnlearnConfig,
               mask: ParamMask | None = None) -> Plan:
    """Fine-tune on the full training set with deletion rows relabeled.

    Labels are corrupted once up front (uniformly over the other classes) and
    the whole set is shuffled together every epoch.
    """
    labels = split.train_y.copy()
    labels[split.del_indices] = corrupt_labels(split, split.del_indices, config.seed)
    return _finetune(f, split, config, np.arange(split.num_train), labels, mask=mask)


@register(TeacherSpec("Logit", "Model", "original_f", ("Logit",), ("Dense", "Internal")))
def bad_t(f: Model, split: DatasetSplit, config: UnlearnConfig) -> Plan:
    """Distill toward an incompetent teacher on D_f and the original on D_r.

    Every optimization step draws one batch from each set simultaneously and
    descends KL(student || bad teacher) + KL(student || original).
    """
    bad_teacher = _fresh_model(split, config, config.bad_teacher_seed)
    rng = np.random.default_rng(config.seed)
    x, forget_idx = split.train_x, split.del_indices
    size = min(config.batch_size, forget_idx.size)

    def forget_batches(order):  # reshuffled whenever less than a batch is left
        while True:
            for start in range(0, order.size - size + 1, size):
                yield order[start:start + size]
            order = rng.permutation(forget_idx)

    forget = forget_batches(rng.permutation(forget_idx))  # drawn before any pass

    def steps():
        for [retain] in _stream(rng, split.retain_indices, x, None, f, config.batch_size):
            rows = next(forget)
            yield [(rows, x[rows], None, bad_teacher), retain]

    passes = (("distill", False, steps()) for _ in range(config.epochs))
    return Plan(_student(f, config), passes, config.learning_rate, _curriculum_state(config))


@register(TeacherSpec("Loss", "Grad", "original_f", ("Loss", "Logit"), ("Dense", "Internal")))
def scrub(f: Model, split: DatasetSplit, config: UnlearnConfig) -> Plan:
    """Alternate divergence ascent on D_f with guided descent on D_r.

    Rounds interleave one max pass (ascend task loss plus KL from the
    original's outputs on the deletion set) while max passes remain, and one
    min pass (descend the same composite on the remaining set) while min
    passes remain; the phase of every pass lands in the trace. The KL term
    alone is stationary at the starting point (the student IS the original),
    so the task-loss part supplies the initial escape direction. ``epochs``
    is unused: the schedule is ``scrub_max_steps`` and ``scrub_min_steps``.
    """
    max_steps, min_steps = config.scrub_max_steps, config.scrub_min_steps
    if max_steps < 0 or min_steps < 0:
        raise ConfigError("scrub step counts must be >= 0")
    rng = np.random.default_rng(config.seed)

    def one_pass(idx):
        return _stream(rng, idx, split.train_x, split.train_y, f, config.batch_size)

    def passes():
        for cycle in range(max(max_steps, min_steps)):
            if cycle < max_steps:
                yield "max", True, one_pass(split.del_indices)
            if cycle < min_steps:
                yield "min", False, one_pass(split.retain_indices)

    return Plan(_student(f, config), passes(), config.learning_rate, _curriculum_state(config))


@register(TeacherSpec("Loss", "Data", "original_f", ("Loss",), ("Sparse", "Internal")))
def salun(f: Model, split: DatasetSplit, config: UnlearnConfig) -> Plan:
    """Relabel-and-fine-tune restricted to the most salient parameters.

    Saliency is the absolute task-loss gradient over the deletion set at the
    original model; the top ``salun_sparsity`` fraction stays trainable.
    With sparsity 1.0 this is exactly rand_label (bit-identical trajectory).
    """
    s = config.salun_sparsity
    if not 0.0 < s <= 1.0:
        raise ConfigError(f"salun_sparsity must be in (0, 1], got {s}")
    _, grad = loss_and_grad(_student(f, config), split.forget_x, labels=split.forget_y)
    return rand_label(f, split, config, mask=ParamMask.top_fraction(np.abs(grad), s))


@register(TeacherSpec(None, None, "original_f", ("Loss",), ("Sparse", "Internal")))
def l1_sparse_ft(f: Model, split: DatasetSplit, config: UnlearnConfig) -> Plan:
    """Fine-tune on the remaining data with an L1 pull toward sparse weights."""
    if config.l1_lambda < 0:
        raise ConfigError(f"l1_lambda must be >= 0, got {config.l1_lambda}")
    return _finetune(f, split, config, split.retain_indices, split.train_y,
                     l1_lambda=config.l1_lambda)


TAXONOMY: dict[str, TeacherSpec] = {name: m.spec for name, m in METHODS.items()}


# ------------------------------------------------------------------- dispatch

def unlearn(method: str, f: Model, split: DatasetSplit, config: UnlearnConfig,
            observer=None) -> UnlearnRun:
    """Run one unlearning method end to end, recording time, FLOs, and a trace."""
    if method not in METHODS:
        raise ConfigError(f"unknown unlearning method {method!r}; available: "
                          + ", ".join(METHODS))
    if method != "exact_retrain" and split.del_indices.size == 0:
        raise ConfigError(f"{method} requires a deletion set; call "
                          "split.with_deletion(del_ratio) first")
    recorder = RunRecorder(split, budget_seconds=config.budget_seconds)
    plan = METHODS[method].plan(f, split, config)
    produced = _drive(plan, config.optimizer, config.temperature, recorder, observer)
    return UnlearnRun(method=method, config=config, original=f, model=produced,
                      trace=recorder.rows, seconds=recorder.seconds,
                      flos=recorder.flos)


def write_trace_csv(trace: list[TraceRow], path) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for row in trace:
            writer.writerow(row.as_csv_row())
