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
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import metrics, nn
from .config import UnlearnConfig
from .curriculum import SuperLossParams, superloss_weights
from .data import DatasetSplit, corrupt_labels
from .errors import BudgetError, ConfigError, NumericError
from .fileio import write_csv
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
        return ["" if (v := getattr(self, name)) is None else v for name in TRACE_COLUMNS]


TRACE_COLUMNS = tuple(f.name for f in fields(TraceRow))


def _stacked(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """One array for one run; K same-shaped arrays stacked on a leading axis for K."""
    return arrays[0] if len(arrays) == 1 else np.array(arrays)


class RunRecorder:
    """Accumulates FLOs, wall time, per-epoch metrics, and the budget check.

    ``share`` runs trained in lockstep share the wall clock: each one's
    ``seconds`` (trace, budget and result) is the elapsed time divided by
    ``share``.
    """

    def __init__(self, split: DatasetSplit, budget_seconds: float | None = None,
                 share: int = 1):
        self.split = split
        self.budget_seconds = budget_seconds
        self.share = share
        self.rows: list[TraceRow] = []
        self.flos = 0.0
        self.logits: metrics.SplitLogits | None = None  # the last snapshot's
        self._flos_per_sample: float | None = None  # a run trains one model
        self._start = time.perf_counter()

    @property
    def seconds(self) -> float:
        return (time.perf_counter() - self._start) / self.share

    def add_samples(self, model: Model, num_samples: int) -> None:
        if self._flos_per_sample is None:
            self._flos_per_sample = nn.count_flos(model, 1, 1)
        self.flos += self._flos_per_sample * float(num_samples)

    def snapshot(self, epoch: int, model: Model, phase: str = "train") -> None:
        """Append the trace row of ``model``'s state, kept in ``logits`` for the report."""
        split, logits = self.split, metrics.split_logits(model, self.split)
        acc_test, acc_f, acc_r = metrics.accuracies(split, logits)
        loss_r = float(metrics.task_losses(logits.retain, split.retain_y).mean())
        loss_f = None
        if logits.forget is not None:
            loss_f = float(metrics.task_losses(logits.forget, split.forget_y).mean())
        self.logits = logits
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
    model: Model  # the unlearned model
    trace: list[TraceRow] = field(default_factory=list)
    seconds: float = 0.0
    flos: float = 0.0
    logits: metrics.SplitLogits | None = None  # the model's, from the last trace row


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
                  curriculum: SuperLossParams | list[SuperLossParams] | None = None,
                  step: int = 0, accumulate: bool = False) -> tuple[float, np.ndarray]:
    """One training step's loss and gradient, on plain arrays.

    Runs one forward pass over ``x``, checks the ``labels`` against the
    logits (:func:`nn.validate_labels`), sums the per-row task cross-entropy
    (when ``labels`` is given) and KL to the ``teacher`` logits (when given),
    reduces the rows by their mean or by the curriculum, checks the value
    is finite, and backprops. Returns the value and the model's gradient
    buffer, overwritten unless ``accumulate`` is set. On a stacked model
    (``nn.Model.stack``) every array has a leading K axis, the value is one
    per model, and ``curriculum`` is a list of K states.
    """
    logits, cache = model.forward_cache(x)
    if labels is not None:
        labels = nn.validate_labels(logits, labels)
    if isinstance(curriculum, SuperLossParams):
        curriculum = [curriculum]
    return _backprop_loss(model, logits, cache, labels, teacher, temperature,
                          curriculum, step, accumulate)


def _backprop_loss(model: Model, logits: np.ndarray, cache: tuple, labels: np.ndarray | None,
                   teacher: np.ndarray | None, temperature: float,
                   curricula: list[SuperLossParams] | None, step: int, accumulate: bool):
    """:func:`loss_and_grad` after its forward pass, on labels already checked."""
    terms = []
    if labels is not None:
        terms.append(nn.cross_entropy_rows(logits, labels))
    if teacher is not None:
        terms.append(nn.kl_rows(logits, teacher, temperature))
    rows = terms[0][0] if len(terms) == 1 else terms[0][0] + terms[1][0]
    n = rows.shape[-1]
    if curricula is not None:
        # Per model: superloss_weights ravels its batch and moves that model's tau.
        values, sigmas = zip(*(superloss_weights(r, c) for r, c in
                               zip(rows.reshape(len(curricula), n), curricula)))
        value = np.reshape(values, rows.shape[:-1])[()]  # [()]: a scalar for one model
        weights = (1.0 / n) * np.reshape(sigmas, rows.shape)
    else:
        value = rows.mean(axis=-1)
        weights = np.full(rows.shape, 1.0 / n)
    if not np.isfinite(value).all():
        raise NumericError("training loss became non-finite", step=step)
    g = terms[0][1](weights)
    if len(terms) == 2:
        g = g + terms[1][1](weights)
    if not accumulate:
        model.grad.fill(0.0)
    return value, model.backprop(cache, g)


def _drive(plans: list[Plan], optimizer: str, temperature: float = 1.0,
           recorders: list[RunRecorder] | None = None, observers=None) -> None:
    """Train every plan's student in place through its passes: the one training loop.

    The K plans train in lockstep as one stacked model (``nn.Model.stack``;
    K = 1 trains the student itself). Their passes, steps and parts are
    zipped, each drawn from its own plan in its own order (so from its own
    RNG), and each step makes one forward, loss and backprop over the
    stacked batch and one optimizer update of the stack. The plans must
    come from configs that differ only in seed, so they agree on phases,
    batch shapes, learning rate, curriculum use and L1 weight.

    Every part of a step backprops into one summed gradient. A non-finite
    part makes that sum non-finite, so each part is checked on its own.
    The sum gets the L1 pull, the pass's sign and one masked optimizer
    update. Each phase name keeps its own optimizer state, so ascent and
    descent never share Adam moments. ``observers[k]`` sees the row indices
    of every part of plan k. ``recorders[k]`` counts plan k's samples each
    step and snapshots plan k's student before training (epoch 0, ``init``)
    and after every pass, numbered from 1, checking the budget after each
    pass. The snapshots evaluate each student on its own: a stacked
    evaluation over the larger evaluation sets was no faster than K of them.
    """
    first = plans[0]
    model = Model.stack([plan.student for plan in plans])
    fresh = OptimizerState(optimizer, first.learning_rate)  # a bad recipe fails up front
    mask = None if first.mask is None else ParamMask(_stacked([p.mask.selected for p in plans]))
    curricula = None if first.curriculum is None else [plan.curriculum for plan in plans]
    stacked_teachers: dict[tuple[int, ...], Model] = {}
    opts: dict[str, OptimizerState] = {}
    records = list(zip(recorders or (), plans))
    for recorder, plan in records:
        recorder.snapshot(0, plan.student, "init")
    step = 0
    for number, passes in enumerate(zip(*(plan.passes for plan in plans), strict=True), 1):
        phase, ascending, _ = passes[0]
        if phase not in opts:
            opts[phase] = replace(fresh)
        for steps in zip(*(p[2] for p in passes), strict=True):
            for i, parts in enumerate(zip(*steps, strict=True)):
                rows, xs, labels, teachers = zip(*parts)
                for observer, idx in zip(observers or (), rows):
                    if observer is not None:
                        observer(idx)
                x = _stacked(xs)
                teacher = None
                if teachers[0] is not None:
                    key = tuple(map(id, teachers))
                    if key not in stacked_teachers:  # copies: the teachers stay as they are
                        stacked_teachers[key] = (teachers[0] if len(teachers) == 1 else
                                                 Model.stack([t.clone() for t in teachers]))
                    teacher = stacked_teachers[key].logits(x)
                _, grad = _backprop_loss(  # inline, so the logits die with the call
                    model, *model.forward_cache(x), None if labels[0] is None else _stacked(labels),
                    teacher, temperature, curricula, step, accumulate=i > 0)
            if first.l1_lambda:
                grad = grad + first.l1_lambda * np.sign(model.params)
            optimizer_step(opts[phase], model, -grad if ascending else grad, mask)
            for (recorder, plan), parts in zip(records, steps):
                recorder.add_samples(plan.student, sum(len(part[0]) for part in parts))
            step += 1
        for recorder, plan in records:
            recorder.snapshot(number, plan.student, phase)
            recorder.check_budget()


def _from_scratch(split: DatasetSplit, config: UnlearnConfig, idx: np.ndarray) -> Plan:
    """A fresh model trained with the original's ``train_*`` recipe over the training rows ``idx``.

    One shuffle per epoch from the run seed, no curriculum, mask or L1: the
    original trains over every row, :func:`exact_retrain` over D_r.
    """
    student = _fresh_model(split, config, config.seed)
    labels = nn.check_label_range(split.train_y, student.num_classes)
    passes = _epochs(np.random.default_rng(config.seed), idx, split.train_x, labels,
                     config.train_epochs, config.train_batch_size)
    return Plan(student, passes, config.train_learning_rate)


def train_original(split: DatasetSplit, config: UnlearnConfig,
                   recorder: RunRecorder | None = None) -> Model:
    """Train the original model on every training row, deleted or not, with the recorded recipe.

    With a ``recorder`` the trace gets an ``init`` row and one row per epoch.
    """
    plan = _from_scratch(split, config, np.arange(split.num_train))
    _drive([plan], config.optimizer, recorders=None if recorder is None else [recorder])
    return plan.student


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
    labels = nn.check_label_range(labels, f.num_classes)
    passes = _epochs(np.random.default_rng(config.seed), idx, split.train_x, labels,
                     config.epochs, config.batch_size, phase, ascending)
    return Plan(_student(f, config), passes, config.learning_rate,
                _curriculum_state(config), mask, l1_lambda)


@register(TeacherSpec(None, None, "original_f", ("Loss",), ("Dense", "Internal")))
def exact_retrain(f: Model, split: DatasetSplit, config: UnlearnConfig) -> Plan:
    """Train a fresh model on the remaining data only, with the original recipe."""
    if split.retain_indices.size == 0:
        raise ConfigError("cannot retrain: the remaining set is empty")
    return _from_scratch(split, config, split.retain_indices)


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
    labels = nn.check_label_range(split.train_y, f.num_classes)

    def one_pass(idx):
        return _stream(rng, idx, split.train_x, labels, f, config.batch_size)

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

Member = tuple[Model, DatasetSplit, UnlearnConfig]


def unlearn(method: str, f: Model, split: DatasetSplit, config: UnlearnConfig,
            observer=None) -> UnlearnRun:
    """Run one unlearning method end to end, recording time, FLOs, and a trace.

    A lockstep group of one (:func:`unlearn_group`); its error is raised.
    """
    [result] = unlearn_group(method, [(f, split, config)], [observer])
    if isinstance(result, Exception):
        raise result
    return result


def unlearn_group(method: str, members: Sequence[Member],
                  observers: Sequence | None = None) -> list[UnlearnRun | Exception]:
    """Run one method on K ``(original, split, config)`` members in lockstep.

    The members' configs may differ only in ``seed`` (and ``budget_seconds``),
    so their plans share phases and batch shapes: they train as one stacked
    model (see ``_drive``). Each member's model, trace rows apart from
    ``seconds``, FLOs and observed rows are bit-identical to its run alone
    with :func:`unlearn`; its ``seconds`` (report, trace and budget) is the
    group's elapsed time divided by K. ``observers[k]`` sees member k's rows
    as they train in a group of one, and once the group has finished in a
    larger one. If any member raises, the members are rerun one by one, so
    each gets the result, error and partial trace it gets alone. Returns
    each member's run, or the exception it raised.
    """
    observers = list(observers or [None] * len(members))
    if len(members) == 1:
        try:
            return _lockstep(method, members, observers)
        except Exception as exc:  # the caller decides; unlearn() raises it
            return [exc]
    seen = [None if observer is None else [] for observer in observers]
    try:
        runs = _lockstep(method, members, [None if rows is None else rows.append for rows in seen])
    except Exception:
        return [unlearn_group(method, [member], [observer])[0]
                for member, observer in zip(members, observers)]
    for observer, rows in zip(observers, seen):
        for idx in rows or ():
            observer(idx)
    return runs


def _lockstep(method: str, members: Sequence[Member], observers: list) -> list[UnlearnRun]:
    """Train the members as one group; any member's error stops the group."""
    if method not in METHODS:
        raise ConfigError(f"unknown unlearning method {method!r}; available: "
                          + ", ".join(METHODS))
    configs = [config for _, _, config in members]
    shared = [replace(config, seed=0, budget_seconds=None) for config in configs]
    if any(config != shared[0] for config in shared):
        raise ConfigError("the configs of a lockstep group may differ only in seed")
    if method != "exact_retrain" and any(split.del_indices.size == 0 for _, split, _ in members):
        raise ConfigError(f"{method} requires a deletion set; call "
                          "split.with_deletion(del_ratio) first")
    recorders = [RunRecorder(split, budget_seconds=config.budget_seconds, share=len(members))
                 for _, split, config in members]
    plans = [METHODS[method].plan(*member) for member in members]
    _drive(plans, configs[0].optimizer, configs[0].temperature, recorders, observers)
    return [UnlearnRun(method=method, config=config, model=plan.student, trace=recorder.rows,
                       seconds=recorder.seconds, flos=recorder.flos, logits=recorder.logits)
            for (_, _, config), plan, recorder in zip(members, plans, recorders)]


def write_trace_csv(trace: list[TraceRow], path) -> None:
    write_csv(path, [TRACE_COLUMNS] + [row.as_csv_row() for row in trace])
