"""Teacher-student unlearning methods over one shared training loop.

Every method produces a new model: the original is cloned (or, for exact
retraining, freshly initialized) and never mutated. Methods differ along
three axes — how knowledge is measured (task loss or output
distribution), how it is corrupted on the deletion set (reversed
gradients, relabeled data, an incompetent teacher), and how it is retained
on the remaining set (matching the original model) — plus whether updates
are dense or restricted to a saliency mask.
"""

from __future__ import annotations

import copy
import functools
import time
from dataclasses import dataclass, field, fields, replace
from itertools import zip_longest
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import metrics, nn
from .config import UnlearnConfig
from .curriculum import SuperLossParams, superloss_weights
from .data import DatasetSplit, corrupt_labels
from .errors import BudgetError, ConfigError, NumericError, UnlearnkitError
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

    km: str | None  # Loss | Logit
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


class RunRecorder:
    """Accumulates FLOs, steps, wall time, per-epoch metrics, and the budget check.

    ``share`` runs trained in lockstep share the wall clock: each one's
    ``seconds`` (trace, budget and result) is the elapsed time divided by
    ``share``. A run that fails keeps its error in ``error`` (:meth:`fail`)
    and stops.
    """

    def __init__(self, split: DatasetSplit, budget_seconds: float | None = None,
                 share: int = 1):
        self.split = split
        self.budget_seconds = budget_seconds
        self.share = share
        self.rows: list[TraceRow] = []
        self.flos = 0.0
        self.steps = 0  # training steps taken
        self.logits: metrics.SplitLogits | None = None  # the last snapshot's
        self.error: Exception | None = None
        self._start = time.perf_counter()

    @property
    def seconds(self) -> float:
        return (time.perf_counter() - self._start) / self.share

    def add_samples(self, model: Model, num_samples: int) -> None:
        """Count one training step over ``num_samples`` rows."""
        self.flos += nn.count_flos(model, num_samples, 1)
        self.steps += 1

    def snapshot(self, epoch: int, model: Model, phase: str = "train") -> None:
        """Append the trace row of ``model``'s state, kept in ``logits`` for the report."""
        split, logits = self.split, metrics.split_logits(model, self.split)
        acc_test, acc_f, acc_r = metrics.accuracies(split, logits)
        loss_r = metrics.mean_task_loss(logits.retain, split.retain_y)
        loss_f = metrics.mean_task_loss(logits.forget, split.forget_y)  # None when D_f is empty
        self.logits = logits
        self.rows.append(TraceRow(epoch, loss_f, loss_r, acc_test, acc_f, acc_r,
                                  self.flos, self.seconds, phase))

    def check_budget(self) -> None:
        if self.budget_seconds is not None and self.seconds > self.budget_seconds:
            raise BudgetError(f"unlearning exceeded its budget of {self.budget_seconds:.3f}s "
                              f"after {self.seconds:.3f}s")

    def fail(self, exc: Exception) -> None:
        """Stop the run with ``exc``, which carries the rows recorded so far as ``trace``."""
        exc.trace = self.rows
        self.error = exc


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
# teacher logits to match (KL), all arrays over those rows. A planner
# computes the teacher logits of every training row once, so no step runs
# a teacher; it forwards the original as a copy, so the original that a
# group's runs share keeps no workspace. The parts' gradients sum into one
# update.
# A pass is ``(phase, ascending, steps)``, one epoch of steps; the trace
# gets a row at the end of each pass. Passes and steps are generators that
# the loop consumes once, in order: each pass draws its shuffle from the
# run's one RNG when the loop reaches it, so the draw order is fixed.

Part = tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray | None]
Pass = tuple[str, bool, Iterable[list[Part]]]

# A step stacks at most this many plans, and a sweep job holds at most this
# many runs. On the default config a step costs each plan 50-62 us at K = 10
# against 44-53 us at K = 20 (``tools/hotpath.py`` on a 2-core AVX-512 VM),
# but a wider stack holds larger step temporaries, and a job's memory grows
# with its runs.
MAX_STACK = 10


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
    if config.adapter_rank > 0:
        return attach_adapter(original, config.adapter_layer, config.adapter_rank,
                              config.adapter_scale, seed=config.seed)
    return original.clone()


def _stream(rng: np.random.Generator, idx: np.ndarray, x: np.ndarray,
            labels: np.ndarray | None, teacher: np.ndarray | None, batch_size: int):
    """One shuffled pass over the training rows ``idx``, one part per step; ``labels``
    and ``teacher`` (logits) are over the training set, as ``x`` is."""
    order = idx[rng.permutation(idx.size)]
    for start in range(0, order.size, batch_size):
        rows = order[start:start + batch_size]
        yield [(rows, x[rows], None if labels is None else labels[rows],
                None if teacher is None else teacher[rows])]


def _epochs(rng: np.random.Generator, idx: np.ndarray, x: np.ndarray, labels: np.ndarray,
            epochs: int, batch_size: int, phase: str = "train", ascending: bool = False):
    """``epochs`` task-loss passes over the training rows ``idx``."""
    return ((phase, ascending, _stream(rng, idx, x, labels, None, batch_size))
            for _ in range(epochs))


def loss_and_grad(model: Model, x: np.ndarray, *, labels: np.ndarray | None = None,
                  teacher: np.ndarray | None = None, temperature: float = 1.0,
                  curriculum: list[SuperLossParams] | None = None,
                  step: int = 0, accumulate: bool = False) -> tuple[float, np.ndarray]:
    """One training step's loss and gradient, on plain arrays: the loop's one step kernel.

    Runs one forward pass over ``x``, checks the ``labels`` against the
    logits (:func:`nn.validate_labels`), sums the per-row task cross-entropy
    (when ``labels`` is given) and KL to the ``teacher`` logits (when given),
    reduces the rows by their mean or by the curriculum, checks the value
    is finite (a ``NumericError`` names ``step``), and backprops. Returns
    the value and the model's gradient buffer, overwritten unless
    ``accumulate`` is set. ``curriculum`` holds one state per model: one
    for a plain model, K for a stacked one (``nn.Model.stack``), on which
    every array has a leading K axis and the value is one per model.
    """
    logits, cache = model.forward_cache(x)
    terms = []
    if labels is not None:
        terms.append(nn.cross_entropy_rows(logits, nn.validate_labels(logits, labels)))
    if teacher is not None:
        terms.append(nn.kl_rows(logits, teacher, temperature))
    rows = terms[0][0] if len(terms) == 1 else terms[0][0] + terms[1][0]
    n = rows.shape[-1]
    if curriculum is not None:
        # Per model: superloss_weights ravels its batch and returns that model's next tau.
        values, sigmas, taus = zip(*(superloss_weights(r, c) for r, c in
                                     zip(rows.reshape(len(curriculum), n), curriculum)))
        value = np.array(values).reshape(rows.shape[:-1])[()]  # [()]: a scalar for one model
        weights = (1.0 / n) * np.array(sigmas).reshape(rows.shape)
    else:
        value = np.add.reduce(rows, axis=-1) / n
        weights = np.float64(1.0 / n)  # every row's weight (see the loss kernels in nn)
    if not np.logical_and.reduce(np.isfinite(value), axis=None):
        raise NumericError("training loss became non-finite", step=step)
    if curriculum is not None:  # the one commit point: a step that raises moves no tau
        for state, tau in zip(curriculum, taus):
            state.tau = tau
    g = terms[0][1](weights)
    if len(terms) == 2:
        g += terms[1][1](weights)
    if not accumulate:
        model.grad.fill(0.0)
    return value, model.backprop(cache, g)


def _drive(plans: list[Plan], optimizer: str, temperature: float,
           recorders: list[RunRecorder]) -> None:
    """Train every plan's student in place through its passes: the one training loop.

    The K plans train in lockstep as one stacked model (``nn.Model.stack``),
    a stack of one for a solo run. Their passes are zipped, and so are
    their steps within a pass, each drawn from its own plan in its own
    order (so from its own RNG); a plan whose pass has fewer steps sits out
    the steps it lacks. The plans must come from configs that differ only
    in seed and deletion ratio, so they agree on passes, phases, parts per
    step, learning rate, curriculum use and L1 weight; their batch shapes
    and steps per pass may differ.

    Each part of a step runs :func:`loss_and_grad` once per run of adjacent
    plans whose parts have the same shape (maximal, up to ``MAX_STACK``
    plans), over those rows of the stack (``Model.rows``), and every part
    backprops into the plan's one summed gradient row. A
    non-finite part makes that sum non-finite, so each part is checked on
    its own. Then each run of adjacent plans that stepped gets the L1 pull
    and the pass's sign, both written into its spent gradient rows, and one
    masked optimizer update; Adam counts each plan's updates on its own.
    Each phase name keeps its own optimizer state, so ascent and descent
    never share Adam moments.

    ``recorders[k]`` counts plan k's samples and steps each step it takes
    and snapshots plan k's student before training (epoch 0, ``init``) and
    after every pass, numbered from 1, checking the budget after each pass.
    The snapshots evaluate each student on its own. Evaluating the test set
    as one stack per run of plans (K <= 10), and the retain and forget sets
    per ratio, kept the bytes and made this loop 5-10% faster in process,
    but left the benchmark grid's sweep time within its run-to-run noise on
    a 2-core VM (4.25, 4.80, 4.42 s against 4.52, 4.43, 4.22 s) and raised
    its peak RSS by 0.65 MB.

    A plan fails alone (:meth:`RunRecorder.fail`) and sits out every later
    step and snapshot, on an error from its snapshot or budget check, or
    on an ``UnlearnkitError`` from its own rows of a part: a run of plans
    whose part raises one is redone one plan at a time (every such error is
    raised before a gradient row, optimizer state or curriculum baseline
    changes). A plan that fails in a step gets no update in it. Any other
    error is raised.
    """
    first = plans[0]
    model = Model.stack([plan.student for plan in plans])
    fresh = OptimizerState(optimizer, first.learning_rate)  # a bad recipe fails up front
    mask = None if first.mask is None else ParamMask(np.array([p.mask.selected for p in plans]))
    curricula = None if first.curriculum is None else [plan.curriculum for plan in plans]
    stack_rows = functools.cache(model.rows)  # one view per run of plans
    opts: dict[str, OptimizerState] = {}
    records = list(zip(recorders, plans))

    def part(steps: list, i: int, lo: int, hi: int) -> None:
        """Part ``i`` of plans ``lo`` to ``hi - 1``: forward, loss and backprop."""
        _, x, labels, teacher = (None if a[0] is None else np.array(a)  # each array stacked
                                 for a in zip(*(s[i] for s in steps[lo:hi])))
        loss_and_grad(stack_rows(lo, hi), x, labels=labels, teacher=teacher,
                      temperature=temperature, step=recorders[lo].steps, accumulate=i > 0,
                      curriculum=None if curricula is None else curricula[lo:hi])

    def end_pass(number: int, phase: str) -> None:
        for recorder, plan in records:
            if recorder.error is None:
                try:
                    recorder.snapshot(number, plan.student, phase)
                    if number:
                        recorder.check_budget()
                except Exception as exc:  # the plan's own
                    recorder.fail(exc)

    end_pass(0, "init")
    for number, passes in enumerate(zip(*(plan.passes for plan in plans), strict=True), 1):
        phase, ascending, _ = passes[0]
        if phase not in opts:
            opts[phase] = replace(fresh)
        for steps in zip_longest(*(() if r.error else p[2] for r, p in zip(recorders, passes))):
            # None: that plan's pass is over, or the plan failed
            steps = [s if r.error is None else None for r, s in zip(recorders, steps)]
            if not any(steps):
                break
            for i in range(len(next(s for s in steps if s is not None))):
                for lo, hi in _runs([None if s is None else s[i][1].shape for s in steps]):
                    try:
                        part(steps, i, lo, hi)
                    except UnlearnkitError:
                        for k in range(lo, hi):
                            try:
                                part(steps, i, k, k + 1)
                            except UnlearnkitError as exc:
                                recorders[k].fail(exc)
                                steps[k] = None
            for lo, hi in _runs([None if s is None else True for s in steps]):
                view = stack_rows(lo, hi)
                grad = view.grad  # spent by this update, so pulled and negated in place
                if first.l1_lambda:
                    grad += first.l1_lambda * np.sign(view.params)
                if ascending:
                    np.negative(grad, out=grad)
                optimizer_step(opts[phase], model, grad, mask, slice(lo, hi))
            for (recorder, plan), parts in zip(records, steps):
                if parts is not None:
                    recorder.add_samples(plan.student, sum(len(p[0]) for p in parts))
        end_pass(number, phase)


def _runs(keys: list) -> list[tuple[int, int]]:
    """Each ``[lo, hi)`` of adjacent equal keys that are not None, at most
    ``MAX_STACK`` long and otherwise maximal."""
    runs, lo = [], 0
    for k in range(1, len(keys) + 1):
        if k == len(keys) or keys[k] != keys[lo] or k - lo == MAX_STACK:
            if keys[lo] is not None:
                runs.append((lo, k))
            lo = k
    return runs


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
    """Train a fresh model on the remaining data only, with the original's ``train_*`` recipe.

    One shuffle per epoch from the run seed, no curriculum, mask or L1. The
    original is this run on a split with no deletion set (:func:`train_original`).
    """
    if split.retain_indices.size == 0:
        raise ConfigError("cannot retrain: the remaining set is empty")
    passes = _epochs(np.random.default_rng(config.seed), split.retain_indices, split.train_x,
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
    x, forget_idx = split.train_x, split.del_indices
    # Each training row's teacher logits: the original's on D_r, the bad teacher's on D_f.
    teacher = f.clone().logits(x)
    teacher[forget_idx] = _fresh_model(split, config, config.bad_teacher_seed).logits(x[forget_idx])
    rng = np.random.default_rng(config.seed)
    size = min(config.batch_size, forget_idx.size)

    def forget_batches(order):  # reshuffled whenever less than a batch is left
        while True:
            for start in range(0, order.size - size + 1, size):
                yield order[start:start + size]
            order = rng.permutation(forget_idx)

    forget = forget_batches(rng.permutation(forget_idx))  # drawn before any pass

    def steps():
        for [retain] in _stream(rng, split.retain_indices, x, None, teacher, config.batch_size):
            rows = next(forget)
            yield [(rows, x[rows], None, teacher[rows]), retain]

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
    rng = np.random.default_rng(config.seed)
    original = f.clone().logits(split.train_x)

    def one_pass(idx):
        return _stream(rng, idx, split.train_x, split.train_y, original, config.batch_size)

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
    _, grad = loss_and_grad(_student(f, config), split.forget_x, labels=split.forget_y)
    mask = ParamMask.top_fraction(np.abs(grad), config.salun_sparsity)
    return rand_label(f, split, config, mask=mask)


@register(TeacherSpec(None, None, "original_f", ("Loss",), ("Sparse", "Internal")))
def l1_sparse_ft(f: Model, split: DatasetSplit, config: UnlearnConfig) -> Plan:
    """Fine-tune on the remaining data with an L1 pull toward sparse weights."""
    return _finetune(f, split, config, split.retain_indices, split.train_y,
                     l1_lambda=config.l1_lambda)


TAXONOMY: dict[str, TeacherSpec] = {name: m.spec for name, m in METHODS.items()}


# ------------------------------------------------------------------- dispatch

Member = tuple[Model, DatasetSplit, UnlearnConfig]


def unlearn(method: str, f: Model, split: DatasetSplit, config: UnlearnConfig) -> UnlearnRun:
    """Run one unlearning method end to end, recording time, FLOs, and a trace.

    A lockstep group of one (:func:`unlearn_group`); its error is raised.
    """
    [result] = unlearn_group(method, [(f, split, config)])
    if isinstance(result, Exception):
        raise result
    return result


def unlearn_group(method: str, members: Sequence[Member]) -> list[UnlearnRun | Exception]:
    """Run one method on K ``(original, split, config)`` members in lockstep.

    The members' configs may differ only in ``seed``, ``del_ratio`` (and
    ``budget_seconds``), so their plans share passes and phases: they train
    as one stacked model, each step over the runs of adjacent members whose
    batches have the same shapes (see ``_drive``). Order the members so that
    those that share a deletion ratio are adjacent. Each member's model,
    trace rows apart from ``seconds``, FLOs and trained rows are
    bit-identical to its run alone with :func:`unlearn`; its ``seconds``
    (report, trace and budget) is the group's elapsed time divided by K,
    whichever members fail.

    A member fails alone, with the error and partial trace it gets alone,
    on an error from its planner, its snapshots or its budget check, or on
    an ``UnlearnkitError`` from its own rows of a training step (a stacked
    part that raises one is redone one member at a time); it then sits out
    the rest, and the others go on. An error that belongs to no member (an
    unknown method, configs that differ beyond seed and ratio, any other
    error from a training step) fails every member still training, with
    no rerun, each with a copy of it. A failed member's error carries the
    rows it recorded as ``trace``. Returns each member's run, or its error.
    """
    recorders = [RunRecorder(split, budget_seconds=config.budget_seconds, share=len(members))
                 for _, split, config in members]
    plans: dict[int, Plan] = {}
    try:
        if method not in METHODS:
            raise ConfigError(f"unknown unlearning method {method!r}; available: "
                              + ", ".join(METHODS))
        configs = [replace(c, seed=0, del_ratio=1, budget_seconds=None) for *_, c in members]
        if any(config != configs[0] for config in configs):
            raise ConfigError("the configs of a lockstep group may differ only in seed "
                              "and del_ratio")
        for k, (member, recorder) in enumerate(zip(members, recorders)):
            try:
                if method != "exact_retrain" and member[1].del_indices.size == 0:
                    raise ConfigError(f"{method} requires a deletion set; call "
                                      "split.with_deletion(del_ratio) first")
                plans[k] = METHODS[method].plan(*member)
            except Exception as exc:  # the member's own
                recorder.fail(exc)
        if plans:
            _drive(list(plans.values()), configs[0].optimizer, configs[0].temperature,
                   [recorders[k] for k in plans])
    except Exception as exc:  # it belongs to no member
        training = [recorder for recorder in recorders if recorder.error is None]
        for recorder in training:
            recorder.fail(exc if len(training) == 1
                          else copy.copy(exc).with_traceback(exc.__traceback__))
    return [recorder.error or UnlearnRun(method, config, plans[k].student, recorder.rows,
                                         recorder.seconds, recorder.flos, recorder.logits)
            for k, ((_, _, config), recorder) in enumerate(zip(members, recorders))]


def train_original(split: DatasetSplit, config: UnlearnConfig) -> UnlearnRun:
    """Train the original model: an :func:`exact_retrain` run over every training row.

    The run sees ``split`` without its deletion set and has no budget; its
    trace gets an ``init`` row and one row per epoch.
    """
    return unlearn("exact_retrain", None, replace(split, del_indices=()),
                   replace(config, budget_seconds=None))


def write_trace_csv(trace: list[TraceRow], path) -> None:
    write_csv(path, [TRACE_COLUMNS] + [row.as_csv_row() for row in trace])
