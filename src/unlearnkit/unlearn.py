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
from dataclasses import dataclass, field

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
    trainable parameters.
    """

    km: str | None  # Loss | Rep | Logit
    corrupt: str | None  # Grad | Data | Model
    retain: str  # original_f | none
    retain_km: tuple[str, ...]  # measures used on the remaining data
    scope: tuple[str, str]  # (Dense|Sparse, Internal|External)


TAXONOMY: dict[str, TeacherSpec] = {
    "exact_retrain": TeacherSpec(None, None, "original_f", ("Loss",), ("Dense", "Internal")),
    "neg_grad": TeacherSpec("Loss", "Grad", "none", (), ("Dense", "Internal")),
    "rand_label": TeacherSpec("Loss", "Data", "original_f", ("Loss",), ("Dense", "Internal")),
    "bad_t": TeacherSpec("Logit", "Model", "original_f", ("Logit",), ("Dense", "Internal")),
    "scrub": TeacherSpec("Loss", "Grad", "original_f", ("Loss", "Rep"), ("Dense", "Internal")),
    "salun": TeacherSpec("Loss", "Data", "original_f", ("Loss",), ("Sparse", "Internal")),
    "l1_sparse_ft": TeacherSpec(None, None, "original_f", ("Loss",), ("Sparse", "Internal")),
}


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

def _check_finite(value: float, step: int) -> None:
    if not np.isfinite(value):
        raise NumericError("training loss became non-finite", step=step)


def _curriculum_state(config: UnlearnConfig) -> SuperLossParams | None:
    if not config.curriculum:
        return None
    return SuperLossParams(lam=config.curriculum_lambda, decay=config.curriculum_decay)


def _student(original: Model, config: UnlearnConfig) -> Model:
    """Deep copy of the original, with an adapter attached when configured."""
    student = original.clone()
    if config.adapter_rank > 0:
        student = attach_adapter(student, config.adapter_layer, config.adapter_rank,
                                 config.adapter_scale, seed=config.seed)
    return student


def _batches(rng: np.random.Generator, n: int, batch_size: int):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


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
    _check_finite(value, step)
    g = terms[0][1](weights)
    if len(terms) == 2:
        g = g + terms[1][1](weights)
    if not accumulate:
        model.grad.fill(0.0)
    return value, model.backprop(cache, g)


def fit(model: Model, x: np.ndarray, y: np.ndarray, *, epochs: int,
        learning_rate: float, batch_size: int, optimizer: str, seed: int,
        mask: ParamMask | None = None, ascent: bool = False,
        curriculum: SuperLossParams | None = None, l1_lambda: float = 0.0,
        indices: np.ndarray | None = None, observer=None,
        recorder: RunRecorder | None = None, phase: str = "train") -> Model:
    """Minibatch task-loss training, shared by original training and most methods.

    ``indices`` maps rows of ``x`` back to original training rows so an
    ``observer`` can audit exactly which samples the loop touches.
    """
    opt = OptimizerState(optimizer, learning_rate)
    rng = np.random.default_rng(seed)
    step = 0
    for epoch in range(1, epochs + 1):
        for rows in _batches(rng, len(y), batch_size):
            if observer is not None and indices is not None:
                observer(indices[rows])
            _, grad = loss_and_grad(model, x[rows], labels=y[rows],
                                    curriculum=curriculum, step=step)
            if l1_lambda:
                grad = grad + l1_lambda * np.sign(model.params)
            if ascent:
                grad = -grad
            optimizer_step(opt, model, grad, mask)
            if recorder is not None:
                recorder.add_samples(model, len(rows))
            step += 1
        if recorder is not None:
            recorder.snapshot(epoch, model, phase)
            recorder.check_budget()
    return model


def train_original(split: DatasetSplit, config: UnlearnConfig,
                   recorder: RunRecorder | None = None) -> Model:
    """Train the original model on the full training set with the recorded recipe."""
    spec = config.data_spec()
    model = build_model(split.train_x.shape[1], spec.num_classes,
                        config.backbone, seed=config.seed)
    if recorder is not None:
        recorder.snapshot(0, model, "init")
    fit(model, split.train_x, split.train_y, epochs=config.train_epochs,
        learning_rate=config.train_learning_rate, batch_size=config.train_batch_size,
        optimizer=config.optimizer, seed=config.seed,
        indices=np.arange(split.num_train), recorder=recorder)
    return model


# -------------------------------------------------------------------- methods

def exact_retrain(split: DatasetSplit, config: UnlearnConfig,
                  recorder: RunRecorder | None = None, observer=None) -> Model:
    """Train a fresh model on the remaining data only, with the original recipe."""
    retain_idx = split.retain_indices
    if retain_idx.size == 0:
        raise ConfigError("cannot retrain: the remaining set is empty")
    spec = config.data_spec()
    model = build_model(split.train_x.shape[1], spec.num_classes,
                        config.backbone, seed=config.seed)
    if recorder is not None:
        recorder.snapshot(0, model, "init")
    return fit(model, split.train_x[retain_idx], split.train_y[retain_idx],
               epochs=config.train_epochs, learning_rate=config.train_learning_rate,
               batch_size=config.train_batch_size, optimizer=config.optimizer,
               seed=config.seed, indices=retain_idx, observer=observer,
               recorder=recorder)


def neg_grad(f: Model, split: DatasetSplit, config: UnlearnConfig,
             recorder: RunRecorder | None = None, observer=None) -> Model:
    """Gradient ascent on the task loss over the deletion set only."""
    model = _student(f, config)
    if recorder is not None:
        recorder.snapshot(0, model, "init")
    return fit(model, split.forget_x, split.forget_y, epochs=config.epochs,
               learning_rate=config.learning_rate, batch_size=config.batch_size,
               optimizer=config.optimizer, seed=config.seed, ascent=True,
               curriculum=_curriculum_state(config), indices=split.del_indices,
               observer=observer, recorder=recorder, phase="ascent")


def rand_label(f: Model, split: DatasetSplit, config: UnlearnConfig,
               recorder: RunRecorder | None = None, observer=None,
               mask: ParamMask | None = None) -> Model:
    """Fine-tune on the full training set with deletion rows relabeled.

    Labels are corrupted once up front (uniformly over the other classes) and
    the whole set is shuffled together every epoch.
    """
    if split.del_indices.size == 0:
        raise ConfigError("rand_label needs a non-empty deletion set")
    model = _student(f, config)
    if recorder is not None:
        recorder.snapshot(0, model, "init")
    labels = split.train_y.copy()
    labels[split.del_indices] = corrupt_labels(split, split.del_indices, config.seed)
    return fit(model, split.train_x, labels, epochs=config.epochs,
               learning_rate=config.learning_rate, batch_size=config.batch_size,
               optimizer=config.optimizer, seed=config.seed, mask=mask,
               curriculum=_curriculum_state(config),
               indices=np.arange(split.num_train), observer=observer,
               recorder=recorder)


def salun(f: Model, split: DatasetSplit, config: UnlearnConfig,
          recorder: RunRecorder | None = None, observer=None) -> Model:
    """Relabel-and-fine-tune restricted to the most salient parameters.

    Saliency is the absolute task-loss gradient over the deletion set at the
    original model; the top ``salun_sparsity`` fraction stays trainable.
    With sparsity 1.0 this is exactly rand_label (bit-identical trajectory).
    """
    s = config.salun_sparsity
    if not 0.0 < s <= 1.0:
        raise ConfigError(f"salun_sparsity must be in (0, 1], got {s}")
    if split.del_indices.size == 0:
        raise ConfigError("salun needs a non-empty deletion set")
    probe = _student(f, config)
    loss = nn.cross_entropy(probe.forward(split.forget_x), split.forget_y)
    saliency = np.abs(nn.backward(probe, loss))
    mask = ParamMask.top_fraction(saliency, s)
    return rand_label(f, split, config, recorder=recorder, observer=observer, mask=mask)


def bad_t(f: Model, split: DatasetSplit, config: UnlearnConfig,
          recorder: RunRecorder | None = None, observer=None) -> Model:
    """Distill toward an incompetent teacher on D_f and the original on D_r.

    Every optimization step draws one batch from each set simultaneously and
    descends KL(student || bad teacher) + KL(student || original).
    """
    if split.del_indices.size == 0:
        raise ConfigError("bad_t needs a non-empty deletion set")
    spec = config.data_spec()
    bad_teacher = build_model(split.train_x.shape[1], spec.num_classes,
                              config.backbone, seed=config.bad_teacher_seed)
    model = _student(f, config)
    if recorder is not None:
        recorder.snapshot(0, model, "init")
    opt = OptimizerState(config.optimizer, config.learning_rate)
    curriculum = _curriculum_state(config)
    rng = np.random.default_rng(config.seed)
    retain_idx, forget_idx = split.retain_indices, split.del_indices
    forget_batch = min(config.batch_size, forget_idx.size)
    forget_order = rng.permutation(forget_idx)
    cursor = 0
    step = 0
    for epoch in range(1, config.epochs + 1):
        for rows in _batches(rng, retain_idx.size, config.batch_size):
            r_idx = retain_idx[rows]
            if cursor + forget_batch > forget_order.size:
                forget_order = rng.permutation(forget_idx)
                cursor = 0
            f_idx = forget_order[cursor:cursor + forget_batch]
            cursor += forget_batch
            if observer is not None:
                observer(f_idx)
                observer(r_idx)
            xf, xr = split.train_x[f_idx], split.train_x[r_idx]
            # Both batches' KL terms sum into one gradient; a non-finite
            # half makes the summed loss non-finite, so each half is checked.
            loss_and_grad(model, xf, teacher=bad_teacher.logits(xf),
                          temperature=config.temperature, curriculum=curriculum, step=step)
            _, grad = loss_and_grad(model, xr, teacher=f.logits(xr),
                                    temperature=config.temperature, curriculum=curriculum,
                                    step=step, accumulate=True)
            optimizer_step(opt, model, grad)
            if recorder is not None:
                recorder.add_samples(model, len(f_idx) + len(r_idx))
            step += 1
        if recorder is not None:
            recorder.snapshot(epoch, model, "distill")
            recorder.check_budget()
    return model


def scrub(f: Model, split: DatasetSplit, config: UnlearnConfig,
          recorder: RunRecorder | None = None, observer=None) -> Model:
    """Alternate divergence ascent on D_f with guided descent on D_r.

    Rounds interleave one max pass (ascend task loss plus KL from the
    original's outputs on the deletion set) while max passes remain, and one
    min pass (descend the same composite on the remaining set) while min
    passes remain; the phase of every pass lands in the trace. The KL term
    alone is stationary at the starting point (the student IS the original),
    so the task-loss part supplies the initial escape direction. ``epochs``
    is unused: the schedule is ``scrub_max_steps`` and ``scrub_min_steps``.
    """
    if config.scrub_max_steps < 0 or config.scrub_min_steps < 0:
        raise ConfigError("scrub step counts must be >= 0")
    if split.del_indices.size == 0:
        raise ConfigError("scrub needs a non-empty deletion set")
    model = _student(f, config)
    if recorder is not None:
        recorder.snapshot(0, model, "init")
    # Ascent and descent are different optimization problems; sharing Adam
    # moments across them would let min-phase momentum cancel max steps.
    opts = {"max": OptimizerState(config.optimizer, config.learning_rate),
            "min": OptimizerState(config.optimizer, config.learning_rate)}
    curriculum = _curriculum_state(config)
    rng = np.random.default_rng(config.seed)
    retain_idx, forget_idx = split.retain_indices, split.del_indices
    step = 0
    pass_no = 0

    def one_pass(idx: np.ndarray, ascending: bool, phase: str):
        nonlocal step, pass_no
        for rows in _batches(rng, idx.size, config.batch_size):
            batch = idx[rows]
            if observer is not None:
                observer(batch)
            x, y = split.train_x[batch], split.train_y[batch]
            _, grad = loss_and_grad(model, x, labels=y, teacher=f.logits(x),
                                    temperature=config.temperature, curriculum=curriculum,
                                    step=step)
            optimizer_step(opts[phase], model, -grad if ascending else grad)
            if recorder is not None:
                recorder.add_samples(model, len(rows))
            step += 1
        pass_no += 1
        if recorder is not None:
            recorder.snapshot(pass_no, model, phase)
            recorder.check_budget()

    for cycle in range(max(config.scrub_max_steps, config.scrub_min_steps)):
        if cycle < config.scrub_max_steps:
            one_pass(forget_idx, ascending=True, phase="max")
        if cycle < config.scrub_min_steps:
            one_pass(retain_idx, ascending=False, phase="min")
    return model


def l1_sparse_ft(f: Model, split: DatasetSplit, config: UnlearnConfig,
                 recorder: RunRecorder | None = None, observer=None) -> Model:
    """Fine-tune on the remaining data with an L1 pull toward sparse weights."""
    if config.l1_lambda < 0:
        raise ConfigError(f"l1_lambda must be >= 0, got {config.l1_lambda}")
    model = _student(f, config)
    if recorder is not None:
        recorder.snapshot(0, model, "init")
    retain_idx = split.retain_indices
    return fit(model, split.train_x[retain_idx], split.train_y[retain_idx],
               epochs=config.epochs, learning_rate=config.learning_rate,
               batch_size=config.batch_size, optimizer=config.optimizer,
               seed=config.seed, l1_lambda=config.l1_lambda,
               curriculum=_curriculum_state(config), indices=retain_idx,
               observer=observer, recorder=recorder)


# ------------------------------------------------------------------- dispatch

METHODS = tuple(TAXONOMY)


def unlearn(method: str, f: Model, split: DatasetSplit, config: UnlearnConfig,
            observer=None) -> UnlearnRun:
    """Run one unlearning method end to end, recording time, FLOs, and a trace."""
    if method not in TAXONOMY:
        raise ConfigError(f"unknown unlearning method {method!r}; available: "
                          + ", ".join(METHODS))
    if method != "exact_retrain" and split.del_indices.size == 0:
        raise ConfigError(f"{method} requires a deletion set; call "
                          "split.with_deletion(del_ratio) first")
    recorder = RunRecorder(split, budget_seconds=config.budget_seconds)
    if method == "exact_retrain":
        produced = exact_retrain(split, config, recorder, observer)
    else:
        fn = {"neg_grad": neg_grad, "rand_label": rand_label, "bad_t": bad_t,
              "scrub": scrub, "salun": salun, "l1_sparse_ft": l1_sparse_ft}[method]
        produced = fn(f, split, config, recorder, observer)
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
