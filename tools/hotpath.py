"""Time unlearnkit's per-step and per-epoch kernels, one call at a time.

Prints the median wall time, in microseconds, of each phase of one training
step: the forward pass, the cross-entropy kernel with its row gradient, the
backprop (timed with the forward pass that makes the cache it spends, less
the forward pass's median) and the Adam update, and the whole step through
``loss_and_grad`` and ``optimizer_step``: the kernel and the update the
training loop itself calls each step (the loop also adds the L1 pull and
the ascent sign, when a method has them). It does this for two
default-config models trained in lockstep (K = 2, batch 32 each) and for one
``wide`` model (``mlp:256,256``, batch 256, 64 inputs, 10 classes) in a
stack of one, as a solo run trains. For the ``wide`` model it also times the
curriculum: ``superloss_weights`` on the batch's 256 per-row losses, and the
whole step with a curriculum, as the benchmark's ``wide`` sweep trains. It
then prints the whole step's cost per member of a default-config stack of
K = 1, 2, 4, 10 and 20 models, the figure that sets how many members a
lockstep step stacks (``unlearn.MAX_STACK``). It also times one trace
snapshot of a default-config model and of a ``wide`` one: three evaluation
passes, in row blocks, and the accuracies and mean losses scored from them,
and one checkpoint write (``Model.save``) of a default-config model and of
a ``wide`` one, into a temporary directory.
Next to the step, snapshot and save times it prints the ``tracemalloc`` peak
of one whole step, snapshot or save, in MB (10^6 bytes): the most memory its
arrays and objects held at once, beyond what the model, its data, its
workspace and its optimizer already held; and that of one Adam update alone,
dense (``adam MB``) and with a random half of the parameters masked out
(``mask MB``). Standard library and numpy only.

Usage, from the repository root:

    python3 tools/hotpath.py [--repeat N]

Each figure is the median of N samples (default 7); a sample runs the call
as many times as fill 0.2 s (``timeit.Timer.autorange``). Before its first
sample, each call runs untimed ``WARMUP_CALLS`` times: on a 2-core VM the
first few dozen forward passes of a fresh ``wide`` model took about 40 ms
each, against 0.8-1.0 ms afterwards, and the figure read over ten times
the whole step that contains it. During such a stall the main thread and
the OpenBLAS worker thread both ran on one CPU (field 39 of
``/proc/self/task/*/stat``), and it ended once one of them moved to the
other CPU; it hit 1 of 10 and 1 of 40 fresh processes in two probes on
that VM. So any ``wide`` timing taken in a fresh process, without such a
warm-up, may read the stall. The inputs are fixed by seed, so two
checkouts time the same work. The figures depend on the machine, its BLAS
build and its load: compare checkouts on one machine, alternating runs.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
import timeit
import tracemalloc
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from unlearnkit import nn
from unlearnkit.config import UnlearnConfig
from unlearnkit.curriculum import superloss_weights
from unlearnkit.data import generate
from unlearnkit.nn import Model, build_model
from unlearnkit.optim import OptimizerState, ParamMask, optimizer_step
from unlearnkit.unlearn import RunRecorder, _curriculum_state, loss_and_grad

WIDE = UnlearnConfig(data_name="gaussian_blobs:c10:s250:d64", backbone="mlp:256,256",
                     batch_size=256)
WIDE_CURRICULUM = replace(WIDE, curriculum=True)
PHASES = ("forward", "loss", "backprop", "adam", "step")
STACK_SIZES = (1, 2, 4, 10, 20)
WARMUP_CALLS = 50


def median_us(fn, repeat: int) -> float:
    """Median microseconds per call of ``fn`` over ``repeat`` samples, after
    ``WARMUP_CALLS`` untimed calls."""
    for _ in range(WARMUP_CALLS):
        fn()
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    return 1e6 * statistics.median(timer.repeat(repeat, number)) / number


def peak_mb(fn) -> float:
    """Traced peak, in MB, of one call of ``fn`` after ``WARMUP_CALLS`` untimed calls."""
    for _ in range(WARMUP_CALLS):
        fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def lockstep_batch(config: UnlearnConfig, k: int):
    """``k`` default-seeded models stacked, a batch for each, and a fresh optimizer."""
    spec = config.data_spec()
    split = generate(spec)
    n, dim, batch = split.num_train, split.train_x.shape[1], config.batch_size
    model = Model.stack([build_model(dim, spec.num_classes, config.backbone, seed=s)
                         for s in range(k)])
    # Member s trains on rows s * batch onward, wrapping around.
    rows = np.stack([np.arange(s * batch, (s + 1) * batch) % n for s in range(k)])
    x, y = split.train_x[rows], split.train_y[rows]
    return model, x, y, OptimizerState(config.optimizer, config.learning_rate)


def step_phases(config: UnlearnConfig, k: int, repeat: int) -> dict[str, float]:
    """Median microseconds of each phase of one step of ``k`` models in lockstep."""
    model, x, y, state = lockstep_batch(config, k)
    logits = model.forward_cache(x)[0]
    weight = np.float64(1.0 / config.batch_size)  # a batch mean's row weight
    g = nn.cross_entropy_rows(logits, y)[1](weight)

    def forward_backprop():
        model.grad.fill(0.0)
        model.backprop(model.forward_cache(x)[1], g)

    # Backprop spends the cache it reads, writing each activation's gradient over
    # it, so it is timed after the forward pass that makes its cache, less that pass.
    forward = median_us(lambda: model.forward_cache(x), repeat)
    return {"forward": forward,
            "loss": median_us(lambda: nn.cross_entropy_rows(logits, y)[1](weight), repeat),
            "backprop": median_us(forward_backprop, repeat) - forward,
            "adam": median_us(lambda: optimizer_step(state, model, model.grad), repeat),
            "step": step_us(config, k, repeat)}


def lockstep_step(config: UnlearnConfig, k: int):
    """One whole step (``loss_and_grad`` and ``optimizer_step``) of ``k`` models in
    lockstep, each with its own curriculum if ``config`` has one, as a callable."""
    model, x, y, state = lockstep_batch(config, k)
    curricula = [_curriculum_state(config) for _ in range(k)] if config.curriculum else None

    def step():
        optimizer_step(state, model, loss_and_grad(model, x, labels=y, curriculum=curricula)[1])

    return step


def adam_update(config: UnlearnConfig, k: int, masked: bool):
    """One Adam update of ``k`` models in lockstep on their step's gradient, as a
    callable; with ``masked``, a random half of the parameters is masked out."""
    model, x, y, _ = lockstep_batch(config, k)
    gradient = loss_and_grad(model, x, labels=y)[1].copy()
    mask = ParamMask(np.random.default_rng(0).random(model.params.shape) < 0.5) if masked else None
    state = OptimizerState("adam", config.learning_rate)
    return lambda: optimizer_step(state, model, gradient, mask)


def step_us(config: UnlearnConfig, k: int, repeat: int) -> float:
    """Median microseconds of one whole step of ``k`` models in lockstep."""
    return median_us(lockstep_step(config, k), repeat)


def superloss_us(config: UnlearnConfig, repeat: int) -> float:
    """Median microseconds of ``superloss_weights`` on one model's per-row losses
    of its batch."""
    model, x, y, _ = lockstep_batch(config, 1)
    rows = nn.cross_entropy_rows(model.forward_cache(x)[0], y)[0][0]
    params = _curriculum_state(config)
    return median_us(lambda: superloss_weights(rows, params), repeat)


def snapshot(config: UnlearnConfig):
    """One trace snapshot of a fresh model of ``config`` on its split, as a callable."""
    spec = config.data_spec()
    split = generate(spec).with_deletion(config.del_ratio)
    model = build_model(split.train_x.shape[1], spec.num_classes, config.backbone, config.seed)
    recorder = RunRecorder(split)
    return lambda: recorder.snapshot(1, model)


def save(config: UnlearnConfig, path: Path):
    """One ``Model.save`` of a fresh model of ``config`` to ``path``, as a callable."""
    spec = config.data_spec()
    model = build_model(generate(spec).train_x.shape[1], spec.num_classes, config.backbone,
                        config.seed)
    return lambda: model.save(path)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=7, help="samples per figure (default 7)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    lockstep = step_phases(UnlearnConfig(), 2, args.repeat)
    wide = step_phases(WIDE, 1, args.repeat)
    print(f"numpy {np.__version__}; median us per call over {args.repeat} samples,"
          " and the traced peak MB of one step, one Adam update, one snapshot and one save")
    print(f"{'phase':<10}{'default K=2':>14}{'wide':>12}")
    for phase in PHASES:
        print(f"{phase:<10}{lockstep[phase]:>14.1f}{wide[phase]:>12.1f}")
    print(f"{'step MB':<10}{peak_mb(lockstep_step(UnlearnConfig(), 2)):>14.2f}"
          f"{peak_mb(lockstep_step(WIDE, 1)):>12.2f}")
    for label, masked in (("adam MB", False), ("mask MB", True)):
        print(f"{label:<10}{peak_mb(adam_update(UnlearnConfig(), 2, masked)):>14.2f}"
              f"{peak_mb(adam_update(WIDE, 1, masked)):>12.2f}")
    print(f"{'superloss':<10}{'':>14}{superloss_us(WIDE_CURRICULUM, args.repeat):>12.1f}")
    print(f"{'step+curr':<10}{'':>14}{step_us(WIDE_CURRICULUM, 1, args.repeat):>12.1f}")
    print(f"{'snapshot':<10}{median_us(snapshot(UnlearnConfig()), args.repeat):>14.1f}"
          f"{median_us(snapshot(WIDE), args.repeat):>12.1f}")
    print(f"{'snap MB':<10}{peak_mb(snapshot(UnlearnConfig())):>14.2f}"
          f"{peak_mb(snapshot(WIDE)):>12.2f}")
    with tempfile.TemporaryDirectory() as tmp:
        saves = [save(config, Path(tmp) / "model.json") for config in (UnlearnConfig(), WIDE)]
        print(f"{'save':<10}{median_us(saves[0], args.repeat):>14.1f}"
              f"{median_us(saves[1], args.repeat):>12.1f}")
        print(f"{'save MB':<10}{peak_mb(saves[0]):>14.2f}{peak_mb(saves[1]):>12.2f}")
    print(f"{'K':<10}{'us per member-step':>20}")
    for k in STACK_SIZES:
        print(f"{k:<10}{step_us(UnlearnConfig(), k, args.repeat) / k:>20.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
