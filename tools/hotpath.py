"""Time unlearnkit's per-step and per-epoch kernels, one call at a time.

Prints the median wall time, in microseconds, of each phase of one training
step: the forward pass, the cross-entropy kernel with its row gradient, the
backprop and the Adam update, and the whole step through the public
``loss_and_grad`` and ``optimizer_step``. It does this for two
default-config models trained in lockstep (K = 2, batch 32 each) and for one
``wide`` model (``mlp:256,256``, batch 256, 64 inputs, 10 classes). It also
times one default-config trace snapshot: three evaluation passes and the
accuracies and mean losses scored from them. Standard library and numpy only.

Usage, from the repository root:

    python3 tools/hotpath.py [--repeat N]

Each figure is the median of N samples (default 7); a sample runs the call
as many times as fill 0.2 s (``timeit.Timer.autorange``). The inputs are
fixed by seed, so two checkouts time the same work. The figures depend on the
machine, its BLAS build and its load: compare checkouts on one machine,
alternating runs.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import timeit
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from unlearnkit import nn
from unlearnkit.config import UnlearnConfig
from unlearnkit.data import generate
from unlearnkit.nn import Model, build_model
from unlearnkit.optim import OptimizerState, optimizer_step
from unlearnkit.unlearn import RunRecorder, loss_and_grad

WIDE = UnlearnConfig(data_name="gaussian_blobs:c10:s250:d64", backbone="mlp:256,256",
                     batch_size=256)
PHASES = ("forward", "loss", "backprop", "adam", "step")


def median_us(fn, repeat: int) -> float:
    """Median microseconds per call of ``fn`` over ``repeat`` samples."""
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    return 1e6 * statistics.median(timer.repeat(repeat, number)) / number


def step_phases(config: UnlearnConfig, k: int, repeat: int) -> dict[str, float]:
    """Median microseconds of each phase of one step of ``k`` models in lockstep."""
    spec = config.data_spec()
    split = generate(spec)
    dim, batch = split.train_x.shape[1], config.batch_size
    model = Model.stack([build_model(dim, spec.num_classes, config.backbone, seed=s)
                         for s in range(k)])
    # Member s trains on rows [s * batch, (s + 1) * batch); one model is unstacked.
    x = np.stack([split.train_x[s * batch:(s + 1) * batch] for s in range(k)])
    y = np.stack([split.train_y[s * batch:(s + 1) * batch] for s in range(k)])
    if k == 1:
        x, y = x[0], y[0]
    logits, cache = model.forward_cache(x)
    weight = np.float64(1.0 / batch)  # a batch mean's row weight
    g = nn.cross_entropy_rows(logits, y)[1](weight)
    state = OptimizerState(config.optimizer, config.learning_rate)

    def backprop():
        model.grad.fill(0.0)
        model.backprop(cache, g)

    def step():
        optimizer_step(state, model, loss_and_grad(model, x, labels=y)[1])

    # The forward pass is timed first: the cache stays that of its last call.
    return {"forward": median_us(lambda: model.forward_cache(x), repeat),
            "loss": median_us(lambda: nn.cross_entropy_rows(logits, y)[1](weight), repeat),
            "backprop": median_us(backprop, repeat),
            "adam": median_us(lambda: optimizer_step(state, model, model.grad), repeat),
            "step": median_us(step, repeat)}


def snapshot_us(repeat: int) -> float:
    """Median microseconds of one default-config trace snapshot."""
    config = UnlearnConfig()
    spec = config.data_spec()
    split = generate(spec).with_deletion(config.del_ratio)
    model = build_model(split.train_x.shape[1], spec.num_classes, config.backbone, config.seed)
    recorder = RunRecorder(split)
    return median_us(lambda: recorder.snapshot(1, model), repeat)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=7, help="samples per figure (default 7)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    lockstep = step_phases(UnlearnConfig(), 2, args.repeat)
    wide = step_phases(WIDE, 1, args.repeat)
    print(f"numpy {np.__version__}; median us per call over {args.repeat} samples")
    print(f"{'phase':<10}{'default K=2':>14}{'wide':>12}")
    for phase in PHASES:
        print(f"{phase:<10}{lockstep[phase]:>14.1f}{wide[phase]:>12.1f}")
    print(f"{'snapshot':<10}{snapshot_us(args.repeat):>14.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
