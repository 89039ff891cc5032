"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a `[PASS] criterion N` line when it holds (run with
``pytest tests/test_acceptance.py -v -s`` to see them). The behavioral
criteria run on 3-class Gaussian blobs with 300 training points and noise
0.1, five seeds each, against the recipes below.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from unlearnkit import (UnlearnConfig, attach_adapter, build_model,
                        deletion_capacity, evaluate, merge_adapter, mia_success,
                        unlearn)
from unlearnkit.cli import main as cli_main
from unlearnkit.config import config_hash, train_hash
from unlearnkit.curriculum import SuperLossParams, lambert_w0, superloss_weights
from unlearnkit.data import generate, sample_deletion_set
from unlearnkit.optim import ParamMask
from unlearnkit.unlearn import loss_and_grad, train_original

# The acceptance dataset: 3-class Gaussian blobs, 300 train / 75 test,
# noise 0.1, in 8 dimensions so individual points are isolated enough for
# memorization-based methods to act at desk scale.
DATA = "gaussian_blobs:c3:s125:d8:noise0.1"
SEEDS = (0, 1, 2, 3, 4)
CHANCE = 100.0 / 3.0

TRAIN = dict(data_name=DATA, backbone="mlp:32,32", train_epochs=70,
             train_learning_rate=0.01, train_batch_size=32, optimizer="adam")
RAND_LABEL = dict(learning_rate=0.05, epochs=56, batch_size=32)
NEG_GRAD = dict(learning_rate=0.05, epochs=15, batch_size=32)
BAD_T = dict(learning_rate=0.15, epochs=60, batch_size=32, temperature=4.0)


def report(n, seconds, summary):
    print(f"[PASS] criterion {n} ({seconds:.1f}s): {summary}")


@pytest.fixture(scope="module")
def originals():
    out = {}
    for seed in SEEDS:
        cfg = UnlearnConfig(seed=seed, **TRAIN)
        split = generate(cfg.data_spec())
        f = train_original(split, cfg).model
        out[seed] = (f, split)
    return out


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_gradients_match_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(20240601)
    checked = 0
    worst = 0.0
    while checked < 100:
        layers = rng.integers(1, 3)
        widths = [int(rng.integers(3, 8)) for _ in range(layers)]
        activation = ("relu", "tanh")[int(rng.integers(2))]
        input_dim = int(rng.integers(2, 5))
        classes = int(rng.integers(2, 5))
        backbone = f"mlp:{','.join(map(str, widths))}:{activation}"
        model = build_model(input_dim, classes, backbone, seed=int(rng.integers(1e6)))
        if rng.random() < 0.25:
            model = attach_adapter(model, 0, rank=1, seed=int(rng.integers(1e6)))
            model.set_param_vector(rng.standard_normal(model.num_trainable()) * 0.3)
        x = rng.standard_normal((4, input_dim))
        y = rng.integers(0, classes, 4)
        kind = checked % 3
        if kind == 0:
            loss_fn = lambda m: loss_and_grad(m, x, labels=y)
        else:
            teacher = rng.standard_normal((4, classes))
            temp = float(rng.uniform(0.5, 4.0))
            labels = y if kind == 2 else None  # CE + KL, the step scrub trains on
            loss_fn = lambda m: loss_and_grad(m, x, labels=labels, teacher=teacher,
                                              temperature=temp)
        grad = loss_fn(model)[1].copy()
        base = model.param_vector()
        h = 1e-5
        fd = np.zeros_like(base)
        for i in range(base.size):
            up = base.copy()
            up[i] += h
            model.set_param_vector(up)
            hi = loss_fn(model)[0]
            up[i] = base[i] - h
            model.set_param_vector(up)
            lo = loss_fn(model)[0]
            fd[i] = (hi - lo) / (2 * h)
        model.set_param_vector(base)
        rel = np.max(np.abs(grad - fd) / np.maximum(np.maximum(np.abs(grad), np.abs(fd)), 1e-6))
        worst = max(worst, float(rel))
        assert rel < 1e-4, f"config {checked}: rel err {rel}"
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(1, elapsed, f"{checked} random configs, worst rel err {worst:.2e}")


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_exact_retrain_baseline(originals):
    start = time.perf_counter()
    deltas, mias = [], []
    for seed in SEEDS:
        f, split = originals[seed]
        split10 = split.with_deletion(10)
        cfg = UnlearnConfig(seed=seed, **TRAIN)
        acc_f_orig = evaluate(f, split10)[0]
        retrained = unlearn("exact_retrain", f, split10, cfg).model
        acc_retrain = evaluate(retrained, split10)[0]
        deltas.append(abs(acc_f_orig - acc_retrain))
        mias.append(mia_success(retrained, split10))
    assert max(deltas) <= 2.0, deltas
    mean_mia = float(np.mean(mias))
    assert 40.0 <= mean_mia <= 60.0, mias
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(2, elapsed, f"max |d acc_test|={max(deltas):.2f}, "
                       f"mean MIA={mean_mia:.1f} (per seed {np.round(mias, 1)})")


# ---------------------------------------------------------------- criterion 3

@pytest.fixture(scope="module")
def rand_label_runs(originals):
    runs = {}
    for seed in SEEDS:
        f, split = originals[seed]
        cfg = UnlearnConfig(seed=seed, **TRAIN, **RAND_LABEL)
        runs[seed] = unlearn("rand_label", f, split.with_deletion(5), cfg)
    return runs


def test_criterion_3_rand_label_efficacy(originals, rand_label_runs):
    start = time.perf_counter()
    acc_fs, drops = [], []
    for seed in SEEDS:
        f, split = originals[seed]
        split5 = split.with_deletion(5)
        acc_test, acc_f, _ = evaluate(rand_label_runs[seed].model, split5)
        acc_fs.append(acc_f)
        drops.append(evaluate(f, split5)[0] - acc_test)
    mean_f, mean_drop = float(np.mean(acc_fs)), float(np.mean(drops))
    assert abs(mean_f - CHANCE) <= 15.0, acc_fs
    assert abs(mean_drop) <= 5.0, drops
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(3, elapsed, f"mean acc_f={mean_f:.1f} (chance {CHANCE:.1f} +/- 15), "
                       f"mean test drop={mean_drop:.1f} (<= 5)")


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_neg_grad_collateral_damage(originals):
    start = time.perf_counter()
    acc_fs, drops = [], []
    for seed in SEEDS:
        f, split = originals[seed]
        split5 = split.with_deletion(5)
        cfg = UnlearnConfig(seed=seed, **TRAIN, **NEG_GRAD)
        model = unlearn("neg_grad", f, split5, cfg).model
        acc_test, acc_f, _ = evaluate(model, split5)
        acc_fs.append(acc_f)
        drops.append(evaluate(f, split5)[0] - acc_test)
    mean_f, mean_drop = float(np.mean(acc_fs)), float(np.mean(drops))
    assert mean_f <= CHANCE + 10.0, acc_fs
    assert mean_drop > 10.0, drops
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(4, elapsed, f"mean acc_f={mean_f:.1f} (<= {CHANCE + 10:.1f}), "
                       f"mean test drop={mean_drop:.1f} (> 10)")


# ---------------------------------------------------------------- criterion 5

def test_criterion_5_bad_t_chance_level_forgetting(originals, rand_label_runs):
    start = time.perf_counter()
    acc_fs, acc_rs = [], []
    flos_per_epoch_bt, flos_per_epoch_rl = [], []
    for seed in SEEDS:
        f, split = originals[seed]
        split5 = split.with_deletion(5)
        cfg = UnlearnConfig(seed=seed, **TRAIN, **BAD_T)
        run = unlearn("bad_t", f, split5, cfg)
        _, acc_f, acc_r = evaluate(run.model, split5)
        acc_fs.append(acc_f)
        acc_rs.append(acc_r)
        flos_per_epoch_bt.append(run.flos / cfg.epochs)
        rl = rand_label_runs[seed]
        flos_per_epoch_rl.append(rl.flos / rl.config.epochs)
    mean_f, mean_r = float(np.mean(acc_fs)), float(np.mean(acc_rs))
    assert mean_f <= CHANCE + 10.0, acc_fs
    assert mean_r >= CHANCE + 30.0, acc_rs
    for bt, rl in zip(flos_per_epoch_bt, flos_per_epoch_rl):
        assert bt > rl  # two batches per step at equal batch size
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(5, elapsed, f"mean acc_f={mean_f:.1f} (<= {CHANCE + 10:.1f}), "
                       f"mean acc_r={mean_r:.1f} (>= {CHANCE + 30:.1f}), "
                       f"FLOs/epoch {flos_per_epoch_bt[0]:.2e} > {flos_per_epoch_rl[0]:.2e}")


# ---------------------------------------------------------------- criterion 6

def test_criterion_6_salun_equivalence_and_mask_scope(originals):
    start = time.perf_counter()
    f, split = originals[0]
    split5 = split.with_deletion(5)
    cfg = UnlearnConfig(seed=0, **TRAIN, **RAND_LABEL)
    full = unlearn("salun", f, split5, dataclasses.replace(cfg, salun_sparsity=1.0))
    ref = unlearn("rand_label", f, split5, cfg)
    assert full.model.param_digest() == ref.model.param_digest()

    half_cfg = dataclasses.replace(cfg, salun_sparsity=0.5)
    half = unlearn("salun", f, split5, half_cfg)
    probe = f.clone()
    saliency = np.abs(loss_and_grad(probe, split5.forget_x, labels=split5.forget_y)[1])
    mask = ParamMask.top_fraction(saliency, 0.5)
    delta = half.model.param_vector() - f.param_vector()
    outside = float(np.abs(delta[~mask.selected]).sum())
    assert outside == 0.0
    elapsed = time.perf_counter() - start
    report(6, elapsed, "sparsity 1.0 bit-identical to rand_label; "
                       f"sum |d param| outside 0.5-mask = {outside}")


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_superloss_lambert_numerics():
    start = time.perf_counter()
    assert lambert_w0(0.0) == 0.0
    assert abs(lambert_w0(math.e) - 1.0) <= 1e-12

    def halley_oracle(x, w=0.5):
        for _ in range(200):
            ew = math.exp(w)
            fv = w * ew - x
            w -= fv / (ew * (w + 1.0) - (w + 2.0) * fv / (2.0 * w + 2.0))
        return w

    assert abs(lambert_w0(1.0) - halley_oracle(1.0)) <= 1e-12
    assert abs(lambert_w0(1.0) - 0.5671432904) <= 1e-9
    params = SuperLossParams(lam=1.0, tau=2.5)
    assert superloss_weights(np.array([2.5]), params)[1][0] == 1.0
    sigmas = superloss_weights(np.linspace(-4.0, 8.0, 1000), params)[1].tolist()
    assert all(b <= a + 1e-12 for a, b in zip(sigmas, sigmas[1:]))
    elapsed = time.perf_counter() - start
    report(7, elapsed, "W identities exact, W(1) to 1e-9, sigma monotone on 1e3 grid")


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_split_protocol():
    start = time.perf_counter()
    cfg = UnlearnConfig(**TRAIN)
    split = generate(cfg.data_spec())
    n = split.num_train
    for seed in range(20):
        previous = None
        for ratio in range(1, 11):
            idx = sample_deletion_set(split, ratio, seed)
            assert idx.size == round(ratio / 100.0 * n)
            deletion = set(idx.tolist())
            assert len(deletion) == idx.size
            if previous is not None:
                assert previous < deletion or previous == deletion
            previous = deletion
            retained = sorted(set(range(n)) - deletion)
            together = sorted(deletion | set(retained))
            assert together == list(range(n))
    elapsed = time.perf_counter() - start
    report(8, elapsed, "sizes, nesting, and disjoint partition hold for 20 seeds x 10 ratios")


# ---------------------------------------------------------------- criterion 9

def test_criterion_9_cmd_unlearn_determinism(tmp_path):
    start = time.perf_counter()
    flags = ["--data_name", "gaussian_blobs:c3:s30:d4:noise0.1", "--backbone",
             "mlp:12", "--train_epochs", "20", "--epochs", "5",
             "--unlearn_method", "rand_label", "--seed", "0"]
    roots = [tmp_path / "a", tmp_path / "b"]
    for root in roots:
        assert cli_main(["--artifacts", str(root), "train", *flags]) == 0
        assert cli_main(["--artifacts", str(root), "unlearn", "--no-budget", *flags]) == 0
    cfg = UnlearnConfig(data_name="gaussian_blobs:c3:s30:d4:noise0.1",
                        backbone="mlp:12", train_epochs=20, epochs=5,
                        unlearn_method="rand_label", seed=0)
    rel = f"runs/{config_hash(cfg)}"
    report_bytes = (roots[0] / rel / "report.json").read_bytes()
    model_bytes = (roots[0] / rel / "model_prime.json").read_bytes()

    # executing the identical config again is a no-op: artifacts stay byte-identical
    assert cli_main(["--artifacts", str(roots[0]), "unlearn", "--no-budget", *flags]) == 0
    assert (roots[0] / rel / "report.json").read_bytes() == report_bytes
    assert (roots[0] / rel / "model_prime.json").read_bytes() == model_bytes

    # an independent artifact root reproduces the checkpoint bit for bit and
    # every report field except the measured wall time
    assert (roots[1] / rel / "model_prime.json").read_bytes() == model_bytes
    got = json.loads((roots[1] / rel / "report.json").read_text())
    want = json.loads(report_bytes)
    for key, value in want.items():
        if key != "seconds":
            assert got[key] == value, key
    ckpt = f"checkpoints/{train_hash(cfg)}/model.json"
    assert (roots[0] / ckpt).read_bytes() == (roots[1] / ckpt).read_bytes()
    elapsed = time.perf_counter() - start
    report(9, elapsed, "repeat invocation byte-identical; fresh root reproduces "
                       "checkpoint bytes and all report fields but wall time")


# --------------------------------------------------------------- criterion 10

def test_criterion_10_deletion_capacity_vs_bruteforce():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    for _ in range(50):
        ratios = sorted(rng.choice(np.arange(1, 11), size=rng.integers(1, 10),
                                   replace=False).tolist())
        baseline = float(rng.uniform(60, 100))
        tolerance = float(rng.uniform(0, 10))
        sweep = [(int(r), baseline - float(rng.uniform(-1, 12))) for r in ratios]

        # brute-force oracle: walk ratios in order, stop at the first violation
        expected = 0
        for ratio, acc in sweep:
            if acc < baseline - tolerance:
                break
            expected = ratio
        assert deletion_capacity(sweep, baseline, tolerance) == expected
    elapsed = time.perf_counter() - start
    report(10, elapsed, "exact agreement with scan oracle on 50 random sweeps")


# --------------------------------------------------------------- criterion 11

def test_criterion_11_adapter_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(13)
    for trial in range(20):
        in_dim = int(rng.integers(3, 9))
        hidden = [int(rng.integers(4, 10)), int(rng.integers(4, 10))]
        classes = int(rng.integers(2, 5))
        layer = int(rng.integers(0, 3))
        base = build_model(in_dim, classes, f"mlp:{hidden[0]},{hidden[1]}",
                           seed=trial)
        dims = [(hidden[0], in_dim), (hidden[1], hidden[0]), (classes, hidden[1])]
        rank = int(rng.integers(1, min(dims[layer]) + 1))
        adapted = attach_adapter(base, layer, rank=rank,
                                 scale=float(rng.uniform(0.3, 2.0)), seed=trial + 99)
        adapted.set_param_vector(rng.standard_normal(adapted.num_trainable()) * 0.5)
        merged = merge_adapter(adapted)
        x = rng.standard_normal((12, in_dim))
        assert np.max(np.abs(merged.logits(x) - adapted.logits(x))) < 1e-6
        delta = merged.layers[layer].weight - base.layers[layer].weight
        singular = np.linalg.svd(delta, compute_uv=False)
        assert np.all(singular[rank:] <= 1e-8 * singular[0])
    elapsed = time.perf_counter() - start
    report(11, elapsed, "merge matches adapted forward within 1e-6; "
                        "delta rank <= r on 20 configs")
