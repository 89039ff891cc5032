"""Lockstep: a group of runs that differ only in seed and deletion ratio trains as one
stacked model."""

import dataclasses
import itertools
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import unlearnkit.unlearn  # noqa: F401  (the package attribute is the function)
from unlearnkit import (BudgetError, ConfigError, NumericError, ShapeError, UnlearnConfig,
                        build_model, config_hash, unlearn, unlearn_group)
from unlearnkit.cli import execute_unlearn_group, main
from unlearnkit.data import generate
from unlearnkit.lora import attach_adapter
from unlearnkit.metrics import build_report
from unlearnkit.nn import Model
from unlearnkit.unlearn import METHODS, RunRecorder, train_original

from conftest import run_statuses, spy_trained_rows

U = sys.modules["unlearnkit.unlearn"]
DATA = "gaussian_blobs:c3:s30:d4:noise0.1"
SEEDS = (0, 1, 2)
VARIANTS = {
    "plain": {},
    "curriculum": {"curriculum": True},
    "adapter": {"adapter_rank": 2, "adapter_layer": 1},
    "tanh_sgd": {"backbone": "mlp:10,8:tanh", "optimizer": "sgd", "learning_rate": 0.05},
}


def _config(variant, seed, **kwargs):
    base = dict(data_name=DATA, backbone="mlp:10,8", train_epochs=8, train_batch_size=16,
                epochs=2, batch_size=16, learning_rate=0.02, scrub_max_steps=1,
                scrub_min_steps=2, seed=seed)
    base.update(VARIANTS[variant])
    base.update(kwargs)
    return UnlearnConfig(**base)


@pytest.fixture(scope="module")
def originals():
    """Per variant, per seed: (original, split with a 10% deletion set, config)."""
    out = {}
    for variant in VARIANTS:
        for seed in SEEDS:
            cfg = _config(variant, seed)
            split = generate(cfg.data_spec())
            out[variant, seed] = (train_original(split, cfg).model, split.with_deletion(10), cfg)
    return out


def _fingerprint(run, seen):
    rows = [dataclasses.replace(row, seconds=0.0) for row in run.trace]
    return run.model.param_digest(), rows, run.flos, seen


def _count_updates(monkeypatch):
    calls = []
    real = U.optimizer_step
    monkeypatch.setattr(U, "optimizer_step", lambda *a, **k: calls.append(1) or real(*a, **k))
    return calls


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("method", sorted(METHODS))
def test_group_is_bit_identical_to_solo_runs(originals, monkeypatch, method, variant):
    members = [(f, split, dataclasses.replace(cfg, unlearn_method=method))
               for f, split, cfg in (originals[variant, seed] for seed in SEEDS)]
    updates = _count_updates(monkeypatch)
    trained = spy_trained_rows(monkeypatch)
    solo = [_fingerprint(unlearn(method, *member), trained.pop(member[2].seed))
            for member in members]
    solo_updates = len(updates)
    runs = unlearn_group(method, members)
    assert len(updates) - solo_updates == solo_updates / len(members)  # one stacked update
    for run, seed, want in zip(runs, SEEDS, solo):
        got = _fingerprint(run, trained.pop(seed))
        assert got[:3] == want[:3]
        assert [r.tolist() for r in got[3]] == [r.tolist() for r in want[3]]
        assert run.seconds > 0


RATIOS = (1, 5, 10)


@pytest.mark.parametrize("order", ["ratio_major", "seed_major_in_pairs"])
@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("method", sorted(METHODS))
def test_a_group_across_ratios_is_bit_identical_to_solo_runs(originals, monkeypatch,
                                                             method, variant, order):
    """Ratios 1, 5 and 10 x three seeds as one group.

    At batch 7 the 71, 68 and 65 remaining rows take 11, 10 and 10 steps
    per pass, with last batches of 1, 5 and 2 rows, and the deletion sets
    of 1, 4 and 7 rows differ in shape too; so steps split into runs of
    members and Adam's update counts part. Ratio-major, the members of a
    ratio are adjacent. Seed-major, with stacks of at most two, parts that
    differ by ratio run one member at a time and the rest run in pairs.
    """
    pairs = order != "ratio_major"
    if pairs:
        monkeypatch.setattr(U, "MAX_STACK", 2)
    members = []
    for ratio, seed in ([(r, s) for s in SEEDS for r in RATIOS] if pairs else
                        [(r, s) for r in RATIOS for s in SEEDS]):
        f, split, cfg = originals[variant, seed]
        cfg = dataclasses.replace(cfg, unlearn_method=method, del_ratio=ratio,
                                  batch_size=7, train_batch_size=7)
        members.append((f, generate(cfg.data_spec()).with_deletion(ratio), cfg))
    updates = _count_updates(monkeypatch)
    trained = spy_trained_rows(monkeypatch, key=lambda cfg: (cfg.seed, cfg.del_ratio))
    solo, solo_updates = [], []
    for member in members:
        before = len(updates)
        run = unlearn(method, *member)
        solo_updates.append(len(updates) - before)
        solo.append((_fingerprint(run, trained.pop((member[2].seed, member[2].del_ratio))),
                     run.logits))
    before = len(updates)
    runs = unlearn_group(method, members)
    group_updates = len(updates) - before
    for run, (_, _, cfg), (want, logits) in zip(runs, members, solo):
        got = _fingerprint(run, trained.pop((cfg.seed, cfg.del_ratio)))
        assert got[:3] == want[:3], (cfg.seed, cfg.del_ratio)
        assert [r.tolist() for r in got[3]] == [r.tolist() for r in want[3]]
        for a, b in zip(run.logits, logits):
            assert (a is None and b is None) or a.tobytes() == b.tobytes()
    # Ratio-major, one update per step for the members that stepped: per-ratio groups
    # make one per step of each ratio. Solo reruns would make one per member and step.
    assert group_updates < sum(solo_updates)
    if not pairs:
        per_ratio = sum(solo_updates[i] for i in range(0, len(members), len(SEEDS)))
        assert group_updates == max(solo_updates) and group_updates < per_ratio


def _without_seconds(trace):
    """The trace rows apart from ``seconds``, as reprs, so that NaN equals NaN."""
    return [repr(dataclasses.replace(row, seconds=0.0)) for row in trace]


def _spy_stacks(monkeypatch) -> list:
    """The number of runs each training loop trains as one stack, in call order."""
    stacks, real = [], U._drive
    monkeypatch.setattr(U, "_drive", lambda plans, *args: stacks.append(len(plans))
                        or real(plans, *args))
    return stacks


@pytest.mark.parametrize("error", [BudgetError, RuntimeError])
def test_a_failing_member_leaves_the_group(originals, monkeypatch, error):
    real = RunRecorder.check_budget

    def flaky(recorder):  # the seed-1 run fails after its second pass, alone or not
        if recorder.split.seed == 1 and len(recorder.rows) >= 3:
            raise BudgetError("simulated") if error is BudgetError \
                else RuntimeError("boom")
        real(recorder)

    monkeypatch.setattr(RunRecorder, "check_budget", flaky)
    members = [(f, split, dataclasses.replace(cfg, unlearn_method="scrub"))
               for f, split, cfg in (originals["plain", seed] for seed in SEEDS)]
    stacks = _spy_stacks(monkeypatch)
    runs = unlearn_group("scrub", members)
    assert stacks == [len(members)]  # no member is rerun
    with pytest.raises(error) as alone:
        unlearn("scrub", *members[1])
    failed = runs[1]
    assert type(failed) is error and str(failed) == str(alone.value)
    assert len(failed.trace) == 3
    assert _without_seconds(failed.trace) == _without_seconds(alone.value.trace)
    for i in (0, 2):
        want = unlearn("scrub", *members[i])
        assert runs[i].model.param_digest() == want.model.param_digest()
        assert _without_seconds(runs[i].trace) == _without_seconds(want.trace)
        assert runs[i].flos == want.flos
        for a, b in zip(runs[i].logits, want.logits):
            assert (a is None and b is None) or a.tobytes() == b.tobytes()


def test_a_failing_member_does_not_change_its_siblings_verdicts(originals, monkeypatch):
    """Each run is charged 1 s per snapshot taken, divided by the stack size,
    against a budget of 2.5 s: two passes take 3 s alone and 0.75 s as one of
    four. One member's deletion set holds a non-finite row, so it fails on
    its first step; its siblings still pass, charged their share of the stack."""
    monkeypatch.setattr(RunRecorder, "seconds", property(lambda r: len(r.rows) / r.share))
    members = []
    for seed in (0, 1, 2, 0):
        f, split, cfg = originals["plain", seed]
        members.append((f, split, dataclasses.replace(cfg, unlearn_method="rand_label",
                                                      budget_seconds=2.5)))
    f, split, cfg = members[1]
    train_x = split.train_x.copy()
    train_x[split.del_indices[0]] = np.nan
    members[1] = (f, dataclasses.replace(split, train_x=train_x), cfg)
    runs = unlearn_group("rand_label", members)
    assert [type(run).__name__ for run in runs] == ["UnlearnRun", "NumericError"] + [
        "UnlearnRun"] * 2
    assert [runs[k].seconds for k in (0, 2, 3)] == [0.75] * 3
    [alone] = unlearn_group("rand_label", [members[1]])
    assert str(runs[1]) == str(alone) and "(step " in str(alone)
    assert _without_seconds(runs[1].trace) == _without_seconds(alone.trace)
    with pytest.raises(BudgetError, match="after 3.000s"):  # what a solo rerun would charge
        unlearn("rand_label", *members[0])


def _poison(monkeypatch, method, target, at):
    """Give the run whose ``(seed, del_ratio)`` is ``target`` non-finite inputs at its
    own step ``at`` (counted from 0 over all its passes), alone or in a group."""
    real = METHODS[method]

    def plan(f, split, config):
        result = real.plan(f, split, config)
        if (config.seed, config.del_ratio) != target:
            return result
        taken = itertools.count()

        def steps(inner):
            for parts in inner:
                if next(taken) == at:
                    parts = [(rows, np.full_like(x, np.nan), labels, teacher)
                             for rows, x, labels, teacher in parts]
                yield parts

        return result._replace(passes=((phase, ascending, steps(inner))
                                       for phase, ascending, inner in result.passes))

    monkeypatch.setitem(METHODS, method, real._replace(plan=plan))


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_a_failing_member_of_a_mixed_ratio_group_fails_as_it_does_alone(
        originals, monkeypatch, variant):
    """Ratios 1, 5 and 10 x three seeds as one group of l1_sparse_ft runs, as in
    the bit-identity test across ratios. At batch 7 the 65 remaining rows of
    ratio 10 take 10 steps per pass, where the 71 of ratio 1 take 11. The
    seed-1 run at ratio 10 sees non-finite inputs at its own step 12, the
    third step of its second pass, when the group has zipped 13 steps: its
    error names step 12, as alone. That step is one stacked part of all nine
    members, so the siblings' curriculum baselines must be moved once."""
    method = "l1_sparse_ft"
    members = []
    for ratio in RATIOS:
        for seed in SEEDS:
            f, split, cfg = originals[variant, seed]
            cfg = dataclasses.replace(cfg, unlearn_method=method, del_ratio=ratio,
                                      batch_size=7, train_batch_size=7)
            members.append((f, generate(cfg.data_spec()).with_deletion(ratio), cfg))
    _poison(monkeypatch, method, (1, 10), 12)
    trained = spy_trained_rows(monkeypatch, key=lambda cfg: (cfg.seed, cfg.del_ratio))
    solo = []
    for member in members:
        [run] = unlearn_group(method, [member])
        solo.append((run, trained.pop((member[2].seed, member[2].del_ratio))))
    stacks = _spy_stacks(monkeypatch)
    runs = unlearn_group(method, members)
    assert stacks == [len(members)]  # no member is rerun
    failing = 7
    for k, (run, (_, _, cfg), (want, seen)) in enumerate(zip(runs, members, solo)):
        got = trained.pop((cfg.seed, cfg.del_ratio))
        if k == failing:
            assert type(run) is type(want) is NumericError
            assert str(run) == str(want) == "training loss became non-finite (step 12)"
            assert len(run.trace) == 2  # init and the first pass
            assert _without_seconds(run.trace) == _without_seconds(want.trace)
            continue
        assert _fingerprint(run, got)[:3] == _fingerprint(want, seen)[:3], k
        assert [r.tolist() for r in got] == [r.tolist() for r in seen]
        for a, b in zip(run.logits, want.logits):
            assert (a is None and b is None) or a.tobytes() == b.tobytes()


def test_an_error_that_belongs_to_no_member_fails_every_member_still_training(
        originals, monkeypatch):
    """A MemoryError from a stacked part may leave gradients partly written,
    so it is not redone: it fails the members still training, each with a
    copy of it and its own partial trace. A member that failed before keeps
    its own error."""
    real_check, real_backprop = RunRecorder.check_budget, U.loss_and_grad

    def flaky(recorder):  # the seed-2 run fails after its first pass
        if recorder.split.seed == 2:
            raise BudgetError("simulated")
        real_check(recorder)

    def failing(model, *args, **kwargs):  # in the second pass, the stack of the other two
        if model.params.shape[0] == 2:
            raise MemoryError("simulated")
        return real_backprop(model, *args, **kwargs)

    members = [(f, split, dataclasses.replace(cfg, unlearn_method="neg_grad"))
               for f, split, cfg in (originals["plain", seed] for seed in SEEDS)]
    monkeypatch.setattr(RunRecorder, "check_budget", flaky)
    monkeypatch.setattr(U, "loss_and_grad", failing)
    runs = unlearn_group("neg_grad", members)
    assert [type(run).__name__ for run in runs] == ["MemoryError", "MemoryError", "BudgetError"]
    assert runs[0] is not runs[1] and [str(run) for run in runs[:2]] == ["simulated"] * 2
    assert runs[0].__traceback__ is runs[1].__traceback__ is not None
    assert [len(run.trace) for run in runs] == [2, 2, 2]  # init and the first pass
    for run, member in zip(runs, members):  # each member's own rows, as alone
        [alone] = unlearn_group("neg_grad", [member])
        assert _without_seconds(run.trace) == _without_seconds(alone.trace[:2])


def test_a_sweep_records_an_error_that_belongs_to_no_member_for_each_run(
        tmp_path, monkeypatch, capsys):
    fast = ["--data_name", DATA, "--backbone", "mlp:12", "--train_epochs", "5", "--epochs", "2"]
    for seed in ("0", "1"):
        assert main(["--artifacts", str(tmp_path), "train", *fast, "--seed", seed]) == 0

    def failing(*args, **kwargs):
        raise MemoryError("simulated")

    monkeypatch.setattr(U, "loss_and_grad", failing)
    capsys.readouterr()
    assert main(["--artifacts", str(tmp_path), "sweep", *fast, "--no-budget", "--methods",
                 "neg_grad", "--ratios", "1,2", "--seeds", "0,1"]) == 2
    runs = {d: e for d, e in run_statuses(tmp_path).items() if e["kind"] == "unlearn"}
    assert [e["message"] for e in runs.values()] == ["MemoryError: simulated"] * 4
    for run_dir in runs:  # each run keeps its own init row
        assert len((run_dir / "trace.csv").read_text().splitlines()) == 2
    assert capsys.readouterr().err.count("Traceback") == 1


def test_a_failing_sweep_member_leaves_only_its_own_stack(tmp_path, monkeypatch, capsys):
    real_check = RunRecorder.check_budget

    def flaky(recorder):  # the seed-1 run at ratio 7 (5 of 72 rows deleted) fails
        if recorder.split.seed == 1 and recorder.split.del_indices.size == 5:
            raise BudgetError("simulated")
        real_check(recorder)

    monkeypatch.setattr(RunRecorder, "check_budget", flaky)
    stacks = _spy_stacks(monkeypatch)
    fast = ["--data_name", DATA, "--backbone", "mlp:12", "--train_epochs", "5", "--epochs", "2"]
    assert main(["--artifacts", str(tmp_path), "sweep", *fast, "--no-budget", "--methods",
                 "neg_grad", "--ratios", "1-10", "--seeds", "0,1"]) == 2
    # Two originals alone; the job of ratios 1-5 as one stack; the job of ratios 6-10 as
    # one stack that the failing run leaves. Nothing is rerun.
    assert stacks == [1, 1, U.MAX_STACK, U.MAX_STACK]
    entries = [e for e in run_statuses(tmp_path).values() if e["kind"] == "unlearn"]
    assert sorted(e["status"] for e in entries) == ["done"] * 19 + ["failed"]
    assert [e["message"] for e in entries if e["status"] == "failed"] == [
        "BudgetError: simulated"]


def test_members_whose_configs_differ_beyond_seed_all_fail(originals):
    members = [originals["plain", seed] for seed in (0, 1)]
    members = [(f, split, dataclasses.replace(cfg, unlearn_method="rand_label",
                                              learning_rate=0.01 * (1 + i)))
               for i, (f, split, cfg) in enumerate(members)]
    runs = unlearn_group("rand_label", members)
    assert [type(run) for run in runs] == [ConfigError, ConfigError]
    assert all("may differ only in seed and del_ratio" in str(run) for run in runs)
    assert [run.trace for run in runs] == [[], []]


def test_a_member_without_a_deletion_set_fails_alone(originals):
    members = [(f, split, dataclasses.replace(cfg, unlearn_method="neg_grad"))
               for f, split, cfg in (originals["plain", seed] for seed in SEEDS)]
    f, split, cfg = members[1]
    members[1] = (f, dataclasses.replace(split, del_indices=()), cfg)
    runs = unlearn_group("neg_grad", members)
    assert isinstance(runs[1], ConfigError) and "requires a deletion set" in str(runs[1])
    for run, member in zip(runs[::2], members[::2]):
        assert run.model.param_digest() == unlearn("neg_grad", *member).model.param_digest()


@pytest.mark.parametrize("method", ["rand_label", "exact_retrain", "scrub"])
def test_a_member_with_an_out_of_range_training_label_fails_alone(originals, method):
    """Every training row's label is checked before the first step, by the
    init snapshot's task losses on D_r and D_f, and again by the step kernel
    where a loss reads it: one member's out-of-range retain label fails that
    member alone, with no trace rows, and its siblings train as they do alone."""
    members = [(f, split, dataclasses.replace(cfg, unlearn_method=method))
               for f, split, cfg in (originals["plain", seed] for seed in SEEDS)]
    f, split, cfg = members[1]
    train_y = split.train_y.copy()
    train_y[split.retain_indices[0]] = 3
    members[1] = (f, dataclasses.replace(split, train_y=train_y), cfg)
    runs = unlearn_group(method, members)
    assert isinstance(runs[1], ConfigError) and str(runs[1]) == "labels must lie in [0, 3)"
    assert runs[1].trace == []
    for run, member in zip(runs[::2], members[::2]):
        alone = unlearn(method, *member)
        assert run.model.param_digest() == alone.model.param_digest()
        assert _without_seconds(run.trace) == _without_seconds(alone.trace)


def test_each_member_is_charged_an_equal_share_of_the_group_time(originals):
    members = [(f, split, dataclasses.replace(cfg, unlearn_method="rand_label"))
               for f, split, cfg in (originals["plain", seed] for seed in SEEDS)]
    start = time.perf_counter()
    runs = unlearn_group("rand_label", members)
    wall = time.perf_counter() - start
    assert sum(run.seconds for run in runs) <= wall
    for run in runs:
        assert 0 < run.trace[-1].seconds <= run.seconds


def test_zero_epoch_group_returns_the_originals(originals):
    members = [(f, split, dataclasses.replace(cfg, unlearn_method="neg_grad", epochs=0))
               for f, split, cfg in (originals["plain", seed] for seed in SEEDS)]
    runs = unlearn_group("neg_grad", members)
    for run, (f, _, _) in zip(runs, members):
        assert run.model.param_digest() == f.param_digest()
        assert [row.phase for row in run.trace] == ["init"]


def test_stack_views_member_rows_and_rejects_mixed_layouts():
    a, b = build_model(4, 3, "mlp:5", seed=0), build_model(4, 3, "mlp:5", seed=1)
    before = [a.param_vector(), b.param_vector()]
    stack = Model.stack([a, b])
    assert stack.params.shape == (2, a.num_trainable())
    assert np.array_equal(stack.params, np.stack(before))
    stack.params[1] += 1.0  # training the stack trains the members
    assert np.array_equal(b.param_vector(), before[1] + 1.0)
    assert np.array_equal(a.param_vector(), before[0])
    with pytest.raises(ShapeError):
        Model.stack([a, build_model(4, 3, "mlp:6", seed=2)])
    before = a.param_vector()
    solo = Model.stack([a])  # one model is stacked too, and views its row
    assert solo is not a and solo.params.shape == (1, a.num_trainable())
    assert np.array_equal(solo.params[0], before)
    solo.params[0] += 1.0
    assert np.array_equal(a.param_vector(), before + 1.0)


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("adapter", [False, True], ids=["plain", "adapter"])
def test_a_copied_stack_of_one_model_views_it_and_leaves_it_as_it_was(adapter, k):
    """A teacher is never trained, so a stack of K times one model (a one-seed
    job's originals) views it rather than copying it, read-only."""
    m = build_model(4, 3, "mlp:5,6", seed=0)
    if adapter:
        m = attach_adapter(m, 1, 2, scale=0.5, seed=1)
    buffer, weight = m._buffer, m.layers[0].weight
    stack = Model.stack([m] * k, copy=True)
    assert np.shares_memory(stack._buffer, m._buffer) and not stack.params.flags.writeable
    assert m._buffer is buffer and m.layers[0].weight is weight
    assert not np.shares_memory(stack.grad, m.grad)
    x = np.random.default_rng(0).standard_normal((7, 4))
    assert stack.logits(np.stack([x] * k)).tobytes() == np.stack([m.logits(x)] * k).tobytes()


def test_a_viewed_stack_of_ten_wide_teachers_runs_as_ten_copies_in_no_memory():
    """``Model.stack([f] * 10, copy=True)`` of one ``wide`` model held ten copies of
    its 85,002 parameters (6.8 MB); its view holds none, and gives the same bytes."""
    import tracemalloc

    f = build_model(64, 10, "mlp:256,256", seed=0)
    tracemalloc.start()
    try:
        viewed = Model.stack([f] * 10, copy=True)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 0.1 * f.num_params() * 8
    copied = Model.stack([f.clone() for _ in range(10)], copy=True)
    x = np.random.default_rng(0).standard_normal((10, 256, 64))
    assert viewed.logits(x).tobytes() == copied.logits(x).tobytes()


def test_a_copied_stack_of_two_shares_memory_with_neither_model():
    models = [build_model(4, 3, "mlp:5", seed=s) for s in range(2)]
    buffers = [m._buffer for m in models]
    stack = Model.stack(models, copy=True)
    for m, buffer in zip(models, buffers):
        assert m._buffer is buffer and not np.shares_memory(stack._buffer, buffer)
    assert np.array_equal(stack.params, np.stack([m.params for m in models]))


@pytest.mark.parametrize("method", sorted(METHODS))
def test_a_solo_run_trains_as_a_stack_of_one(originals, monkeypatch, method):
    """Every training step of a run alone goes through the stacked path: each
    forward pass outside the snapshots gets a ``(1, B, d)`` batch."""
    f, split, cfg = originals["plain", 0]
    shapes, training = [], [False]
    forward_cache, drive, snapshot = Model.forward_cache, U._drive, RunRecorder.snapshot

    def spied_forward(model, x):
        if training[0]:
            shapes.append(np.shape(x))
        return forward_cache(model, x)

    def flagged(fn, flag):
        def call(*args, **kwargs):
            outer, training[0] = training[0], flag
            try:
                return fn(*args, **kwargs)
            finally:
                training[0] = outer
        return call

    monkeypatch.setattr(Model, "forward_cache", spied_forward)
    monkeypatch.setattr(U, "_drive", flagged(drive, True))
    monkeypatch.setattr(RunRecorder, "snapshot", flagged(snapshot, False))
    unlearn(method, f, split, dataclasses.replace(cfg, unlearn_method=method))
    assert shapes and {(len(shape), shape[0]) for shape in shapes} == {(3, 1)}


def test_cli_sweep_matches_per_config_unlearn_commands(tmp_path):
    fast = ["--data_name", DATA, "--backbone", "mlp:12", "--train_epochs", "10",
            "--epochs", "3", "--learning_rate", "0.02"]
    swept, solo = tmp_path / "swept", tmp_path / "solo"
    methods = ("bad_t", "salun")
    assert main(["--artifacts", str(swept), "sweep", *fast, "--no-budget", "--methods",
                 ",".join(methods), "--ratios", "3", "--seeds", "0,1"]) == 0
    for seed in ("0", "1"):
        assert main(["--artifacts", str(solo), "train", *fast, "--seed", seed]) == 0
        for method in methods:
            assert main(["--artifacts", str(solo), "unlearn", *fast, "--no-budget", "--seed",
                         seed, "--unlearn_method", method, "--del_ratio", "3"]) == 0
    runs = sorted(p.name for p in (swept / "runs").iterdir())
    assert runs == sorted(p.name for p in (solo / "runs").iterdir()) and len(runs) == 4
    for name in runs:
        a, b = swept / "runs" / name, solo / "runs" / name
        assert (a / "model_prime.json").read_bytes() == (b / "model_prime.json").read_bytes()
        reports = [json.loads(Path(d, "report.json").read_text()) for d in (a, b)]
        for report in reports:
            assert report.pop("seconds") > 0
        assert reports[0] == reports[1]
        traces = [[line.split(",")[:7] + line.split(",")[8:]
                   for line in Path(d, "trace.csv").read_text().splitlines()] for d in (a, b)]
        assert traces[0] == traces[1]


def test_a_member_without_a_checkpoint_fails_alone(tmp_path):
    fast = ["--data_name", DATA, "--backbone", "mlp:12", "--train_epochs", "5", "--epochs", "2"]
    assert main(["--artifacts", str(tmp_path), "train", *fast, "--seed", "0"]) == 0
    cfgs = [UnlearnConfig(data_name=DATA, backbone="mlp:12", train_epochs=5, epochs=2,
                          unlearn_method="neg_grad", seed=seed) for seed in (0, 1)]
    done, missing = execute_unlearn_group(tmp_path, cfgs, no_budget=True,
                                          keys=[config_hash(cfg) for cfg in cfgs])
    assert (done / "report.json").exists()
    assert isinstance(missing, ConfigError) and "no trained checkpoint" in str(missing)


def test_a_group_generates_each_dataset_once(tmp_path, monkeypatch):
    import unlearnkit.cli as cli

    fast = ["--data_name", DATA, "--backbone", "mlp:12", "--train_epochs", "5", "--epochs", "2"]
    for seed in ("0", "1"):
        assert main(["--artifacts", str(tmp_path), "train", *fast, "--seed", seed]) == 0
    calls = []
    monkeypatch.setattr(cli, "generate", lambda spec: calls.append(spec) or generate(spec))
    cfgs = [UnlearnConfig(data_name=DATA, backbone="mlp:12", train_epochs=5, epochs=2,
                          unlearn_method="neg_grad", del_ratio=ratio, seed=seed)
            for ratio in (2, 6) for seed in (0, 1)]
    outcomes = execute_unlearn_group(tmp_path, cfgs, no_budget=True,
                                     keys=[config_hash(cfg) for cfg in cfgs])
    assert all((path / "report.json").exists() for path in outcomes)
    assert sorted(spec.seed for spec in calls) == [0, 1]
    # A data name that pins its seed gives every seed of the group one dataset.
    pinned = [*fast[:1], DATA + ":seed5", *fast[2:]]
    for seed in ("0", "1"):
        assert main(["--artifacts", str(tmp_path), "train", *pinned, "--seed", seed]) == 0
    calls.clear()
    cfgs = [dataclasses.replace(cfg, data_name=DATA + ":seed5") for cfg in cfgs]
    outcomes = execute_unlearn_group(tmp_path, cfgs, no_budget=True,
                                     keys=[config_hash(cfg) for cfg in cfgs])
    assert all((path / "report.json").exists() for path in outcomes)
    assert [spec.seed for spec in calls] == [5]


@pytest.mark.parametrize("method", sorted(METHODS))
def test_trace_and_report_numbers_are_builtin_python_types(originals, method):
    """Every numeric field of the trace rows and the report of a solo run and
    of a K = 2 group is a builtin ``float`` or ``int`` (or None), never a
    numpy scalar.

    A numpy scalar has another ``repr`` (``np.float64(...)``), so a kernel
    that returns one changes every golden digest in ``test_unlearn.py`` at
    once; this test names the field instead.
    """
    members = [(f, split, dataclasses.replace(cfg, unlearn_method=method))
               for f, split, cfg in (originals["plain", seed] for seed in SEEDS[:2])]
    runs = [unlearn(method, *members[0]), *unlearn_group(method, members)]
    for run, (_, split, cfg) in zip(runs, [members[0], *members]):
        report = build_report(split, run.logits, seconds=run.seconds, flos=run.flos,
                              config_hash=config_hash(cfg), seed=cfg.seed)
        numbers = [(f"trace[{i}].{name}", value) for i, row in enumerate(run.trace)
                   for name, value in vars(row).items() if name != "phase"]
        numbers += [(f"report.{name}", value) for name, value in report.to_dict().items()
                    if name != "config_hash"]
        assert [(name, type(value).__name__) for name, value in numbers
                if value is not None and type(value) not in (float, int)] == []
