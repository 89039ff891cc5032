import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from unlearnkit import (ConfigError, InsufficientDataError, UnlearnConfig,
                        build_model, deletion_capacity, evaluate, fit_mia,
                        metrics, mia_success, nn, unlearn)
from unlearnkit.data import DatasetSplit, SynthSpec, generate
from unlearnkit.metrics import (EvalReport, build_report, chance_level, split_logits,
                                task_losses)
from unlearnkit.nn import Model
from unlearnkit.unlearn import train_original

DATA = "gaussian_blobs:c3:s30:d4:noise0.1"


@pytest.fixture(scope="module")
def setup():
    cfg = UnlearnConfig(data_name=DATA, backbone="mlp:12", seed=3,
                        train_epochs=25, epochs=6, learning_rate=0.02)
    split = generate(cfg.data_spec()).with_deletion(10)
    return train_original(split, cfg).model, split, cfg


def test_constant_model_on_balanced_four_class_test():
    split = generate(SynthSpec(num_classes=4, samples_per_class=50, seed=1))
    m = build_model(2, 4, "mlp:4", seed=0)
    m.set_param_vector(np.zeros(m.num_trainable()))  # always predicts class 0
    assert evaluate(m, split)[0] == 25.0


WIDE_DATA = "gaussian_blobs:c10:s250:d64"


def test_split_logits_holds_at_most_one_tile_group_of_workspace():
    """A fresh ``wide`` model evaluates its 500 test rows and its 2000 training rows
    in groups of four 64-row tiles: the traced peak is one 256-row workspace pair,
    the logits (the training set's padded to whole tiles) and one padded tail
    tile, and no copy of the training inputs or of D_r's (1 MB and 0.92 MB)."""
    split = generate(UnlearnConfig(data_name=WIDE_DATA).data_spec()).with_deletion(10)
    split.retain_indices  # cached on first use; not part of the pass
    model = build_model(64, 10, "mlp:256,256", seed=0)
    tracemalloc.start()
    try:
        split_logits(model, split)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.tile_rows == 64 and len(split.test_y) == 500 and split.num_train == 2000
    workspaces = 2 * 256 * 256 * 8
    logits = (2048 + 1800 + 200 + 512) * 10 * 8
    tail = 64 * 64 * 8
    assert peak <= workspaces + logits + tail + 2**17  # and the ufunc iterator buffers


@pytest.mark.parametrize("n", [1800, 2000, 2250])
def test_split_logits_in_blocks_equal_one_forward_pass_per_set(n):
    rng = np.random.default_rng(n)
    x, y = rng.standard_normal((n + 200, 64)), rng.integers(0, 10, n + 200)
    split = DatasetSplit(x, y, x[:n], y[:n], seed=0,
                         del_indices=rng.permutation(n + 200)[:200])
    model = build_model(64, 10, "mlp:256,256", seed=1)
    got = split_logits(model, split)
    retain_x = split.train_x[split.retain_indices]
    for logits, rows in ((got.test, split.test_x), (got.retain, retain_x),
                         (got.forget, split.forget_x)):
        assert logits.tobytes() == model.logits(rows).tobytes()


def test_a_model_with_no_hidden_layer_is_evaluated_as_in_one_call():
    split = generate(SynthSpec(seed=2)).with_deletion(5)
    model = Model(2, [], 3, seed=0)
    got = split_logits(model, split)
    assert got.retain.tobytes() == model.logits(split.train_x[split.retain_indices]).tobytes()
    assert got.test.tobytes() == model.logits(split.test_x).tobytes()


def test_a_wide_snapshot_leaves_the_workspace_at_the_size_of_one_training_step():
    """A 256-row ``wide`` step sizes each hidden buffer to 256 rows, and a
    snapshot after it evaluates in blocks of at most 256 rows, so it grows
    neither buffer."""
    from unlearnkit.unlearn import RunRecorder, loss_and_grad

    split = generate(UnlearnConfig(data_name=WIDE_DATA).data_spec()).with_deletion(10)
    model = build_model(64, 10, "mlp:256,256", seed=0)
    loss_and_grad(model, split.train_x[:256], labels=split.train_y[:256])
    RunRecorder(split).snapshot(1, model)
    assert len(model._workspace) == len(model.hidden) == 2
    for buffer, width in zip(model._workspace, model.hidden):
        assert buffer.size == 256 * width


def test_a_layer_wider_than_the_block_budget_is_evaluated_one_row_at_a_time(monkeypatch):
    split = generate(SynthSpec(seed=2)).with_deletion(5)
    model = build_model(2, 3, "mlp:12", seed=0)
    monkeypatch.setattr(nn, "EVAL_BLOCK_VALUES", 5)  # a row cap of 0 rows, floored to 1
    got = split_logits(model, split)
    assert model._workspace[0].size == 12
    retain_x = split.train_x[split.retain_indices]
    for logits, rows in ((got.test, split.test_x), (got.retain, retain_x),
                         (got.forget, split.forget_x)):
        assert logits.shape == (len(rows), 3)
        np.testing.assert_allclose(logits, model.logits(rows), rtol=1e-12, atol=1e-12)


def test_perfect_memorizer_scores_100_on_both_train_sets(setup):
    f, split, _ = setup
    acc_test, acc_f, acc_r = evaluate(f, split)
    assert acc_f == 100.0 and acc_r == 100.0


def test_empty_deletion_set_reports_none_not_zero(setup):
    f, _, cfg = setup
    fresh = generate(cfg.data_spec())
    acc_test, acc_f, acc_r = evaluate(f, fresh)
    assert acc_f is None
    assert 0.0 <= acc_test <= 100.0 and 0.0 <= acc_r <= 100.0


def test_evaluate_requires_nonempty_sets(setup):
    f, split, _ = setup
    empty = dataclasses.replace(split, test_x=np.empty((0, 4)),
                                test_y=np.empty(0, dtype=np.int64))
    with pytest.raises(ConfigError):
        evaluate(f, empty)


def test_evaluate_is_pure(setup):
    f, split, _ = setup
    assert evaluate(f, split) == evaluate(f, split)


# ------------------------------------------------------------------------- MIA

def test_separable_losses_give_perfect_attack():
    attack = fit_mia(np.zeros(50), np.ones(20))
    assert attack.calibration_balanced_accuracy == 1.0
    assert np.all(attack.predict_member(np.zeros(10)))
    assert not np.any(attack.predict_member(np.ones(10)))


def test_overfit_model_mia_success_100(setup):
    f, split, _ = setup
    # original model memorized D_f, so every forget loss sits below the threshold
    success = mia_success(f, split)
    assert success == 100.0


def test_mia_requires_enough_test_samples(setup):
    f, split, _ = setup
    small = dataclasses.replace(split, test_x=split.test_x[:5], test_y=split.test_y[:5])
    with pytest.raises(InsufficientDataError):
        mia_success(f, small)


def test_mia_calibration_never_touches_deleted_rows(setup, monkeypatch):
    """The attack is fitted on exactly D_r's losses (members) and D_test's (non-members)."""
    f, split, _ = setup
    fitted = []
    real = metrics.fit_mia
    monkeypatch.setattr(metrics, "fit_mia", lambda *losses: fitted.append(losses) or real(*losses))
    mia_success(f, split)
    [(members, nonmembers)] = fitted
    retain_x = split.train_x[split.retain_indices]
    assert np.array_equal(members, task_losses(f.logits(retain_x), split.retain_y))
    assert np.array_equal(nonmembers, task_losses(f.logits(split.test_x), split.test_y))
    assert len(members) == split.num_train - split.del_indices.size


def test_mia_none_when_no_deletion_set(setup):
    f, _, cfg = setup
    assert mia_success(f, generate(cfg.data_spec())) is None


def test_fit_mia_prefers_smallest_threshold_on_ties():
    attack = fit_mia(np.array([0.0, 0.0]), np.array([0.0, 0.0]))
    assert attack.threshold == 0.0


def _fit_mia_by_unique(member_losses, nonmember_losses):
    """The reference fit: fit_mia's rule over ``np.unique``'s candidate thresholds."""
    members, nonmembers = np.sort(member_losses), np.sort(nonmember_losses)
    candidates = np.unique(np.concatenate([members, nonmembers]))
    candidates = np.append(candidates, candidates[-1] + 1.0)
    tpr = np.searchsorted(members, candidates, side="left") / members.size
    tnr = 1.0 - np.searchsorted(nonmembers, candidates, side="left") / nonmembers.size
    balanced = 0.5 * (tpr + tnr)
    best = int(np.argmax(balanced))
    return float(candidates[best]), float(balanced[best])


# Losses from a handful of values, so draws tie within and across the two sets.
_LOSSES = st.lists(st.one_of(st.sampled_from([0.0, 0.125, 0.5, 0.5 + 2**-40, 3.0]),
                             st.floats(0.0, 30.0)), min_size=1, max_size=40)


@given(_LOSSES, _LOSSES)
def test_fit_mia_keeps_the_bytes_of_np_unique_candidates(members, nonmembers):
    attack = fit_mia(np.array(members), np.array(nonmembers))
    threshold, balanced = _fit_mia_by_unique(np.array(members), np.array(nonmembers))
    assert np.float64(attack.threshold).tobytes() == np.float64(threshold).tobytes()
    assert (np.float64(attack.calibration_balanced_accuracy).tobytes()
            == np.float64(balanced).tobytes())


# ----------------------------------------------------------- deletion capacity

def test_capacity_examples_from_definition():
    baseline = 90.0
    sweep = [(1, 89.5), (2, 89.0), (3, 87.0), (4, 84.0)]
    assert deletion_capacity(sweep, baseline, 2.0) == 2
    assert deletion_capacity(sweep, baseline, 10.0) == 4
    assert deletion_capacity([(1, 10.0)], baseline, 2.0) == 0


def test_capacity_validation():
    with pytest.raises(ConfigError):
        deletion_capacity([], 90.0, 1.0)
    with pytest.raises(ConfigError):
        deletion_capacity([(2, 90.0), (1, 91.0)], 90.0, 1.0)


def test_capacity_monotone_in_tolerance():
    rng = np.random.default_rng(0)
    for _ in range(30):
        sweep = [(r, float(90 - rng.uniform(0, 3) * r)) for r in range(1, 11)]
        tolerances = sorted(rng.uniform(0, 15, 4))
        caps = [deletion_capacity(sweep, 90.0, t) for t in tolerances]
        assert all(b >= a for a, b in zip(caps, caps[1:]))


def test_neg_grad_reaches_chance_with_fewer_flos_than_bad_t(setup):
    f, split, cfg = setup
    chance = chance_level(split.num_classes)
    strong = dataclasses.replace(cfg, learning_rate=0.05, epochs=25, temperature=4.0)
    ng = unlearn("neg_grad", f, split, strong)
    bt = unlearn("bad_t", f, split, strong)

    def flos_to_chance(trace):
        for row in trace:
            if row.acc_f is not None and row.acc_f <= chance + 10.0:
                return row.flos
        return float("inf")

    assert flos_to_chance(ng.trace) < flos_to_chance(bt.trace)


# ---------------------------------------------------------------------- report

def test_report_fixed_key_order_and_null_markers(tmp_path, setup):
    f, split, cfg = setup
    report = build_report(split, split_logits(f, split), seconds=1.5, flos=2e6,
                          config_hash="abc", seed=3)
    payload = json.loads(report.to_json())
    assert list(payload) == ["acc_test", "acc_f", "acc_r", "seconds", "flos",
                             "mia_success", "transfer_acc", "config_hash", "seed"]
    assert payload["transfer_acc"] is None
    for key in ("acc_test", "acc_f", "acc_r", "mia_success"):
        assert 0.0 <= payload[key] <= 100.0
    path = tmp_path / "report.json"
    report.save(path)
    assert EvalReport.load(path) == report


def test_overfit_original_scores_forget_at_least_test(setup):
    f, split, _ = setup
    acc_test, acc_f, _ = evaluate(f, split)
    assert acc_f >= acc_test


@pytest.mark.parametrize("members, nonmembers", [([], [1.0]), ([1.0], [])],
                         ids=["no_members", "no_nonmembers"])
def test_fit_mia_with_an_empty_side_raises_insufficient_data(members, nonmembers):
    with pytest.raises(InsufficientDataError, match="samples on both sides"):
        fit_mia(np.array(members), np.array(nonmembers))
