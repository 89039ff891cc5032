import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from unlearnkit import (ConfigError, InsufficientDataError, UnlearnConfig,
                        build_model, deletion_capacity, evaluate, fit_mia,
                        metrics, mia_success, unlearn)
from unlearnkit.data import SynthSpec, generate
from unlearnkit.metrics import (EvalReport, build_report, chance_level, split_logits,
                                task_losses)
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


def test_split_logits_makes_a_fresh_models_workspace_once_at_its_full_size():
    """The retain set, the largest, runs first: a ``wide`` model's two hidden
    workspace buffers are made once for its 1800 rows. Forget, test and retain in
    that order made them three times, each growth holding the old pair and the new."""
    split = generate(UnlearnConfig(data_name="gaussian_blobs:c10:s250:d64").data_spec())
    split = split.with_deletion(10)
    split.forget_x  # cached on first use; not part of the workspace
    model = build_model(64, 10, "mlp:256,256", seed=0)
    tracemalloc.start()
    try:
        split_logits(model, split)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    workspace = 2 * len(split.retain_y) * 256 * 8
    assert peak <= workspace + split.retain_x.nbytes + 2**19  # its retain_x copy, logits


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
    assert np.array_equal(members, task_losses(f.logits(split.retain_x), split.retain_y))
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
