"""The bytes of the four report files, pinned on fixed synthetic runs."""

import hashlib
import json

from unlearnkit.cli import main

DATA = "gaussian_blobs:c3:s30:d4:noise0.1"

TRACE_HEADER = "epoch,loss_f,loss_r,acc_test,acc_f,acc_r,flos,seconds,phase\r\n"

# (method, del_ratio, seed, acc_test, acc_f, acc_r, seconds, mia_success, trace rows)
# A trace of None writes no trace.csv; an acc_f of None (with mia_success) gives
# a run whose composite is undefined.
RUNS = [
    ("exact_retrain", 1, 0, 91.66666666666667, 33.333333333333336, 98.24561403508773,
     0.1523, 46.666666666666664,
     ["0,0.9,0.8,80.0,50.0,85.0,1000.0,0.01,train",
      "1,0.7,0.5,90.0,33.333333333333336,97.0,2000.0,0.02,train"]),
    ("exact_retrain", 1, 1, 93.33333333333333, 0.0, 100.0, 0.1498, 3.3333333333333335,
     ["0,,0.6,88.0,,95.0,1500.0,0.01,train"]),
    ("exact_retrain", 5, 0, 90.0, 60.0, 96.49122807017544, 0.1187, 40.0,
     ["0,1.1,0.9,70.0,60.0,80.0,1200.5,0.015,train"]),
    ("rand_label", 1, 0, 86.66666666666667, 0.0, 94.73684210526316, 0.0412, 0.0,
     ["0,2.0,0.4,86.66666666666667,0.0,94.73684210526316,300.0,0.004,unlearn"]),
    ("rand_label", 5, 0, 85.0, 25.0, 93.0, 0.0399, 12.5, None),
    ("rand_label", 5, 1, 88.33333333333333, 50.0, 95.6140350877193, 0.0431, 37.5,
     ["0,1.5,0.5,88.0,50.0,95.0,250.0,0.003,forget",
      "1,1.2,0.45,88.33333333333333,50.0,95.6140350877193,500.0,0.006,retain"]),
    ("neg_grad", 1, 1, 80.0, None, 90.0, 0.0101, None,
     ["0,,0.7,80.0,,90.0,100.0,0.001,unlearn"]),
    ("neg_grad", 5, 1, 76.66666666666667, 100.0 / 3.0, 89.47368421052632, 0.0123, 75.0,
     ["0,0.3,0.7,76.66666666666667,33.333333333333336,89.47368421052632,100.0,0.001,unlearn"]),
    ("scrub", 1, 0, 95.0, None, 99.12280701754386, 2.5e-05, None,
     ["0,,0.2,95.0,,99.12280701754386,64.0,2.5e-05,unlearn"]),
]

GOLDEN_REPORT_DIGESTS = {
    "leaderboard.md": "f7c0cf5f084f2355",
    "leaderboard.csv": "ac27411cf6b565c2",
    "ratio_curves.csv": "b04dd99f6af4d5cc",
    "scaling_curves.csv": "d0c1aefa05baf3c7",
}


def _write_runs(root):
    run_dirs = []
    for method, ratio, seed, acc_test, acc_f, acc_r, seconds, mia, trace in RUNS:
        run_dir = root / f"{method}-r{ratio}-s{seed}"
        run_dir.mkdir()
        config = {"unlearn_method": method, "data_name": f"{DATA}:seed{seed}",
                  "backbone": "mlp:12", "del_ratio": ratio, "seed": seed}
        (run_dir / "config.json").write_text(json.dumps(config, indent=2, sort_keys=True))
        report = {"acc_test": acc_test, "acc_f": acc_f, "acc_r": acc_r, "seconds": seconds,
                  "flos": 1e6, "mia_success": mia, "transfer_acc": None,
                  "config_hash": f"{method}{ratio}{seed}", "seed": seed}
        (run_dir / "report.json").write_text(json.dumps(report, indent=2))
        if trace is not None:
            (run_dir / "trace.csv").write_bytes(
                (TRACE_HEADER + "".join(row + "\r\n" for row in trace)).encode())
        run_dirs.append(run_dir)
    unfinished = root / "unfinished"  # a config but no report: not a completed run
    unfinished.mkdir()
    (unfinished / "config.json").write_text(json.dumps({"unlearn_method": "salun"}))
    return run_dirs + [unfinished]


def test_report_files_match_golden_digests(tmp_path, capsys):
    run_dirs = _write_runs(tmp_path)
    out = tmp_path / "out"
    assert main(["--artifacts", str(tmp_path / "unused"), "report",
                 *map(str, run_dirs), "--out", str(out)]) == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()[:16]
           for name in GOLDEN_REPORT_DIGESTS}
    assert got == GOLDEN_REPORT_DIGESTS
    assert not (tmp_path / "unused").exists()
