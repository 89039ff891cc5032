"""tools/ab.py: alternating A/B pairs of benchmark runs over two checkouts."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab.py"

# A stand-in for perfbench/run.py: it logs which side ran which seed, and reads
# wall_s = base + seed and runs_per_s = 10 - seed. The change's digest differs
# on seed 1, and it reads correct false on seed 2.
STUB = """
import argparse, json, os
p = argparse.ArgumentParser()
p.add_argument("--workload")
p.add_argument("--seed", type=int)
a = p.parse_args()
side, base = {side!r}, {base}
with open(os.environ["AB_LOG"], "a") as log:
    log.write(f"{{side}} {{a.workload}} {{a.seed}}\\n")
digest = "other" if side == "change" and a.seed == 1 else "same"
print("progress line")
print(json.dumps({{"detail": {{"outputs_digest": digest}}}}))
print(json.dumps({{"correct": not (side == "change" and a.seed == 2), "attempted": 1,
                  "failed": 0, "metrics": {{"wall_s": {{"value": base + a.seed, "unit": "s"}},
                  "runs_per_s": {{"value": 10 - a.seed, "unit": "1/s"}}}}}}))
"""


def _tree(root: Path, side: str, base: float, exit_code: int = 0) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(
        STUB.format(side=side, base=base) + f"raise SystemExit({exit_code})\n")
    (root / "BENCHMARK.json").write_text(json.dumps({
        "command": [sys.executable, "perfbench/run.py"],
        "end_to_end": [{"name": "wall_s", "better": "lower"},
                       {"name": "runs_per_s", "better": "higher"}]}))
    return root


def _ab(parent, change, log, *args):
    return subprocess.run([sys.executable, str(TOOL), str(parent), str(change),
                           "--workload", "w", "--env", f"AB_LOG={log}", *args],
                          capture_output=True, text=True, timeout=120)


def test_pairs_alternate_and_report_medians_spread_wins_and_flags(tmp_path):
    parent = _tree(tmp_path / "parent", "parent", 2.0)
    change = _tree(tmp_path / "change", "change", 1.0)
    log = tmp_path / "log"
    out = _ab(parent, change, log, "--seeds", "0-3")
    assert out.returncode == 1, out.stderr
    assert log.read_text().split("\n")[:-1] == [
        "parent w 0", "change w 0", "change w 1", "parent w 1",
        "parent w 2", "change w 2", "change w 3", "parent w 3"]
    pairs = out.stdout.splitlines()[:4]
    assert ["FLAG" in line for line in pairs] == [False, True, True, False]
    assert "outputs_digest differs" in pairs[1] and "change reads correct false" in pairs[2]
    rows = {line.split()[0]: line.split() for line in out.stdout.splitlines()[6:]}
    # wall_s: the parent reads 2-5 (median 3.5, quartiles 2.75 and 4.25), the change 1-4
    assert rows["wall_s"] == ["wall_s", "3.5", "2.5", "2.75-4.25", "(1.5)", "4/4"]
    assert rows["runs_per_s"] == ["runs_per_s", "8.5", "8.5", "7.75-9.25", "(1.5)", "0/4"]
    assert "2 of 4 pairs flagged" in out.stderr
    assert "paths differ in length" not in out.stderr


def test_unequal_path_lengths_warn_and_a_failing_run_exits_2(tmp_path):
    parent = _tree(tmp_path / "parent", "parent", 2.0)
    change = _tree(tmp_path / "changed", "change", 1.0, exit_code=3)
    out = _ab(parent, change, tmp_path / "log", "--seeds", "5")
    assert out.returncode == 2
    assert "paths differ in length" in out.stderr
    assert "the benchmark exited 3 on seed 5" in out.stderr
