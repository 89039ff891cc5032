"""Compare the benchmark of two checkouts over alternating pairs of runs.

Usage:

    python3 tools/ab.py PARENT CHANGE --workload W --seeds A-B [--env K=V ...]

For each seed S from A to B (``--seeds A`` is one seed), it runs the command
that each checkout's ``BENCHMARK.json`` declares (``python3 perfbench/run.py``)
with ``--workload W --seed S`` once in PARENT and once in CHANGE, each in its
own checkout as the working directory: one pair. The parent runs first in the
first pair, the change in the second, and so on, so neither side always runs
on a machine its partner has just warmed. Each ``--env`` variable is set for
both sides (``--env MALLOC_MMAP_THRESHOLD_=131072`` takes heap layout out of
``peak_rss_mb``).

It prints one line per pair as the pair ends. Then, for each end-to-end
metric in CHANGE's ``BENCHMARK.json``, it prints the parent's and the change's
medians over the pairs, the parent's interquartile range, and the number of
pairs in which the change did better (a tie counts for neither side).

It flags each pair whose ``outputs_digest`` differs between the two sides, or
in which a side reads ``correct`` false, and then exits 1. It warns when it
ran fewer than 10 pairs: a verdict on a gain needs at least 10, and five
pairs of ``grid-serial`` could not resolve its timings. It warns when the
two checkout paths differ in length: the benchmark runs under its checkout's
path, and the length alone moved ``wide``'s ``peak_rss_mb`` by up to 2.3 MB.
A run that exits non-zero stops it with exit code 2. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

MIN_PAIRS = 10  # the fewest pairs a verdict on a gain reads


def seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    try:
        seeds = range(int(lo), int(hi or lo) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seed range {text!r}: want A-B or A") from None
    if not seeds:
        raise argparse.ArgumentTypeError(f"seed range {text!r} is empty")
    return seeds


def env_item(text: str) -> tuple[str, str]:
    name, sep, value = text.partition("=")
    if not (sep and name):
        raise argparse.ArgumentTypeError(f"bad --env {text!r}: want K=V")
    return name, value


def bench(checkout: Path, workload: str, seed: int, env: dict) -> tuple[dict, dict]:
    """One benchmark run in ``checkout``: its detail and its result."""
    command = json.loads((checkout / "BENCHMARK.json").read_text())["command"]
    out = subprocess.run([*command, "--workload", workload, "--seed", str(seed)],
                         cwd=checkout, env=env, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        print(f"{checkout}: the benchmark exited {out.returncode} on seed {seed}",
              file=sys.stderr)
        raise SystemExit(2)
    *_, detail, result = out.stdout.splitlines()
    return json.loads(detail)["detail"], json.loads(result)


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=seed_range, metavar="A-B")
    parser.add_argument("--env", action="append", default=[], type=env_item, metavar="K=V")
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if len(str(sides["parent"])) != len(str(sides["change"])):
        print(f"warning: the checkout paths differ in length ({len(str(sides['parent']))} "
              f"and {len(str(sides['change']))} characters), which alone moves wide's "
              "peak_rss_mb by up to 2.3 MB", file=sys.stderr)
    specs = json.loads((sides["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    env = {**os.environ, **dict(args.env)}

    values = {side: {spec["name"]: [] for spec in specs} for side in sides}
    flagged = 0
    for number, seed in enumerate(args.seeds):
        order = ["parent", "change"] if number % 2 == 0 else ["change", "parent"]
        runs = {side: bench(sides[side], args.workload, seed, env) for side in order}
        problems = [f"{side} reads correct false" for side in sides
                    if not runs[side][1]["correct"]]
        digests = {runs[side][0]["outputs_digest"] for side in sides}
        if len(digests) > 1:
            problems.append("outputs_digest differs")
        for side in sides:  # a metric a run did not measure reads NaN, which wins nothing
            for spec in specs:
                metric = runs[side][1]["metrics"].get(spec["name"], {"value": math.nan})
                values[side][spec["name"]].append(metric["value"])
        flagged += bool(problems)
        shown = ", ".join(f"{spec['name']} {values['parent'][spec['name']][-1]:.4g} -> "
                          f"{values['change'][spec['name']][-1]:.4g}" for spec in specs)
        print(f"pair {number + 1} seed {seed} ({order[0]} first): {shown}"
              + "".join(f"  FLAG: {problem}" for problem in problems), flush=True)

    print(f"\n{args.workload}, {len(args.seeds)} pairs")
    print(f"{'metric':<14}{'parent':>12}{'change':>12}{'parent IQR':>24}{'change better':>15}")
    for spec in specs:
        before, after = values["parent"][spec["name"]], values["change"][spec["name"]]
        sign = 1 if spec["better"] == "higher" else -1
        wins = sum(sign * (b - a) > 0 for a, b in zip(before, after))
        q1, q3 = quartiles(before)
        print(f"{spec['name']:<14}{statistics.median(before):>12.4g}"
              f"{statistics.median(after):>12.4g}{f'{q1:.4g}-{q3:.4g} ({q3 - q1:.3g})':>24}"
              f"{f'{wins}/{len(before)}':>15}")
    if len(args.seeds) < MIN_PAIRS:
        print(f"warning: {len(args.seeds)} pairs are too few for a verdict, which needs at "
              f"least {MIN_PAIRS}", file=sys.stderr)
    if flagged:
        print(f"{flagged} of {len(args.seeds)} pairs flagged", file=sys.stderr)
    return 1 if flagged else 0


if __name__ == "__main__":
    raise SystemExit(main())
