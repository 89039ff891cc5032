"""Benchmark for the unlearnkit CLI: end-to-end times and a per-layer trace.

Usage, from the repository root:

    python3 perfbench/run.py --workload grid-serial --seed 0 --seconds 15 --trace 0

The benchmark drives the real CLI (``python -m unlearnkit.cli`` with
``PYTHONPATH=src``), one command at a time from this single process, each
sequence in a fresh artifacts root and every ``sweep``/``unlearn`` with
``--no-budget``: with a budget on, a slower machine turns into aborted runs.
The sequence's ``train`` commands run first as a discarded warm-up; whole
sequences then repeat until ``--seconds`` of them have run (at least one),
and each metric is the median over them. ``--trace 1`` adds one sequence
run through ``perfbench/tracer.py`` and reports per-layer metrics instead.
The metric names, units and directions come from ``BENCHMARK.json``;
``perfbench/README.md`` documents them.

Every sequence passes the correctness gate: all commands exit 0, every run
completes, every ``report.json`` has the fixed keys with finite values (or
``null`` where the metric is undefined), and each run's fingerprint (its
report without ``seconds`` plus ``param_digest`` of its model) is identical
across repeats, the traced run, and the other grid workload on the same seed.

The last line of standard output is the result JSON; the line before it holds
the details (environment, per-sequence values, avg_gap, outputs_digest).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import FUNCTIONS, METHODS, read_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
DEADLINE_S = 170.0  # every invocation must end within 180 s
# setup_s: a fresh interpreter importing the CLI, probed at least this often.
SETUP_PROBE = [sys.executable, "-c", "import unlearnkit.cli"]
SETUP_REPEATS = 7

GRID_METHODS = "exact_retrain,neg_grad,rand_label,bad_t,scrub,salun,l1_sparse_ft"
WIDE_CONFIG = ["--data_name", "gaussian_blobs:c10:s250:d64", "--backbone", "mlp:256,256",
               "--train_batch_size", "256", "--batch_size", "256", "--train_epochs", "30"]
WIDE_METHODS = "neg_grad,rand_label,bad_t,scrub,salun,l1_sparse_ft"

# Keys every report.json carries, and those allowed to be null (undefined).
REPORT_KEYS = ("acc_test", "acc_f", "acc_r", "seconds", "flos", "mia_success",
               "transfer_acc", "config_hash", "seed")
NUMERIC_KEYS = tuple(k for k in REPORT_KEYS if k not in ("config_hash", "seed"))
NULLABLE_KEYS = {"acc_f", "mia_success", "transfer_acc"}
GAP_KEYS = ("acc_test", "acc_f", "acc_r", "mia_success")


def grid_commands(seed: int, workers: int) -> list[tuple[str, list[str], int]]:
    """The standardized grid: 7 methods x ratios 1-10 x seeds (seed, seed+1)."""
    seeds = (seed, seed + 1)
    sweep = ["sweep", "--methods", GRID_METHODS, "--ratios", "1-10",
             "--seeds", ",".join(map(str, seeds)), "--no-budget"]
    if workers > 1:
        sweep += ["--workers", str(workers)]
    return ([("train", ["train", "--seed", str(s)], 0) for s in seeds]
            + [("sweep", sweep, 7 * 10 * len(seeds)), ("report", ["report"], 0)])


def wide_commands(seed: int) -> list[tuple[str, list[str], int]]:
    """One seed of a BLAS-bound backbone, with the curriculum and adapter paths."""
    common = WIDE_CONFIG + ["--seed", str(seed)]
    return [
        ("train", ["train"] + common, 0),
        ("sweep", ["sweep"] + common + ["--methods", WIDE_METHODS, "--ratios", "10",
                                        "--seeds", str(seed), "--curriculum", "true",
                                        "--no-budget"], 6),
        ("unlearn", ["unlearn"] + common + ["--unlearn_method", "rand_label",
                                            "--del_ratio", "10", "--adapter_rank", "8",
                                            "--adapter_layer", "1", "--no-budget"], 1),
        ("report", ["report"], 0),
    ]


# name -> (commands for a seed, key of the outputs shared with other workloads)
WORKLOADS = {
    "grid-serial": (lambda seed: grid_commands(seed, 1), "grid"),
    "grid-workers2": (lambda seed: grid_commands(seed, 2), "grid"),
    "wide": (wide_commands, "wide"),
}


class BenchError(Exception):
    """The benchmark cannot run here at all (no result is printed)."""


# ------------------------------------------------------------------- processes

def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"]
                                             if env.get("PYTHONPATH") else "")
    env.pop("UNLEARNKIT_ARTIFACTS", None)
    env["TMPDIR"] = str(WORK / "tmp")
    return env


def run_process(argv: list[str], log: Path, deadline: float) -> tuple[int, float, float]:
    """Run one process to completion: (exit code, wall seconds, peak RSS MB).

    The process gets its own session, and the whole session is killed if it
    is still running at ``deadline`` (a ``time.monotonic`` value).
    """
    with open(log, "ab") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, cwd=ROOT,
                                env=cli_env(), start_new_session=True)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()),
                                _kill_session, args=(proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # On Linux, ru_maxrss is in KiB and covers the child's reaped children too.
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def _kill_session(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


# ------------------------------------------------------------------- sequences

def run_sequence(commands, root: Path, deadline: float, spans_dir: Path | None = None,
                 setup_times: list[float] | None = None) -> dict:
    """Run the command sequence in a fresh artifacts root; return its measurements.

    ``wall_s`` sums the commands' own times. With ``setup_times``, an import
    probe runs before each command and its time is appended there, so the
    set-up samples spread over the whole invocation.
    """
    _remove_tree(root)
    root.mkdir(parents=True)
    phases = {"train": 0.0, "sweep": 0.0, "unlearn": 0.0, "report": 0.0}
    peak, failed_commands, spans = 0.0, [], []
    log = root.with_suffix(".log")
    log.write_bytes(b"")
    for i, (phase, args, _) in enumerate(commands):
        if setup_times is not None:
            code, wall, _ = run_process(SETUP_PROBE, log, deadline)
            if code != 0:
                failed_commands.append(f"importing unlearnkit.cli exited with {code} (log: {log})")
                break
            setup_times.append(wall)
        if spans_dir is None:
            argv = [sys.executable, "-m", "unlearnkit.cli"]
        else:
            spans.append(spans_dir / f"{i}-{phase}.json")
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans[-1])]
        code, wall, rss = run_process(argv + ["--artifacts", str(root)] + args, log, deadline)
        phases[phase] += wall
        peak = max(peak, rss)
        if code != 0:
            failed_commands.append(f"{phase} exited with {code} (log: {log})")
            break
    return {"wall_s": sum(phases.values()), "phases": phases, "peak_rss_mb": peak,
            "artifact_mb": _tree_bytes(root) / 1e6, "failed_commands": failed_commands,
            "spans": spans}


def _tree_bytes(root: Path) -> int:
    total = 0
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total


def _remove_tree(path: Path) -> None:
    if path.exists():
        shutil.rmtree(path)


# ----------------------------------------------------------------- correctness

def _model_class():
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from unlearnkit.nn import Model

    return Model


def check_outputs(root: Path, commands) -> dict:
    """Apply the correctness gate to one sequence's artifacts."""
    Model = _model_class()
    errors: list[str] = []
    fingerprints: dict[str, str] = {}
    reports: dict[str, tuple[dict, dict]] = {}
    expected = sum(runs for _, _, runs in commands)
    for ckpt in sorted((root / "checkpoints").glob("*")):
        try:
            digest = Model.load(ckpt / "model.json").param_digest()
            meta = json.loads((ckpt / "meta.json").read_text())
        except Exception as exc:  # the program's outputs may be broken in any way
            errors.append(f"checkpoints/{ckpt.name}: unreadable ({exc!r})")
            continue
        fingerprints[f"checkpoints/{ckpt.name}"] = f"{digest} test_acc={meta['test_acc']!r}"
    for run_dir in sorted((root / "runs").glob("*")):
        try:
            report = json.loads((run_dir / "report.json").read_text())
            config = json.loads((run_dir / "config.json").read_text())
            model = Model.load(run_dir / "model_prime.json")
        except Exception as exc:  # the program's outputs may be broken in any way
            problem = f"unreadable outputs ({exc!r})"
        else:
            problem = _report_problem(report, run_dir.name, config)
        if problem:
            errors.append(f"runs/{run_dir.name}: {problem}")
            continue
        kept = {k: report[k] for k in REPORT_KEYS if k != "seconds"}
        kept["param_digest"] = model.param_digest()
        fingerprints[f"runs/{run_dir.name}"] = json.dumps(kept, sort_keys=True)
        reports[run_dir.name] = (report, config)
    manifest_path = root / "manifest.json"
    manifest = json.loads(manifest_path.read_text()) if manifest_path.exists() else {}
    not_done = sorted(k for k, v in manifest.items() if v.get("status") != "done")
    if not_done:
        errors.append(f"manifest entries not done: {not_done[:5]}")
    completed = len(reports)
    if completed != expected:
        errors.append(f"{completed} runs completed, {expected} expected")
    return {"errors": errors, "fingerprints": fingerprints, "completed": completed,
            "failed_runs": max(0, expected - completed), "attempted_runs": expected,
            "avg_gap": avg_gap(reports.values())}


def _report_problem(report: dict, run_name: str, config: dict) -> str | None:
    if set(report) != set(REPORT_KEYS):
        return f"report keys {sorted(report)} differ from {list(REPORT_KEYS)}"
    for key in NUMERIC_KEYS:
        value = report[key]
        if value is None:
            if key not in NULLABLE_KEYS:
                return f"{key} is null"
        elif not isinstance(value, (int, float)) or not math.isfinite(value):
            return f"{key}={value!r} is not a finite number"
    if report["config_hash"] != run_name:
        return f"config_hash {report['config_hash']!r} does not name its directory"
    if report["seed"] != config.get("seed"):
        return f"seed {report['seed']!r} differs from the config's {config.get('seed')!r}"
    return None


def avg_gap(reports) -> float | None:
    """SalUn's Avg. Gap: mean |difference| to exact_retrain at the same (ratio, seed),
    over acc_test, acc_f, acc_r and mia_success, in percentage points."""
    reference = {(c["del_ratio"], c["seed"]): r for r, c in reports
                 if c["unlearn_method"] == "exact_retrain"}
    gaps = []
    for report, config in reports:
        ref = reference.get((config["del_ratio"], config["seed"]))
        if config["unlearn_method"] == "exact_retrain" or ref is None:
            continue
        if any(report[k] is None or ref[k] is None for k in GAP_KEYS):
            continue
        gaps.append(statistics.fmean(abs(report[k] - ref[k]) for k in GAP_KEYS))
    return statistics.fmean(gaps) if gaps else None


def outputs_digest(fingerprints: dict[str, str]) -> str:
    h = hashlib.sha256()
    for key in sorted(fingerprints):
        h.update(f"{key}\t{fingerprints[key]}\n".encode())
    return h.hexdigest()


def compare_with_other_workloads(shared_key: str, seed: int, digest: str) -> str | None:
    """Record this seed's outputs digest; report a mismatch with an earlier run.

    ``grid-serial`` and ``grid-workers2`` compute the same grid, so on the same
    seed their digests must agree, whichever ran first in this checkout.
    """
    path = WORK / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    key = f"{shared_key} seed={seed}"
    if key in known and known[key] != digest:
        return f"outputs differ from an earlier run of {key}: {known[key]} != {digest}"
    known[key] = digest
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return None


# ---------------------------------------------------------------------- trace

def layer_metrics(spans_files: list[Path], traced_wall: float) -> dict[str, float]:
    """Aggregate the spans of one traced sequence into per-layer metrics.

    A span's self time is its duration minus the durations of its direct
    children; ``trace.min_self_s`` is the smallest, which is negative only if
    spans were not properly nested.
    """
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    tagged: dict[str, float] = {}  # "<name>.<tag>" -> total seconds
    counters: dict[str, float] = {}
    sweep_parent, min_self, span_count = 0.0, 0.0, 0
    for path in spans_files:
        header, col = read_spans(str(path))
        names, n = header["names"], header["spans"]
        span_count += n
        for key, value in header["counters"].items():
            counters[key] = counters.get(key, 0) + value
        duration = [end - start for start, end in zip(col["start"], col["end"])]
        child = [0.0] * n
        for i, parent in enumerate(col["parent"]):
            if parent >= 0:
                child[parent] += duration[i]
        file_total: dict[str, float] = {}
        for i in range(n):
            name, tag = names[col["name"][i]], names[col["tag"][i]]
            own = duration[i] - child[i]
            min_self = min(min_self, own)
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + duration[i]
            self_time[name] = self_time.get(name, 0.0) + own
            file_total[name] = file_total.get(name, 0.0) + duration[i]
            if tag:
                file_total[f"{name}.{tag}"] = file_total.get(f"{name}.{tag}", 0.0) + duration[i]
                tagged[f"{name}.{tag}"] = tagged.get(f"{name}.{tag}", 0.0) + duration[i]
        if "cli.command.sweep" in file_total:
            sweep_parent += (file_total["cli.command.sweep"]
                             - file_total.get("cli.execute_unlearn", 0.0)
                             - file_total.get("cli.pool.wait", 0.0))
    metrics: dict[str, float] = dict(counters)
    for name in set(calls) | _SPAN_NAMES:
        metrics[f"{name}.calls"] = calls.get(name, 0)
        metrics[f"{name}.self_s"] = self_time.get(name, 0.0)
        metrics[f"{name}.total_s"] = total.get(name, 0.0)
    for method in GRID_METHODS.split(","):
        metrics[f"unlearn.unlearn.{method}.total_s"] = tagged.get(f"unlearn.unlearn.{method}", 0.0)
    metrics["cli.sweep.total_s"] = tagged.get("cli.command.sweep", 0.0)
    metrics["cli.sweep.parent_s"] = sweep_parent
    metrics["cli.pool.calls"] = calls.get("cli.pool.wait", 0)
    metrics["cli.pool.wait_s"] = total.get("cli.pool.wait", 0.0)
    self_sum = sum(self_time.values())
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.self_sum_s"] = self_sum
    metrics["trace.untraced_s"] = traced_wall - self_sum
    metrics["trace.spans"] = span_count
    metrics["trace.min_self_s"] = min_self
    return metrics


# Every span name the tracer can record, so absent layers still read 0.
_SPAN_NAMES = ({name for *_, name in FUNCTIONS + METHODS}
               | {"cli.import", "cli.main", "cli.pool.wait"})


# ---------------------------------------------------------------- environment

def environment(seed: int) -> dict:
    env = cli_env()
    info = {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "platform": platform.platform(),
            "seed": seed, "git_commit": _git_commit(),
            "blas_threads": {k: env[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                 "MKL_NUM_THREADS") if k in env}
            or "unset: OpenBLAS default, one thread per core"}
    try:
        import numpy

        info["numpy"] = numpy.__version__
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (ImportError, KeyError, TypeError) as exc:
        info.setdefault("numpy", "unknown")
        info["blas"] = f"unknown ({exc})"
    return info


def _git_commit() -> str | None:
    """Read HEAD without running git; a checkout without .git has no commit."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_file = git / ref
            if ref_file.exists():
                return ref_file.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return None
        return head
    except OSError:
        return None


# ----------------------------------------------------------------------- main

def load_metric_specs() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    spec = json.loads(path.read_text())
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def end_to_end(seq: dict, runs: int) -> dict[str, float]:
    sweep = seq["phases"]["sweep"]
    return {"wall_s": seq["wall_s"], "train_s": seq["phases"]["train"],
            "sweep_s": sweep, "runs_per_s": runs / sweep if sweep else 0.0,
            "report_s": seq["phases"]["report"], "peak_rss_mb": seq["peak_rss_mb"],
            "artifact_mb": seq["artifact_mb"]}


def benchmark(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    started = time.monotonic()
    deadline = started + DEADLINE_S
    specs = load_metric_specs()
    if not (ROOT / "src" / "unlearnkit" / "cli.py").is_file():
        raise BenchError(f"no unlearnkit sources under {ROOT / 'src'}")
    make_commands, shared_key = WORKLOADS[workload]
    commands = make_commands(seed)
    sweep_runs = next(runs for phase, _, runs in commands if phase == "sweep")
    run_dir = WORK / f"{workload}-{os.getpid()}"
    _remove_tree(run_dir)
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    run_dir.mkdir(parents=True)

    errors: list[str] = []
    attempted = failed = 0
    digests, sequences, gaps = [], [], []

    def checked(seq: dict, label: str) -> dict:
        nonlocal attempted, failed
        result = check_outputs(root, commands)
        attempted += result["attempted_runs"] + sum(1 for _, _, r in commands if not r)
        failed += result["failed_runs"] + len(seq["failed_commands"])
        errors.extend(f"{label}: {e}" for e in seq["failed_commands"] + result["errors"])
        digests.append(outputs_digest(result["fingerprints"]))
        gaps.append(result["avg_gap"])
        return seq

    root = run_dir / "artifacts"
    # The warm-up runs the sequence's train commands: they import every module
    # (compiling bytecode), load numpy and BLAS and fill the file cache.
    warm_up_commands = [c for c in commands if c[0] == "train"]
    warm_up = run_sequence(warm_up_commands, root, deadline)
    attempted += len(warm_up_commands)
    failed += len(warm_up["failed_commands"])
    errors.extend(f"warm-up: {e}" for e in warm_up["failed_commands"])
    setup_times: list[float] = []
    measured = 0.0
    while not errors:
        seq = checked(run_sequence(commands, root, deadline, setup_times=setup_times),
                      f"sequence {len(sequences) + 1}")
        sequences.append(end_to_end(seq, sweep_runs))
        measured += seq["wall_s"]
        remaining = deadline - time.monotonic()
        if measured >= seconds or remaining < 2.5 * seq["wall_s"]:
            break
    while not errors and len(setup_times) < SETUP_REPEATS:
        code, wall, _ = run_process(SETUP_PROBE, run_dir / "setup.log", deadline)
        if code != 0:
            errors.append(f"importing unlearnkit.cli exited with {code}")
        setup_times.append(wall)
    medians = {}
    if sequences and not errors:
        medians = {k: statistics.median(s[k] for s in sequences) for k in sequences[0]}
        medians["setup_s"] = statistics.median(setup_times)

    layers = None
    if trace and not errors:
        spans_dir = run_dir / "spans"
        spans_dir.mkdir()
        seq = checked(run_sequence(commands, root, deadline, spans_dir), "traced sequence")
        if not seq["failed_commands"]:
            layers = layer_metrics(seq["spans"], seq["wall_s"])
            layers["trace.overhead_frac"] = seq["wall_s"] / medians["wall_s"] - 1.0
            # Self times and the remainder add up to the wall time by
            # construction; they mean something only if none is negative.
            if layers["trace.untraced_s"] < 0 or layers["trace.min_self_s"] < -1e-9:
                errors.append("spans are not nested within the traced commands")

    if len(set(digests)) > 1:
        errors.append(f"outputs differ between sequences: {digests}")
    elif digests and not errors:
        mismatch = compare_with_other_workloads(shared_key, seed, digests[0])
        if mismatch:
            errors.append(mismatch)
    _remove_tree(run_dir)

    wanted = specs["per_layer"] if trace else specs["end_to_end"]
    source = layers if trace else medians
    metrics = {}
    for spec in wanted:
        if source is None or spec["name"] not in source:
            errors.append(f"metric {spec['name']} was not measured")
            continue
        metrics[spec["name"]] = {"value": source[spec["name"]], "unit": spec["unit"]}
    detail = {"workload": workload, "seed": seed, "trace": int(trace),
              "environment": environment(seed), "sequences": sequences,
              "setup_samples": setup_times, "medians": medians,
              "error_rate": failed / attempted if attempted else 1.0,
              "avg_gap": gaps[0] if gaps else None,
              "outputs_digest": digests[0] if digests else None,
              "errors": errors[:20], "layers": layers,
              "elapsed_s": time.monotonic() - started}
    result = {"correct": not errors, "attempted": max(attempted, 1), "failed": failed,
              "metrics": metrics}
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measure sequences until this many seconds have run (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        detail, result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
