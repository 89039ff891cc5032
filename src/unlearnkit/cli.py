"""Experiment driver: train originals, unlearn, evaluate, sweep, report.

Artifacts live under one root (``--artifacts`` flag or the
``UNLEARNKIT_ARTIFACTS`` environment variable, default ``./artifacts``):

    artifacts/
      checkpoints/<train_hash>/         model.json + meta.json, trace.csv, status.json
      runs/<config_hash>/               config.json, report.json,
                                        model_prime.json, trace.csv, status.json
      reports/                          leaderboard outputs

Each run's ``status.json`` records its kind, its status (``pending``, ``done``
or ``failed``), its times and a failure's message, for people and tools to
read. No command decides anything by it: a run is complete when its
directory holds its completion files (``_locate``).

Exit codes: 0 success, 1 configuration or usage error, 2 runtime/numeric error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
import traceback
from pathlib import Path

from .config import UnlearnConfig, config_hash, load_config_file, train_hash
from .data import DEL_RATIO_RANGE, generate
from .errors import ConfigError, DomainError, InsufficientDataError, ShapeError, UnlearnkitError
from .fileio import read_json, write_json
from .metrics import MIN_TEST_FOR_MIA, EvalReport, build_report, split_logits
from .nn import Model
from .report import collect_runs, write_leaderboard
from .unlearn import MAX_STACK, METHODS, UnlearnRun, train_original, unlearn_group, write_trace_csv

ENV_ARTIFACTS = "UNLEARNKIT_ARTIFACTS"

_CONFIG_FIELDS = [f.name for f in dataclasses.fields(UnlearnConfig)]


def __getattr__(name: str):
    """Import ``ProcessPoolExecutor`` on first use: only ``sweep --workers N`` needs it.

    It stays a module attribute, so ``perfbench/tracer.py`` can wrap the pool.
    """
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor

    globals()[name] = ProcessPoolExecutor
    return ProcessPoolExecutor


def _artifacts_root(args) -> Path:
    if args.artifacts:
        return Path(args.artifacts)
    return Path(os.environ.get(ENV_ARTIFACTS, "artifacts"))


def _resolve_config(args) -> UnlearnConfig:
    values: dict = {}
    if getattr(args, "config", None):
        values.update(load_config_file(args.config))
    for name in _CONFIG_FIELDS:
        raw = getattr(args, name, None)
        if raw is not None:
            values[name] = raw  # flags win over the file
    return UnlearnConfig.from_mapping(values)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    for name in _CONFIG_FIELDS:
        parser.add_argument(f"--{name}", default=None, metavar="V",
                            help=argparse.SUPPRESS)


# Each kind of run: its directories' parent under the root, and the files a complete run has.
_KINDS = {"train": ("checkpoints", ("model.json", "meta.json")),
          "unlearn": ("runs", ("report.json",))}


def _locate(root: Path, kind: str, key: str) -> tuple[Path, bool]:
    """The directory of the run of ``kind`` whose hash is ``key`` (its ``train_hash`` or
    ``config_hash``), and whether it holds the files of a complete run: the one rule
    by which every command decides that a run is complete."""
    parent, files = _KINDS[kind]
    directory = root / parent / key
    return directory, all((directory / name).exists() for name in files)


# ------------------------------------------------------------------------ jobs
#
# A job is a list of (key, config) runs of one kind, run together: a train job
# holds one original, an unlearn job up to MAX_STACK runs trained in lockstep.

def _run_jobs(root: Path, kind: str, jobs: list[list], *, no_budget: bool = False,
              workers: int = 1, loud: bool = False):
    """Run ``jobs`` of one kind and record them; yield each job with its runs' outcomes
    (a run's directory, or the error it raised) as the job ends.

    Every run of the jobs first gets a ``status.json`` in its directory that
    reads ``pending``. As a job ends, each of its runs' ``status.json`` is
    rewritten to read ``done``, or ``failed`` with ``"<Type>: <message>"``,
    before the job is yielded, so iterate to the end. Each write costs the
    same however many runs there are, and touches no other run's file. Only
    a run's files say whether it is complete (``_locate``), so a failed run
    first loses the files that mark it complete (``_KINDS``), which an
    earlier attempt may have left there, and then gets the partial trace its
    error carries (``trace``), before its status is written: all three steps
    run here, in the parent.
    With ``workers`` above 1 the jobs run in a pool of at most that many
    processes, and never more than there are jobs. With ``loud``, an error
    that is not an ``UnlearnkitError`` prints its traceback once, in the
    process that raised it: a pickled error has none. A caller that
    re-raises the errors leaves it off.
    """
    if not jobs:
        return
    dirs = {key: _locate(root, kind, key)[0] for job in jobs for key, _ in job}
    started = {"kind": kind, "status": "pending",
               "started_at": time.strftime("%Y-%m-%dT%H:%M:%S")}
    for directory in dirs.values():
        write_json(directory / "status.json", started)
    ended = (_pooled(root, kind, jobs, no_budget, workers, loud) if workers > 1 else
             ((job, _run_job(root, kind, job, no_budget, loud)) for job in jobs))
    for job, outcomes in ended:
        finished = {**started, "finished_at": time.strftime("%Y-%m-%dT%H:%M:%S")}
        for (key, _), o in zip(job, outcomes):
            if isinstance(o, Exception):
                for name in _KINDS[kind][1]:
                    (dirs[key] / name).unlink(missing_ok=True)
                if getattr(o, "trace", None):  # a failed run keeps the rows it recorded
                    write_trace_csv(o.trace, dirs[key] / "trace.csv")
                status = {"status": "failed", "message": f"{type(o).__name__}: {o}"}
            else:
                status = {"status": "done"}
            write_json(dirs[key] / "status.json", {**finished, **status})
        yield job, outcomes


def _pooled(root: Path, kind: str, jobs: list[list], no_budget: bool, workers: int,
            loud: bool):
    """Each job with its outcomes as it ends, run in a pool of at most ``workers``
    processes and never more than there are jobs."""
    from concurrent.futures import as_completed

    printed = set() if loud else None  # a broken pool fails every job left with one error
    pool_cls = sys.modules[__name__].ProcessPoolExecutor  # see __getattr__
    with pool_cls(max_workers=min(workers, len(jobs))) as pool:
        futures = {pool.submit(_run_job, root, kind, job, no_budget, loud): job
                   for job in jobs}
        for future in as_completed(futures):
            try:
                outcomes = future.result()
            except Exception as exc:  # the worker died: its job's runs failed
                outcomes = [exc] * len(futures[future])
                _print_unexpected(outcomes, printed)
            yield futures[future], outcomes


def _run_job(root: Path, kind: str, job: list, no_budget: bool,
             loud: bool) -> list[Path | Exception]:
    """Run one job in this process: each run's directory, or the error it raised."""
    try:
        if kind == "train":
            outcomes = [ensure_checkpoint(root, cfg, key) for key, cfg in job]
        else:
            outcomes = execute_unlearn_group(root, [cfg for _, cfg in job], no_budget,
                                             [key for key, _ in job])
    except Exception as exc:  # one bad job must not stop the others
        outcomes = [exc] * len(job)
    _print_unexpected(outcomes, set() if loud else None)
    return outcomes


def _print_unexpected(outcomes: list, printed: set[int] | None) -> None:
    """Print the traceback of each error in ``outcomes`` that is not an ``UnlearnkitError``,
    unless ``printed`` is None.

    Each error prints once, however many runs it failed: ``printed`` holds
    the ids of the frames that raised those printed, which an error shares
    with its copies (a group gives each member it fails one) and its
    re-raises. Those errors must stay alive while ``printed`` is in use, or
    a frame id could be reused.
    """
    if printed is None:
        return
    for exc in outcomes:
        if isinstance(exc, Exception) and not isinstance(exc, UnlearnkitError):
            frames = [frame for frame, _ in traceback.walk_tb(exc.__traceback__)]
            origin = id(frames[-1] if frames else exc)  # the frame that raised it
            if origin not in printed:
                printed.add(origin)
                traceback.print_exception(exc)  # keep where it came from


def _run_or_raise(root: Path, kind: str, jobs: list[list], no_budget: bool = False) -> None:
    """Run and record ``jobs`` in this process, then raise the first error a run raised."""
    errors = [o for _, outcomes in _run_jobs(root, kind, jobs, no_budget=no_budget)
              for o in outcomes if isinstance(o, Exception)]
    if errors:
        raise errors[0]


# ----------------------------------------------------------------------- train

def ensure_checkpoint(root: Path, cfg: UnlearnConfig, key: str) -> Path:
    """Train the original model for this config, whose ``train_hash`` is ``key``, and
    write its checkpoint directory."""
    run = train_original(generate(cfg.data_spec()), cfg)
    ckpt_dir, _ = _locate(root, "train", key)
    run.model.save(ckpt_dir / "model.json")
    last = run.trace[-1]  # the trained model's: recorded after the last update
    meta = {"train_seconds": last.seconds, "test_acc": last.acc_test,
            "train_config": cfg.train_dict(), "flos": run.flos}
    write_json(ckpt_dir / "meta.json", meta)
    write_trace_csv(run.trace, ckpt_dir / "trace.csv")
    print(f"trained original {key}: test_acc={last.acc_test:.1f} "
          f"seconds={last.seconds:.3f} -> {ckpt_dir}")
    return ckpt_dir


def cmd_train(args) -> int:
    root = _artifacts_root(args)
    cfg = _resolve_config(args)
    key = train_hash(cfg)
    ckpt_dir, done = _locate(root, "train", key)
    if done and not args.force:
        print(f"checkpoint {key} already exists at {ckpt_dir} (use --force to retrain)")
    else:
        _run_or_raise(root, "train", [[(key, cfg)]])
    return 0


# --------------------------------------------------------------------- unlearn

def _load_checkpoint(root: Path, cfg: UnlearnConfig) -> tuple[Model, dict]:
    """The original model and its meta for this config, read from its checkpoint."""
    ckpt_dir, done = _locate(root, "train", train_hash(cfg))
    model_path, meta_path = ckpt_dir / "model.json", ckpt_dir / "meta.json"
    if not done:
        raise ConfigError(
            f"no trained checkpoint for this config (expected {model_path.name} and "
            f"{meta_path.name} in {ckpt_dir}); run 'unlearnkit train' with the same "
            f"data_name/backbone/seed/train_* settings first")
    meta = read_json(meta_path, "checkpoint")
    if "train_seconds" not in meta:
        raise ConfigError(f"bad checkpoint {meta_path}: no key 'train_seconds'")
    return Model.load(model_path), meta


def execute_unlearn_group(root: Path, cfgs: list[UnlearnConfig], no_budget: bool,
                          keys: list[str]) -> list[Path | Exception]:
    """Unlearn and evaluate configs of one method that differ only in seed and deletion
    ratio, trained in lockstep, and write each run's artifact directory.

    ``keys`` are the configs' ``config_hash`` values. Each distinct original
    is loaded, and each distinct dataset generated, once per group and shared
    by the runs that use it; students and stacked teachers are copies, so the
    original is never mutated. Returns each config's run directory, or the
    exception its run raised; every run's artifacts are those it writes
    alone (see ``unlearn_group``).
    """
    outcomes: list[Path | Exception | None] = [None] * len(cfgs)
    started, members = [], []  # the runs whose checkpoint and data loaded
    originals: dict = {}  # train_hash -> (original, meta)
    datasets: dict = {}  # data_spec -> split without a deletion set (seeds may pin one)
    for i, cfg in enumerate(cfgs):
        try:
            trained, spec = train_hash(cfg), cfg.data_spec()
            if trained not in originals:
                originals[trained] = _load_checkpoint(root, cfg)
            if spec not in datasets:
                datasets[spec] = generate(spec)
            f, meta = originals[trained]
            split = datasets[spec].with_deletion(cfg.del_ratio)
        except Exception as exc:  # this run fails; its siblings go on
            outcomes[i] = exc
            continue
        if cfg.budget_seconds is None and not no_budget and cfg.unlearn_method != "exact_retrain":
            # The recorded training time is the practical ceiling for unlearning.
            cfg = dataclasses.replace(cfg, budget_seconds=meta["train_seconds"])
        started.append(i)
        members.append((f, split, cfg))
    runs = unlearn_group(cfgs[0].unlearn_method, members) if members else []
    for i, (_, split, cfg), run in zip(started, members, runs):
        try:
            outcomes[i] = run if isinstance(run, Exception) else _write_run(
                root, keys[i], cfg, split, run)
        except Exception as exc:
            outcomes[i] = exc
    return outcomes


def _write_run(root: Path, key: str, cfg: UnlearnConfig, split, run: UnlearnRun) -> Path:
    """Write one run's artifact directory.

    The report scores the logits of the run's last trace row, which are its
    final model's: writing a run makes no forward pass.
    """
    report = build_report(split, run.logits, seconds=run.seconds, flos=run.flos,
                          config_hash=key, seed=cfg.seed)
    run_dir, _ = _locate(root, "unlearn", key)
    write_json(run_dir / "config.json", cfg.resolved_dict())
    run.model.save(run_dir / "model_prime.json")
    write_trace_csv(run.trace, run_dir / "trace.csv")
    report.save(run_dir / "report.json")
    return run_dir


def _check_methods_and_ratios(base: UnlearnConfig, methods: list[str], ratios: list[int]) -> None:
    """Reject unknown methods, deletion ratios outside 1..10, a test set too small to
    calibrate the membership attack and, for a method that needs one, a ratio whose
    deletion set is empty, before any run is recorded.

    The set sizes do not depend on the seed, so ``base`` serves every seed.
    """
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ConfigError(f"unknown unlearning method(s) {', '.join(unknown)}; "
                          f"available: {', '.join(METHODS)}")
    outside = [r for r in ratios if r not in DEL_RATIO_RANGE]
    if outside:
        raise ConfigError(f"deletion ratios must lie in 1..10, got {', '.join(map(str, outside))}")
    split = generate(base.data_spec())
    if len(split.test_y) < MIN_TEST_FOR_MIA:
        raise InsufficientDataError(f"need >= {MIN_TEST_FOR_MIA} test samples to calibrate "
                                    f"the attack, got {len(split.test_y)}")
    needy = [m for m in methods if m != "exact_retrain"]
    if needy:
        for ratio in ratios:
            if split.with_deletion(ratio).del_indices.size == 0:
                raise ConfigError(f"{needy[0]} requires a deletion set, but del_ratio {ratio} "
                                  f"deletes none of {split.num_train} training rows")


def cmd_unlearn(args) -> int:
    root = _artifacts_root(args)
    cfg = _resolve_config(args)
    _check_methods_and_ratios(cfg, [cfg.unlearn_method], [cfg.del_ratio])
    key = config_hash(cfg)
    run_dir, done = _locate(root, "unlearn", key)
    if done and not args.force:
        print(f"run {key} already complete at {run_dir} (use --force to redo)")
    else:
        _run_or_raise(root, "unlearn", [[(key, cfg)]], args.no_budget)
        print(f"run {key} complete -> {run_dir}")
    print((run_dir / "report.json").read_text())
    return 0


# -------------------------------------------------------------------- evaluate

def cmd_evaluate(args) -> int:
    root = _artifacts_root(args)
    if args.run:
        run_dir = Path(args.run)
        cfg = UnlearnConfig.load(run_dir / "config.json")
        model = Model.load(run_dir / "model_prime.json")
        stored = EvalReport.load(run_dir / "report.json")
        seconds, flos = stored.seconds, stored.flos
    else:
        cfg = _resolve_config(args)
        model, meta = _load_checkpoint(root, cfg)
        seconds, flos = meta["train_seconds"], meta.get("flos", 0.0)
    split = generate(cfg.data_spec()).with_deletion(cfg.del_ratio)
    report = build_report(split, split_logits(model, split), seconds=seconds, flos=flos,
                          config_hash=config_hash(cfg), seed=cfg.seed)
    print(report.to_json())
    return 0


# ----------------------------------------------------------------------- sweep

def _parse_grid_field(text: str, kind=int) -> list:
    """Parse a comma list; with ``kind=int`` an item may be an ascending range ``lo-hi``."""
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        ranged = "-" in part and kind is int and not part.startswith("-")
        try:
            items = [int(end) for end in part.split("-", 1)] if ranged else [kind(part)]
        except ValueError as exc:
            raise ConfigError(f"bad grid entry {part!r} in {text!r}") from exc
        if ranged:
            lo, hi = items
            if hi < lo:
                raise ConfigError(f"range {part!r} in {text!r} runs backwards")
            items = range(lo, hi + 1)
        out.extend(items)
    if not out:
        raise ConfigError(f"empty grid field {text!r}")
    return out


def cmd_sweep(args) -> int:
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    root = _artifacts_root(args)
    base = _resolve_config(args)
    methods = _parse_grid_field(args.methods, str)
    ratios = _parse_grid_field(args.ratios, int)
    _check_methods_and_ratios(base, methods, ratios)
    seeds = _parse_grid_field(args.seeds, int)

    grid: dict[str, UnlearnConfig] = {}  # config_hash -> config: each run's one hash
    for method in methods:
        for ratio in ratios:
            for seed in seeds:
                cfg = dataclasses.replace(base, unlearn_method=method,
                                          del_ratio=ratio, seed=seed)
                key = config_hash(cfg)
                if key in grid:
                    print(f"warning: duplicate grid entry {method}/r{ratio}/s{seed}, skipping")
                    continue
                grid[key] = cfg
    print(f"sweep: {len(grid)} runs ({len(methods)} methods x {len(ratios)} "
          f"ratios x {len(seeds)} seeds)")

    # Originals are shared across methods and ratios: train each one missing first, in this
    # process. If any fails, the sweep ends with its error before any run is recorded.
    originals = {train_hash(cfg): cfg for cfg in (dataclasses.replace(base, seed=seed)
                                                  for seed in seeds)}
    _run_or_raise(root, "train", [[(key, cfg)] for key, cfg in originals.items()
                                  if not _locate(root, "train", key)[1]])

    # resume: never redo a completed run
    pending = {key: cfg for key, cfg in grid.items()
               if not _locate(root, "unlearn", key)[1]}
    print(f"sweep: {len(grid) - len(pending)} already done, {len(pending)} to run")

    # A job is one stack: up to MAX_STACK consecutive runs of one method, ratio-major so
    # a ratio's runs are adjacent. A step stacks no more, so a wider job only holds memory.
    by_method: dict[str, list[str]] = {}
    for key, cfg in pending.items():
        by_method.setdefault(cfg.unlearn_method, []).append(key)
    jobs = [[(key, pending[key]) for key in keys[lo:lo + MAX_STACK]]
            for keys in by_method.values() for lo in range(0, len(keys), MAX_STACK)]
    failures = 0
    for job, outcomes in _run_jobs(root, "unlearn", jobs, no_budget=args.no_budget,
                                   workers=args.workers, loud=True):
        for (_, cfg), outcome in zip(job, outcomes):
            status = "failed" if isinstance(outcome, Exception) else "done"
            print(f"  {cfg.unlearn_method} r={cfg.del_ratio} s={cfg.seed}: {status}")
            failures += status == "failed"
    print(f"sweep finished: {len(pending) - failures} ok, {failures} failed; "
          f"each run's status.json under {root}")
    return 0 if failures == 0 else 2


# ---------------------------------------------------------------------- report

def cmd_report(args) -> int:
    root = _artifacts_root(args)
    records = collect_runs(args.run_dirs or sorted((root / "runs").glob("*")))
    if not records:
        raise ConfigError("no completed runs found (need report.json + config.json)")
    out_dir = Path(args.out) if args.out else root / "reports"
    paths = write_leaderboard(records, out_dir)
    for name, path in paths.items():
        print(f"{name}: {path}")
    return 0


# ------------------------------------------------------------------------ main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unlearnkit",
        description="Machine unlearning experiments on synthetic data: train, "
                    "unlearn, evaluate, sweep, report.")
    parser.add_argument("--artifacts", default=None,
                        help=f"artifact root (default: ${ENV_ARTIFACTS} or ./artifacts)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train and checkpoint an original model")
    _add_config_flags(p_train)
    p_train.add_argument("--force", action="store_true")
    p_train.set_defaults(func=cmd_train)

    p_unlearn = sub.add_parser("unlearn", help="run one unlearning + evaluation")
    _add_config_flags(p_unlearn)
    p_unlearn.add_argument("--force", action="store_true")
    p_unlearn.add_argument("--no-budget", action="store_true",
                           help="do not cap unlearning at the recorded training time")
    p_unlearn.set_defaults(func=cmd_unlearn)

    p_eval = sub.add_parser("evaluate", help="recompute the metric bundle")
    _add_config_flags(p_eval)
    p_eval.add_argument("--run", help="existing run directory to evaluate")
    p_eval.set_defaults(func=cmd_evaluate)

    p_sweep = sub.add_parser("sweep", help="methods x ratios x seeds grid")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--methods", required=True,
                         help="comma-separated method names")
    p_sweep.add_argument("--ratios", default="1-10",
                         help="deletion ratios, e.g. 1-10 or 1,5,10")
    p_sweep.add_argument("--seeds", default="0-4", help="seeds, e.g. 0-4 or 0,7")
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.add_argument("--no-budget", action="store_true")
    p_sweep.set_defaults(func=cmd_sweep)

    p_report = sub.add_parser("report", help="aggregate runs into a leaderboard")
    p_report.add_argument("run_dirs", nargs="*", help="run directories (default: all)")
    p_report.add_argument("--out", help="output directory (default: <artifacts>/reports)")
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help and 2 on a usage error
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except (ConfigError, ShapeError, DomainError, InsufficientDataError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except UnlearnkitError as exc:
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
