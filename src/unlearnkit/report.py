"""Leaderboard generation: aggregate run reports into Markdown, CSV, and
plot-ready curve files.

Ranking uses a documented composite of the four headline metrics:

    composite = (acc_test + acc_r + (100 - |acc_f - chance|) + (100 - mia)) / 4

where chance = 100 / num_classes. Runs with an undefined component get no
composite and sort last; undefined metrics are skipped in averages, never
counted as zero.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

from .config import UnlearnConfig
from .data import format_data_name
from .errors import ConfigError
from .fileio import write_atomic, write_csv
from .metrics import EvalReport, chance_level

COMPOSITE_DOC = ("composite = (acc_test + acc_r + (100 - |acc_f - chance|) "
                 "+ (100 - mia_success)) / 4, chance = 100 / num_classes")


@dataclass
class RunRecord:
    directory: Path
    config: UnlearnConfig
    report: dict

    @property
    def method(self) -> str:
        return self.config.unlearn_method

    def composite(self) -> float | None:
        r = self.report
        if r.get("acc_f") is None or r.get("mia_success") is None:
            return None
        chance = chance_level(self.config.data_spec().num_classes)
        return (r["acc_test"] + r["acc_r"] + (100.0 - abs(r["acc_f"] - chance))
                + (100.0 - r["mia_success"])) / 4.0


def collect_runs(run_dirs) -> list[RunRecord]:
    """The runs with both a report and a config; a malformed one is a ConfigError naming it."""
    records = []
    for directory in run_dirs:
        directory = Path(directory)
        report_path = directory / "report.json"
        config_path = directory / "config.json"
        if not report_path.exists() or not config_path.exists():
            continue
        records.append(RunRecord(directory, UnlearnConfig.load(config_path),
                                 EvalReport.load(report_path).to_dict()))
    return records


def _base_data_name(config: UnlearnConfig) -> str:
    """The dataset's name without its seed: runs of every seed share it."""
    return format_data_name(config.data_spec()).rsplit(":seed", 1)[0]


def _mean(values) -> float | None:
    values = [v for v in values if v is not None]
    return sum(values) / len(values) if values else None


def _fmt(v, digits=1) -> str:
    return "-" if v is None else f"{v:.{digits}f}"


def aggregate(records: list[RunRecord]) -> list[dict]:
    """Per-method averages, ranked by composite (undefined composites last)."""
    if not records:
        raise ConfigError("no completed runs to report on")
    datasets = sorted({_base_data_name(r.config) for r in records})
    if len(datasets) > 1:
        raise ConfigError("runs mix dataset specs, refusing to average them: "
                          + "; ".join(datasets))
    by_method: dict[str, list[RunRecord]] = {}
    for record in records:
        by_method.setdefault(record.method, []).append(record)
    rows = []
    for method, runs in by_method.items():
        rows.append({
            "method": method,
            "runs": len(runs),
            "acc_test": _mean(r.report["acc_test"] for r in runs),
            "acc_f": _mean(r.report["acc_f"] for r in runs),
            "acc_r": _mean(r.report["acc_r"] for r in runs),
            "mia_success": _mean(r.report["mia_success"] for r in runs),
            "seconds": _mean(r.report["seconds"] for r in runs),
            "composite": _mean(r.composite() for r in runs),
        })
    rows.sort(key=lambda row: (row["composite"] is None,
                               -(row["composite"] or 0.0), row["method"]))
    return rows


def leaderboard_markdown(rows: list[dict], dataset: str) -> str:
    lines = [
        "# Unlearning leaderboard",
        "",
        f"Dataset: `{dataset}`",
        "",
        f"Ranking: {COMPOSITE_DOC}",
        "",
        "| rank | method | runs | acc_test | acc_f | acc_r | mia_success | seconds | composite |",
        "|---:|---|---:|---:|---:|---:|---:|---:|---:|",
    ]
    for i, row in enumerate(rows, start=1):
        lines.append(
            f"| {i} | {row['method']} | {row['runs']} | {_fmt(row['acc_test'])} "
            f"| {_fmt(row['acc_f'])} | {_fmt(row['acc_r'])} "
            f"| {_fmt(row['mia_success'])} | {_fmt(row['seconds'], 3)} "
            f"| {_fmt(row['composite'], 2)} |")
    lines += [
        "",
        "## Average unlearning time",
        "",
        "| Method | Unlearning time (hrs) |",
        "|---|---:|",
    ]
    for row in rows:
        hours = None if row["seconds"] is None else row["seconds"] / 3600.0
        lines.append(f"| {row['method']} | {_fmt(hours, 6)} |")
    lines.append("")
    return "\n".join(lines)


def write_leaderboard(records: list[RunRecord], out_dir) -> dict[str, Path]:
    """Emit leaderboard.md / leaderboard.csv / per-ratio and scaling curve CSVs."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = aggregate(records)
    dataset = _base_data_name(records[0].config)

    md_path = out_dir / "leaderboard.md"
    write_atomic(md_path, leaderboard_markdown(rows, dataset))

    csv_path = out_dir / "leaderboard.csv"
    fields = ["method", "runs", "acc_test", "acc_f", "acc_r", "mia_success",
              "seconds", "composite"]
    write_csv(csv_path, [fields] + [["" if row[k] is None else row[k] for k in fields]
                                    for row in rows])

    curves_path = out_dir / "ratio_curves.csv"
    _write_ratio_curves(records, curves_path)

    scaling_path = out_dir / "scaling_curves.csv"
    _write_scaling_curves(records, scaling_path)

    return {"markdown": md_path, "csv": csv_path, "ratio_curves": curves_path,
            "scaling_curves": scaling_path}


def _write_ratio_curves(records: list[RunRecord], path: Path) -> None:
    grouped: dict[tuple[str, int], list[RunRecord]] = {}
    for record in records:
        grouped.setdefault((record.method, record.config.del_ratio), []).append(record)
    lines = [["method", "del_ratio", "runs", "acc_test", "acc_f", "acc_r", "mia_success"]]
    for (method, ratio), runs in sorted(grouped.items()):
        lines.append([
            method, ratio, len(runs),
            _mean(r.report["acc_test"] for r in runs),
            _mean(r.report["acc_f"] for r in runs),
            _mean(r.report["acc_r"] for r in runs),
            _mean(r.report["mia_success"] for r in runs),
        ])
    write_csv(path, lines)


def _write_scaling_curves(records: list[RunRecord], path: Path) -> None:
    lines = [["method", "seed", "del_ratio", "epoch", "flos", "acc_f"]]
    for record in records:
        trace_path = record.directory / "trace.csv"
        if not trace_path.exists():
            continue
        with open(trace_path, newline="") as tf:
            for row in csv.DictReader(tf):
                if row["acc_f"] == "":
                    continue
                lines.append([record.method, record.config.seed, record.config.del_ratio,
                              row["epoch"], row["flos"], row["acc_f"]])
    write_csv(path, lines)
