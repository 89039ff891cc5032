"""Leaderboard generation: aggregate run reports into Markdown, CSV, and
plot-ready curve files.

Each table has one row per method and recipe (``_recipe``): runs of one method
under different recipes are labelled apart, never averaged together.

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

    def composite(self) -> float | None:
        r = self.report
        if r.get("acc_f") is None or r.get("mia_success") is None:
            return None
        chance = chance_level(self.config.data_spec().num_classes)
        return (r["acc_test"] + r["acc_r"] + (100.0 - abs(r["acc_f"] - chance))
                + (100.0 - r["mia_success"])) / 4.0

    def value(self, name: str) -> float | None:
        """The report's metric ``name``, or the composite."""
        return self.composite() if name == "composite" else self.report[name]


def collect_runs(run_dirs) -> list[RunRecord]:
    """The runs with both a report and a config; a malformed one is a ConfigError naming it."""
    records = []
    for directory in map(Path, run_dirs):
        report_path, config_path = directory / "report.json", directory / "config.json"
        if report_path.exists() and config_path.exists():
            records.append(RunRecord(directory, UnlearnConfig.load(config_path),
                                     EvalReport.load(report_path).to_dict()))
    return records


def _base_data_name(config: UnlearnConfig) -> str:
    """The dataset's name without its seed: runs of every seed share it."""
    return format_data_name(config.data_spec()).rsplit(":seed", 1)[0]


# The resolved config keys that vary between the runs of one recipe.
_NOT_RECIPE = ("seed", "del_ratio", "budget_seconds", "unlearn_method")


def _recipe(config: UnlearnConfig) -> dict:
    """A run's recipe: its resolved config but ``_NOT_RECIPE``, with its data name's
    seed removed. Every grouping of runs in a report keys on it."""
    recipe = {**config.resolved_dict(), "data_name": _base_data_name(config)}
    return {k: v for k, v in recipe.items() if k not in _NOT_RECIPE}


def _labels(records: list[RunRecord]) -> list[str]:
    """Each run's row label: its method and, where that method's runs have more than
    one recipe, the recipe keys that differ between them, e.g. ``rand_label[curriculum=True]``."""
    runs = [(r.config.unlearn_method, _recipe(r.config)) for r in records]
    ref = dict(runs)  # one run's recipe per method
    differ = {(m, k) for m, recipe in runs for k, v in recipe.items() if v != ref[m][k]}
    names = [[f"{k}={v}" for k, v in recipe.items() if (m, k) in differ] for m, recipe in runs]
    return [f"{m}[{','.join(n)}]" if n else m for (m, _), n in zip(runs, names)]


# Each table's columns, declared once. The leaderboard and the ratio curves
# average METRICS; the scaling curves copy trace rows.
METRICS = ("acc_test", "acc_f", "acc_r", "mia_success")
LEADERBOARD_FIELDS = ("method", "runs", *METRICS, "seconds", "composite")
RATIO_FIELDS = ("method", "del_ratio", "runs", *METRICS)
SCALING_FIELDS = ("method", "seed", "del_ratio", "epoch", "flos", "acc_f")
# Markdown digits of each averaged leaderboard column; the others print as they are.
_DIGITS = {**dict.fromkeys(METRICS, 1), "seconds": 3, "composite": 2}


def _mean(values) -> float | None:
    values = [v for v in values if v is not None]
    return sum(values) / len(values) if values else None


def _group_means(records: list[RunRecord], keys, names) -> dict:
    """``{key: {"runs": n, name: mean, ...}}`` over the runs sharing each key, where
    ``keys`` gives each record's key in order."""
    groups: dict = {}
    for key, record in zip(keys, records):
        groups.setdefault(key, []).append(record)
    return {k: {"runs": len(runs), **{name: _mean(r.value(name) for r in runs) for name in names}}
            for k, runs in groups.items()}


def _table(fields, rows) -> list:
    """The CSV rows of ``rows``: the header, then each row's ``fields`` (None writes empty)."""
    return [fields] + [[row[name] for name in fields] for row in rows]


def _fmt(v, digits) -> str:
    return "-" if v is None else f"{v:.{digits}f}"


def _md_row(cells) -> str:
    return "| " + " | ".join(map(str, cells)) + " |"


def aggregate(records: list[RunRecord]) -> list[dict]:
    """Averages per method and recipe (``_labels``), ranked by composite (undefined
    composites last)."""
    if not records:
        raise ConfigError("no completed runs to report on")
    datasets = sorted({_base_data_name(r.config) for r in records})
    if len(datasets) > 1:
        raise ConfigError("runs mix dataset specs, refusing to average them: "
                          + "; ".join(datasets))
    groups = _group_means(records, _labels(records), LEADERBOARD_FIELDS[2:])
    rows = [{"method": label, **means} for label, means in groups.items()]
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
        _md_row(("rank", *LEADERBOARD_FIELDS)),
        "|---:|---|" + "---:|" * (len(LEADERBOARD_FIELDS) - 1),  # only the method aligns left
    ]
    for i, row in enumerate(rows, start=1):
        lines.append(_md_row([i] + [_fmt(row[k], _DIGITS[k]) if k in _DIGITS else row[k]
                                    for k in LEADERBOARD_FIELDS]))
    lines += [
        "",
        "## Average unlearning time",
        "",
        "| Method | Unlearning time (hrs) |",
        "|---|---:|",
    ]
    for row in rows:
        hours = None if row["seconds"] is None else row["seconds"] / 3600.0
        lines.append(_md_row((row["method"], _fmt(hours, 6))))
    lines.append("")
    return "\n".join(lines)


def _scaling_rows(records: list[RunRecord]) -> list[dict]:
    """Every trace row with a forget accuracy, with its run's label, seed and ratio."""
    rows = []
    for record, label in zip(records, _labels(records)):
        trace_path = record.directory / "trace.csv"
        if trace_path.exists():
            with open(trace_path, newline="") as tf:
                rows += ({**row, "method": label, "seed": record.config.seed,
                          "del_ratio": record.config.del_ratio}
                         for row in csv.DictReader(tf) if row["acc_f"] != "")
    return rows


def write_leaderboard(records: list[RunRecord], out_dir) -> dict[str, Path]:
    """Emit leaderboard.md / leaderboard.csv / per-ratio and scaling curve CSVs."""
    out_dir = Path(out_dir)
    rows = aggregate(records)
    paths = {"markdown": out_dir / "leaderboard.md", "csv": out_dir / "leaderboard.csv",
             "ratio_curves": out_dir / "ratio_curves.csv",
             "scaling_curves": out_dir / "scaling_curves.csv"}
    markdown = leaderboard_markdown(rows, _base_data_name(records[0].config))
    write_atomic(paths["markdown"], lambda fh: fh.write(markdown))
    write_csv(paths["csv"], _table(LEADERBOARD_FIELDS, rows))
    ratios = _group_means(records, [(label, r.config.del_ratio) for label, r
                                    in zip(_labels(records), records)], METRICS)
    write_csv(paths["ratio_curves"], _table(RATIO_FIELDS, [
        {"method": label, "del_ratio": ratio, **means}
        for (label, ratio), means in sorted(ratios.items())]))
    write_csv(paths["scaling_curves"], _table(SCALING_FIELDS, _scaling_rows(records)))
    return paths
