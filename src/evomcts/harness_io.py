"""Output files for a batch: runs.csv, summary.csv, histograms, config echo.

Files contain no timestamps and rows are written in a canonical order, so a
repeated batch with the same config is byte-identical.
"""

from __future__ import annotations

import csv
import os
from dataclasses import asdict, fields
from typing import Sequence

from .expr import to_text
from .metrics import STAGE_LABELS, RunRecord, SummaryRow

RUNS_COLUMNS = tuple(f.name for f in fields(RunRecord) if f.name != "histograms")


def _writer(fh):
    return csv.writer(fh, lineterminator="\n")


def write_csvs(out_dir: str, records: Sequence[RunRecord], summary: Sequence[SummaryRow]):
    write_runs(out_dir, records)

    with open(os.path.join(out_dir, "summary.csv"), "w", newline="") as fh:
        w = _writer(fh)
        w.writerow(("agent", "function", "metric", "mean", "std", "n"))
        for row in summary:
            w.writerow((row.agent, row.function, row.metric, row.mean, row.std, row.n))

    _write_histograms(out_dir, records)


def write_runs(out_dir: str, records: Sequence[RunRecord]):
    """runs.csv alone; a failed batch writes it for the runs that finished."""
    with open(os.path.join(out_dir, "runs.csv"), "w", newline="") as fh:
        w = _writer(fh)
        w.writerow(RUNS_COLUMNS)
        for r in records:
            w.writerow([getattr(r, col) for col in RUNS_COLUMNS])


def _bin_rows(values: Sequence) -> list:
    """(bin_index, bin_left, value) per bin of an even split of [0, 1]."""
    return [(i, i / len(values), v) for i, v in enumerate(values)]


def _write_histograms(out_dir: str, records: Sequence[RunRecord]):
    with open(os.path.join(out_dir, "histograms.csv"), "w", newline="") as fh:
        w = _writer(fh)
        w.writerow(("agent", "function", "seed", "stage", "bin_index", "bin_left", "count"))
        for r in records:
            for stage, counts in zip(STAGE_LABELS, r.histograms):
                head = (r.agent, r.function, r.seed, stage)
                w.writerows(head + row for row in _bin_rows(counts))

    # cell means of the same histograms, averaged over seeds
    cells: dict = {}
    for r in records:
        cells.setdefault((r.agent, r.function), []).append(r)
    with open(os.path.join(out_dir, "histograms_mean.csv"), "w", newline="") as fh:
        w = _writer(fh)
        w.writerow(("agent", "function", "stage", "bin_index", "bin_left", "mean_count"))
        for (agent, function) in sorted(cells):
            cell = cells[(agent, function)]
            for si, stage in enumerate(STAGE_LABELS):
                means = [sum(col) / len(cell) for col in zip(*(r.histograms[si] for r in cell))]
                w.writerows((agent, function, stage) + row for row in _bin_rows(means))


def write_config_echo(cfg) -> None:
    """Flat key = value listing of the resolved config, sorted by key."""
    items = {
        "agents": ",".join(a.label for a in cfg.agents),
        "functions": ",".join(f.value for f in cfg.functions),
        "runs": cfg.runs,
        "base_seed": cfg.base_seed,
        "bins": cfg.bins,
        "out": cfg.out_dir,
        "jobs": cfg.jobs,
        "dump_trees": cfg.dump_trees,
        "uct_iterations": cfg.uct_iterations,
        "policy_expr": next((to_text(a.policy) for a in cfg.agents if a.kind == "expr"), ""),
        "branching": cfg.fop.branching,
        "threshold": cfg.fop.threshold,
        **{f"evo_{k}": v for k, v in asdict(cfg.evo).items()},
    }
    with open(os.path.join(cfg.out_dir, "config.echo"), "w") as fh:
        for k in sorted(items):
            fh.write(f"{k} = {items[k]}\n")
