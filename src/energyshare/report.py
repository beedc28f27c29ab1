"""Run artifacts on disk and multi-run comparison reports.

A run directory holds the session dataset as the edge stores it
(``meta.txt`` and ``trace.csv``, the bytes ``EdgeStore.upload`` writes)
and ``run.txt``, the facts of the run that no dataset holds. ``compare``
reads several run directories recorded at the same interval and writes
two CSVs: a summary table (one row per run) and per-tick battery-level
curves suitable for external plotting.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from .edge import META_FILENAME, TRACE_FILENAME, SessionDataset, ValidationFailed
from .edge import decode_dataset, encode_meta, line_blocks
from .errors import EnergyShareError
from .monitor import MonitorRecord, trace_csv_blocks
from .runner import RunResult
from .util import check_id, fmt_float, format_meta, parse_finite, parse_meta

RUN_INFO_FILENAME = "run.txt"

COMPARISON_HEADER = (
    "run_id,technology,start_level_pct,duration_s,"
    "provider_loss_mah,consumer_gain_mah,energy_loss_mah,terminal_reason"
)


class IncompatibleRuns(EnergyShareError):
    """The runs cannot be compared (fewer than two, a repeated id, differing intervals, or a malformed run)."""


def write_run_artifacts(result: RunResult, out_dir: Path | str) -> Path:
    """Persist one run's dataset and summary; returns the run directory."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    info_path = out_dir / RUN_INFO_FILENAME
    info_path.unlink(missing_ok=True)  # first: no run's facts stand beside a dataset half written
    dataset_files = (out_dir / META_FILENAME, out_dir / TRACE_FILENAME)
    if result.dataset is None:
        for path in dataset_files:
            path.unlink(missing_ok=True)
    else:
        texts = ([encode_meta(result.dataset)], trace_csv_blocks(result.dataset.records))
        for path, blocks in zip(dataset_files, texts):
            with path.open("wb") as file:  # the trace a block of pairs at a time, never whole
                file.writelines(block.encode("utf-8") for block in blocks)
    scenario = result.scenario
    reason = result.terminal_reason.value if result.terminal_reason else result.outcome
    info = {
        "run_id": scenario.run_id,
        "outcome": result.outcome,
        "terminal_reason": reason,
        "consumer_start_level_pct": fmt_float(scenario.requesting_consumer().start_level_pct),
    }
    staged = out_dir / f"+{RUN_INFO_FILENAME}"
    staged.write_bytes(format_meta(info).encode("utf-8"))
    os.replace(staged, info_path)  # last and whole: load_run reads one run, or refuses
    return out_dir


@dataclass(frozen=True)
class LoadedRun:
    """One run directory read back: the run's id, its consumer's start level, its dataset."""

    run_id: str
    start_level_pct: float
    dataset: SessionDataset

    @property
    def technology(self) -> str:
        return self.dataset.tech_params.technology.value

    @property
    def energy_loss_mah(self) -> float:
        return self.dataset.metrics.energy_loss_mah

    @property
    def pairs(self) -> tuple[tuple[MonitorRecord, MonitorRecord], ...]:
        return self.dataset.records


def load_run(run_dir: Path | str) -> LoadedRun:
    """A run directory read back through the edge's dataset codec and its gate.

    The trace is read from its open file a block of lines at a time, never held as one text.
    """
    run_dir = Path(run_dir)
    try:
        info, meta = ((run_dir / name).read_text(encoding="utf-8")
                      for name in (RUN_INFO_FILENAME, META_FILENAME))
        fields = parse_meta(info)
        dataset = decode_dataset(meta, line_blocks(run_dir / TRACE_FILENAME))
        start_level_pct = parse_finite(fields["consumer_start_level_pct"])
        return LoadedRun(check_id(fields["run_id"], "run_id"), start_level_pct, dataset)
    except FileNotFoundError as exc:
        raise IncompatibleRuns(f"{run_dir} holds no run with a dataset: {exc}") from exc
    except (KeyError, ValueError, ValidationFailed) as exc:
        raise IncompatibleRuns(f"{run_dir} holds a malformed run: {exc!r}") from exc


@dataclass
class ComparisonReport:
    runs: list[LoadedRun]
    summary_path: Path
    curves_path: Path

    def max_energy_loss_run(self) -> LoadedRun:
        return max(self.runs, key=lambda r: r.energy_loss_mah)


def curves_path_for(summary_path: Path) -> Path:
    return summary_path.with_name(summary_path.stem + "_curves.csv")


def compare(run_dirs: list[Path | str], out_csv: Path | str) -> ComparisonReport:
    """Aligned comparison of several runs recorded at the same interval."""
    if len(run_dirs) < 2:
        raise IncompatibleRuns("need at least two runs to compare")
    runs = [load_run(d) for d in run_dirs]
    if len({r.run_id for r in runs}) != len(runs):
        raise IncompatibleRuns(f"runs share a run id: {sorted(r.run_id for r in runs)}")
    intervals = {r.dataset.interval_s for r in runs}
    if len(intervals) != 1:
        raise IncompatibleRuns(f"runs use different recording intervals: {sorted(intervals)}")
    interval_s = intervals.pop()

    out_csv = Path(out_csv)
    out_csv.parent.mkdir(parents=True, exist_ok=True)
    summary_lines = [COMPARISON_HEADER]
    for r in runs:
        m = r.dataset.metrics
        summary_lines.append(",".join((
            r.run_id, r.technology, fmt_float(r.start_level_pct), fmt_float(m.duration_s),
            fmt_float(m.provider_loss_mah), fmt_float(m.consumer_gain_mah),
            fmt_float(r.energy_loss_mah), r.dataset.terminal_reason.value,
        )))
    out_csv.write_bytes(("\n".join(summary_lines) + "\n").encode("utf-8"))

    curves_path = curves_path_for(out_csv)
    header = ["tick_index", "elapsed_s"]
    for r in runs:
        header.append(f"{r.run_id}_provider_level_pct")
        header.append(f"{r.run_id}_consumer_level_pct")
    max_ticks = max(len(r.pairs) for r in runs)
    curve_lines = [",".join(header)]
    for tick in range(max_ticks):
        row = [str(tick), fmt_float(tick * interval_s)]
        for r in runs:
            if tick < len(r.pairs):
                provider_record, consumer_record = r.pairs[tick]
                row.append(fmt_float(provider_record.battery_level_pct))
                row.append(fmt_float(consumer_record.battery_level_pct))
            else:
                row.extend(("", ""))
        curve_lines.append(",".join(row))
    curves_path.write_bytes(("\n".join(curve_lines) + "\n").encode("utf-8"))

    return ComparisonReport(runs=runs, summary_path=out_csv, curves_path=curves_path)
