"""Run artifacts on disk and multi-run comparison reports.

A run directory holds ``trace.csv`` (the synchronized record pairs) and
``run.txt`` (key-value run summary). ``compare`` reads several run
directories recorded at the same interval and writes two CSVs: a summary
table (one row per run) and per-tick battery-level curves suitable for
external plotting.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import EnergyShareError
from .monitor import MisalignedTraces, MonitorRecord, pairs_from_records, read_trace_csv
from .monitor import write_trace_csv
from .runner import RunResult
from .util import fmt_float, format_meta, parse_meta

RUN_INFO_FILENAME = "run.txt"
TRACE_FILENAME = "trace.csv"

COMPARISON_HEADER = (
    "run_id,technology,start_level_pct,duration_s,"
    "provider_loss_mah,consumer_gain_mah,energy_loss_mah,terminal_reason"
)


class IncompatibleRuns(EnergyShareError):
    """The runs cannot be compared (fewer than two, or differing intervals)."""


def write_run_artifacts(result: RunResult, out_dir: Path | str) -> Path:
    """Persist one run's trace and summary; returns the run directory."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    scenario = result.scenario
    consumer = scenario.requesting_consumer()
    reason = result.terminal_reason.value if result.terminal_reason else result.outcome

    info = {
        "run_id": scenario.run_id,
        "outcome": result.outcome,
        "terminal_reason": reason,
        "technology": scenario.tech_params.technology.value,
        "interval_s": fmt_float(scenario.interval_s),
        "request_kind": scenario.request_kind.value,
        "request_value": fmt_float(scenario.request_value),
        "consumer_id": consumer.device_id,
        "consumer_start_level_pct": fmt_float(consumer.start_level_pct),
    }
    if result.dataset is not None:
        d = result.dataset
        info |= {
            "session_id": d.session_id,
            "provider_id": d.provider_id,
            "provider_capacity_mah": fmt_float(d.provider_capacity_mah),
            "consumer_capacity_mah": fmt_float(d.consumer_capacity_mah),
            "duration_s": fmt_float(d.metrics.duration_s),
            "provider_loss_mah": fmt_float(d.metrics.provider_loss_mah),
            "consumer_gain_mah": fmt_float(d.metrics.consumer_gain_mah),
            "energy_loss_mah": fmt_float(d.metrics.energy_loss_mah),
            "record_pairs": str(d.record_count),
        }
        write_trace_csv(out_dir / TRACE_FILENAME, d.records)
    else:
        info["record_pairs"] = "0"
    (out_dir / RUN_INFO_FILENAME).write_bytes(format_meta(info).encode("utf-8"))
    return out_dir


@dataclass
class LoadedRun:
    run_id: str
    technology: str
    interval_s: float
    start_level_pct: float
    duration_s: float
    provider_loss_mah: float
    consumer_gain_mah: float
    energy_loss_mah: float
    terminal_reason: str
    pairs: list[tuple[MonitorRecord, MonitorRecord]]


def load_run(run_dir: Path | str) -> LoadedRun:
    run_dir = Path(run_dir)
    info_path = run_dir / RUN_INFO_FILENAME
    if not info_path.exists():
        raise IncompatibleRuns(f"{run_dir} is not a run directory (missing {RUN_INFO_FILENAME})")
    try:
        info = parse_meta(info_path.read_text(encoding="utf-8"))
        if info.get("record_pairs", "0") == "0":
            raise IncompatibleRuns(f"{info.get('run_id', run_dir)} produced no dataset to compare")
        return LoadedRun(
            run_id=info["run_id"],
            technology=info["technology"],
            interval_s=float(info["interval_s"]),
            start_level_pct=float(info["consumer_start_level_pct"]),
            duration_s=float(info["duration_s"]),
            provider_loss_mah=float(info["provider_loss_mah"]),
            consumer_gain_mah=float(info["consumer_gain_mah"]),
            energy_loss_mah=float(info["energy_loss_mah"]),
            terminal_reason=info["terminal_reason"],
            pairs=pairs_from_records(read_trace_csv(run_dir / TRACE_FILENAME)),
        )
    except (KeyError, ValueError, MisalignedTraces) as exc:
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
    intervals = {r.interval_s for r in runs}
    if len(intervals) != 1:
        raise IncompatibleRuns(f"runs use different recording intervals: {sorted(intervals)}")
    interval_s = intervals.pop()

    out_csv = Path(out_csv)
    out_csv.parent.mkdir(parents=True, exist_ok=True)
    summary_lines = [COMPARISON_HEADER]
    for r in runs:
        summary_lines.append(
            ",".join(
                (
                    r.run_id,
                    r.technology,
                    fmt_float(r.start_level_pct),
                    fmt_float(r.duration_s),
                    fmt_float(r.provider_loss_mah),
                    fmt_float(r.consumer_gain_mah),
                    fmt_float(r.energy_loss_mah),
                    r.terminal_reason,
                )
            )
        )
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
