#!/usr/bin/env python3
"""The platform's two charging comparisons, run on the bundled scenarios.

* ``technologies``: cable vs reverse vs distance charging (consumer at
  40%, provider at 100%, 30-minute duration request, 1 s recording
  interval). Expected under the default parameters: reverse charging
  shows the highest energy loss.
* ``start-levels``: distance charging with the consumer at 10% / 40% /
  70%, reusing the same 30-minute duration request, so the start level is
  the only input that varies. Expected under the default parameters: the
  charging speed below the taper zone does not depend on the start level.

Each writes per-run traces and the comparison CSVs, and prints one line a
run and the run with the highest energy loss.

Usage: python scripts/experiments.py {technologies,start-levels} [--out OUT_DIR]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from energyshare.report import compare, write_run_artifacts
from energyshare.runner import run_scenario
from energyshare.scenario import parse_scenario

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def _technology_line(scenario, outcome, metrics) -> str:
    return (
        f"{scenario.tech_params.technology.value:18s} {outcome:10s} "
        f"loss={metrics.provider_loss_mah:8.2f} mAh  "
        f"gain={metrics.consumer_gain_mah:8.2f} mAh  "
        f"energy_loss={metrics.energy_loss_mah:8.2f} mAh"
    )


def _start_level_line(scenario, outcome, metrics) -> str:
    gain_per_minute = metrics.consumer_gain_mah / (metrics.duration_s / 60.0)
    return (
        f"start {scenario.requesting_consumer().start_level_pct:5.1f}%  {outcome:10s} "
        f"gain={metrics.consumer_gain_mah:8.2f} mAh  "
        f"gain/minute={gain_per_minute:7.3f} mAh"
    )


# experiment -> (its bundled scenarios, in order; the line printed for each run)
EXPERIMENTS = {
    "technologies": (["exp1_cable", "exp1_reverse", "exp1_wireless"], _technology_line),
    "start-levels": (["exp2_level10", "exp2_level40", "exp2_level70"], _start_level_line),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--out", type=Path, default=None,
                        help="default: out/experiment_technologies or out/experiment_start_levels")
    args = parser.parse_args()
    runs, run_line = EXPERIMENTS[args.experiment]
    out = args.out or Path("out") / f"experiment_{args.experiment.replace('-', '_')}"

    run_dirs = []
    for name in runs:
        scenario = parse_scenario(SCENARIO_DIR / f"{name}.cfg")
        result = run_scenario(scenario)
        run_dirs.append(write_run_artifacts(result, out / name))
        print(run_line(scenario, result.outcome, result.dataset.metrics))

    report = compare(run_dirs, out / "comparison.csv")
    worst = report.max_energy_loss_run()
    print(f"\nhighest energy loss: {worst.technology} ({worst.energy_loss_mah:.2f} mAh)")
    print(f"summary: {report.summary_path}")
    print(f"level curves for plotting: {report.curves_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
