#!/usr/bin/env python3
"""Charging-technology comparison: cable vs reverse vs distance charging.

Runs the three bundled 30-minute scenarios (consumer at 40%, provider at
100%, 1 s recording interval), writes per-run traces and the comparison
CSVs, and prints the energy-loss table. Expected outcome under the default
parameters: reverse charging shows the highest energy loss.

Usage: python scripts/experiment_technologies.py [--out OUT_DIR]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from energyshare.report import compare, write_run_artifacts
from energyshare.runner import run_scenario
from energyshare.scenario import parse_scenario

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
RUNS = ["exp1_cable", "exp1_reverse", "exp1_wireless"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("out/experiment_technologies"))
    args = parser.parse_args()

    run_dirs = []
    for name in RUNS:
        scenario = parse_scenario(SCENARIO_DIR / f"{name}.cfg")
        result = run_scenario(scenario)
        run_dir = write_run_artifacts(result, args.out / name)
        run_dirs.append(run_dir)
        metrics = result.dataset.metrics
        print(
            f"{scenario.tech_params.technology.value:18s} {result.outcome:10s} "
            f"loss={metrics.provider_loss_mah:8.2f} mAh  "
            f"gain={metrics.consumer_gain_mah:8.2f} mAh  "
            f"energy_loss={metrics.energy_loss_mah:8.2f} mAh"
        )

    report = compare(run_dirs, args.out / "comparison.csv")
    worst = report.max_energy_loss_run()
    print(f"\nhighest energy loss: {worst.technology} ({worst.energy_loss_mah:.2f} mAh)")
    print(f"summary: {report.summary_path}")
    print(f"level curves for plotting: {report.curves_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
