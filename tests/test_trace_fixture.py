"""Virtual-clock runs pinned to SHA-256 digests of their observable output.

Criterion 10 compares two runs of the same code; this fixture compares
every run with digests recorded from an earlier revision, so a change to
the runtime that reorders deliveries, drop decisions or timer firings
shows up here. It covers every bundled virtual scenario and a seeded
sweep over latency x drop probability with 1-6 providers, some of them
below their accept threshold. At 0.8 s latency a round trip outlasts the
1 s request timeout, so Accept and StartTransfer arrive after the
consumer has moved on to the next provider.

Regenerate the digests only when a trace change is intended:

    PYTHONPATH=src python tests/test_trace_fixture.py > tests/trace_digests.json
"""

import hashlib
import json
import random
import sys
from pathlib import Path

from energyshare.monitor import format_record, trace_csv_text
from energyshare.runner import run_scenario
from energyshare.scenario import Scenario, parse_scenario, parse_scenario_text

HERE = Path(__file__).resolve().parent
SCENARIO_DIR = HERE.parent / "scenarios"
DIGESTS = HERE / "trace_digests.json"

LATENCIES = (0.0, 0.05, 0.4, 0.8)
DROPS = (0.0, 0.05, 0.3)
PER_CELL = 20


def sweep_text(latency: float, drop: float, k: int) -> str:
    rng = random.Random(f"{latency}/{drop}/{k}")
    kind = rng.choice(("duration", "amount"))
    value = rng.choice((3, 8, 20)) if kind == "duration" else rng.choice((0.5, 2.0, 6.0))
    lines = [
        f"scenario.seed = {rng.randrange(1000)}",
        f"monitor.interval_s = {rng.choice((0.5, 1, 2))}",
        f"request.kind = {kind}",
        f"request.value = {value}",
        f"technology.name = {rng.choice(('cable', 'reverse', 'wireless_distance'))}",
        f"transport.latency_s = {latency}",
        f"transport.drop_prob = {drop}",
        f"transport.request_timeout_s = {rng.choice((1, 3))}",
        "device.c1.role = consumer",
        f"device.c1.start_level_pct = {rng.randint(5, 95)}",
        "device.c1.position = 0.0, 0.0",
    ]
    for i in range(rng.randint(1, 6)):
        lines += [
            f"device.p{i}.role = provider",
            f"device.p{i}.start_level_pct = {rng.randint(10, 100)}",
            f"device.p{i}.position = {rng.uniform(-5, 5):.3f}, {rng.uniform(-5, 5):.3f}",
        ]
    return "\n".join(lines) + "\n"


def cases() -> dict[str, Scenario]:
    found = {}
    for path in sorted(SCENARIO_DIR.glob("*.cfg")):
        scenario = parse_scenario(path)
        if scenario.clock_mode == "virtual":
            found[path.name] = scenario
    for latency in LATENCIES:
        for drop in DROPS:
            for k in range(PER_CELL):
                run_id = f"sweep-l{latency}-d{drop}-{k}"
                found[run_id] = parse_scenario_text(sweep_text(latency, drop, k), run_id=run_id)
    return found


def run_digest(scenario: Scenario) -> str:
    result = run_scenario(scenario)
    h = hashlib.sha256()
    reason = result.terminal_reason.value if result.terminal_reason else "-"
    h.update(f"{result.outcome}\n{reason}\n".encode())
    if result.dataset is not None:
        h.update(trace_csv_text(result.dataset.records).encode())
    # the dataset's consumer row of each tick the consumer kept a receipt of
    for tick, _, _ in result.sync_receipts:
        h.update((format_record(result.dataset.records[tick][1]) + "\n").encode())
    for tick, stamp, received in result.sync_receipts:
        h.update(f"{tick},{stamp!r},{received!r}\n".encode())
    return h.hexdigest()


def test_trace_digests_unchanged():
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    actual = {name: run_digest(scenario) for name, scenario in cases().items()}
    assert sorted(actual) == sorted(expected)
    assert [name for name in actual if actual[name] != expected[name]] == []


if __name__ == "__main__":
    json.dump({name: run_digest(s) for name, s in sorted(cases().items())}, sys.stdout, indent=1)
    sys.stdout.write("\n")
