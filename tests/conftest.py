"""Shared builders for scenario-driven tests."""

import pytest

from energyshare import edge
from energyshare.edge import EdgeStore, SessionDataset, decode_dataset
from energyshare.scenario import Scenario, parse_scenario_text


def scenario_text(
    *,
    seed: int = 0,
    clock: str = "virtual",
    interval_s: float = 1.0,
    kind: str = "duration",
    value: float = 1800.0,
    technology: str = "wireless_distance",
    consumer_start_pct: float = 40.0,
    provider_start_pct: float = 100.0,
    extra: str = "",
) -> str:
    return f"""
scenario.seed = {seed}
scenario.clock = {clock}
monitor.interval_s = {interval_s}
request.kind = {kind}
request.value = {value}
technology.name = {technology}
device.p1.role = provider
device.p1.start_level_pct = {provider_start_pct}
device.p1.position = 0.0, 1.0
device.c1.role = consumer
device.c1.start_level_pct = {consumer_start_pct}
device.c1.position = 0.0, 0.0
{extra}
"""


def build_scenario(run_id: str = "test", **kwargs) -> Scenario:
    return parse_scenario_text(scenario_text(**kwargs), run_id=run_id)


@pytest.fixture
def default_scenario() -> Scenario:
    return build_scenario()


def stored_dataset(store: EdgeStore, session_id: str) -> SessionDataset:
    """The dataset a store serves, parsed back from its stored texts."""
    meta, trace = store.get(session_id)
    return decode_dataset(meta, b"".join(trace).decode("utf-8"))


@pytest.fixture
def decodes(monkeypatch):
    """The names of the decoding steps ``edge`` runs, in order: each ``_Gate`` built and each
    call of ``record_blocks``, ``records_from_csv_text`` or ``validate_dataset``."""
    calls = []

    class Counted(edge._Gate):
        def __init__(self, head):
            calls.append("_Gate")
            super().__init__(head)

    def counted(name: str):
        step = getattr(edge, name)

        def call(*args):
            calls.append(name)
            return step(*args)

        return call

    monkeypatch.setattr(edge, "_Gate", Counted)
    for name in ("record_blocks", "records_from_csv_text", "validate_dataset"):
        monkeypatch.setattr(edge, name, counted(name))
    return calls
