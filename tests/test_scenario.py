"""Scenario file parsing, defaults and validation."""

import re
from pathlib import Path

import pytest

from energyshare.battery import Technology
from energyshare.cli import EXIT_RUN_FAILURE, main
from energyshare.protocol import RequestKind
from energyshare.scenario import (
    _DEVICE_TABLE,
    _SCENARIO_TABLE,
    ParseError,
    ValidationError,
    parse_scenario,
    parse_scenario_text,
)

FORMAT_DOC = Path(__file__).resolve().parents[1] / "docs" / "scenario-format.md"

MINIMAL = """
monitor.interval_s = 1
request.kind = duration
request.value = 1800
device.p1.role = provider
device.c1.role = consumer
"""


def test_minimal_file_fills_reference_defaults():
    scenario = parse_scenario_text(MINIMAL, run_id="minimal")
    assert scenario.run_id == "minimal"
    assert scenario.seed == 0
    assert scenario.clock_mode == "virtual"
    assert scenario.interval_s == 1.0
    assert scenario.request_kind is RequestKind.DURATION
    assert scenario.request_value == 1800.0
    assert scenario.tech_params.technology is Technology.WIRELESS_DISTANCE
    assert scenario.tech_params.efficiency == 0.80
    assert scenario.tech_params.transfer_rate_ma == 1200.0
    assert scenario.tech_params.distance_m == 0.02
    provider = scenario.providers()[0]
    consumer = scenario.requesting_consumer()
    assert provider.start_level_pct == 100.0
    assert provider.capacity_mah == 4080.0
    assert provider.baseline_ma == 40.0
    assert provider.accept_threshold_pct == 30.0
    assert consumer.start_level_pct == 40.0
    assert consumer.capacity_mah == 2915.0
    assert scenario.request_consumer_id == "c1"


def test_parse_from_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(MINIMAL, encoding="utf-8")
    scenario = parse_scenario(path)
    assert scenario.run_id == "exp"


def test_overrides_applied():
    text = MINIMAL + """
scenario.seed = 9
technology.name = cable
technology.efficiency = 0.5
transport.latency_s = 0.1
device.c1.start_level_pct = 10
device.c1.position = 1.5, -2.0
"""
    scenario = parse_scenario_text(text)
    assert scenario.seed == 9
    assert scenario.tech_params.technology is Technology.CABLE
    assert scenario.tech_params.efficiency == 0.5
    assert scenario.latency_s == 0.1
    consumer = scenario.requesting_consumer()
    assert consumer.start_level_pct == 10.0
    assert consumer.position == (1.5, -2.0)


def test_out_of_range_start_level_rejected():
    with pytest.raises(ValidationError) as err:
        parse_scenario_text(MINIMAL + "device.c1.start_level_pct = 140\n")
    assert "start_level_pct" in str(err.value)


def test_missing_request_rejected():
    text = """
device.p1.role = provider
device.c1.role = consumer
"""
    with pytest.raises(ValidationError) as err:
        parse_scenario_text(text)
    assert "request.kind" in str(err.value)


def test_nonpositive_request_value_rejected():
    with pytest.raises(ValidationError):
        parse_scenario_text(MINIMAL.replace("request.value = 1800", "request.value = 0"))


def test_unknown_key_is_parse_error_with_line():
    with pytest.raises(ParseError) as err:
        parse_scenario_text("request.kindd = duration\n")
    assert str(err.value) == "line 1: unknown key 'request.kindd'"


def test_unknown_device_key_is_parse_error_with_line():
    with pytest.raises(ParseError, match="unknown device key 'device.c1.colour'") as err:
        parse_scenario_text(MINIMAL + "device.c1.colour = red\n")
    assert str(err.value).startswith(f"line {len(MINIMAL.splitlines()) + 1}: ")


def test_missing_equals_is_parse_error():
    with pytest.raises(ParseError):
        parse_scenario_text("scenario.seed 42\n")


def test_duplicate_key_rejected():
    with pytest.raises(ParseError):
        parse_scenario_text("scenario.seed = 1\nscenario.seed = 2\n" + MINIMAL)


def test_non_numeric_value_is_parse_error():
    with pytest.raises(ParseError):
        parse_scenario_text(MINIMAL.replace("request.value = 1800", "request.value = lots"))


def test_bad_clock_mode_rejected():
    with pytest.raises(ValidationError):
        parse_scenario_text(MINIMAL + "scenario.clock = lunar\n")


def test_devices_required():
    with pytest.raises(ValidationError):
        parse_scenario_text("request.kind = duration\nrequest.value = 10\n")
    only_provider = """
request.kind = duration
request.value = 10
device.p1.role = provider
"""
    with pytest.raises(ValidationError):
        parse_scenario_text(only_provider)


def test_request_consumer_must_be_a_consumer():
    with pytest.raises(ValidationError):
        parse_scenario_text(MINIMAL + "request.consumer = p1\n")


def test_comments_and_blank_lines_ignored():
    text = "# a comment\n\n" + MINIMAL + "# trailing\n"
    scenario = parse_scenario_text(text)
    assert scenario.request_value == 1800.0


def test_bad_position_is_parse_error():
    with pytest.raises(ParseError):
        parse_scenario_text(MINIMAL + "device.c1.position = 1.0\n")


NUMERIC_KEYS = [
    "monitor.interval_s",
    "request.value",
    "technology.transfer_rate_ma",
    "technology.efficiency",
    "technology.taper_start_pct",
    "technology.distance_m",
    "transport.latency_s",
    "transport.drop_prob",
    "transport.request_timeout_s",
    "device.p1.capacity_mah",
    "device.p1.start_level_pct",
    "device.p1.baseline_ma",
    "device.p1.accept_threshold_pct",
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
@pytest.mark.parametrize("key", NUMERIC_KEYS + ["device.p1.position"])
def test_non_finite_number_is_parse_error(key, value):
    value = f"{value}, 0" if key == "device.p1.position" else value
    lines = [line for line in MINIMAL.splitlines() if not line.startswith(key + " ")]
    with pytest.raises(ParseError) as err:
        parse_scenario_text("\n".join([*lines, f"{key} = {value}"]) + "\n")
    assert str(err.value).startswith(f"line {len(lines) + 1}: {key}: ")


def test_drop_probability_range_checked():
    with pytest.raises(ValidationError):
        parse_scenario_text(MINIMAL + "transport.drop_prob = 1.5\n")


def test_negative_distance_rejected():
    with pytest.raises(ValidationError) as err:
        parse_scenario_text(MINIMAL + "technology.distance_m = -1\n")
    assert str(err.value).startswith("technology: ")
    assert parse_scenario_text(MINIMAL + "technology.distance_m = 0\n").tech_params.distance_m == 0.0


def test_negative_accept_threshold_rejected():
    with pytest.raises(ValidationError) as err:
        parse_scenario_text(MINIMAL + "device.p1.accept_threshold_pct = -1\n")
    assert str(err.value).startswith("device.p1.accept_threshold_pct: ")
    # above 100 stays legal: a provider that never accepts
    never = parse_scenario_text(MINIMAL + "device.p1.accept_threshold_pct = 101\n")
    assert never.providers()[0].accept_threshold_pct == 101.0


@pytest.mark.parametrize(
    ("file_name", "line", "error", "where"),
    [
        ("exp.cfg", "device.p;1.role = provider", ParseError, len(MINIMAL.splitlines()) + 1),
        ("exp.cfg", "device..role = provider", ParseError, len(MINIMAL.splitlines()) + 1),
        ("exp.cfg", "scenario.run_id = a/b", ParseError, len(MINIMAL.splitlines()) + 1),
        ("my exp.cfg", "# no scenario.run_id", ValidationError, "scenario.run_id"),
    ],
)
def test_bad_id_is_a_scenario_error(tmp_path, capsys, file_name, line, error, where):
    """A bad run id or device id is a ParseError on its line; a bad file stem names the key."""
    path = tmp_path / file_name
    path.write_text(MINIMAL + line + "\n", encoding="utf-8")
    with pytest.raises(error) as err:
        parse_scenario(path)
    assert str(err.value).startswith(f"line {where}: " if error is ParseError else f"{where}: ")
    assert main(["run", "--scenario", str(path)]) == EXIT_RUN_FAILURE
    assert capsys.readouterr().err.startswith("error: ")


def test_docs_tables_list_exactly_the_parsers_keys():
    """The two key tables of docs/scenario-format.md name the keys the parser accepts."""
    text = FORMAT_DOC.read_text(encoding="utf-8")
    keys_part = text.split("## Keys and defaults", 1)[1].split("\n## ", 1)[0]
    scenario_part, device_part = keys_part.split("Per-device keys", 1)

    def documented(part: str) -> list[str]:
        return re.findall(r"^\| `([^`]+)` \|", part, flags=re.MULTILINE)

    assert sorted(documented(scenario_part)) == sorted(_SCENARIO_TABLE)
    assert sorted(documented(device_part)) == sorted(_DEVICE_TABLE)
