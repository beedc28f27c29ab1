"""Scenario configuration: a diff-able, line-oriented experiment format.

Grammar (see docs/scenario-format.md):

    # comment
    section.key = value
    device.<id>.key = value

Each key is declared once, in ``_SCENARIO_TABLE`` or ``_DEVICE_TABLE``:
its parser, its range check and its default. Unspecified keys take those
defaults, which describe the reference setup of the bundled experiments
(one full provider, one consumer at 40%, a 1-second recording interval).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, NamedTuple

from .battery import (
    DEFAULT_BASELINE_MA,
    DEFAULT_CONSUMER_CAPACITY_MAH,
    DEFAULT_PROVIDER_CAPACITY_MAH,
    TechnologyParams,
    Technology,
    default_params,
)
from .errors import EnergyShareError
from .matching import DEFAULT_ACCEPT_THRESHOLD_PCT
from .monitor import ROLE_CONSUMER, ROLE_PROVIDER
from .protocol import RequestKind
from .transport import DEFAULT_LATENCY_S
from .util import NON_NEGATIVE, POSITIVE, check_id, member, one_of, parse_finite, rule

DEFAULT_START_LEVEL_PCT = {ROLE_PROVIDER: 100.0, ROLE_CONSUMER: 40.0}
DEFAULT_CAPACITY_MAH = {
    ROLE_PROVIDER: DEFAULT_PROVIDER_CAPACITY_MAH,
    ROLE_CONSUMER: DEFAULT_CONSUMER_CAPACITY_MAH,
}


class ParseError(EnergyShareError):
    """A scenario line could not be parsed."""

    def __init__(self, line_no: int, detail: str):
        super().__init__(f"line {line_no}: {detail}")


class ValidationError(EnergyShareError):
    """A parsed scenario value is missing or out of range."""

    def __init__(self, key: str, detail: str):
        super().__init__(f"{key}: {detail}")


@dataclass
class DeviceSpec:
    device_id: str
    role: str
    capacity_mah: float
    start_level_pct: float
    position: tuple[float, float]
    baseline_ma: float
    accept_threshold_pct: float


@dataclass
class Scenario:
    run_id: str
    seed: int
    clock_mode: str
    interval_s: float
    tech_params: TechnologyParams
    request_kind: RequestKind
    request_value: float
    request_consumer_id: str
    devices: list[DeviceSpec]  # sorted by device id
    latency_s: float
    drop_probability: float
    request_timeout_s: float
    max_ticks: int

    def providers(self) -> list[DeviceSpec]:
        return [d for d in self.devices if d.role == ROLE_PROVIDER]

    def requesting_consumer(self) -> DeviceSpec:
        """The consumer device named by ``request_consumer_id``; the parser checked it is one."""
        return next(d for d in self.devices if d.device_id == self.request_consumer_id)


# --- the key tables -----------------------------------------------------------

_REQUIRED = object()  # the key must be given
_DERIVED = object()  # the default depends on other keys; the parser fills it in


class _Key(NamedTuple):
    """One row of a key table.

    ``parse`` reads the key's text; its ``ValueError`` is a ParseError on
    the key's line. ``check`` range-checks the parsed value and may convert
    it; its ``ValueError`` is a ValidationError naming the key. ``place``
    is the attribute the value fills, when that is not the key itself.
    """

    parse: Callable[[str], Any]
    check: Callable[[Any], Any] | None = None
    default: Any = _DERIVED
    place: str = ""


def _position(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"position must be 'x, y', got {text!r}")
    return parse_finite(parts[0], "x"), parse_finite(parts[1], "y")


_FRACTION = rule(lambda value: 0.0 <= value <= 1.0, "in [0, 1]")
_PERCENT = rule(lambda value: 0.0 <= value <= 100.0, "in [0, 100]")

# checked together, and defaulted per technology, by TechnologyParams
_TECHNOLOGY_PARAMS = ("transfer_rate_ma", "efficiency", "taper_start_pct", "distance_m")

_SCENARIO_TABLE = {
    "scenario.run_id": _Key(check_id, place="run_id"),  # default: the file stem
    "scenario.seed": _Key(int, default=0, place="seed"),
    "scenario.clock": _Key(str, one_of("virtual", "wall"), "virtual", "clock_mode"),
    "scenario.max_ticks": _Key(int, POSITIVE, 1_000_000, "max_ticks"),
    "monitor.interval_s": _Key(parse_finite, POSITIVE, 1.0, "interval_s"),
    "request.kind": _Key(str, member(RequestKind), _REQUIRED, "request_kind"),
    "request.value": _Key(parse_finite, POSITIVE, _REQUIRED, "request_value"),
    # default: the first consumer by id
    "request.consumer": _Key(str, place="request_consumer_id"),
    "technology.name": _Key(str, member(Technology), Technology.WIRELESS_DISTANCE, "technology"),
    **{f"technology.{name}": _Key(parse_finite, place=name) for name in _TECHNOLOGY_PARAMS},
    "transport.latency_s": _Key(parse_finite, NON_NEGATIVE, DEFAULT_LATENCY_S, "latency_s"),
    "transport.drop_prob": _Key(parse_finite, _FRACTION, 0.0, "drop_probability"),
    "transport.request_timeout_s": _Key(parse_finite, POSITIVE, 5.0, "request_timeout_s"),
}

# the keys after ``device.<id>.``; capacity and start level default per role
_DEVICE_TABLE = {
    "role": _Key(str, one_of(ROLE_PROVIDER, ROLE_CONSUMER), _REQUIRED),
    "capacity_mah": _Key(parse_finite, POSITIVE),
    "start_level_pct": _Key(parse_finite, _PERCENT),
    "position": _Key(_position, default=(0.0, 0.0)),
    "baseline_ma": _Key(parse_finite, NON_NEGATIVE, DEFAULT_BASELINE_MA),
    "accept_threshold_pct": _Key(parse_finite, NON_NEGATIVE, DEFAULT_ACCEPT_THRESHOLD_PCT),
}


def _read(
    table: dict[str, _Key], entries: dict[str, tuple[int, str]], prefix: str = ""
) -> dict[str, Any]:
    """Each key of ``table`` (under ``prefix``) by place: parsed and checked
    where given, else its default; a derived default is left to the caller."""
    values: dict[str, Any] = {}
    for name, row in table.items():
        key = prefix + name
        if key not in entries:
            if row.default is _REQUIRED:
                raise ValidationError(key, "missing")
            if row.default is not _DERIVED:
                values[row.place or name] = row.default
            continue
        line_no, text = entries[key]
        try:
            value = row.parse(text)
        except ValueError as exc:
            raise ParseError(line_no, f"{key}: {exc}") from None
        if row.check is not None:
            try:
                value = row.check(value)
            except ValueError as exc:
                raise ValidationError(key, str(exc)) from None
        values[row.place or name] = value
    return values


def parse_scenario(path: Path | str) -> Scenario:
    path = Path(path)
    return parse_scenario_text(path.read_text(encoding="utf-8"), run_id=path.stem)


def parse_scenario_text(text: str, run_id: str = "scenario") -> Scenario:
    """Parse a scenario; ``run_id`` is used when the text sets no ``scenario.run_id``."""
    entries: dict[str, tuple[int, str]] = {}
    device_ids: set[str] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ParseError(line_no, "expected 'section.key = value'")
        key = key.strip()
        if key in entries:
            raise ParseError(line_no, f"duplicate key {key!r}")
        if key.startswith("device."):
            parts = key.split(".")
            if len(parts) != 3 or parts[2] not in _DEVICE_TABLE:
                raise ParseError(line_no, f"unknown device key {key!r}")
            try:
                device_ids.add(check_id(parts[1], "device id"))
            except ValueError as exc:
                raise ParseError(line_no, str(exc)) from None
        elif key not in _SCENARIO_TABLE:
            raise ParseError(line_no, f"unknown key {key!r}")
        entries[key] = (line_no, value.strip())

    values = _read(_SCENARIO_TABLE, entries)
    if "run_id" not in values:
        try:
            values["run_id"] = check_id(run_id, "file stem")
        except ValueError as exc:
            raise ValidationError("scenario.run_id", f"not set, and {exc}") from None
    params = {name: values.pop(name) for name in _TECHNOLOGY_PARAMS if name in values}
    try:
        tech_params = replace(default_params(values.pop("technology")), **params)
    except ValueError as exc:
        raise ValidationError("technology", str(exc)) from None

    devices = []
    for device_id in sorted(device_ids):
        spec = _read(_DEVICE_TABLE, entries, f"device.{device_id}.")
        spec.setdefault("capacity_mah", DEFAULT_CAPACITY_MAH[spec["role"]])
        spec.setdefault("start_level_pct", DEFAULT_START_LEVEL_PCT[spec["role"]])
        devices.append(DeviceSpec(device_id, **spec))

    consumer_ids = [d.device_id for d in devices if d.role == ROLE_CONSUMER]
    if len(consumer_ids) == len(devices):
        raise ValidationError("devices", "at least one provider device is required")
    if not consumer_ids:
        raise ValidationError("devices", "at least one consumer device is required")
    consumer_id = values.setdefault("request_consumer_id", consumer_ids[0])
    if consumer_id not in consumer_ids:
        raise ValidationError("request.consumer", f"{consumer_id!r} is not a consumer device")
    return Scenario(**values, tech_params=tech_params, devices=devices)
