"""Scenario configuration: a diff-able, line-oriented experiment format.

Grammar (see docs/scenario-format.md):

    # comment
    section.key = value
    device.<id>.key = value

Unspecified fields take documented defaults; the built-in defaults
describe the reference setup of the bundled experiments (one full
provider, one consumer at 40%, a 1-second recording interval).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

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
from .util import check_id

DEFAULT_START_LEVEL_PCT = {ROLE_PROVIDER: 100.0, ROLE_CONSUMER: 40.0}
DEFAULT_CAPACITY_MAH = {
    ROLE_PROVIDER: DEFAULT_PROVIDER_CAPACITY_MAH,
    ROLE_CONSUMER: DEFAULT_CONSUMER_CAPACITY_MAH,
}
DEFAULT_REQUEST_TIMEOUT_S = 5.0
DEFAULT_MAX_TICKS = 1_000_000


class ParseError(EnergyShareError):
    """A scenario line could not be parsed."""

    def __init__(self, line_no: int, detail: str):
        self.line_no = line_no
        self.detail = detail
        super().__init__(f"line {line_no}: {detail}")


class ValidationError(EnergyShareError):
    """A parsed scenario value is missing or out of range."""

    def __init__(self, field_name: str, detail: str):
        self.field = field_name
        self.detail = detail
        super().__init__(f"{field_name}: {detail}")


@dataclass
class DeviceSpec:
    device_id: str
    role: str
    capacity_mah: float
    start_level_pct: float
    position: tuple[float, float] = (0.0, 0.0)
    baseline_ma: float = DEFAULT_BASELINE_MA
    accept_threshold_pct: float = DEFAULT_ACCEPT_THRESHOLD_PCT


@dataclass
class Scenario:
    run_id: str
    seed: int = 0
    clock_mode: str = "virtual"
    interval_s: float = 1.0
    technology: Technology = Technology.WIRELESS_DISTANCE
    tech_params: TechnologyParams = field(
        default_factory=lambda: default_params(Technology.WIRELESS_DISTANCE)
    )
    request_kind: RequestKind = RequestKind.DURATION
    request_value: float = 1800.0
    request_consumer_id: str = ""
    devices: list[DeviceSpec] = field(default_factory=list)
    latency_s: float = DEFAULT_LATENCY_S
    drop_probability: float = 0.0
    request_timeout_s: float = DEFAULT_REQUEST_TIMEOUT_S
    max_ticks: int = DEFAULT_MAX_TICKS
    out_dir: Path | None = None

    def providers(self) -> list[DeviceSpec]:
        return sorted(
            (d for d in self.devices if d.role == ROLE_PROVIDER), key=lambda d: d.device_id
        )

    def consumers(self) -> list[DeviceSpec]:
        return sorted(
            (d for d in self.devices if d.role == ROLE_CONSUMER), key=lambda d: d.device_id
        )

    def requesting_consumer(self) -> DeviceSpec:
        for device in self.consumers():
            if device.device_id == self.request_consumer_id:
                return device
        raise ValidationError("request.consumer", f"{self.request_consumer_id!r} is not a consumer")


_SCALAR_KEYS = {
    "scenario.run_id",
    "scenario.seed",
    "scenario.clock",
    "scenario.out_dir",
    "scenario.max_ticks",
    "monitor.interval_s",
    "request.kind",
    "request.value",
    "request.consumer",
    "technology.name",
    "technology.transfer_rate_ma",
    "technology.efficiency",
    "technology.taper_start_pct",
    "technology.distance_m",
    "transport.latency_s",
    "transport.drop_prob",
    "transport.request_timeout_s",
}

_DEVICE_KEYS = {
    "role",
    "capacity_mah",
    "start_level_pct",
    "position",
    "baseline_ma",
    "accept_threshold_pct",
}


def _finite(text: str) -> float:
    """``float(text)``, refusing ``nan`` and infinities with ``ValueError``."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def parse_scenario(path: Path | str) -> Scenario:
    path = Path(path)
    return parse_scenario_text(path.read_text(encoding="utf-8"), run_id=path.stem)


def parse_scenario_text(text: str, run_id: str = "scenario") -> Scenario:
    entries: dict[str, tuple[int, str]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ParseError(line_no, "expected 'section.key = value'")
        key, value = key.strip(), value.strip()
        if "." not in key:
            raise ParseError(line_no, f"key {key!r} must be 'section.key'")
        if key in entries:
            raise ParseError(line_no, f"duplicate key {key!r}")
        if key.startswith("device."):
            parts = key.split(".")
            if len(parts) != 3 or parts[2] not in _DEVICE_KEYS:
                raise ParseError(line_no, f"unknown device key {key!r}")
        elif key not in _SCALAR_KEYS:
            raise ParseError(line_no, f"unknown key {key!r}")
        entries[key] = (line_no, value)

    def take(key: str) -> tuple[int, str] | None:
        return entries.get(key)

    def scalar(key: str, default: str | None = None) -> str | None:
        found = take(key)
        return found[1] if found else default

    def number(key: str, default: float | None) -> float | None:
        found = take(key)
        if found is None:
            return default
        line_no, value = found
        try:
            return _finite(value)
        except ValueError:
            raise ParseError(line_no, f"expected a finite number for {key}, got {value!r}") from None

    def integer(key: str, default: int) -> int:
        found = take(key)
        if found is None:
            return default
        line_no, value = found
        try:
            return int(value)
        except ValueError:
            raise ParseError(line_no, f"expected integer for {key}, got {value!r}") from None

    scenario_run_id = scalar("scenario.run_id", run_id)
    check_id(scenario_run_id, "scenario.run_id")
    seed = integer("scenario.seed", 0)
    clock_mode = scalar("scenario.clock", "virtual")
    if clock_mode not in ("virtual", "wall"):
        raise ValidationError("scenario.clock", f"must be virtual|wall, got {clock_mode!r}")
    max_ticks = integer("scenario.max_ticks", DEFAULT_MAX_TICKS)
    if max_ticks <= 0:
        raise ValidationError("scenario.max_ticks", "must be > 0")
    out_dir_value = scalar("scenario.out_dir")
    out_dir = Path(out_dir_value) if out_dir_value else None

    interval_s = number("monitor.interval_s", 1.0)
    if interval_s <= 0:
        raise ValidationError("monitor.interval_s", f"must be > 0, got {interval_s}")

    kind_value = scalar("request.kind")
    if kind_value is None:
        raise ValidationError("request.kind", "missing (amount|duration)")
    try:
        request_kind = RequestKind(kind_value)
    except ValueError:
        raise ValidationError("request.kind", f"must be amount|duration, got {kind_value!r}") from None
    request_value = number("request.value", None)
    if request_value is None:
        raise ValidationError("request.value", "missing")
    if request_value <= 0:
        raise ValidationError("request.value", f"must be > 0, got {request_value}")

    technology_name = scalar("technology.name", Technology.WIRELESS_DISTANCE.value)
    try:
        technology = Technology(technology_name)
    except ValueError:
        raise ValidationError(
            "technology.name", f"must be one of {[t.value for t in Technology]}, got {technology_name!r}"
        ) from None
    base_params = default_params(technology)
    try:
        tech_params = TechnologyParams(
            technology=technology,
            transfer_rate_ma=number("technology.transfer_rate_ma", base_params.transfer_rate_ma),
            efficiency=number("technology.efficiency", base_params.efficiency),
            taper_start_pct=number("technology.taper_start_pct", base_params.taper_start_pct),
            distance_m=number("technology.distance_m", base_params.distance_m),
        )
    except ValueError as exc:
        raise ValidationError("technology", str(exc)) from None

    latency_s = number("transport.latency_s", DEFAULT_LATENCY_S)
    if latency_s < 0:
        raise ValidationError("transport.latency_s", "must be >= 0")
    drop_probability = number("transport.drop_prob", 0.0)
    if not 0.0 <= drop_probability <= 1.0:
        raise ValidationError("transport.drop_prob", "must be in [0, 1]")
    request_timeout_s = number("transport.request_timeout_s", DEFAULT_REQUEST_TIMEOUT_S)
    if request_timeout_s <= 0:
        raise ValidationError("transport.request_timeout_s", "must be > 0")

    device_ids = sorted(
        {key.split(".")[1] for key in entries if key.startswith("device.")}
    )
    devices: list[DeviceSpec] = []
    for device_id in device_ids:
        check_id(device_id, "device id")
        prefix = f"device.{device_id}"
        role = scalar(f"{prefix}.role")
        if role not in (ROLE_PROVIDER, ROLE_CONSUMER):
            raise ValidationError(f"{prefix}.role", f"must be provider|consumer, got {role!r}")
        capacity = number(f"{prefix}.capacity_mah", DEFAULT_CAPACITY_MAH[role])
        if capacity <= 0:
            raise ValidationError(f"{prefix}.capacity_mah", "must be > 0")
        start_level = number(f"{prefix}.start_level_pct", DEFAULT_START_LEVEL_PCT[role])
        if not 0.0 <= start_level <= 100.0:
            raise ValidationError(
                f"{prefix}.start_level_pct", f"must be in [0, 100], got {start_level}"
            )
        position_entry = take(f"{prefix}.position")
        position = (0.0, 0.0)
        if position_entry is not None:
            line_no, value = position_entry
            parts = [p.strip() for p in value.split(",")]
            if len(parts) != 2:
                raise ParseError(line_no, f"position must be 'x, y', got {value!r}")
            try:
                position = (_finite(parts[0]), _finite(parts[1]))
            except ValueError:
                raise ParseError(line_no, f"position must be finite numbers, got {value!r}") from None
        baseline = number(f"{prefix}.baseline_ma", DEFAULT_BASELINE_MA)
        if baseline < 0:
            raise ValidationError(f"{prefix}.baseline_ma", "must be >= 0")
        threshold = number(f"{prefix}.accept_threshold_pct", DEFAULT_ACCEPT_THRESHOLD_PCT)
        devices.append(
            DeviceSpec(
                device_id=device_id,
                role=role,
                capacity_mah=capacity,
                start_level_pct=start_level,
                position=position,
                baseline_ma=baseline,
                accept_threshold_pct=threshold,
            )
        )

    providers = [d for d in devices if d.role == ROLE_PROVIDER]
    consumers = [d for d in devices if d.role == ROLE_CONSUMER]
    if not providers:
        raise ValidationError("devices", "at least one provider device is required")
    if not consumers:
        raise ValidationError("devices", "at least one consumer device is required")

    request_consumer_id = scalar(
        "request.consumer", sorted(c.device_id for c in consumers)[0]
    )
    if request_consumer_id not in {c.device_id for c in consumers}:
        raise ValidationError(
            "request.consumer", f"{request_consumer_id!r} is not a consumer device"
        )

    return Scenario(
        run_id=scenario_run_id,
        seed=seed,
        clock_mode=clock_mode,
        interval_s=interval_s,
        technology=technology,
        tech_params=tech_params,
        request_kind=request_kind,
        request_value=request_value,
        request_consumer_id=request_consumer_id,
        devices=devices,
        latency_s=latency_s,
        drop_probability=drop_probability,
        request_timeout_s=request_timeout_s,
        max_ticks=max_ticks,
        out_dir=out_dir,
    )
