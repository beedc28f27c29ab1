"""Battery charge/discharge dynamics and charging-technology models.

All energy accounting is in mAh at nominal battery voltage. One charging
tick applies, in a fixed order: baseline self-drain on both peers (the
current a powered-on device burns to run its OS and apps), then the
technology-limited transfer with efficiency loss, clamped at the battery
bounds. The fixed order keeps the dynamics deterministic and lets the
closed-form predictor reproduce the iterated simulation exactly in the
constant-rate regime.

A ``BatteryState`` is checked where its values enter the process: a
scenario's start level (:func:`battery_at_level`), the consumer battery a
provider reads from a decoded ``Request``, and the one a consumer reads
from a decoded ``MonitorSync``. :func:`transfer_tick` works on the floats
of batteries checked there and builds its results without re-checking
them, because each step keeps the charge inside [0, capacity].

Numeric defaults are configuration, not measured truth: the only hard
constraint they encode is that phone-to-phone reverse charging wastes the
most energy of the three supported technologies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .errors import EnergyShareError
from .protocol import EnergyRequest, RequestKind


class Technology(Enum):
    """Supported charging technologies between two devices."""

    CABLE = "cable"
    REVERSE = "reverse"
    WIRELESS_DISTANCE = "wireless_distance"


DEFAULT_TRANSFER_RATE_MA = 1200.0
DEFAULT_TAPER_START_PCT = 90.0
DEFAULT_BASELINE_MA = 40.0
DEFAULT_PROVIDER_CAPACITY_MAH = 4080.0
DEFAULT_CONSUMER_CAPACITY_MAH = 2915.0
DEFAULT_COIL_DISTANCE_M = 0.02

# Reverse charging must stay the lossiest technology; scenarios may override.
DEFAULT_EFFICIENCY = {
    Technology.CABLE: 0.90,
    Technology.WIRELESS_DISTANCE: 0.80,
    Technology.REVERSE: 0.70,
}


class ProviderDepleted(EnergyShareError):
    """The providing battery is empty before a transfer tick starts."""


class OutsideConstantRegime(EnergyShareError):
    """Closed-form prediction requested outside the constant-rate regime."""


class _Charge(NamedTuple):
    capacity_mah: float
    charge_mah: float


class BatteryState(_Charge):
    """A device's charge store.

    ``BatteryState(capacity, charge)`` raises on a capacity that is not
    finite and > 0 or a charge that is not finite, then clamps charge into
    [0, capacity]. ``tuple.__new__(BatteryState, (capacity, charge))``
    builds one unchecked, for values already inside those bounds.
    """

    __slots__ = ()

    def __new__(cls, capacity_mah: float, charge_mah: float) -> "BatteryState":
        if not math.isfinite(capacity_mah) or capacity_mah <= 0:
            raise ValueError(f"capacity_mah must be > 0, got {capacity_mah!r}")
        if not math.isfinite(charge_mah):
            raise ValueError(f"charge_mah must be finite, got {charge_mah!r}")
        return super().__new__(cls, capacity_mah, min(max(charge_mah, 0.0), capacity_mah))

    @property
    def level_pct(self) -> float:
        """Charge level in percent, at most 100."""
        return level_pct_of(self.charge_mah, self.capacity_mah)


def level_pct_of(charge_mah: float, capacity_mah: float) -> float:
    """Charge level in percent, always consistent with charge/capacity.

    Capped at 100: at full charge the division can round one ulp above it.
    """
    level = 100.0 * charge_mah / capacity_mah
    return level if level <= 100.0 else 100.0


def battery_at_level(capacity_mah: float, level_pct: float) -> BatteryState:
    """Battery holding ``level_pct`` percent of ``capacity_mah``."""
    return BatteryState(capacity_mah, capacity_mah * level_pct / 100.0)


@dataclass(frozen=True)
class TechnologyParams:
    """Transfer characteristics of one charging technology.

    ``efficiency`` is the fraction of provider-side output that arrives in
    the consumer battery. ``distance_m`` is informational (coil separation
    for over-a-distance charging); it does not enter the dynamics.
    """

    technology: Technology
    transfer_rate_ma: float
    efficiency: float
    taper_start_pct: float = DEFAULT_TAPER_START_PCT
    distance_m: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError(f"efficiency must be in (0, 1], got {self.efficiency!r}")
        if self.transfer_rate_ma <= 0:
            raise ValueError(f"transfer_rate_ma must be > 0, got {self.transfer_rate_ma!r}")
        if not 0.0 < self.taper_start_pct <= 100.0:
            raise ValueError(f"taper_start_pct must be in (0, 100], got {self.taper_start_pct!r}")
        if not self.distance_m >= 0.0:
            raise ValueError(f"distance_m must be >= 0, got {self.distance_m!r}")


def default_params(technology: Technology) -> TechnologyParams:
    """Default parameter set for a technology (overridable per scenario)."""
    return TechnologyParams(
        technology=technology,
        transfer_rate_ma=DEFAULT_TRANSFER_RATE_MA,
        efficiency=DEFAULT_EFFICIENCY[technology],
        taper_start_pct=DEFAULT_TAPER_START_PCT,
        distance_m=DEFAULT_COIL_DISTANCE_M if technology is Technology.WIRELESS_DISTANCE else 0.0,
    )


@dataclass(frozen=True)
class DrainParams:
    """Device self-consumption while powered on (OS, background apps)."""

    baseline_ma: float = DEFAULT_BASELINE_MA

    def __post_init__(self) -> None:
        if self.baseline_ma < 0:
            raise ValueError(f"baseline_ma must be >= 0, got {self.baseline_ma!r}")


class TransferTick(NamedTuple):
    """Per-tick energy breakdown.

    ``mah_out`` leaves the provider battery for the transfer, ``mah_in``
    lands in the consumer battery, ``mah_lost`` is the difference
    (conversion loss plus any clamped excess at a full consumer). The
    baseline fields are the self-drain each peer actually paid this tick.
    """

    mah_out: float
    mah_in: float
    mah_lost: float
    provider_baseline_mah: float
    consumer_baseline_mah: float


@dataclass
class TickLedger:
    """Running totals over a session's transfer ticks."""

    total_out_mah: float = 0.0
    total_in_mah: float = 0.0
    total_lost_mah: float = 0.0
    total_provider_baseline_mah: float = 0.0
    total_consumer_baseline_mah: float = 0.0

    def add(self, tick: TransferTick) -> None:
        self.total_out_mah += tick.mah_out
        self.total_in_mah += tick.mah_in
        self.total_lost_mah += tick.mah_lost
        self.total_provider_baseline_mah += tick.provider_baseline_mah
        self.total_consumer_baseline_mah += tick.consumer_baseline_mah

    @property
    def total_overhead_mah(self) -> float:
        """Everything the session burned that never became consumer charge."""
        return (
            self.total_lost_mah
            + self.total_provider_baseline_mah
            + self.total_consumer_baseline_mah
        )


def drain_baseline(charge_mah: float, drain: DrainParams, dt_s: float) -> tuple[float, float]:
    """Apply ``dt_s`` seconds of baseline self-drain to ``charge_mah``, clamped at empty.

    Returns the charge left and the amount actually removed, both in mAh.
    """
    if dt_s < 0:
        raise ValueError(f"dt_s must be >= 0, got {dt_s!r}")
    drained = min(charge_mah, drain.baseline_ma * dt_s / 3600.0)
    return charge_mah - drained, drained


def effective_rate(params: TechnologyParams, consumer_level_pct: float) -> float:
    """Intake-limited transfer rate in mA for a consumer at the given level.

    Constant below the taper threshold, then linearly tapered to zero at a
    full battery: start level barely matters to the charging rate until
    the battery is nearly full. The level is a battery's, in [0, 100].
    """
    if consumer_level_pct >= 100.0:
        return 0.0
    if consumer_level_pct <= params.taper_start_pct:
        return params.transfer_rate_ma
    span = 100.0 - params.taper_start_pct
    return params.transfer_rate_ma * (100.0 - consumer_level_pct) / span


def transfer_tick(
    provider: BatteryState,
    consumer: BatteryState,
    params: TechnologyParams,
    provider_drain: DrainParams,
    consumer_drain: DrainParams,
    dt_s: float,
) -> tuple[BatteryState, BatteryState, TransferTick]:
    """Advance both batteries by one transfer tick of ``dt_s`` seconds.

    Baseline drains apply first on both peers, then the transfer: the
    provider emits at the technology rate limited by what it still holds,
    and ``efficiency`` of that arrives at the consumer, clamped so the
    consumer never exceeds capacity (clamped excess counts as loss).

    Raises ProviderDepleted when the provider battery is already empty,
    which signals the session must abort.
    """
    if dt_s <= 0:
        raise ValueError(f"dt_s must be > 0, got {dt_s!r}")
    if provider.charge_mah <= 0.0:
        raise ProviderDepleted("provider battery is empty")

    # Each subtraction takes off at most what the battery holds (min() caps
    # the drains and mah_out), so no charge falls below 0 and none but the
    # consumer's grows. The consumer gains mah_in <= capacity - c_mid, yet
    # the sum can round one ulp above capacity (1.2 + (3.6 - 1.2) gives
    # 3.6000000000000005): min() clamps it.
    p_mid, p_drained = drain_baseline(provider.charge_mah, provider_drain, dt_s)
    c_mid, c_drained = drain_baseline(consumer.charge_mah, consumer_drain, dt_s)
    capacity = consumer.capacity_mah

    rate_ma = effective_rate(params, level_pct_of(c_mid, capacity))
    mah_out = min(p_mid, rate_ma * dt_s / 3600.0)
    mah_in = min(params.efficiency * mah_out, capacity - c_mid)

    new = tuple.__new__  # builds each tuple unchecked, without a Python-level __new__ call
    provider_after = new(BatteryState, (provider.capacity_mah, p_mid - mah_out))
    consumer_after = new(BatteryState, (capacity, min(c_mid + mah_in, capacity)))
    tick = new(TransferTick, (mah_out, mah_in, mah_out - mah_in, p_drained, c_drained))
    return provider_after, consumer_after, tick


@dataclass(frozen=True)
class PredictedOutcome:
    """Closed-form session totals for the constant-rate regime."""

    provider_charge_mah: float
    consumer_charge_mah: float
    ticks: int


def duration_ticks(duration_s: float, dt_s: float) -> int:
    """Smallest tick count k with k * dt_s >= duration_s, in float arithmetic.

    Matches the discrete completion rule (elapsed time is tick_count * dt),
    including the rounding behaviour of the product, so the prediction and
    the iterated simulation agree on the exact tick count.
    """
    if duration_s <= 0:
        return 0
    k = max(1, math.ceil(duration_s / dt_s))
    while k > 1 and (k - 1) * dt_s >= duration_s:
        k -= 1
    while k * dt_s < duration_s:
        k += 1
    return k


def predict_outcome(
    provider: BatteryState,
    consumer: BatteryState,
    params: TechnologyParams,
    provider_drain: DrainParams,
    consumer_drain: DrainParams,
    request: EnergyRequest,
    dt_s: float,
) -> PredictedOutcome:
    """Predict final charges and tick count without iterating the simulation.

    Only valid in the constant-rate regime: the consumer stays strictly
    below the taper threshold for the whole session, neither battery
    clamps, and the provider never runs empty. Every per-tick flow is then
    constant, so totals are linear in the tick count.

    Raises OutsideConstantRegime when any of those preconditions fails.
    """
    if dt_s <= 0:
        raise ValueError(f"dt_s must be > 0, got {dt_s!r}")

    per_out = params.transfer_rate_ma * dt_s / 3600.0
    per_in = params.efficiency * per_out
    per_p_base = provider_drain.baseline_ma * dt_s / 3600.0
    per_c_base = consumer_drain.baseline_ma * dt_s / 3600.0

    if consumer.level_pct >= params.taper_start_pct:
        raise OutsideConstantRegime(
            f"consumer starts at {consumer.level_pct:.3f}%, "
            f"taper begins at {params.taper_start_pct:.3f}%"
        )

    if request.kind is RequestKind.DURATION:
        ticks = duration_ticks(request.duration_s, dt_s)
    else:
        ticks = math.ceil(request.amount_mah / per_in)

    final_provider = provider.charge_mah - ticks * (per_out + per_p_base)
    final_consumer = consumer.charge_mah + ticks * (per_in - per_c_base)

    if final_provider < 0.0:
        raise OutsideConstantRegime("provider would deplete before the request completes")
    if final_consumer < 0.0:
        raise OutsideConstantRegime("consumer would drain to empty during the session")
    final_level = 100.0 * final_consumer / consumer.capacity_mah
    if final_level >= params.taper_start_pct:
        raise OutsideConstantRegime(
            f"consumer would end at {final_level:.3f}%, inside the taper zone"
        )

    return PredictedOutcome(
        provider_charge_mah=final_provider,
        consumer_charge_mah=final_consumer,
        ticks=ticks,
    )
