"""End-to-end scenario execution.

Every device runs as a scripted agent inside one single-threaded event
loop (:func:`_drive`). Virtual mode drives it over the simulated transport
and a virtual clock: fully deterministic for a given scenario and seed.
Wall mode drives the same loop over loopback TCP and the monotonic clock,
waiting in real time between events (optionally compressed by a pace
factor, which changes how long the run takes in real time and nothing
else). A pace is for wall runs only: a virtual run never waits, and
refuses one.

The charging physics for a session runs provider-side (the energy source
owns the engine), which collects the session's dataset: both peers' record
pairs. The consumer keeps only a receipt of each per-tick synchronization
message it accepts (the tick, its timestamp and when it arrived); the
dataset holds the row that tick's receipt names.

A tick's path (the loop, the agents' handlers, ``ChargingEngine.step``,
one transport hop) is kept flat: a lossless virtual tick makes 30
Python-level calls (59 before its bookkeeping and one-line helpers were
inlined); ``tests/test_runner.py`` holds it to at most 36.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass

from .battery import (
    BatteryState,
    DrainParams,
    TickLedger,
    battery_at_level,
    transfer_tick,
    ProviderDepleted,
)
from .edge import EdgeClient, SessionDataset, UploadReceipt
from .errors import EnergyShareError
from .matching import (
    NoProviderAvailable,
    ProviderAdvert,
    next_after_reject,
    provider_accepts,
    rank_providers,
)
from .monitor import MonitorRecord, compute_metrics, record_tick
from .protocol import (
    Abort,
    Accept,
    Complete,
    IllegalTransition,
    MonitorSync,
    ProviderSessions,
    Reason,
    Reject,
    Request,
    RequestKind,
    SessionPhase,
    SessionState,
    StartTransfer,
    abort_session,
    is_complete,
    make_request,
    new_session,
    session_id_for,
    transition,
)
from .scenario import DeviceSpec, Scenario
from .transport import RegistryServer, SimTransport, TcpTransport, VirtualClock, WallClock

# An amount-based session that can no longer make progress (consumer full
# or fully tapered) is cancelled rather than left spinning.
STALL_EPS_MAH = 1e-12

OUTCOME_COMPLETED = "Completed"
OUTCOME_ABORTED = "Aborted"
OUTCOME_NO_PROVIDER = "NoProviderAvailable"


class ChargingEngine:
    """Provider-side physics of one charging session.

    Holds both batteries (the consumer side is the mirror seeded from the
    request), the per-tick ledger and the synchronized record pairs. Both
    batteries come in checked; each tick's successors come from
    ``transfer_tick`` unchecked. The session names both peers; progress is
    the ledger's ``total_in_mah`` and ``tick_index * interval_s``.
    Timestamps are session start plus tick * interval, independent of how
    fast the host actually ticks.
    """

    def __init__(
        self,
        *,
        session: SessionState,
        tech_params,
        provider_battery: BatteryState,
        consumer_battery: BatteryState,
        provider_drain: DrainParams,
        consumer_drain: DrainParams,
        interval_s: float,
        start_time_s: float,
    ):
        self.session = session
        self.tech_params = tech_params
        self.provider_battery = provider_battery
        self.consumer_battery = consumer_battery
        self.provider_drain = provider_drain
        self.consumer_drain = consumer_drain
        self.interval_s = interval_s
        self.start_time_s = start_time_s
        self.ledger = TickLedger()
        self.tick_index = 0
        self.pairs: list[tuple[MonitorRecord, MonitorRecord]] = []
        self.start_sync = self._record(0, start_time_s)

    def _record(self, tick_index: int, wall_time_s: float) -> MonitorSync:
        """Append the tick's record pair and return the tick's sync for the consumer."""
        session, consumer_battery, ledger = self.session, self.consumer_battery, self.ledger
        self.pairs.append(record_tick(
            session, tick_index, wall_time_s,
            provider_id=session.provider_id, provider_battery=self.provider_battery,
            consumer_id=session.request.consumer_id, consumer_battery=consumer_battery,
            cumulative_out_mah=ledger.total_out_mah, cumulative_in_mah=ledger.total_in_mah,
        ))
        return tuple.__new__(MonitorSync, (
            session.session_id, tick_index, wall_time_s,
            consumer_battery.charge_mah, ledger.total_in_mah,
        ))

    def step(self) -> MonitorSync | None:
        """Advance one tick and return its sync, or None if the provider ran dry.

        A terminal tick leaves ``session`` Completed or Aborted.
        """
        k = self.tick_index + 1
        wall_time_s = self.start_time_s + k * self.interval_s
        try:
            self.provider_battery, self.consumer_battery, tick = transfer_tick(
                self.provider_battery,
                self.consumer_battery,
                self.tech_params,
                self.provider_drain,
                self.consumer_drain,
                self.interval_s,
            )
        except ProviderDepleted:
            self.session = abort_session(self.session, Reason.PROVIDER_DEPLETED)
            return None

        self.ledger.add(tick)
        self.tick_index = k

        reason = is_complete(self.session.request, self.ledger.total_in_mah, k * self.interval_s)
        if reason is not None:
            self.session = transition(self.session, Complete(self.session.session_id, reason))
        elif self.session.request.kind is RequestKind.AMOUNT and tick.mah_in <= STALL_EPS_MAH:
            self.session = abort_session(self.session, Reason.CONSUMER_CANCELLED)
        # a Completed or Aborted session still records its last tick
        return self._record(k, wall_time_s)


@dataclass
class RunResult:
    """What one scenario run produced (artifact writing happens elsewhere)."""

    scenario: Scenario
    outcome: str
    terminal_reason: Reason | None
    dataset: SessionDataset | None
    # (tick, timestamp, arrival on the run's clock) of each sync the consumer kept
    sync_receipts: list[tuple[int, float, float]]
    upload_receipt: UploadReceipt | None = None


class _Agent:
    """One device: its scenario spec and battery, addressed on the transport by id."""

    def __init__(self, spec: DeviceSpec, scenario: Scenario, transport, clock):
        self.spec = spec
        self.scenario = scenario
        self.transport = transport
        self.clock = clock
        self.device_id = spec.device_id
        self.battery = battery_at_level(spec.capacity_mah, spec.start_level_pct)


class _ProviderAgent(_Agent):
    def __init__(self, spec: DeviceSpec, scenario: Scenario, transport, clock, tick_spacing_s: float):
        super().__init__(spec, scenario, transport, clock)
        self.tick_spacing_s = tick_spacing_s
        self.drain = DrainParams(spec.baseline_ma)
        self.sessions = ProviderSessions()
        self.engine: ChargingEngine | None = None
        self.next_tick_at: float | None = None
        self.dataset: SessionDataset | None = None

    def start(self) -> None:
        self.transport.register(self.device_id)
        advert = ProviderAdvert(
            provider_id=self.device_id,
            position=self.spec.position,
            battery_level_pct=self.battery.level_pct,
            technology=self.scenario.tech_params.technology,
            available=True,
        )
        self.transport.advertise(self.device_id, advert)

    def on_message(self, msg) -> None:
        if isinstance(msg, Request):
            self._on_request(msg)
        elif isinstance(msg, Abort):
            self._on_abort(msg)
        # other message types are not addressed to providers

    def _on_request(self, msg: Request) -> None:
        consumer_id = msg.request.consumer_id
        if self.sessions.busy or not provider_accepts(
            self.battery.level_pct, self.spec.accept_threshold_pct
        ):
            self.transport.send(self.device_id, consumer_id, Reject(msg.request.request_id))
            return

        request = msg.request
        session_id = session_id_for(request.request_id)
        session = new_session(session_id, request, self.device_id)
        session = transition(session, msg)
        session = transition(session, Accept(request.request_id))
        start = StartTransfer(session_id, request.request_id, self.scenario.interval_s)
        session = transition(session, start)
        self.sessions.begin_charging(session_id)

        now = self.clock.now_s
        self.engine = ChargingEngine(
            session=session,
            tech_params=self.scenario.tech_params,
            provider_battery=self.battery,
            consumer_battery=BatteryState(msg.consumer_capacity_mah, msg.consumer_charge_mah),
            provider_drain=self.drain,
            consumer_drain=DrainParams(msg.consumer_baseline_ma),
            interval_s=self.scenario.interval_s,
            start_time_s=now,
        )
        for reply in (Accept(request.request_id), start, self.engine.start_sync):
            self.transport.send(self.device_id, consumer_id, reply)
        self.next_tick_at = now + self.tick_spacing_s

    def _on_abort(self, msg: Abort) -> None:
        if self.engine is None or msg.session_id != self.engine.session.session_id:
            return
        self.engine.session = transition(self.engine.session, msg)
        self._finalize()

    def on_time(self) -> None:
        # runs each due tick; next_tick_at is set exactly while an engine runs
        while self.next_tick_at is not None and self.clock.now_s >= self.next_tick_at:
            engine = self.engine
            consumer_id = engine.session.request.consumer_id
            sync = engine.step()
            self.battery = engine.provider_battery
            if sync is not None:
                self.transport.send(self.device_id, consumer_id, sync)
            session = engine.session
            if session.state is SessionPhase.CHARGING:
                if engine.tick_index < self.scenario.max_ticks:
                    self.next_tick_at += self.tick_spacing_s
                    continue
                session = engine.session = abort_session(session, Reason.CONSUMER_CANCELLED)
            end = Complete if session.state is SessionPhase.COMPLETED else Abort
            end_msg = end(session.session_id, session.terminal_reason)
            self.transport.send(self.device_id, consumer_id, end_msg)
            self._finalize()

    def _finalize(self) -> None:
        engine = self.engine
        self.dataset = SessionDataset(
            session_id=engine.session.session_id,
            request=engine.session.request,
            provider_id=self.device_id,
            tech_params=self.scenario.tech_params,
            provider_drain=self.drain,
            consumer_drain=engine.consumer_drain,
            provider_capacity_mah=self.spec.capacity_mah,
            consumer_capacity_mah=engine.consumer_battery.capacity_mah,
            interval_s=self.scenario.interval_s,
            records=tuple(engine.pairs),
            metrics=compute_metrics(engine.pairs),
            terminal_reason=engine.session.terminal_reason,
        )
        self.sessions.end(engine.session.session_id)
        self.engine = None
        self.next_tick_at = None

    def next_wakeup(self) -> float | None:
        return self.next_tick_at


class _ConsumerAgent(_Agent):
    """Walks the ranked providers until one session ends.

    Every message but MonitorSync goes through the session state machine;
    one the lifecycle graph does not permit (late, duplicate or from an
    earlier attempt) is ignored. A MonitorSync is kept, as a receipt, only
    for the charging session and a tick past the last kept one. ``deadline``
    follows ``view.state``: in Requested a missed one counts as a
    rejection, in Accepted or Charging it aborts the session with
    TransportLost.
    """

    def __init__(
        self, spec: DeviceSpec, scenario: Scenario, transport, clock, *, sync_timeout_s: float
    ):
        super().__init__(spec, scenario, transport, clock)
        self.sync_timeout_s = sync_timeout_s
        self.ranking: list[str] = []
        self.rejected: list[str] = []
        self.view: SessionState | None = None
        self.deadline: float | None = None
        self.sync_receipts: list[tuple[int, float, float]] = []
        self.outcome: str | None = None

    def start(self) -> None:
        self.transport.register(self.device_id)
        adverts = self.transport.discover(self.device_id)
        self.ranking = rank_providers(self.spec.position, adverts)
        self._submit_next()

    def _submit_next(self) -> None:
        try:
            provider_id = next_after_reject(self.ranking, self.rejected)
        except NoProviderAvailable:
            self.outcome = OUTCOME_NO_PROVIDER
            self.deadline = None
            return
        # deterministic per scenario+seed (trace bytes must reproduce),
        # unique across scenarios (shared edge stores must not collide)
        request = make_request(
            self.scenario.request_kind,
            self.scenario.request_value,
            self.device_id,
            request_id=f"req-{self.scenario.run_id}-{self.device_id}-a{len(self.rejected) + 1}",
        )
        view = new_session(session_id_for(request.request_id), request, provider_id)
        msg = Request(
            request=request,
            consumer_position=self.spec.position,
            consumer_capacity_mah=self.battery.capacity_mah,
            consumer_charge_mah=self.battery.charge_mah,
            consumer_baseline_ma=self.spec.baseline_ma,
        )
        self.view = transition(view, msg)
        self.transport.send(self.device_id, provider_id, msg)
        self.deadline = self.clock.now_s + self.scenario.request_timeout_s

    def on_message(self, msg) -> None:
        if self.outcome is not None:  # a walk out of providers may leave the last view Requested
            return
        if isinstance(msg, MonitorSync):
            view, receipts = self.view, self.sync_receipts
            if msg.session_id != view.session_id or view.state is not SessionPhase.CHARGING:
                return
            if receipts and msg.tick_index <= receipts[-1][0]:
                return  # stale or repeated: ticks only move forward
            now = self.clock.now_s
            receipts.append((msg.tick_index, msg.wall_time_s, now))
            self.deadline = now + self.sync_timeout_s
            return
        try:
            self.view = transition(self.view, msg)
        except IllegalTransition:
            return
        state = self.view.state
        if state is SessionPhase.ACCEPTED:
            self.deadline = self.clock.now_s + self.scenario.request_timeout_s
        elif state is SessionPhase.CHARGING:
            self.deadline = self.clock.now_s + self.sync_timeout_s
        elif state is SessionPhase.REJECTED:
            self.rejected.append(self.view.provider_id)
            self._submit_next()
        else:
            self.outcome = OUTCOME_COMPLETED if state is SessionPhase.COMPLETED else OUTCOME_ABORTED
            self.deadline = None

    def on_time(self) -> None:
        # every way the walk ends clears the deadline
        if self.deadline is None or self.clock.now_s < self.deadline:
            return
        if self.view.state is SessionPhase.REQUESTED:
            # no reply counts as a rejection: walk on to the next provider
            self.rejected.append(self.view.provider_id)
            self._submit_next()
            return
        self.view = abort_session(self.view, Reason.TRANSPORT_LOST)
        try:
            self.transport.send(
                self.device_id, self.view.provider_id, Abort(self.view.session_id, Reason.TRANSPORT_LOST)
            )
        except EnergyShareError:
            pass
        self.outcome = OUTCOME_ABORTED
        self.deadline = None

    def next_wakeup(self) -> float | None:
        return self.deadline


# --- the event loop (both clock modes) -------------------------------------------


def _drive(agents: list, transport, clock, stop_at: float) -> None:
    """Serve the agents' messages and timers until nothing is pending.

    Ordering rule (virtual traces depend on it): at each instant, serve
    every device with a due message or timer in device order (providers in
    scenario order, then the consumer), a device's messages before its
    timer. A device that becomes due ahead of the current one is served in
    this pass; one that becomes due behind it waits for the next pass over
    the instant. Repeat until nothing more is due, and only then advance
    time. Plain (time, seq) heap order is not equivalent: SimTransport
    draws its drop decisions in send order.

    An instant gathers its due devices once, and again after serving a
    device only if the transport's next delivery or the timer heap's head
    has fallen due. Returns once nothing is pending or the next event lies
    past ``stop_at``, checked after each instant and before waiting.
    The gather and the rescheduling run at every instant, two per tick, so
    they are inlined here rather than called.
    """
    index_of = {agent.device_id: i for i, agent in enumerate(agents)}.__getitem__
    # each agent's current wake-up as last pushed; a heap entry that differs is stale
    current: list[float | None] = [agent.next_wakeup() for agent in agents]
    timers = [(wake_at, i) for i, wake_at in enumerate(current) if wake_at is not None]
    heapq.heapify(timers)  # (wake-up, agent index)
    while True:
        now = clock.now_s
        due, last = [], -1  # this instant's due agents, by index; the last one served
        while True:
            # gather: devices with a message or a timer due, merged into this pass
            fresh = set(map(index_of, transport.due_devices()))
            while timers and timers[0][0] <= now:
                wake_at, i = heapq.heappop(timers)
                if current[i] == wake_at:
                    current[i] = None  # consumed: serving the agent pushes its next one
                    fresh.add(i)
            fresh.update(due)
            due = sorted(fresh)
            if last < 0 and not due:
                t_msg = transport.next_delivery_time()
            while due:
                # the next after the last served; none after it starts a new pass
                i = last = due.pop(bisect.bisect_right(due, last) % len(due))
                agent = agents[i]
                for msg in transport.receive(agent.device_id):
                    agent.on_message(msg)
                agent.on_time()
                wake_at = agent.next_wakeup()
                if wake_at != current[i]:
                    current[i] = wake_at
                    if wake_at is not None:
                        heapq.heappush(timers, (wake_at, i))
                # the transport's next delivery, read again after each device served
                t_msg = transport.next_delivery_time()
                if (t_msg is not None and t_msg <= now) or (timers and timers[0][0] <= now):
                    break  # more fell due now: gather again
            else:
                break  # the instant is served
        while timers and current[timers[0][1]] != timers[0][0]:
            heapq.heappop(timers)
        t_next = t_msg
        if timers and (t_next is None or timers[0][0] < t_next):
            t_next = timers[0][0]
        if t_next is None or t_next > stop_at:
            return
        clock.wait_until(t_next)


def _run_agents(
    scenario: Scenario, transport, clock, stop_at: float, *, tick_spacing_s: float,
    sync_timeout_s: float,
) -> RunResult:
    providers = [
        _ProviderAgent(spec, scenario, transport, clock, tick_spacing_s)
        for spec in scenario.providers()
    ]
    consumer = _ConsumerAgent(
        scenario.requesting_consumer(), scenario, transport, clock, sync_timeout_s=sync_timeout_s
    )
    # providers advertise before the consumer discovers
    for agent in providers:
        agent.start()
    consumer.start()
    _drive(providers + [consumer], transport, clock, stop_at)
    return _collect_result(scenario, providers, consumer)


def _charging_bound_s(scenario: Scenario) -> float:
    """Longest a session can charge, in scenario seconds."""
    bound = scenario.max_ticks * scenario.interval_s
    if scenario.request_kind is RequestKind.DURATION:
        bound = min(bound, scenario.request_value)
    return bound


def _run_virtual(scenario: Scenario) -> RunResult:
    clock = VirtualClock()
    transport = SimTransport(
        clock,
        latency_s=scenario.latency_s,
        drop_probability=scenario.drop_probability,
        seed=scenario.seed,
    )
    slack_s = scenario.request_timeout_s * (len(scenario.providers()) + 2)
    return _run_agents(
        scenario,
        transport,
        clock,
        _charging_bound_s(scenario) + slack_s + 120.0,
        tick_spacing_s=scenario.interval_s,
        sync_timeout_s=3.0 * scenario.interval_s + 2.0 * scenario.latency_s,
    )


def _run_wall(scenario: Scenario, pace: float | None) -> RunResult:
    pace = pace or 1.0
    registry = RegistryServer().start()
    transport = TcpTransport(registry.address)
    clock = WallClock(transport.poll)
    try:
        return _run_agents(
            scenario,
            transport,
            clock,
            clock.now_s + _charging_bound_s(scenario) / pace + 60.0,
            tick_spacing_s=scenario.interval_s / pace,
            sync_timeout_s=max(3.0 * scenario.interval_s / pace, 1.0),
        )
    finally:
        transport.close()
        registry.stop()


def _collect_result(
    scenario: Scenario, providers: list[_ProviderAgent], consumer: _ConsumerAgent
) -> RunResult:
    datasets = [p.dataset for p in providers if p.dataset is not None]
    # prefer the session the consumer actually tracked: a provider whose
    # acceptance was lost may have charged a session nobody listened to
    dataset = next(
        (
            d for d in datasets
            if consumer.view is not None and d.session_id == consumer.view.session_id
        ),
        datasets[0] if datasets else None,
    )
    if dataset is not None:
        reason = dataset.terminal_reason
        outcome = (
            OUTCOME_COMPLETED
            if reason in (Reason.AMOUNT_DELIVERED, Reason.DURATION_ELAPSED)
            else OUTCOME_ABORTED
        )
    else:
        outcome = consumer.outcome or OUTCOME_NO_PROVIDER
        reason = consumer.view.terminal_reason if consumer.view is not None else None
    return RunResult(
        scenario=scenario,
        outcome=outcome,
        terminal_reason=reason,
        dataset=dataset,
        sync_receipts=consumer.sync_receipts,
    )


def check_pace(pace: float) -> float:
    """A pace, in simulated seconds per real second, must be finite and > 0."""
    if not (math.isfinite(pace) and pace > 0):
        raise ValueError(f"pace must be finite and > 0, got {pace!r}")
    return pace


def run_scenario(
    scenario: Scenario,
    *,
    pace: float | None = None,
    upload_addr: str | None = None,
) -> RunResult:
    """Execute one scenario end to end, paced if wall, and optionally upload the dataset."""
    if pace is not None:
        check_pace(pace)
    if scenario.clock_mode == "virtual":
        if pace is not None:
            raise EnergyShareError(f"pace {pace!r} is for wall runs only; this one is virtual")
        result = _run_virtual(scenario)
    else:
        result = _run_wall(scenario, pace)
    if upload_addr and result.dataset is not None:
        result.upload_receipt = EdgeClient(upload_addr).upload(result.dataset)
    return result
