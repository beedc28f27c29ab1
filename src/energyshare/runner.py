"""End-to-end scenario execution.

Every device runs as a scripted agent inside one single-threaded event
loop (:func:`_drive`). Virtual mode drives it over the simulated transport
and a virtual clock: fully deterministic for a given scenario and seed.
Wall mode drives the same loop over loopback TCP and the monotonic clock,
waiting in real time between events (optionally compressed by a pace
factor, which changes how long the run takes in real time and nothing
else).

The charging physics for a session runs provider-side (the energy source
owns the engine); the consumer's device state is kept in step through the
per-tick synchronization messages.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

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
from .monitor import ROLE_CONSUMER, MonitorRecord, compute_metrics, record_tick
from .protocol import (
    Abort,
    Accept,
    Complete,
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
    record_progress,
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


@dataclass
class EngineStep:
    sync: MonitorSync | None
    terminal: Reason | None
    aborted: bool


class ChargingEngine:
    """Provider-side physics of one charging session.

    Holds both batteries (the consumer side is the mirror seeded from the
    request), the per-tick ledger and the synchronized record pairs.
    Timestamps are session start plus tick * interval, independent of how
    fast the host actually ticks.
    """

    def __init__(
        self,
        *,
        session: SessionState,
        tech_params,
        provider_id: str,
        consumer_id: str,
        provider_battery: BatteryState,
        consumer_battery: BatteryState,
        provider_drain: DrainParams,
        consumer_drain: DrainParams,
        interval_s: float,
        start_time_s: float,
    ):
        if session.state is not SessionPhase.CHARGING:
            raise ValueError("engine needs a session in Charging state")
        self.session = session
        self.tech_params = tech_params
        self.provider_id = provider_id
        self.consumer_id = consumer_id
        self.provider_battery = provider_battery
        self.consumer_battery = consumer_battery
        self.provider_drain = provider_drain
        self.consumer_drain = consumer_drain
        self.interval_s = interval_s
        self.start_time_s = start_time_s
        self.ledger = TickLedger()
        self.tick_index = 0
        self.pairs: list[tuple[MonitorRecord, MonitorRecord]] = [
            self._record(0, start_time_s)
        ]

    def _record(self, tick_index: int, wall_time_s: float):
        return record_tick(
            self.session,
            tick_index,
            wall_time_s,
            provider_id=self.provider_id,
            provider_battery=self.provider_battery,
            consumer_id=self.consumer_id,
            consumer_battery=self.consumer_battery,
            cumulative_out_mah=self.ledger.total_out_mah,
            cumulative_in_mah=self.ledger.total_in_mah,
        )

    def sync_for(self, tick_index: int, wall_time_s: float) -> MonitorSync:
        return MonitorSync(
            session_id=self.session.session_id,
            tick_index=tick_index,
            wall_time_s=wall_time_s,
            consumer_charge_mah=self.consumer_battery.charge_mah,
            consumer_cumulative_in_mah=self.ledger.total_in_mah,
        )

    def initial_sync(self) -> MonitorSync:
        return self.sync_for(0, self.start_time_s)

    def step(self) -> EngineStep:
        """Advance one tick; on terminal the session transition is applied."""
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
            return EngineStep(sync=None, terminal=Reason.PROVIDER_DEPLETED, aborted=True)

        self.ledger.add(tick)
        self.tick_index = k
        self.session = record_progress(
            self.session,
            delivered_mah=self.ledger.total_in_mah,
            elapsed_s=k * self.interval_s,
        )
        self.pairs.append(self._record(k, wall_time_s))
        sync = self.sync_for(k, wall_time_s)

        reason = is_complete(self.session)
        aborted = False
        if (
            reason is None
            and self.session.request.kind is RequestKind.AMOUNT
            and tick.mah_in <= STALL_EPS_MAH
        ):
            reason = Reason.CONSUMER_CANCELLED
            aborted = True
        if reason is not None:
            if aborted:
                self.session = abort_session(self.session, reason)
            else:
                self.session = transition(
                    self.session, Complete(self.session.session_id, reason)
                )
        return EngineStep(sync=sync, terminal=reason, aborted=aborted)


@dataclass
class RunResult:
    """What one scenario run produced (artifact writing happens elsewhere)."""

    scenario: Scenario
    outcome: str
    terminal_reason: Reason | None
    dataset: SessionDataset | None
    consumer_records: list[MonitorRecord] = field(default_factory=list)
    sync_receipts: list[tuple[int, float, float]] = field(default_factory=list)
    upload_receipt: UploadReceipt | None = None


class _ProviderAgent:
    def __init__(self, spec: DeviceSpec, scenario: Scenario, transport, clock, tick_spacing_s: float):
        self.spec = spec
        self.scenario = scenario
        self.transport = transport
        self.clock = clock
        self.tick_spacing_s = tick_spacing_s
        self.device_id = spec.device_id
        self.battery = battery_at_level(spec.capacity_mah, spec.start_level_pct)
        self.drain = DrainParams(spec.baseline_ma)
        self.sessions = ProviderSessions()
        self.engine: ChargingEngine | None = None
        self.next_tick_at: float | None = None
        self.dataset: SessionDataset | None = None
        self.endpoint = None

    def start(self) -> None:
        self.endpoint = self.transport.register(self.device_id)
        advert = ProviderAdvert(
            provider_id=self.device_id,
            position=self.spec.position,
            battery_level_pct=self.battery.level_pct,
            technology=self.scenario.technology,
            available=True,
        )
        self.transport.advertise(self.endpoint, advert)

    def _send(self, to: str, msg) -> None:
        self.transport.send(self.endpoint, to, msg)

    def on_message(self, msg) -> None:
        if isinstance(msg, Request):
            self._on_request(msg)
        elif isinstance(msg, Abort):
            self._on_abort(msg)
        # other message types are not addressed to providers

    def _on_request(self, msg: Request) -> None:
        consumer_id = msg.request.consumer_id
        if (
            self.engine is not None
            or self.sessions.busy
            or not provider_accepts(self.battery.level_pct, self.spec.accept_threshold_pct)
        ):
            self._send(consumer_id, Reject(msg.request.request_id))
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
            provider_id=self.device_id,
            consumer_id=consumer_id,
            provider_battery=self.battery,
            consumer_battery=BatteryState(msg.consumer_capacity_mah, msg.consumer_charge_mah),
            provider_drain=self.drain,
            consumer_drain=DrainParams(msg.consumer_baseline_ma),
            interval_s=self.scenario.interval_s,
            start_time_s=now,
        )
        self._send(consumer_id, Accept(request.request_id))
        self._send(consumer_id, start)
        self._send(consumer_id, self.engine.initial_sync())
        self.next_tick_at = now + self.tick_spacing_s

    def _on_abort(self, msg: Abort) -> None:
        if self.engine is None or msg.session_id != self.engine.session.session_id:
            return
        self.engine.session = transition(self.engine.session, msg)
        self._finalize()

    def on_time(self) -> None:
        while (
            self.engine is not None
            and self.next_tick_at is not None
            and self.clock.now_s >= self.next_tick_at
        ):
            self._run_tick()

    def _run_tick(self) -> None:
        engine = self.engine
        step = engine.step()
        self.battery = engine.provider_battery
        if step.sync is not None:
            self._send(engine.consumer_id, step.sync)
        if step.terminal is None and engine.tick_index >= self.scenario.max_ticks:
            engine.session = abort_session(engine.session, Reason.CONSUMER_CANCELLED)
            step = EngineStep(None, Reason.CONSUMER_CANCELLED, aborted=True)
        if step.terminal is not None:
            terminal_msg = (
                Abort(engine.session.session_id, step.terminal)
                if step.aborted
                else Complete(engine.session.session_id, step.terminal)
            )
            self._send(engine.consumer_id, terminal_msg)
            self._finalize()
        else:
            self.next_tick_at += self.tick_spacing_s

    def _finalize(self) -> None:
        engine = self.engine
        metrics = compute_metrics(
            engine.pairs, terminal_reason=engine.session.terminal_reason
        )
        self.dataset = SessionDataset(
            session_id=engine.session.session_id,
            request=engine.session.request,
            provider_id=self.device_id,
            consumer_id=engine.consumer_id,
            technology=self.scenario.technology,
            tech_params=self.scenario.tech_params,
            provider_drain=self.drain,
            consumer_drain=engine.consumer_drain,
            provider_capacity_mah=self.spec.capacity_mah,
            consumer_capacity_mah=engine.consumer_battery.capacity_mah,
            interval_s=self.scenario.interval_s,
            records=tuple(engine.pairs),
            metrics=metrics,
            terminal_reason=engine.session.terminal_reason,
        )
        self.sessions.end(engine.session.session_id)
        self.engine = None
        self.next_tick_at = None

    def next_wakeup(self) -> float | None:
        return self.next_tick_at


class _ConsumerAgent:
    def __init__(
        self,
        spec: DeviceSpec,
        scenario: Scenario,
        transport,
        clock,
        *,
        sync_timeout_s: float,
    ):
        self.spec = spec
        self.scenario = scenario
        self.transport = transport
        self.clock = clock
        self.device_id = spec.device_id
        self.battery = battery_at_level(spec.capacity_mah, spec.start_level_pct)
        self.sync_timeout_s = sync_timeout_s

        self.ranking: list[str] = []
        self.rejected: list[str] = []
        self.attempt = 0
        self.current_provider: str | None = None
        self.request = None
        self.view: SessionState | None = None
        self.reply_deadline: float | None = None
        self.start_deadline: float | None = None
        self.sync_deadline: float | None = None

        self.records: list[MonitorRecord] = []
        self.sync_receipts: list[tuple[int, float, float]] = []
        self.outcome: str | None = None
        self.terminal_reason: Reason | None = None
        self.endpoint = None

    @property
    def done(self) -> bool:
        return self.outcome is not None

    def start(self) -> None:
        self.endpoint = self.transport.register(self.device_id)
        adverts = self.transport.discover(self.endpoint)
        self.ranking = rank_providers(self.spec.position, adverts)
        self._submit_next()

    def _send(self, to: str, msg) -> None:
        self.transport.send(self.endpoint, to, msg)

    def _submit_next(self) -> None:
        try:
            provider_id = next_after_reject(self.ranking, self.rejected)
        except NoProviderAvailable:
            self.outcome = OUTCOME_NO_PROVIDER
            self._clear_deadlines()
            return
        self.attempt += 1
        self.current_provider = provider_id
        # deterministic per scenario+seed (trace bytes must reproduce),
        # unique across scenarios (shared edge stores must not collide)
        request = make_request(
            self.scenario.request_kind,
            self.scenario.request_value,
            self.device_id,
            request_id=f"req-{self.scenario.run_id}-{self.device_id}-a{self.attempt}",
        )
        self.request = request
        view = new_session(session_id_for(request.request_id), request, provider_id)
        msg = Request(
            request=request,
            consumer_position=self.spec.position,
            consumer_capacity_mah=self.battery.capacity_mah,
            consumer_charge_mah=self.battery.charge_mah,
            consumer_baseline_ma=self.spec.baseline_ma,
        )
        self.view = transition(view, msg)
        self._send(provider_id, msg)
        self.reply_deadline = self.clock.now_s + self.scenario.request_timeout_s

    def _clear_deadlines(self) -> None:
        self.reply_deadline = None
        self.start_deadline = None
        self.sync_deadline = None

    def on_message(self, msg) -> None:
        if self.done:
            return
        if isinstance(msg, (Accept, Reject)):
            if self.request is None or msg.request_id != self.request.request_id:
                return
            if self.view.state is not SessionPhase.REQUESTED:
                return
            self.view = transition(self.view, msg)
            self._clear_deadlines()
            if isinstance(msg, Accept):
                self.start_deadline = self.clock.now_s + self.scenario.request_timeout_s
            else:
                self.rejected.append(self.current_provider)
                self._submit_next()
        elif isinstance(msg, StartTransfer):
            if self.view is None or msg.session_id != self.view.session_id:
                return
            if self.view.state is not SessionPhase.ACCEPTED:
                return
            self.view = transition(self.view, msg)
            self.start_deadline = None
            self.sync_deadline = self.clock.now_s + self.sync_timeout_s
        elif isinstance(msg, MonitorSync):
            self._on_sync(msg)
        elif isinstance(msg, Complete):
            if self.view is None or msg.session_id != self.view.session_id:
                return
            if self.view.state is not SessionPhase.CHARGING:
                return
            self.view = transition(self.view, msg)
            self.outcome = OUTCOME_COMPLETED
            self.terminal_reason = msg.reason
            self._clear_deadlines()
        elif isinstance(msg, Abort):
            if self.view is None or msg.session_id != self.view.session_id:
                return
            if self.view.state not in (SessionPhase.ACCEPTED, SessionPhase.CHARGING):
                return
            self.view = transition(self.view, msg)
            self.outcome = OUTCOME_ABORTED
            self.terminal_reason = msg.reason
            self._clear_deadlines()

    def _on_sync(self, msg: MonitorSync) -> None:
        if self.view is None or msg.session_id != self.view.session_id:
            return
        if self.view.state is not SessionPhase.CHARGING:
            return
        self.battery = BatteryState(self.battery.capacity_mah, msg.consumer_charge_mah)
        self.records.append(
            MonitorRecord(
                tick_index=msg.tick_index,
                wall_time_s=msg.wall_time_s,
                session_id=msg.session_id,
                device_id=self.device_id,
                role=ROLE_CONSUMER,
                battery_level_pct=self.battery.level_pct,
                battery_charge_mah=self.battery.charge_mah,
                cumulative_transferred_mah=msg.consumer_cumulative_in_mah,
            )
        )
        self.sync_receipts.append((msg.tick_index, msg.wall_time_s, self.clock.now_s))
        if msg.tick_index > 0:
            self.view = record_progress(
                self.view,
                delivered_mah=msg.consumer_cumulative_in_mah,
                elapsed_s=msg.tick_index * self.scenario.interval_s,
            )
        self.sync_deadline = self.clock.now_s + self.sync_timeout_s

    def on_time(self) -> None:
        """Fire at most one due deadline; the event loop calls again while one is due."""
        if self.done:
            return
        now = self.clock.now_s
        if self.reply_deadline is not None and now >= self.reply_deadline:
            # no reply counts as a rejection: walk on to the next provider
            self.reply_deadline = None
            self.rejected.append(self.current_provider)
            self._submit_next()
        elif any(d is not None and now >= d for d in (self.start_deadline, self.sync_deadline)):
            self._abort_lost()

    def _abort_lost(self) -> None:
        self.view = abort_session(self.view, Reason.TRANSPORT_LOST)
        try:
            self._send(self.current_provider, Abort(self.view.session_id, Reason.TRANSPORT_LOST))
        except EnergyShareError:
            pass
        self.outcome = OUTCOME_ABORTED
        self.terminal_reason = Reason.TRANSPORT_LOST
        self._clear_deadlines()

    def next_wakeup(self) -> float | None:
        deadlines = (self.reply_deadline, self.start_deadline, self.sync_deadline)
        return min((d for d in deadlines if d is not None), default=None)


# --- the event loop (both clock modes) -------------------------------------------


def _drive(agents: list, transport, clock, stop_at: float) -> None:
    """Serve the agents' messages and timers until nothing is pending.

    Ordering rule (virtual traces depend on it): at each instant, serve
    every device with a due message or timer in device order (providers in
    scenario order, then the consumer), a device's messages before its
    timer; a device that becomes due behind the current one waits for the
    next pass over the instant. Repeat until nothing more is due, and only
    then advance time. Plain (time, seq) heap order is not equivalent:
    SimTransport draws its drop decisions in send order.

    Returns once nothing is pending or the next event lies past
    ``stop_at``, checked after each instant and before waiting.
    """
    index = {agent.device_id: i for i, agent in enumerate(agents)}
    timers: list[tuple[float, int]] = []  # (wake-up, agent index)
    # each agent's current wake-up as last pushed; a heap entry that differs is stale
    current: list[float | None] = [None] * len(agents)

    def schedule(i: int) -> None:
        wake_at = agents[i].next_wakeup()
        if wake_at != current[i]:
            current[i] = wake_at
            if wake_at is not None:
                heapq.heappush(timers, (wake_at, i))

    def due_now() -> set[int]:
        due = {index[device_id] for device_id in transport.due_devices()}
        now = clock.now_s
        while timers and timers[0][0] <= now:
            wake_at, i = heapq.heappop(timers)
            if current[i] == wake_at:
                current[i] = None  # consumed: serving the agent pushes its next one
                due.add(i)
        return due

    for i in range(len(agents)):
        schedule(i)
    while True:
        due, last = due_now(), -1
        while due:
            i = min(due)
            if i <= last:  # finish the current pass first; else start a new one
                i = min((j for j in due if j > last), default=i)
            due.discard(i)
            agent = agents[i]
            for msg in transport.receive(agent.endpoint):
                agent.on_message(msg)
            agent.on_time()
            schedule(i)
            due |= due_now()
            last = i
        while timers and current[timers[0][1]] != timers[0][0]:
            heapq.heappop(timers)
        t_next = transport.next_delivery_time()
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


def _run_virtual(scenario: Scenario, pace: float | None) -> RunResult:
    clock = VirtualClock(pace=pace)
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
        reason = consumer.terminal_reason
    return RunResult(
        scenario=scenario,
        outcome=outcome,
        terminal_reason=reason,
        dataset=dataset,
        consumer_records=consumer.records,
        sync_receipts=consumer.sync_receipts,
    )


def run_scenario(
    scenario: Scenario,
    *,
    pace: float | None = None,
    upload_addr: str | None = None,
) -> RunResult:
    """Execute one scenario end to end and optionally upload the dataset."""
    if pace is not None and pace <= 0:
        raise ValueError(f"pace must be > 0, got {pace!r}")
    if scenario.clock_mode == "virtual":
        result = _run_virtual(scenario, pace)
    else:
        result = _run_wall(scenario, pace)
    if upload_addr and result.dataset is not None:
        result.upload_receipt = EdgeClient(upload_addr).upload(result.dataset)
    return result
