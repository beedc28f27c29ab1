"""Measurement helpers shared by the benchmark workloads.

* percentiles and the tail rule (the highest percentile that still has at
  least ten samples beyond it);
* metric names, which must match ``[A-Za-z0-9_.-]+``;
* :class:`Recorder`, which keeps per-operation latencies and failures, and
  times a reference kernel before each timed call;
* :class:`Tracer`, which wraps functions of the program under test from
  the outside and keeps call counts, busy time and self time per span name.
"""

from __future__ import annotations

import functools
import gc
import itertools
import math
import re
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+\Z")
MIN_BEYOND_TAIL = 10
# Typical time of reference_kernel() on the 2-vCPU 2.1 GHz KVM guest (Python
# 3.11) the benchmark was defined on; host-normalised times are scaled to it.
REFERENCE_MS = 6.0


def reference_kernel() -> str:
    """Fixed pure-Python work that shares no code with the program.

    Shared hosts speed up and slow down by 20% or more within minutes, and
    the program's code speeds up and slows down with them. Timing this
    kernel just before each timed call measures the host's speed at that
    moment, so the host-normalised metrics can divide it out.
    """
    rows = [{"k": i, "v": repr(i * 0.1), "s": f"id-{i % 97}"} for i in range(3000)]
    rows.sort(key=lambda r: (r["s"], r["k"]))
    return ",".join(r["v"] for r in rows[:500])


def check_name(name: str) -> str:
    if not NAME_RE.match(name) or len(name) > 64:
        raise ValueError(f"metric name {name!r} must match [A-Za-z0-9_.-]{{1,64}}")
    return name


def percentile(values, p: float) -> float:
    """Linear interpolation between order statistics (numpy's default rule)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail(values) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it, as ``(percentile, value)``.

    That is the order statistic with exactly ten samples above it, at
    percentile ``100 * (n - 10) / n``. Below 20 samples even the median has
    fewer than ten beyond it, and there is no tail.
    """
    n = len(values)
    if n < 2 * MIN_BEYOND_TAIL:
        return None
    return 100.0 * (n - MIN_BEYOND_TAIL) / n, sorted(values)[n - MIN_BEYOND_TAIL - 1]


@dataclass
class Metric:
    name: str
    value: float
    unit: str
    n: int = 0
    note: str = ""

    def line(self) -> str:
        detail = f"n={self.n}" + (f" {self.note}" if self.note else "")
        return f"{self.name:<40} {self.value:>14.6g} {self.unit:<6} {detail}"


def latency_metrics(prefix: str, seconds: list[float], with_tail: bool = True) -> list[Metric]:
    """``<prefix>_p50_ms`` and, when asked, ``<prefix>_tail_ms`` over ``seconds``."""
    ms = [s * 1000.0 for s in seconds]
    out = [Metric(f"{prefix}_p50_ms", percentile(ms, 50.0), "ms", len(ms), "p50")]
    if with_tail:
        found = tail(ms)
        if found is None:
            out.append(Metric(f"{prefix}_tail_ms", max(ms), "ms", len(ms),
                              "max (fewer than 20 samples: no percentile has 10 beyond)"))
        else:
            p, value = found
            out.append(Metric(f"{prefix}_tail_ms", value, "ms", len(ms),
                              f"p{p:.1f}, {MIN_BEYOND_TAIL} samples beyond"))
    return out


class Recorder:
    """Latencies per operation kind, simulated ticks and failed checks of one phase."""

    def __init__(self) -> None:
        self.latencies: dict[str, list[float]] = defaultdict(list)
        self.paced: dict[str, list[float]] = defaultdict(list)
        self.reference: dict[str, list[float]] = defaultdict(list)
        self.ticks: dict[str, int] = defaultdict(int)
        self.values: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._op_failed = False

    def timed(self, kind: str, fn, *args, paced_s: float = 0.0):
        """Time ``fn(*args)`` right after timing the reference kernel.

        Every call starts from an empty young generation of the garbage
        collector, so earlier operations do not decide when it runs.
        ``paced_s`` of the call is deliberate waiting, which host speed does
        not change.
        """
        gc.collect()
        start = time.perf_counter()
        reference_kernel()
        self.reference[kind].append(time.perf_counter() - start)
        start = time.perf_counter()
        result = fn(*args)
        self.latencies[kind].append(time.perf_counter() - start)
        self.paced[kind].append(paced_s)
        return result

    def reference_s(self) -> float:
        return percentile([r for refs in self.reference.values() for r in refs], 50.0)

    def normalized(self, kind: str) -> list[float]:
        """Latencies with their computing part scaled by ``REFERENCE_MS`` over the
        reference-kernel time measured just before each call."""
        return [
            p + (t - p) * REFERENCE_MS / 1000.0 / r
            for t, p, r in zip(self.latencies[kind], self.paced[kind], self.reference[kind])
        ]

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self._op_failed = True
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def begin_op(self) -> None:
        self.attempted += 1
        self._op_failed = False

    def end_op(self) -> None:
        if self._op_failed:
            self.failed += 1


class Tracer:
    """Spans around calls into the program, recorded from outside it.

    :meth:`wrap` replaces an attribute of a module or class with a wrapper
    that records a span (name, start, end, parent span, operation id).
    Each thread keeps its own span stack and totals, so the hot path takes
    no lock. A span's self time is its duration minus the time its direct
    child spans cover. Raw spans are kept in memory up to ``KEEP_SPANS``
    per thread; totals cover every call.
    """

    KEEP_SPANS = 100_000

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.op_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._threads: list[dict] = []
        self._threads_lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def _state(self) -> dict:
        state = getattr(self._local, "state", None)
        if state is None:
            state = {"stack": [], "totals": defaultdict(lambda: [0, 0.0, 0.0, 0, 0]),
                     "counts": defaultdict(int), "spans": []}
            self._local.state = state
            with self._threads_lock:
                self._threads.append(state)
        return state

    def call(self, name: str, fn, *args, **kwargs):
        state = self._state()
        stack = state["stack"]
        frame = [next(self._ids), 0.0, 0, 0]  # id, child time, children, descendants
        parent = stack[-1][0] if stack else 0
        stack.append(frame)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            duration = end - start
            if stack:
                up = stack[-1]
                up[1] += duration
                up[2] += 1
                up[3] += frame[3] + 1
            total = state["totals"][name]
            total[0] += 1
            total[1] += duration
            total[2] += duration - frame[1]
            total[3] += frame[2]
            total[4] += frame[3]
            spans = state["spans"]
            if len(spans) < self.KEEP_SPANS:
                spans.append((name, start, end, frame[0], parent, self.op_id))

    def count(self, name: str, n: int = 1) -> None:
        self._state()["counts"][name] += n

    def wrap(self, owner, attr: str, name: str, post=None) -> None:
        """Trace ``owner.attr`` as span ``name``; ``post(args, result)`` may count."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            result = tracer.call(name, original, *args, **kwargs)
            if post is not None:
                post(args, result)
            return result

        self.replace(owner, attr, traced)

    def replace(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def totals(self, span_cost_s: float = 0.0) -> dict[str, tuple[int, float, float]]:
        """``name -> (calls, busy seconds, self seconds)`` over all threads.

        ``span_cost_s`` (see :meth:`span_cost`) is taken off once per nested
        span from busy time and once per direct child from self time, so the
        figures estimate the program without the tracer's own cost.
        """
        merged: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0, 0, 0])
        for state in list(self._threads):
            for name, values in list(state["totals"].items()):
                m = merged[name]
                for k, v in enumerate(values):
                    m[k] += v
        return {
            name: (calls, max(busy - descendants * span_cost_s, 0.0),
                   max(own - children * span_cost_s, 0.0))
            for name, (calls, busy, own, children, descendants) in merged.items()
        }

    @staticmethod
    def span_cost(n: int = 20_000) -> float:
        """Seconds one traced call adds around the call it wraps, measured now."""

        class Probe:
            @staticmethod
            def noop():
                return None

        plain = Probe.noop
        start = time.perf_counter()
        for _ in range(n):
            plain()
        untraced = time.perf_counter() - start
        probe = Tracer()
        probe.wrap(Probe, "noop", "noop", post=lambda args, result: None)
        start = time.perf_counter()
        for _ in range(n):
            Probe.noop()
        traced = time.perf_counter() - start
        probe.restore()
        return max(traced - untraced, 0.0) / n

    def counts(self) -> dict[str, int]:
        merged: dict[str, int] = defaultdict(int)
        for state in list(self._threads):
            for name, n in list(state["counts"].items()):
                merged[name] += n
        return dict(merged)

    def spans(self) -> list[tuple]:
        out = []
        for state in list(self._threads):
            out.extend(state["spans"])
        return out
