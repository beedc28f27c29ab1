"""Message delivery, peer discovery and the clocks that pace a run.

Two interchangeable transports stand in for the short-range radio link:

* :class:`SimTransport`: deterministic in-process delivery driven by a
  :class:`VirtualClock`: a message sent at t is receivable at t + latency,
  in timestamp order with ties broken by send order.
* :class:`TcpTransport`: loopback TCP with one line-encoded message per
  send and a small registry server for discovery. One transport serves
  every device of a run; each device still has its own listening socket
  and registry entry. All of its sockets sit in one selector, read by
  :meth:`TcpTransport.poll` on the caller's thread.

Both satisfy the same contract: FIFO per sender/receiver pair, no
duplication, no loss unless a drop probability is configured. Both tell
the runner's event loop which devices have a message due, and the
matching clock's ``wait_until`` moves time on to the next event: the
:class:`WallClock` waits inside ``poll``, so input wakes it.
"""

from __future__ import annotations

import heapq
import itertools
import random
import selectors
import socket
import threading
import time
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass

from .battery import Technology
from .errors import EnergyShareError
from .matching import ProviderAdvert
from .protocol import ProtocolMessage, decode_message, encode_message
from .util import check_id, fmt_bool, fmt_float, parse_bool, parse_fields

DEFAULT_LATENCY_S = 0.05


class DuplicateDevice(EnergyShareError):
    """A device id is already registered/advertised under another address."""


class PeerUnreachable(EnergyShareError):
    """The destination device is unknown."""


@dataclass(frozen=True)
class Endpoint:
    device_id: str
    address: str


class VirtualClock:
    """Explicitly stepped simulation time; never advances on its own.

    With a ``pace`` (simulated seconds per real second), :meth:`wait_until`
    also sleeps the real time each step stands for; that changes how long
    a run takes and nothing else.
    """

    def __init__(self, start_s: float = 0.0, pace: float | None = None):
        self._now_s = start_s
        self._pace = pace

    @property
    def now_s(self) -> float:
        return self._now_s

    def advance(self, dt_s: float) -> float:
        if dt_s <= 0:
            raise ValueError(f"dt_s must be > 0, got {dt_s!r}")
        self._now_s += dt_s
        return self._now_s

    def wait_until(self, t_s: float) -> None:
        """Jump to ``t_s`` if it lies ahead."""
        if t_s > self._now_s:
            dt_s = t_s - self._now_s
            self.advance(dt_s)
            if self._pace:
                time.sleep(dt_s / self._pace)


class WallClock:
    """Real time on the monotonic clock, offset once to read as epoch seconds.

    Stepping the system clock mid-run moves nothing. :meth:`wait_until`
    waits in ``poll`` (a transport's :meth:`TcpTransport.poll`), which
    returns early once input is ready.
    """

    def __init__(self, poll: Callable[[float], None]):
        self._offset_s = time.time() - time.monotonic()
        self._poll = poll

    @property
    def now_s(self) -> float:
        return self._offset_s + time.monotonic()

    def wait_until(self, t_s: float) -> None:
        """Read input until ``t_s`` or until some is ready, whichever comes first."""
        self._poll(max(t_s - self.now_s, 0.0))


# --- advert wire encoding (shared by the registry protocol) ------------------


def encode_advert(advert: ProviderAdvert) -> str:
    return (
        f"provider_id={advert.provider_id}"
        f" x={fmt_float(advert.position[0])} y={fmt_float(advert.position[1])}"
        f" level_pct={fmt_float(advert.battery_level_pct)}"
        f" technology={advert.technology.value}"
        f" available={fmt_bool(advert.available)}"
    )


def decode_advert(text: str) -> ProviderAdvert:
    fields = parse_fields(text.split(" "))
    return ProviderAdvert(
        provider_id=check_id(fields["provider_id"]),
        position=(float(fields["x"]), float(fields["y"])),
        battery_level_pct=float(fields["level_pct"]),
        technology=Technology(fields["technology"]),
        available=parse_bool(fields["available"]),
    )


# --- deterministic in-process transport ---------------------------------------


class SimTransport:
    """Virtual-clock transport: all state in-process, fully deterministic.

    Messages are encoded and decoded through the real wire format on every
    send so anything unencodable fails here too. A configured drop
    probability (seeded) silently discards sends to exercise loss
    handling; the default is lossless.
    """

    def __init__(
        self,
        clock: VirtualClock,
        latency_s: float = DEFAULT_LATENCY_S,
        drop_probability: float = 0.0,
        seed: int = 0,
    ):
        if latency_s < 0:
            raise ValueError(f"latency_s must be >= 0, got {latency_s!r}")
        if not 0.0 <= drop_probability <= 1.0:
            raise ValueError(f"drop_probability must be in [0, 1], got {drop_probability!r}")
        self.clock = clock
        self.latency_s = latency_s
        self.drop_probability = drop_probability
        self._rng = random.Random(seed)
        self._endpoints: dict[str, Endpoint] = {}
        self._adverts: dict[str, tuple[ProviderAdvert, str]] = {}
        self._inboxes: dict[str, list[tuple[float, int, str]]] = {}
        # one (deliver_at, seq, device_id) entry per queued message, across inboxes
        self._wake: list[tuple[float, int, str]] = []
        self._seq = itertools.count()

    def register(self, device_id: str) -> Endpoint:
        check_id(device_id, "device_id")
        if device_id in self._endpoints:
            return self._endpoints[device_id]
        endpoint = Endpoint(device_id, f"sim:{device_id}")
        self._endpoints[device_id] = endpoint
        self._inboxes[device_id] = []
        return endpoint

    def _require_registered(self, endpoint: Endpoint) -> None:
        known = self._endpoints.get(endpoint.device_id)
        if known is None or known.address != endpoint.address:
            raise PeerUnreachable(f"endpoint {endpoint.device_id!r} is not registered")

    def advertise(self, endpoint: Endpoint, advert: ProviderAdvert) -> None:
        self._require_registered(endpoint)
        existing = self._adverts.get(advert.provider_id)
        if existing is not None and existing[1] != endpoint.address:
            raise DuplicateDevice(
                f"{advert.provider_id!r} already advertises from {existing[1]}"
            )
        self._adverts[advert.provider_id] = (advert, endpoint.address)

    def discover(self, endpoint: Endpoint) -> list[ProviderAdvert]:
        """Snapshot of currently advertised, available providers."""
        self._require_registered(endpoint)
        available = [a for a, _ in self._adverts.values() if a.available]
        available.sort(key=lambda a: a.provider_id)
        return available

    def send(self, frm: Endpoint, to: str, msg: ProtocolMessage) -> None:
        """Queue ``msg`` for ``to`` (a device id) at now + latency."""
        self._require_registered(frm)
        if to not in self._endpoints:
            raise PeerUnreachable(f"peer {to!r} is not registered")
        line = encode_message(msg)
        if self.drop_probability > 0.0 and self._rng.random() < self.drop_probability:
            return
        deliver_at = self.clock.now_s + self.latency_s
        seq = next(self._seq)
        heapq.heappush(self._inboxes[to], (deliver_at, seq, line))
        heapq.heappush(self._wake, (deliver_at, seq, to))

    def receive(self, endpoint: Endpoint) -> list[ProtocolMessage]:
        """Drain all messages due at the current virtual time, in order."""
        self._require_registered(endpoint)
        inbox = self._inboxes[endpoint.device_id]
        due: list[ProtocolMessage] = []
        while inbox and inbox[0][0] <= self.clock.now_s:
            _, _, line = heapq.heappop(inbox)
            due.append(decode_message(line))
        return due

    def due_devices(self) -> set[str]:
        """Devices with a message deliverable at the current virtual time."""
        due = set()
        while self._wake and self._wake[0][0] <= self.clock.now_s:
            due.add(heapq.heappop(self._wake)[2])
        return due

    def next_delivery_time(self) -> float | None:
        """Earliest pending delivery time across all inboxes, if any."""
        wake = self._wake
        while wake:
            deliver_at, seq, device_id = wake[0]
            inbox = self._inboxes[device_id]
            # inboxes drain in (deliver_at, seq) order: a head at or before
            # this entry means its message is still queued
            if inbox and inbox[0][:2] <= (deliver_at, seq):
                return deliver_at
            heapq.heappop(wake)
        return None


# --- TCP loopback transport ----------------------------------------------------

# connect, registry exchanges and one blocked send give up after this long
TCP_TIMEOUT_S = 10.0
# how long a send whose peer buffer is full waits in poll() before retrying
_SEND_RETRY_S = 0.01


def parse_addr(addr: str) -> tuple[str, int]:
    host, _, port = addr.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"expected host:port, got {addr!r}")
    return host, int(port)


class LineServer:
    """A listening socket with one accept thread and one thread per connection.

    Subclasses answer each non-blank request line in ``_handle(line,
    stream)``, which may read further lines from the stream and returns
    the reply text, or None once it wrote the reply itself. An exception
    of a type in :attr:`handled_errors` is answered with
    ``_error_reply(exc)``; an ``OSError`` ends the connection.
    """

    thread_name: str
    handled_errors: tuple[type[Exception], ...]

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self._server = socket.create_server((host, port))
        self.address = f"{host}:{self._server.getsockname()[1]}"
        self._thread = threading.Thread(
            target=self.serve_forever, name=f"{self.thread_name}-accept", daemon=True
        )

    def start(self) -> "LineServer":
        self._thread.start()
        return self

    def stop(self) -> None:
        # on Linux close() alone leaves accept() blocked; shutdown() wakes it
        try:
            self._server.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._server.close()

    def serve_forever(self) -> None:
        while True:  # ends when stop() closes the listener
            try:
                conn, _ = self._server.accept()
            except OSError:
                return
            threading.Thread(
                target=self._serve, args=(conn,), name=f"{self.thread_name}-conn", daemon=True
            ).start()

    def _serve(self, conn: socket.socket) -> None:
        try:
            with conn, conn.makefile("rw", encoding="utf-8", newline="\n") as stream:
                for raw in stream:
                    line = raw.strip()
                    if not line:
                        continue
                    try:
                        reply = self._handle(line, stream)
                    except self.handled_errors as exc:
                        reply = self._error_reply(exc)
                    if reply is not None:
                        stream.write(reply + "\n")
                    stream.flush()
        except OSError:
            return


class RegistryServer(LineServer):
    """Discovery registry for the TCP transport (the confined-area lookup).

    Line protocol, one command per line:

        REGISTER device_id=<id> addr=<host:port>
        ADVERTISE addr=<host:port> <advert fields>
        DISCOVER
        RESOLVE device_id=<id>

    Responses are ``OK ...`` / ``ERR <code> <detail>``; DISCOVER answers
    with one ``ADVERT <fields>`` line per advert followed by ``END``;
    RESOLVE answers ``ADDR <host:port>``. All updates happen under one
    lock, so a DISCOVER snapshot never sees a half-applied advert.
    """

    thread_name = "registry"
    handled_errors = (Exception,)  # malformed input must not kill the registry

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self._devices: dict[str, str] = {}
        self._adverts: dict[str, tuple[ProviderAdvert, str]] = {}
        self._lock = threading.Lock()
        super().__init__(host, port)

    def _error_reply(self, exc: Exception) -> str:
        return f"ERR Malformed {exc}"

    def _handle(self, line: str, stream) -> str:
        command, _, rest = line.partition(" ")
        if command == "REGISTER":
            fields = parse_fields(rest.split(" "))
            device_id, addr = check_id(fields["device_id"]), fields["addr"]
            with self._lock:
                known = self._devices.get(device_id)
                if known is not None and known != addr:
                    return f"ERR DuplicateDevice {device_id} already at {known}"
                self._devices[device_id] = addr
            return "OK"
        if command == "ADVERTISE":
            tokens = rest.split(" ")
            addr_field = parse_fields(tokens[:1])
            advert = decode_advert(" ".join(tokens[1:]))
            with self._lock:
                existing = self._adverts.get(advert.provider_id)
                if existing is not None and existing[1] != addr_field["addr"]:
                    return f"ERR DuplicateDevice {advert.provider_id} already at {existing[1]}"
                self._adverts[advert.provider_id] = (advert, addr_field["addr"])
            return "OK"
        if command == "DISCOVER":
            return "".join(f"ADVERT {encode_advert(a)}\n" for a in self.snapshot()) + "END"
        if command == "RESOLVE":
            fields = parse_fields(rest.split(" "))
            with self._lock:
                addr = self._devices.get(fields["device_id"])
            if addr is None:
                return f"ERR Unknown {fields['device_id']}"
            return f"ADDR {addr}"
        return f"ERR Malformed unknown command {command!r}"

    def snapshot(self) -> list[ProviderAdvert]:
        with self._lock:
            available = [a for a, _ in self._adverts.values() if a.available]
        available.sort(key=lambda a: a.provider_id)
        return available


class _RegistryClient:
    """One-shot command client against the registry server."""

    def __init__(self, registry_addr: str):
        self._addr = parse_addr(registry_addr)

    def _exchange(self, command: str, multiline: bool = False) -> list[str]:
        with socket.create_connection(self._addr, timeout=TCP_TIMEOUT_S) as conn:
            with conn.makefile("rw", encoding="utf-8", newline="\n") as stream:
                stream.write(command + "\n")
                stream.flush()
                lines: list[str] = []
                for raw in stream:
                    line = raw.strip()
                    if not multiline:
                        return [line]
                    if line == "END":
                        return lines
                    lines.append(line)
        raise PeerUnreachable("registry connection closed mid-response")

    def command(self, line: str) -> str:
        reply = self._exchange(line)[0]
        if reply.startswith("ERR DuplicateDevice"):
            raise DuplicateDevice(reply)
        return reply

    def discover(self) -> list[ProviderAdvert]:
        lines = self._exchange("DISCOVER", multiline=True)
        return [decode_advert(line[len("ADVERT "):]) for line in lines]

    def resolve(self, device_id: str) -> str | None:
        reply = self._exchange(f"RESOLVE device_id={device_id}")[0]
        if reply.startswith("ADDR "):
            return reply[len("ADDR "):]
        return None


class TcpTransport:
    """Loopback-TCP transport: one listening socket and inbox per endpoint.

    Senders keep a single connection per sender/destination pair (FIFO per
    pair comes from TCP ordering) and reconnect once on a broken pipe.
    Discovery and address resolution go through the shared registry
    server. Every listener and accepted connection sits in one selector
    that :meth:`poll` serves on the caller's thread; a :class:`WallClock`
    waits in it. The transport starts no thread.
    """

    def __init__(self, registry_addr: str, host: str = "127.0.0.1"):
        self._registry = _RegistryClient(registry_addr)
        self._host = host
        # selector data: (device_id, None) for a listener, (device_id, unread
        # tail) for an accepted connection
        self._selector = selectors.DefaultSelector()
        self._servers: dict[str, socket.socket] = {}
        self._inboxes: dict[str, deque[ProtocolMessage]] = {}
        self._conns: dict[tuple[str, str], socket.socket] = {}

    def register(self, device_id: str) -> Endpoint:
        check_id(device_id, "device_id")
        if device_id in self._servers:
            server = self._servers[device_id]
            return Endpoint(device_id, f"{self._host}:{server.getsockname()[1]}")
        server = socket.create_server((self._host, 0))
        address = f"{self._host}:{server.getsockname()[1]}"
        try:
            reply = self._registry.command(f"REGISTER device_id={device_id} addr={address}")
        except EnergyShareError:
            server.close()
            raise
        if not reply.startswith("OK"):
            server.close()
            raise PeerUnreachable(f"registry refused registration: {reply}")
        server.setblocking(False)
        self._selector.register(server, selectors.EVENT_READ, (device_id, None))
        self._servers[device_id] = server
        self._inboxes[device_id] = deque()
        return Endpoint(device_id, address)

    def close(self) -> None:
        for key in list(self._selector.get_map().values()):
            key.fileobj.close()
        self._selector.close()
        for conn in self._conns.values():
            conn.close()
        self._conns.clear()
        self._servers.clear()

    def poll(self, timeout_s: float) -> None:
        """Wait up to ``timeout_s`` for input, then take in whatever is ready.

        Accepts waiting connections and appends each complete line read to
        its device's inbox; a connection keeps its partial last line for
        the next read. Bad input (a malformed or undecodable line, a reset)
        closes only the connection it came on and never raises.
        """
        for key, _ in self._selector.select(timeout_s):
            device_id, tail = key.data
            if tail is None:
                self._accept(key.fileobj, device_id)
            else:
                self._read(key.fileobj, device_id, tail)

    def _accept(self, server: socket.socket, device_id: str) -> None:
        try:
            conn, _ = server.accept()
        except OSError:  # the client gave up before it was accepted
            return
        conn.setblocking(False)
        self._selector.register(conn, selectors.EVENT_READ, (device_id, bytearray()))

    def _read(self, conn: socket.socket, device_id: str, tail: bytearray) -> None:
        try:
            chunk = conn.recv(65536)
            if chunk:
                tail += chunk
                *lines, rest = tail.split(b"\n")
                tail[:] = rest
                inbox = self._inboxes[device_id]
                for line in lines:
                    if line.strip():
                        inbox.append(decode_message(line.decode("utf-8")))
                return
        except BlockingIOError:
            return
        except (OSError, ValueError, EnergyShareError):
            pass
        # closed by the peer, reset, or unreadable: drop this connection only
        self._selector.unregister(conn)
        conn.close()

    def advertise(self, endpoint: Endpoint, advert: ProviderAdvert) -> None:
        if endpoint.device_id not in self._servers:
            raise PeerUnreachable(f"endpoint {endpoint.device_id!r} is not registered")
        reply = self._registry.command(
            f"ADVERTISE addr={endpoint.address} {encode_advert(advert)}"
        )
        if not reply.startswith("OK"):
            raise PeerUnreachable(f"registry refused advert: {reply}")

    def discover(self, endpoint: Endpoint) -> list[ProviderAdvert]:
        if endpoint.device_id not in self._servers:
            raise PeerUnreachable(f"endpoint {endpoint.device_id!r} is not registered")
        return self._registry.discover()

    def _connect(self, to: str) -> socket.socket:
        address = self._registry.resolve(to)
        if address is None:
            raise PeerUnreachable(f"peer {to!r} is not registered")
        conn = socket.create_connection(parse_addr(address), timeout=TCP_TIMEOUT_S)
        conn.setblocking(False)
        return conn

    def _send_all(self, conn: socket.socket, payload: bytes) -> None:
        """Send without blocking; while the peer's buffer is full, :meth:`poll`.

        The peer is usually a device of this transport, read only by
        :meth:`poll`, so a send blocked on a full buffer would wait forever.
        """
        view = memoryview(payload)
        deadline = time.monotonic() + TCP_TIMEOUT_S
        while view:
            try:
                view = view[conn.send(view):]
            except BlockingIOError:
                if time.monotonic() > deadline:
                    raise TimeoutError("peer stopped reading") from None
                self.poll(_SEND_RETRY_S)

    def send(self, frm: Endpoint, to: str, msg: ProtocolMessage) -> None:
        if frm.device_id not in self._servers:
            raise PeerUnreachable(f"endpoint {frm.device_id!r} is not registered")
        payload = (encode_message(msg) + "\n").encode("utf-8")
        key = (frm.device_id, to)
        for _ in range(2):  # one reconnect attempt, then give up
            conn = self._conns.get(key)
            try:
                if conn is None:
                    conn = self._conns[key] = self._connect(to)
                self._send_all(conn, payload)
                return
            except OSError as exc:
                self._conns.pop(key, None)
                if conn is not None:
                    conn.close()
                error = exc
        raise PeerUnreachable(f"cannot deliver to {to!r}: {error}") from error

    def receive(self, endpoint: Endpoint) -> list[ProtocolMessage]:
        """Drain every message that has arrived for ``endpoint``, in order."""
        inbox = self._inboxes.get(endpoint.device_id)
        if inbox is None:
            raise PeerUnreachable(f"endpoint {endpoint.device_id!r} is not registered")
        messages: list[ProtocolMessage] = []
        while inbox:
            messages.append(inbox.popleft())
        return messages

    def due_devices(self) -> set[str]:
        """Devices with an arrived message, after a :meth:`poll` that does not wait."""
        self.poll(0)
        return {device_id for device_id, inbox in self._inboxes.items() if inbox}

    def next_delivery_time(self) -> None:
        """Arrivals are not known ahead; a :class:`WallClock` waits in :meth:`poll`."""
        return None
