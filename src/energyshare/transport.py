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

Devices are addressed by id: ``send(frm_id, to, msg)``, ``receive``,
``advertise`` and ``discover`` name the registered device they act for.

Both satisfy the same contract: FIFO per sender/receiver pair, no
duplication, no loss unless a drop probability is configured. Both apply
the discovery rules of one :class:`Registry`, held in process or behind
the registry server. Both tell the runner's event loop which devices
have a message due, and the matching clock's ``wait_until`` moves time
on to the next event: the :class:`WallClock` waits inside ``poll``, so
input wakes it.
"""

from __future__ import annotations

import random
import selectors
import socket
import threading
import time
from collections import deque
from collections.abc import Callable

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


class Unknown(PeerUnreachable):
    """No device is registered under this id (the registry's ``ERR Unknown``)."""


def _inbox(inboxes: dict[str, deque], device_id: str) -> deque:
    """The inbox of ``device_id``; :class:`PeerUnreachable` if it never registered."""
    inbox = inboxes.get(device_id)
    if inbox is None:
        raise PeerUnreachable(f"device {device_id!r} is not registered")
    return inbox


class VirtualClock:
    """Explicitly stepped simulation time; never advances on its own.

    With a ``pace`` (simulated seconds per real second), :meth:`wait_until`
    also sleeps the real time each step stands for; that changes how long
    a run takes and nothing else.
    """

    def __init__(self, start_s: float = 0.0, pace: float | None = None):
        self.now_s = start_s
        self._pace = pace

    def advance(self, dt_s: float) -> None:
        if dt_s <= 0:
            raise ValueError(f"dt_s must be > 0, got {dt_s!r}")
        self.now_s += dt_s

    def wait_until(self, t_s: float) -> None:
        """Jump to ``t_s`` if it lies ahead, through :meth:`advance` (traces pin its float sum)."""
        if t_s > self.now_s:
            dt_s = t_s - self.now_s
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


# --- discovery -------------------------------------------------------------------


class Registry:
    """Discovery state and its rules, the same for both transports.

    Registering or advertising an id again from the same address updates
    it; from another address it is :class:`DuplicateDevice`. Not
    thread-safe: :class:`RegistryServer` calls it under its lock.
    """

    def __init__(self) -> None:
        self._devices: dict[str, str] = {}
        self._adverts: dict[str, tuple[ProviderAdvert, str]] = {}

    def register(self, device_id: str, address: str) -> None:
        known = self._devices.setdefault(device_id, address)
        if known != address:
            raise DuplicateDevice(f"{device_id} already at {known}")

    def advertise(self, address: str, advert: ProviderAdvert) -> None:
        existing = self._adverts.get(advert.provider_id)
        if existing is not None and existing[1] != address:
            raise DuplicateDevice(f"{advert.provider_id} already at {existing[1]}")
        self._adverts[advert.provider_id] = (advert, address)

    def resolve(self, device_id: str) -> str:
        try:
            return self._devices[device_id]
        except KeyError:
            raise Unknown(device_id) from None

    def discover(self) -> list[ProviderAdvert]:
        """The advertised providers that are available, sorted by id."""
        available = [a for a, _ in self._adverts.values() if a.available]
        available.sort(key=lambda a: a.provider_id)
        return available


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
        self._registry = Registry()
        # latency is constant and the clock only moves forward, so messages
        # fall due in send order: every queue below is a FIFO
        self._inboxes: dict[str, deque[tuple[float, str]]] = {}
        # one (deliver_at, device_id) entry per queued message, across inboxes
        self._wake: deque[tuple[float, str]] = deque()

    def register(self, device_id: str) -> None:
        self._inboxes.setdefault(check_id(device_id, "device_id"), deque())

    def advertise(self, device_id: str, advert: ProviderAdvert) -> None:
        _inbox(self._inboxes, device_id)
        self._registry.advertise(f"sim:{device_id}", advert)

    def discover(self, device_id: str) -> list[ProviderAdvert]:
        """Snapshot of currently advertised, available providers."""
        _inbox(self._inboxes, device_id)
        return self._registry.discover()

    def send(self, frm: str, to: str, msg: ProtocolMessage) -> None:
        """Queue ``msg`` from device ``frm`` for device ``to`` at now + latency."""
        _inbox(self._inboxes, frm)
        inbox = _inbox(self._inboxes, to)
        line = encode_message(msg)
        if self.drop_probability > 0.0 and self._rng.random() < self.drop_probability:
            return
        deliver_at = self.clock.now_s + self.latency_s
        inbox.append((deliver_at, line))
        self._wake.append((deliver_at, to))

    def receive(self, device_id: str) -> list[ProtocolMessage]:
        """Drain all messages due at the current virtual time, in order."""
        inbox = _inbox(self._inboxes, device_id)
        now = self.clock.now_s
        due: list[ProtocolMessage] = []
        while inbox and inbox[0][0] <= now:
            due.append(decode_message(inbox.popleft()[1]))
        return due

    def due_devices(self) -> set[str]:
        """Devices with a message deliverable at the current virtual time."""
        due = set()
        while self._wake and self._wake[0][0] <= self.clock.now_s:
            due.add(self._wake.popleft()[1])
        return due

    def next_delivery_time(self) -> float | None:
        """Earliest pending delivery time across all inboxes, if any."""
        wake = self._wake
        while wake:
            deliver_at, device_id = wake[0]
            inbox = self._inboxes[device_id]
            # inboxes drain in time order: a head due no later than this
            # entry means a message due at its time is still queued
            if inbox and inbox[0][0] <= deliver_at:
                return deliver_at
            wake.popleft()
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
    reader, writer)``, which may read further lines from ``reader`` and
    returns the reply text, or None once it wrote the reply to ``writer``
    itself. Replies go out through their own stream, so writing one keeps
    the requests a client sent ahead; they are answered in order. An
    exception of a type in :attr:`handled_errors` is answered with one
    ``ERR`` line (see :meth:`_error_reply`); an ``OSError`` ends the
    connection, and so does a byte that is not UTF-8, after its
    ``ERR Malformed`` reply.
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

    @staticmethod
    def _error_reply(exc: Exception) -> str:
        """``ERR <code> <detail>``: the class name of a domain error, else ``Malformed``."""
        code = type(exc).__name__ if isinstance(exc, EnergyShareError) else "Malformed"
        return f"ERR {code} {exc}"

    @staticmethod
    def error_from_reply(reply: str, known: tuple[type, ...], other: type) -> EnergyShareError:
        """The inverse of :meth:`_error_reply`: ``ERR <code> <detail>`` whose code names a
        class in ``known`` is that class with the detail, any other reply ``other(reply)``."""
        tag, _, rest = reply.partition(" ")
        code, _, detail = rest.partition(" ")
        error = {cls.__name__: cls for cls in known}.get(code) if tag == "ERR" else None
        return error(detail) if error else other(reply)

    def _serve(self, conn: socket.socket) -> None:
        try:
            reader = conn.makefile("r", encoding="utf-8", newline="\n")
            writer = conn.makefile("w", encoding="utf-8", newline="\n")
            with conn, reader, writer:
                try:
                    for raw in reader:
                        line = raw.strip()
                        if not line:
                            continue
                        try:
                            reply = self._handle(line, reader, writer)
                        except UnicodeDecodeError:
                            raise
                        except self.handled_errors as exc:
                            reply = self._error_reply(exc)
                        if reply is not None:
                            writer.write(reply + "\n")
                        writer.flush()
                except UnicodeDecodeError as exc:
                    # the stream cannot be read on past a byte that is not UTF-8
                    writer.write(self._error_reply(exc) + "\n")
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
        self._registry = Registry()
        self._lock = threading.Lock()
        super().__init__(host, port)

    def _handle(self, line: str, reader, writer) -> str:
        command, _, rest = line.partition(" ")
        if command == "REGISTER":
            fields = parse_fields(rest.split(" "))
            device_id, addr = check_id(fields["device_id"]), fields["addr"]
            with self._lock:
                self._registry.register(device_id, addr)
            return "OK"
        if command == "ADVERTISE":
            tokens = rest.split(" ")
            addr_field = parse_fields(tokens[:1])
            advert = decode_advert(" ".join(tokens[1:]))
            with self._lock:
                self._registry.advertise(addr_field["addr"], advert)
            return "OK"
        if command == "DISCOVER":
            return "".join(f"ADVERT {encode_advert(a)}\n" for a in self.snapshot()) + "END"
        if command == "RESOLVE":
            fields = parse_fields(rest.split(" "))
            with self._lock:
                return f"ADDR {self._registry.resolve(fields['device_id'])}"
        raise ValueError(f"unknown command {command!r}")

    def snapshot(self) -> list[ProviderAdvert]:
        with self._lock:
            return self._registry.discover()


# the registry's ERR codes a client raises as themselves
_REGISTRY_ERRORS = (DuplicateDevice, Unknown)


class _RegistryClient:
    """Command client against the registry server, over one kept connection."""

    def __init__(self, registry_addr: str):
        self._addr = parse_addr(registry_addr)
        self._conn: socket.socket | None = None
        self._stream = None

    def close(self) -> None:
        if self._conn is not None:
            self._stream.close()
            self._conn.close()
            self._conn = None

    def _exchange(self, command: str, multiline: bool = False) -> list[str]:
        if self._conn is None:
            self._conn = socket.create_connection(self._addr, timeout=TCP_TIMEOUT_S)
            self._stream = self._conn.makefile("rw", encoding="utf-8", newline="\n")
        try:
            self._stream.write(command + "\n")
            self._stream.flush()
            lines: list[str] = []
            for raw in self._stream:
                line = raw.strip()
                if not multiline:
                    return [line]
                if line == "END":
                    return lines
                lines.append(line)
        except OSError:
            self.close()  # the next command connects afresh
            raise
        self.close()
        raise PeerUnreachable("registry connection closed mid-response")

    def command(self, line: str) -> None:
        """Send a command answered ``OK``; any other reply raises."""
        reply = self._exchange(line)[0]
        if not reply.startswith("OK"):
            raise LineServer.error_from_reply(reply, _REGISTRY_ERRORS, PeerUnreachable)

    def discover(self) -> list[ProviderAdvert]:
        lines = self._exchange("DISCOVER", multiline=True)
        return [decode_advert(line[len("ADVERT "):]) for line in lines]

    def resolve(self, device_id: str) -> str:
        reply = self._exchange(f"RESOLVE device_id={device_id}")[0]
        if not reply.startswith("ADDR "):
            raise LineServer.error_from_reply(reply, _REGISTRY_ERRORS, PeerUnreachable)
        return reply[len("ADDR "):]


class TcpTransport:
    """Loopback-TCP transport: one listening socket and inbox per device.

    Senders keep a single connection per sender/destination pair (FIFO per
    pair comes from TCP ordering) and reconnect once on a broken pipe.
    Discovery and address resolution go through the shared registry
    server, over one connection the transport keeps until :meth:`close`.
    Every listener and accepted connection sits in one selector that
    :meth:`poll` serves on the caller's thread; a :class:`WallClock` waits
    in it. The transport starts no thread.
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

    def register(self, device_id: str) -> None:
        check_id(device_id, "device_id")
        server = socket.create_server((self._host, 0))
        address = f"{self._host}:{server.getsockname()[1]}"
        try:
            self._registry.command(f"REGISTER device_id={device_id} addr={address}")
        except BaseException:
            server.close()
            raise
        server.setblocking(False)
        self._selector.register(server, selectors.EVENT_READ, (device_id, None))
        self._servers[device_id] = server
        self._inboxes[device_id] = deque()

    def close(self) -> None:
        for key in list(self._selector.get_map().values()):
            key.fileobj.close()
        self._selector.close()
        for conn in self._conns.values():
            conn.close()
        self._conns.clear()
        self._servers.clear()
        self._registry.close()

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

    def advertise(self, device_id: str, advert: ProviderAdvert) -> None:
        _inbox(self._inboxes, device_id)
        port = self._servers[device_id].getsockname()[1]
        self._registry.command(f"ADVERTISE addr={self._host}:{port} {encode_advert(advert)}")

    def discover(self, device_id: str) -> list[ProviderAdvert]:
        _inbox(self._inboxes, device_id)
        return self._registry.discover()

    def _connect(self, to: str) -> socket.socket:
        address = parse_addr(self._registry.resolve(to))
        conn = socket.create_connection(address, timeout=TCP_TIMEOUT_S)
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

    def send(self, frm: str, to: str, msg: ProtocolMessage) -> None:
        _inbox(self._inboxes, frm)
        payload = (encode_message(msg) + "\n").encode("utf-8")
        key = (frm, to)
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

    def receive(self, device_id: str) -> list[ProtocolMessage]:
        """Drain every message that has arrived for ``device_id``, in order."""
        inbox = _inbox(self._inboxes, device_id)
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
