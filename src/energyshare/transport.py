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

The registry server, and the edge service in ``edge``, are each a
:class:`LineServer`: one selector loop, on one thread, accepts, reads and
answers every connection, with no thread per connection.

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
import sys
import threading
import time
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from typing import Any

from .battery import Technology
from .errors import EnergyShareError
from .matching import ProviderAdvert
from .protocol import ProtocolMessage, Reason, decode_message, encode_message
from .util import ID_PATTERN, NUMBER, alternation, check_id, fmt_value, line_pattern

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
    """Explicitly stepped simulation time: it never advances on its own, and never waits."""

    def __init__(self):
        self.now_s = 0.0

    def wait_until(self, t_s: float) -> None:
        """Jump to ``t_s`` if it lies ahead, by adding the step (traces pin the float sum)."""
        if t_s > self.now_s:
            self.now_s += t_s - self.now_s


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


# --- the key=value lines of the registry and the edge -----------------------------------

_ADVERT = dict(provider_id=ID_PATTERN, x=NUMBER, y=NUMBER, level_pct=NUMBER,
               technology=alternation(Technology), available="true|false")
# every key=value line the registry, the edge and their clients read, by tag: its fields in
# their fixed order, each with the pattern its value fullmatches (an addr, any token parse_addr reads)
LINES = {
    "REGISTER": line_pattern(device_id=ID_PATTERN, addr=r"\S+"),
    "ADVERTISE": line_pattern(addr=r"\S+", **_ADVERT),
    "DISCOVER": line_pattern(),
    "ADVERT": line_pattern(**_ADVERT),
    "RESOLVE": line_pattern(device_id=ID_PATTERN),
    "SUMMARY": line_pattern(session_id=ID_PATTERN, consumer_id=ID_PATTERN, provider_id=ID_PATTERN,
                            technology=alternation(Technology), terminal_reason=alternation(Reason),
                            energy_loss_mah=NUMBER),
}


def read_line(line: str) -> tuple[str, dict[str, str]]:
    """A line's tag and its fields' values by name; ``ValueError`` unless the tag has a
    :data:`LINES` entry and the fields are exactly that entry's, in order, each in its form."""
    tag, _, rest = line.partition(" ")
    pattern = LINES.get(tag)
    if pattern is None:
        raise ValueError(f"unknown command {tag!r}")
    match = pattern.fullmatch(rest)
    if match is None:
        raise ValueError(f"bad {tag} line: fields must be exactly {' '.join(pattern.groupindex) or 'none'}")
    return tag, match.groupdict()


def write_line(tag: str, *values: Any) -> str:
    """The ``tag`` line of ``values``, named by its :data:`LINES` fields in order."""
    names = LINES[tag].groupindex
    return " ".join([tag, *(f"{name}={fmt_value(value)}" for name, value in zip(names, values))])


def read_to_end(stream, tag: str, known: tuple[type, ...], other: type) -> list[dict[str, str]]:
    """The fields of each ``tag`` line of a reply read off a binary stream up to its ``END`` line.
    Any other line raises as :meth:`LineServer.error_from_reply` makes it; a reply cut short, ``other``."""
    block = []
    for raw in stream:
        line = raw.decode("utf-8").strip()
        if line == "END":
            return block
        if not line.startswith(tag + " "):
            raise LineServer.error_from_reply(line, known, other)
        block.append(read_line(line)[1])
    raise other("connection closed mid-response")


def _advert_values(advert: ProviderAdvert) -> tuple:
    """An advert's ``ADVERT`` values; a number given as an int is written as a float."""
    (x, y), level = advert.position, advert.battery_level_pct
    return advert.provider_id, float(x), float(y), float(level), advert.technology, advert.available


def _advert(provider_id, x, y, level_pct, technology, available) -> ProviderAdvert:
    """The advert an ``ADVERT`` line's fields hold."""
    position, level = (float(x), float(y)), float(level_pct)
    return ProviderAdvert(provider_id, position, level, Technology(technology), available == "true")


# --- discovery -------------------------------------------------------------------


class Registry:
    """Discovery state and its rules, the same for both transports.

    Registering or advertising an id again from the same address updates
    it; from another address it is :class:`DuplicateDevice`. Not
    thread-safe: :class:`RegistryServer` calls it from its one thread.
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
    handling; the default is lossless. :meth:`send` and :meth:`receive`
    run for every message, so they look up inboxes in place and call
    ``_inbox`` only to raise :class:`PeerUnreachable`.
    """

    def __init__(
        self,
        clock: VirtualClock,
        latency_s: float = DEFAULT_LATENCY_S,
        drop_probability: float = 0.0,
        seed: int = 0,
    ):
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
        inbox = self._inboxes.get(to)
        if inbox is None or frm not in self._inboxes:
            _inbox(self._inboxes, frm)
            _inbox(self._inboxes, to)
        line = encode_message(msg)
        if self.drop_probability > 0.0 and self._rng.random() < self.drop_probability:
            return
        deliver_at = self.clock.now_s + self.latency_s
        inbox.append((deliver_at, line))
        self._wake.append((deliver_at, to))

    def receive(self, device_id: str) -> list[ProtocolMessage]:
        """Drain all messages due at the current virtual time, in order."""
        inbox = self._inboxes.get(device_id)
        if inbox is None:
            _inbox(self._inboxes, device_id)
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
# the host every listener of a run binds to
LOOPBACK_HOST = "127.0.0.1"
# the bytes one read of a socket or a file asks for
READ_SIZE = 1 << 16


def parse_addr(addr: str) -> tuple[str, int]:
    """``HOST:PORT`` as ``(host, port)``; ``ValueError`` unless the port is a number in 0-65535."""
    host, _, port = addr.rpartition(":")
    if not host or not (port.isascii() and port.isdigit()) or int(port) > 65535:
        raise ValueError(f"expected host:port with a port in 0-65535, got {addr!r}")
    return host, int(port)


class TooLong(ValueError):
    """A request line or block longer than a server holds: answered ``ERR Malformed``, and
    the connection closed, without reading it on."""


class _Connection:
    """One client connection of a :class:`LineServer`: what it sent that is not yet used, the
    reply being sent, and the block being read."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.inbox = bytearray()  # bytes received and not yet used: at most a line part-way
        self.out = bytearray()  # reply bytes not yet sent
        self.reply: Iterator[bytes] | None = None  # the rest of a reply streamed as it is sent
        self.block: Any = None  # what reads the block that follows a request, until its end
        self.events = selectors.EVENT_READ
        self.eof = False  # the client sends nothing more
        self.closing = False  # after the replies queued, the connection closes unread

    def close(self) -> None:
        self.sock.close()
        if self.block is not None:
            self.block.close()


class LineServer:
    """A listening socket whose connections one selector loop serves, on one thread.

    The loop accepts connections, reads what each sends, splits it into request lines and
    answers each non-blank one with ``_handle(line)``'s reply, in order: the reply text (one
    or more lines, the last without its newline); an iterator of the reply's bytes, sent a
    part at a time as the socket takes them; or the reader of a block that follows the line,
    whose ``take(data, eof)`` uses the whole lines of the bytes received, deleting them, and
    gives the reply once the block has ended, and whose ``close()`` ends it in any case. While
    the reader is ``busy``, with work to do that needs no input, the loop reads nothing more
    from its connection and calls ``take`` once a turn, between other connections' events.
    A connection's next request is read only once the reply before it is sent, so replies
    leave in request order and a client that does not read holds back only its own requests.
    A client may close its sending side after its last request: each request it sent, the
    last line even without its newline, is still answered before the connection closes.

    An exception of a type in :attr:`handled_errors` is answered with one ``ERR`` line (see
    :meth:`_error_reply`). A request line that is not UTF-8, or such a byte in a block, or a
    line longer than ``READ_SIZE`` bytes (:class:`TooLong`), is answered ``ERR Malformed``
    after every request before it, and ends the connection, since what follows cannot be told
    apart; a connection holds at most one line part-way. A reset, or any other fault, ends
    only its connection.
    """

    thread_name: str
    handled_errors: tuple[type[Exception], ...]

    def __init__(self, host: str = LOOPBACK_HOST, port: int = 0):
        self._server = socket.create_server((host, port))
        self._server.setblocking(False)
        self.address = f"{host}:{self._server.getsockname()[1]}"
        self._wake, self._waker = socket.socketpair()  # stop() writes to one to wake the loop
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._server, selectors.EVENT_READ)
        self._selector.register(self._wake, selectors.EVENT_READ)
        self._stopped = False
        self._busy: set[_Connection] = set()  # connections whose block reader is busy
        self._thread = threading.Thread(target=self.serve_forever, name=self.thread_name, daemon=True)

    def start(self) -> "LineServer":
        """Run :meth:`serve_forever` on the server's one thread."""
        self._thread.start()
        return self

    def stop(self) -> None:
        """Wake the loop and join its thread; every connection and the listener are closed."""
        self._stopped = True
        try:
            self._waker.send(b"\0")
        except OSError:  # closed already: the loop ended
            pass
        if self._thread.is_alive():
            self._thread.join()
        self._close()

    def serve_forever(self) -> None:
        """Serve every connection until :meth:`stop`."""
        try:
            while not self._stopped:
                for key, _ in self._selector.select(0 if self._busy else None):
                    if key.data is not None:
                        self._serve(key.data)
                    elif key.fileobj is self._server:
                        self._accept()
                for conn in list(self._busy):
                    self._serve(conn)
        finally:
            self._close()

    def _close(self) -> None:
        # a closed selector's map is None: a second close finds nothing left to close
        for key in list((self._selector.get_map() or {}).values()):
            (key.data or key.fileobj).close()
        self._selector.close()
        self._waker.close()

    def _accept(self) -> None:
        try:
            sock, _ = self._server.accept()
        except OSError:  # the client reset it first, or no descriptor is left: the loop goes on
            return
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._selector.register(sock, selectors.EVENT_READ, _Connection(sock))

    def _serve(self, conn: _Connection) -> None:
        """Take in what ``conn`` sent, or send on its reply; then answer what it can."""
        try:
            if conn.events == selectors.EVENT_READ and conn not in self._busy:
                data = conn.sock.recv(READ_SIZE - len(conn.inbox))  # so a line holds at most READ_SIZE
                conn.inbox += data
                conn.eof = not data
            self._send(conn)
            self._answer(conn)
        except Exception as exc:  # a reset, a client gone, or a fault: only this connection ends
            if not isinstance(exc, OSError):  # a fault, reported as an uncaught one would be
                sys.excepthook(type(exc), exc, exc.__traceback__)
            conn.closing, conn.out = True, bytearray()
        busy = conn.block is not None and conn.block.busy and not conn.closing
        (self._busy.add if busy else self._busy.discard)(conn)
        if not conn.out and not busy and (conn.eof or conn.closing):
            self._selector.unregister(conn.sock)
            conn.close()
        elif conn.events != (events := selectors.EVENT_WRITE if conn.out else selectors.EVENT_READ):
            conn.events = events
            self._selector.modify(conn.sock, events, conn)

    def _send(self, conn: _Connection) -> None:
        """Send the reply as far as the socket takes it; a streamed reply's next part is made
        only once less than ``READ_SIZE`` bytes of it wait."""
        out = conn.out
        while True:
            while conn.reply is not None and len(out) < READ_SIZE:
                part = next(conn.reply, None)
                if part is None:
                    conn.reply = None
                else:
                    out += part
            if not out:
                return
            try:
                del out[:conn.sock.send(out)]
            except BlockingIOError:
                return

    def _answer(self, conn: _Connection) -> None:
        """Answer the requests ``conn`` sent, in order, while no reply waits to be sent."""
        inbox = conn.inbox
        while not (conn.out or conn.closing):
            try:
                if conn.block is not None:
                    reply = conn.block.take(inbox, conn.eof)
                elif cut := inbox.find(b"\n") + 1 or conn.eof and len(inbox):
                    line = inbox[:cut].decode("utf-8").strip()
                    del inbox[:cut]
                    reply = self._handle(line) if line else None
                    if not isinstance(reply, (str, Iterator)):
                        conn.block = reply  # what reads the block that follows, if any
                        continue
                else:
                    reply = None
                if reply is None:  # the rest of a line is still to come
                    if len(inbox) == READ_SIZE:
                        raise TooLong(f"a line longer than {READ_SIZE} bytes with its newline")
                    return
            except (UnicodeDecodeError, TooLong) as exc:
                # a line that is not UTF-8 or too long leaves no way to tell where the next one starts
                reply, conn.closing = self._error_reply(exc), True
            except self.handled_errors as exc:
                reply = self._error_reply(exc)
            if conn.block is not None:  # it has ended
                conn.block.close()
                conn.block = None
            if isinstance(reply, str):
                conn.out += (reply + "\n").encode("utf-8")
            else:
                conn.reply = reply
            self._send(conn)

    @staticmethod
    def _error_reply(exc: Exception) -> str:
        """``ERR <code> <detail>``: the class name of a domain error, else ``Malformed``."""
        code = type(exc).__name__ if isinstance(exc, EnergyShareError) else "Malformed"
        return f"ERR {code} {exc}"

    @staticmethod
    def error_from_reply(reply: str, known: tuple[type, ...], other: type) -> EnergyShareError:
        """The inverse of :meth:`_error_reply`: ``ERR <code> <detail>`` whose code names a
        class in ``known`` is that class with the detail, any other reply ``other(reply)``,
        and none (the connection closed first) ``other`` saying so."""
        tag, _, rest = reply.partition(" ")
        code, _, detail = rest.partition(" ")
        error = {cls.__name__: cls for cls in known}.get(code) if tag == "ERR" else None
        return error(detail) if error else other(reply or "connection closed mid-response")


class RegistryServer(LineServer):
    """Discovery registry for the TCP transport (the confined-area lookup).

    One command per line, a ``REGISTER``, ``ADVERTISE``, ``DISCOVER`` or
    ``RESOLVE`` line of :data:`LINES`. Responses are ``OK`` / ``ERR <code>
    <detail>``; DISCOVER answers with one ``ADVERT`` line per advert followed
    by ``END``; RESOLVE answers ``ADDR <host:port>``. One thread answers every
    command, one at a time, so a DISCOVER snapshot never sees a half-applied advert.
    """

    thread_name = "registry"
    handled_errors = (Exception,)  # malformed input must not kill the registry

    def __init__(self) -> None:
        self._registry = Registry()
        super().__init__()

    def _handle(self, line: str) -> str:
        command, fields = read_line(line)
        if command in ("REGISTER", "ADVERTISE"):
            addr = fields.pop("addr")
            parse_addr(addr)  # an address RESOLVE could not hand on is refused, not stored
            if command == "REGISTER":
                self._registry.register(fields["device_id"], addr)
            else:
                self._registry.advertise(addr, _advert(**fields))
            return "OK"
        if command == "DISCOVER":
            adverts = (write_line("ADVERT", *_advert_values(a)) + "\n" for a in self._registry.discover())
            return "".join(adverts) + "END"
        if command == "RESOLVE":
            return f"ADDR {self._registry.resolve(fields['device_id'])}"
        raise ValueError(f"unknown command {command!r}")


def exchange(addr: tuple[str, int], request: Iterable[str], read: Callable[[Any], Any],
             error: type[EnergyShareError], timeout_s: float) -> Any:
    """``read`` of the reply to ``request``'s parts, off the binary stream of a connection opened
    for it and closed after; a reply that does not decode (``ValueError``) raises as ``error``.

    Each part goes on the wire as ``request`` yields it, with Nagle's algorithm off, so the peer
    works on one part while the next is made."""
    with socket.create_connection(addr, timeout=timeout_s) as conn:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for part in request:
            conn.sendall(part.encode("utf-8"))
        with conn.makefile("rb", READ_SIZE) as stream:
            try:
                return read(stream)
            except ValueError as exc:
                raise error(f"unreadable reply: {exc!r}") from exc


# the registry's ERR codes a client raises as themselves
_REGISTRY_ERRORS = (DuplicateDevice, Unknown)


def _ok(stream) -> None:
    """The reply to a command answered ``OK``; any other raises."""
    if (reply := stream.readline().decode("utf-8").strip()) != "OK":
        raise LineServer.error_from_reply(reply, _REGISTRY_ERRORS, PeerUnreachable)


def _addr(stream) -> tuple[str, int]:
    """The address a ``RESOLVE`` reply ``ADDR <host:port>`` gives; any other reply raises."""
    reply = stream.readline().decode("utf-8").strip()
    if not reply.startswith("ADDR "):
        raise LineServer.error_from_reply(reply, _REGISTRY_ERRORS, PeerUnreachable)
    return parse_addr(reply[len("ADDR "):])


def _adverts(stream) -> list[ProviderAdvert]:
    block = read_to_end(stream, "ADVERT", _REGISTRY_ERRORS, PeerUnreachable)
    return [_advert(**fields) for fields in block]


class TcpTransport:
    """Loopback-TCP transport: one listening socket and inbox per device.

    Senders keep a single connection per sender/destination pair (FIFO per
    pair comes from TCP ordering); it stays open until :meth:`close`.
    Discovery and address resolution go through the shared registry
    server, one :func:`exchange` (and so one connection) per command.
    Every listener and accepted connection sits in one selector that
    :meth:`poll` serves on the caller's thread; a :class:`WallClock` waits
    in it. The transport starts no thread.
    """

    def __init__(self, registry_addr: str):
        self._registry = parse_addr(registry_addr)
        # selector data: (device_id, None) for a listener, (device_id, unread
        # tail) for an accepted connection
        self._selector = selectors.DefaultSelector()
        self._servers: dict[str, socket.socket] = {}
        self._inboxes: dict[str, deque[ProtocolMessage]] = {}
        self._conns: dict[tuple[str, str], socket.socket] = {}

    def register(self, device_id: str) -> None:
        check_id(device_id, "device_id")
        server = socket.create_server((LOOPBACK_HOST, 0))
        address = f"{LOOPBACK_HOST}:{server.getsockname()[1]}"
        try:
            self._ask(write_line("REGISTER", device_id, address), _ok)
        except BaseException:
            server.close()
            raise
        server.setblocking(False)
        self._selector.register(server, selectors.EVENT_READ, (device_id, None))
        self._servers[device_id] = server
        self._inboxes[device_id] = deque()

    def close(self) -> None:
        # a closed selector's map is None: a second close finds nothing left to close
        for key in list((self._selector.get_map() or {}).values()):
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
            chunk = conn.recv(READ_SIZE)
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
        address = f"{LOOPBACK_HOST}:{port}"
        self._ask(write_line("ADVERTISE", address, *_advert_values(advert)), _ok)

    def discover(self, device_id: str) -> list[ProviderAdvert]:
        _inbox(self._inboxes, device_id)
        return self._ask(write_line("DISCOVER"), _adverts)

    def _ask(self, command: str, read: Callable[[Any], Any]) -> Any:
        """``read`` of the registry's reply to ``command``."""
        return exchange(self._registry, [command + "\n"], read, PeerUnreachable, TCP_TIMEOUT_S)

    def _connect(self, to: str) -> socket.socket:
        address = self._ask(write_line("RESOLVE", to), _addr)
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
        conn = self._conns.get(key)
        try:
            if conn is None:
                conn = self._conns[key] = self._connect(to)
            self._send_all(conn, payload)
        except OSError as exc:
            # a run's peers all live on this transport: a fresh connection would fail too
            self._conns.pop(key, None)
            if conn is not None:
                conn.close()
            raise PeerUnreachable(f"cannot deliver to {to!r}: {exc}") from exc

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
