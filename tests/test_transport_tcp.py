"""TCP loopback transport: same delivery contract over real sockets."""

import gc
import socket
import struct
import threading
import time

import pytest

from energyshare.battery import Technology
from energyshare.matching import ProviderAdvert
from energyshare.protocol import (
    Accept,
    Reject,
    Request,
    RequestKind,
    encode_message,
    make_request,
)
from energyshare.transport import (
    DuplicateDevice,
    PeerUnreachable,
    RegistryServer,
    TcpTransport,
    _RegistryClient,
    parse_addr,
)


def advert(pid="p1", level=80.0, available=True):
    return ProviderAdvert(pid, (0.0, 0.0), level, Technology.WIRELESS_DISTANCE, available)


@pytest.fixture
def registry():
    server = RegistryServer().start()
    yield server
    server.stop()


@pytest.fixture
def pair(registry):
    ta, tb = TcpTransport(registry.address), TcpTransport(registry.address)
    ta.register("a")
    tb.register("b")
    yield ta, tb, "a", "b"
    ta.close()
    tb.close()


def drain(transport, device_id, expect, deadline_s=5.0):
    messages = []
    deadline = time.monotonic() + deadline_s
    while len(messages) < expect and time.monotonic() < deadline:
        transport.poll(0.05)
        messages.extend(transport.receive(device_id))
    return messages


def listener_address(transport, device_id):
    """The (host, port) a device of ``transport`` accepts connections on."""
    return transport._servers[device_id].getsockname()


def test_send_receive_round_trip(pair):
    ta, tb, a, b = pair
    ta.send(a, "b", Accept("m1"))
    assert drain(tb, b, 1) == [Accept("m1")]


def test_fifo_per_pair_over_tcp(pair):
    ta, tb, a, b = pair
    for i in range(20):
        ta.send(a, "b", Accept(f"m{i:02d}"))
    received = drain(tb, b, 20)
    assert [m.request_id for m in received] == [f"m{i:02d}" for i in range(20)]


def test_bidirectional_traffic(pair):
    ta, tb, a, b = pair
    ta.send(a, "b", Accept("ping"))
    tb.send(b, "a", Reject("pong"))
    assert drain(tb, b, 1) == [Accept("ping")]
    assert drain(ta, a, 1) == [Reject("pong")]


def test_discovery_through_registry(pair):
    ta, tb, a, b = pair
    ta.advertise(a, advert("a", level=60.0))
    found = tb.discover(b)
    assert [f.provider_id for f in found] == ["a"]
    assert found[0].battery_level_pct == 60.0


def test_unavailable_adverts_filtered(pair):
    ta, tb, a, b = pair
    ta.advertise(a, advert("a", available=False))
    assert tb.discover(b) == []


def test_duplicate_advert_from_other_address(pair):
    ta, tb, a, b = pair
    ta.advertise(a, advert("shared"))
    with pytest.raises(DuplicateDevice):
        tb.advertise(b, advert("shared"))


def test_send_to_unknown_peer(pair):
    ta, _, a, _ = pair
    with pytest.raises(PeerUnreachable):
        ta.send(a, "ghost", Accept("m"))


def test_duplicate_registration_same_id(registry):
    ta = TcpTransport(registry.address)
    tb = TcpTransport(registry.address)
    ta.register("dev")
    with pytest.raises(DuplicateDevice):
        tb.register("dev")
    ta.close()
    tb.close()


def test_register_closes_its_listener_when_the_registry_is_unreachable():
    registry = RegistryServer().start()
    registry.stop()
    transport = TcpTransport(registry.address)
    with pytest.raises(OSError):
        transport.register("a")
    transport.close()
    gc.collect()  # a listener left open warns here, an error under the suite's filters


@pytest.fixture
def stand_in_registry():
    """``serve(*handlers)`` starts a registry stand-in; its n-th connection gets the n-th handler."""
    listener = socket.create_server(("127.0.0.1", 0))
    threads = []

    def serve(*handlers):
        def accept_each():
            for handle in handlers:
                conn, _ = listener.accept()
                with conn, conn.makefile("rw", encoding="utf-8", newline="\n") as stream:
                    handle(conn, stream)

        threads.append(threading.Thread(target=accept_each, daemon=True))
        threads[-1].start()
        return f"127.0.0.1:{listener.getsockname()[1]}"

    yield serve
    for thread in threads:
        thread.join(timeout=10.0)
    listener.close()
    assert not any(thread.is_alive() for thread in threads)


def close_after_a_command(conn, stream):
    stream.readline()


def reset_after_a_command(conn, stream):
    stream.readline()
    conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))


def answer_ok(conn, stream):
    for _ in stream:
        stream.write("OK\n")
        stream.flush()


def test_registry_client_reconnects_after_a_registry_that_closed_mid_reply(stand_in_registry):
    client = _RegistryClient(stand_in_registry(close_after_a_command, answer_ok))
    with pytest.raises(PeerUnreachable, match="closed mid-response"):
        client.command("REGISTER device_id=a addr=h:1")
    client.command("REGISTER device_id=a addr=h:1")
    client.close()


def test_registry_client_drops_a_reset_connection(stand_in_registry):
    client = _RegistryClient(stand_in_registry(reset_after_a_command, answer_ok))
    with pytest.raises(ConnectionResetError):
        client.command("REGISTER device_id=a addr=h:1")
    assert client._conn is None
    client.command("REGISTER device_id=a addr=h:1")
    client.close()


def test_registry_replies_are_pinned(registry):
    """Exact reply bytes of each registry command, errors included, on one connection."""
    advertise = ("ADVERTISE addr=127.0.0.1:{} provider_id=d x=0.0 y=1.5 level_pct=80.0"
                 " technology=cable available=true")
    exchange = [
        ("REGISTER device_id=d addr=127.0.0.1:1", "OK"),
        ("REGISTER device_id=d addr=127.0.0.1:1", "OK"),
        ("REGISTER device_id=d addr=127.0.0.1:2", "ERR DuplicateDevice d already at 127.0.0.1:1"),
        (advertise.format(1), "OK"),
        (advertise.format(2), "ERR DuplicateDevice d already at 127.0.0.1:1"),
        ("DISCOVER", "ADVERT provider_id=d x=0.0 y=1.5 level_pct=80.0 technology=cable"
                     " available=true\nEND"),
        ("RESOLVE device_id=d", "ADDR 127.0.0.1:1"),
        ("RESOLVE device_id=ghost", "ERR Unknown ghost"),
        ("HELLO there", "ERR Malformed unknown command 'HELLO'"),
        ("REGISTER device_id=e", "ERR Malformed 'addr'"),
    ]
    with socket.create_connection(parse_addr(registry.address), timeout=10.0) as conn:
        replies = conn.makefile("r", encoding="utf-8", newline="\n")
        for request, expected in exchange:
            conn.sendall((request + "\n").encode("utf-8"))
            reply = "".join(replies.readline() for _ in range(expected.count("\n") + 1))
            assert reply == expected + "\n"


def test_pipelined_registry_commands_each_get_their_reply(registry):
    """Commands sent in one write are all answered, in order."""
    requests = "REGISTER device_id=a addr=h:1\nRESOLVE device_id=a\nRESOLVE device_id=b\nDISCOVER\n"
    with socket.create_connection(parse_addr(registry.address), timeout=10.0) as conn:
        conn.sendall(requests.encode("utf-8"))
        conn.shutdown(socket.SHUT_WR)
        replies = conn.makefile("r", encoding="utf-8", newline="\n").read()
    assert replies == "OK\nADDR h:1\nERR Unknown b\nEND\n"


def test_request_line_not_utf8_gets_err_and_closes_only_its_connection(registry):
    with socket.create_connection(parse_addr(registry.address), timeout=10.0) as conn:
        conn.sendall(b"RESOLVE device_id=\xff\n")
        reply = conn.makefile("rb").read()  # to EOF: the registry closes this connection
    assert reply.startswith(b"ERR Malformed ")
    assert reply.count(b"\n") == 1
    client = _RegistryClient(registry.address)
    client.command("REGISTER device_id=a addr=h:1")
    client.close()


def test_snapshot_is_never_torn(pair):
    """Concurrent re-advertising: every snapshot equals one whole advert."""
    ta, tb, a, b = pair
    low = advert("a", level=10.0, available=True)
    high = ProviderAdvert("a", (5.0, 5.0), 90.0, Technology.CABLE, True)
    stop = threading.Event()

    def writer():
        flip = False
        while not stop.is_set():
            ta.advertise(a, high if flip else low)
            flip = not flip

    thread = threading.Thread(target=writer, daemon=True)
    thread.start()
    try:
        for _ in range(60):
            for snapshot in tb.discover(b):
                assert snapshot in (low, high), f"torn advert: {snapshot}"
    finally:
        stop.set()
        thread.join(timeout=5.0)


def test_burst_overflowing_socket_buffers_arrives_in_order(registry, monkeypatch):
    """Sender and receiver share one transport and so one thread: no deadlock."""
    transport = TcpTransport(registry.address)
    a, b = "a", "b"
    transport.register(a)
    transport.register(b)
    # accepted connections inherit the listener's receive buffer
    transport._servers["b"].setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    real_connect = socket.create_connection

    def connect_with_small_send_buffer(*args, **kwargs):
        conn = real_connect(*args, **kwargs)
        conn.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        return conn

    monkeypatch.setattr(socket, "create_connection", connect_with_small_send_buffer)
    waits = []
    real_poll = transport.poll

    def counting_poll(timeout_s):
        if timeout_s > 0:
            waits.append(timeout_s)
        real_poll(timeout_s)

    monkeypatch.setattr(transport, "poll", counting_poll)
    burst = [
        Request(make_request(RequestKind.AMOUNT, 100.0 + i, "a", f"r{i:03d}"),
                (0.0, 0.0), 2915.0, 1166.0, 40.0)
        for i in range(400)
    ]
    errors = []

    def send_burst():
        try:
            for msg in burst:
                transport.send(a, "b", msg)
        except Exception as exc:
            errors.append(exc)

    sender = threading.Thread(target=send_burst, daemon=True)
    sender.start()
    sender.join(timeout=30.0)
    try:
        assert not sender.is_alive(), "burst send deadlocked"
        assert errors == []
        assert waits, "the burst never filled the socket buffers"
        assert drain(transport, b, len(burst)) == burst
    finally:
        transport.close()


def test_bad_input_from_a_stranger_drops_only_its_connection(pair):
    ta, tb, a, b = pair
    line = (encode_message(Accept("stranger")) + "\n").encode("utf-8")
    with socket.create_connection(listener_address(tb, b)) as garbage:
        garbage.sendall(b"\xff\xfe not utf-8\n")
        garbage.sendall(line[:6])
        tb.poll(0.05)
        garbage.sendall(line[6:])
        ta.send(a, "b", Accept("m1"))
        assert drain(tb, b, 1) == [Accept("m1")]
        # the valid line behind the garbage never arrives: that connection is gone
        assert drain(tb, b, 1, deadline_s=0.3) == []
    with socket.create_connection(listener_address(tb, b)) as stranger:
        stranger.sendall(line[:6])
        assert drain(tb, b, 1, deadline_s=0.3) == []
        stranger.sendall(line[6:])
        assert drain(tb, b, 1) == [Accept("stranger")]
    ta.send(a, "b", Accept("m2"))
    assert drain(tb, b, 1) == [Accept("m2")]
