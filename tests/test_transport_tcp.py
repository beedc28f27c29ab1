"""TCP loopback transport: same delivery contract over real sockets."""

import threading
import time

import pytest

from energyshare.battery import Technology
from energyshare.matching import ProviderAdvert
from energyshare.protocol import Accept, Reject
from energyshare.transport import (
    DuplicateDevice,
    PeerUnreachable,
    RegistryServer,
    TcpTransport,
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
    a, b = ta.register("a"), tb.register("b")
    yield ta, tb, a, b
    ta.close()
    tb.close()


def drain(transport, endpoint, expect, deadline_s=5.0):
    messages = []
    deadline = time.monotonic() + deadline_s
    while len(messages) < expect and time.monotonic() < deadline:
        transport.arrived.wait(0.05)
        transport.arrived.clear()
        messages.extend(transport.receive(endpoint))
    return messages


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


def test_send_after_deregistration(pair):
    ta, tb, a, b = pair
    tb.deregister(b)
    with pytest.raises(PeerUnreachable):
        ta.send(a, "b", Accept("m"))


def test_duplicate_registration_same_id(registry):
    ta = TcpTransport(registry.address)
    tb = TcpTransport(registry.address)
    ta.register("dev")
    with pytest.raises(DuplicateDevice):
        tb.register("dev")
    ta.close()
    tb.close()


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
