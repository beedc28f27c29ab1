"""Simulated transport: latency gating, FIFO, discovery, drop determinism."""

import pytest

from energyshare.battery import Technology
from energyshare.matching import ProviderAdvert
from energyshare.protocol import Accept, Reject
from energyshare.transport import (
    DuplicateDevice,
    PeerUnreachable,
    SimTransport,
    VirtualClock,
    decode_advert,
    encode_advert,
)


def advert(pid="p1", level=80.0, available=True, x=0.0, y=0.0):
    return ProviderAdvert(pid, (x, y), level, Technology.WIRELESS_DISTANCE, available)


@pytest.fixture
def net():
    clock = VirtualClock()
    transport = SimTransport(clock, latency_s=0.25)
    transport.register("a")
    transport.register("b")
    return clock, transport, "a", "b"


# --- clock --------------------------------------------------------------------


def test_virtual_clock_advances_explicitly():
    clock = VirtualClock()
    assert clock.now_s == 0.0
    clock.advance(1.0)
    assert clock.now_s == 1.0


def test_virtual_clock_rejects_nonpositive_step():
    clock = VirtualClock()
    with pytest.raises(ValueError):
        clock.advance(0.0)
    with pytest.raises(ValueError):
        clock.advance(-1.0)


# --- discovery -------------------------------------------------------------------


def test_advertise_then_discover(net):
    _, transport, a, b = net
    transport.advertise(a, advert("a"))
    found = transport.discover(b)
    assert [f.provider_id for f in found] == ["a"]


def test_readvertise_same_endpoint_updates(net):
    _, transport, a, b = net
    transport.advertise(a, advert("a", level=80.0))
    transport.advertise(a, advert("a", level=75.0))
    assert transport.discover(b)[0].battery_level_pct == 75.0


def test_same_id_different_address_is_duplicate(net):
    _, transport, a, b = net
    transport.advertise(a, advert("shared"))
    with pytest.raises(DuplicateDevice):
        transport.advertise(b, advert("shared"))


def test_unavailable_adverts_filtered(net):
    _, transport, a, b = net
    transport.advertise(a, advert("a", available=False))
    transport.advertise(b, advert("b"))
    assert [f.provider_id for f in transport.discover(a)] == ["b"]


def test_advert_codec_round_trip():
    original = advert("p-1", level=33.25, available=False, x=-0.5, y=2.0)
    assert decode_advert(encode_advert(original)) == original


# --- delivery ----------------------------------------------------------------------


def test_fifo_per_pair(net):
    clock, transport, a, b = net
    transport.send(a, "b", Accept("m1"))
    transport.send(a, "b", Accept("m2"))
    clock.advance(0.25)
    received = transport.receive(b)
    assert received == [Accept("m1"), Accept("m2")]


def test_delivery_waits_for_latency(net):
    clock, transport, a, b = net
    clock.advance(1.0)
    transport.send(a, "b", Accept("m1"))
    clock.advance(0.125)
    assert transport.receive(b) == []
    clock.advance(0.125)  # now exactly at 1.0 + 0.25
    assert transport.receive(b) == [Accept("m1")]


def test_default_latency_example():
    clock = VirtualClock(start_s=1.0)
    transport = SimTransport(clock, latency_s=0.05)
    a, b = "a", "b"
    transport.register(a)
    transport.register(b)
    transport.send(a, "b", Accept("m"))
    clock.advance(0.04)
    assert transport.receive(b) == []
    clock.advance(0.02)
    assert transport.receive(b) == [Accept("m")]


def test_messages_release_in_timestamp_order():
    clock = VirtualClock()
    transport = SimTransport(clock, latency_s=0.0)
    a, b, c = "a", "b", "c"
    for device_id in (a, b, c):
        transport.register(device_id)
    clock.advance(0.5)
    transport.send(a, "c", Accept("at-0.5"))
    clock.advance(0.2)
    transport.send(b, "c", Reject("at-0.7"))
    clock.advance(0.3)
    assert transport.receive(c) == [Accept("at-0.5"), Reject("at-0.7")]


def test_send_to_unknown_peer(net):
    _, transport, a, _ = net
    with pytest.raises(PeerUnreachable):
        transport.send(a, "ghost", Accept("m"))


def test_next_delivery_time(net):
    clock, transport, a, b = net
    assert transport.next_delivery_time() is None
    transport.send(a, "b", Accept("m"))
    assert transport.next_delivery_time() == 0.25


# --- loss ----------------------------------------------------------------------------


def test_drop_probability_one_loses_everything(net_args=None):
    clock = VirtualClock()
    transport = SimTransport(clock, latency_s=0.0, drop_probability=1.0, seed=3)
    a, b = "a", "b"
    transport.register(a)
    transport.register(b)
    for i in range(10):
        transport.send(a, "b", Accept(f"m{i}"))
    clock.advance(1.0)
    assert transport.receive(b) == []


def test_drop_pattern_is_seed_deterministic():
    def pattern(seed):
        clock = VirtualClock()
        transport = SimTransport(clock, latency_s=0.0, drop_probability=0.5, seed=seed)
        a, b = "a", "b"
        transport.register(a)
        transport.register(b)
        for i in range(30):
            transport.send(a, "b", Accept(f"m{i}"))
        clock.advance(1.0)
        return [m.request_id for m in transport.receive(b)]

    assert pattern(7) == pattern(7)
    assert pattern(7) != pattern(8)
