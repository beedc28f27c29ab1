"""Simulated transport: latency gating, FIFO, discovery, drop determinism; the
registry's and the edge's key=value lines."""

import re
import string
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from energyshare.battery import Technology
from energyshare.matching import ProviderAdvert
from energyshare.protocol import Accept, Reason, Reject
from energyshare.transport import (
    LINES,
    DuplicateDevice,
    LineServer,
    PeerUnreachable,
    RegistryServer,
    SimTransport,
    Unknown,
    VirtualClock,
    _advert,
    _advert_values,
    read_line,
    write_line,
)
from energyshare.util import fmt_value

WIRE_DOC = Path(__file__).resolve().parents[1] / "docs" / "wire-format.md"


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
    clock.wait_until(1.0)
    assert clock.now_s == 1.0


def test_virtual_clock_never_steps_back():
    clock = VirtualClock()
    clock.wait_until(1.0)
    clock.wait_until(1.0)
    clock.wait_until(0.5)
    assert clock.now_s == 1.0


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


def test_advert_line_round_trip():
    original = advert("p-1", level=33.25, available=False, x=-0.5, y=2.0)
    line = write_line("ADVERT", *_advert_values(original))
    assert line == "ADVERT provider_id=p-1 x=-0.5 y=2.0 level_pct=33.25 technology=wireless_distance available=false"
    assert _advert(**read_line(line)[1]) == original


def test_an_advert_of_int_numbers_is_written_with_floats():
    line = write_line("ADVERT", *_advert_values(ProviderAdvert("p", (0, 1), 80, Technology.CABLE)))
    assert line == "ADVERT provider_id=p x=0.0 y=1.0 level_pct=80.0 technology=cable available=true"


# --- delivery ----------------------------------------------------------------------


def test_fifo_per_pair(net):
    clock, transport, a, b = net
    transport.send(a, "b", Accept("m1"))
    transport.send(a, "b", Accept("m2"))
    clock.wait_until(0.25)
    received = transport.receive(b)
    assert received == [Accept("m1"), Accept("m2")]


def test_delivery_waits_for_latency(net):
    clock, transport, a, b = net
    clock.wait_until(1.0)
    transport.send(a, "b", Accept("m1"))
    clock.wait_until(1.125)
    assert transport.receive(b) == []
    clock.wait_until(1.25)  # now exactly at 1.0 + 0.25
    assert transport.receive(b) == [Accept("m1")]


def test_default_latency_example():
    clock = VirtualClock()
    clock.wait_until(1.0)
    transport = SimTransport(clock, latency_s=0.05)
    a, b = "a", "b"
    transport.register(a)
    transport.register(b)
    transport.send(a, "b", Accept("m"))
    clock.wait_until(1.04)
    assert transport.receive(b) == []
    clock.wait_until(1.06)
    assert transport.receive(b) == [Accept("m")]


def test_messages_release_in_timestamp_order():
    clock = VirtualClock()
    transport = SimTransport(clock, latency_s=0.0)
    a, b, c = "a", "b", "c"
    for device_id in (a, b, c):
        transport.register(device_id)
    clock.wait_until(0.5)
    transport.send(a, "c", Accept("at-0.5"))
    clock.wait_until(0.7)
    transport.send(b, "c", Reject("at-0.7"))
    clock.wait_until(1.0)
    assert transport.receive(c) == [Accept("at-0.5"), Reject("at-0.7")]


def test_send_to_unknown_peer(net):
    _, transport, a, _ = net
    with pytest.raises(PeerUnreachable):
        transport.send(a, "ghost", Accept("m"))


def test_an_unregistered_device_can_neither_send_nor_receive(net):
    _, transport, _, b = net
    with pytest.raises(PeerUnreachable, match="'ghost'"):
        transport.send("ghost", b, Accept("m"))
    with pytest.raises(PeerUnreachable, match="'ghost'"):
        transport.receive("ghost")
    assert transport.next_delivery_time() is None  # the refused send queued nothing


def test_next_delivery_time(net):
    clock, transport, a, b = net
    assert transport.next_delivery_time() is None
    transport.send(a, "b", Accept("m"))
    assert transport.next_delivery_time() == 0.25


def test_next_delivery_time_skips_a_message_received_without_due_devices(net):
    """A receive outside the event loop leaves its wake entry behind; it is not a delivery."""
    clock, transport, a, b = net
    transport.send(a, "b", Accept("m"))
    clock.wait_until(0.25)
    assert transport.receive(b) == [Accept("m")]
    assert transport.next_delivery_time() is None


# --- loss ----------------------------------------------------------------------------


def test_drop_probability_one_loses_everything(net_args=None):
    clock = VirtualClock()
    transport = SimTransport(clock, latency_s=0.0, drop_probability=1.0, seed=3)
    a, b = "a", "b"
    transport.register(a)
    transport.register(b)
    for i in range(10):
        transport.send(a, "b", Accept(f"m{i}"))
    clock.wait_until(1.0)
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
        clock.wait_until(1.0)
        return [m.request_id for m in transport.receive(b)]

    assert pattern(7) == pattern(7)
    assert pattern(7) != pattern(8)


# --- the key=value lines ---------------------------------------------------------------

ids = st.text(string.ascii_letters + string.digits + "_.:-", min_size=1, max_size=12).filter(
    lambda text: text.strip(".")
)
numbers = st.floats(allow_nan=False, allow_infinity=False)
# a value of each field of LINES, of the kind its writer is given
FIELD_VALUES = {
    "device_id": ids, "provider_id": ids, "session_id": ids, "consumer_id": ids,
    "addr": st.builds("{}:{}".format, ids, st.integers(0, 65535)),
    "x": numbers, "y": numbers, "level_pct": numbers, "energy_loss_mah": numbers,
    "technology": st.sampled_from(Technology), "terminal_reason": st.sampled_from(Reason),
    "available": st.booleans(),
}
NUMBER_FIELDS = {"x", "y", "level_pct", "energy_loss_mah"}
# float() reads each of these; none is the form repr(float) prints
NON_CANONICAL_NUMBERS = ["+1.5", "1_0", "\u0663", "nan", "inf", "-inf", "1e0", "1E+16", "1", ".5", "1.",
                         " 1.0"]


@st.composite
def lines(draw):
    """A tag of LINES, and the values of a line of it."""
    tag = draw(st.sampled_from(sorted(LINES)))
    return tag, [draw(FIELD_VALUES[name]) for name in LINES[tag].groupindex]


def mutations(tokens: list[str]):
    """``tokens`` (a line's fields) with one field extra, missing, repeated, emptied or swapped
    with the one before it, or a number in a form repr(float) does not print."""
    yield [*tokens, "extra=1"]
    yield ["extra=1", *tokens]
    for i, token in enumerate(tokens):
        yield tokens[:i] + tokens[i + 1:]
        yield tokens[:i + 1] + [token] + tokens[i + 1:]
        yield tokens[:i] + [token.partition("=")[0] + "="] + tokens[i + 1:]
        if i:
            yield tokens[:i - 1] + [token, tokens[i - 1]] + tokens[i + 1:]
        if token.partition("=")[0] in NUMBER_FIELDS:
            for text in NON_CANONICAL_NUMBERS:
                yield tokens[:i] + [f"{token.partition('=')[0]}={text}"] + tokens[i + 1:]


@pytest.fixture(scope="module")
def idle_registry():
    """A registry server whose ``_handle`` is called in process; it serves no connection."""
    server = RegistryServer()
    yield server
    server.stop()


def handled(server: RegistryServer, line: str) -> str:
    """The registry's reply to ``line``, an ERR line for an error, as its connection gets it."""
    try:
        return server._handle(line.strip())
    except Exception as exc:
        return LineServer._error_reply(exc)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(lines())
def test_each_line_reads_back_to_itself_and_any_other_form_is_refused(idle_registry, tag_values):
    """Every mutation of a written line is refused by the reader, and by the registry with
    ERR Malformed; the registry stores nothing of any of them."""
    tag, values = tag_values
    line = write_line(tag, *values)
    assert read_line(line) == (tag, dict(zip(LINES[tag].groupindex, map(fmt_value, values))))
    assert write_line(tag, *read_line(line)[1].values()) == line
    for tokens in mutations(line.split(" ")[1:]):
        mutated = " ".join([tag, *tokens])
        with pytest.raises(ValueError, match=f"^bad {tag} line: fields must be exactly "):
            read_line(mutated)
        assert handled(idle_registry, mutated).startswith(f"ERR Malformed bad {tag} line: ")
    assert (idle_registry._registry._devices, idle_registry._registry._adverts) == ({}, {})


@pytest.mark.parametrize("line", ["", "HELLO", "HELLO there", "register device_id=a addr=h:1", "ERR Unknown a"])
def test_a_line_of_no_known_tag_is_refused(line):
    with pytest.raises(ValueError, match="^unknown command "):
        read_line(line)


def test_a_line_in_its_form_but_not_a_registry_command_is_refused(idle_registry):
    line = write_line("ADVERT", *_advert_values(advert("p")))
    assert handled(idle_registry, line) == "ERR Malformed unknown command 'ADVERT'"


def test_an_advert_out_of_range_is_refused_and_not_stored(idle_registry):
    for x, level in [("1e+999", 50.0), (0.0, 100.5), (0.0, -0.5)]:
        line = write_line("ADVERTISE", "h:1", "p", x, 0.0, level, Technology.CABLE, True)
        assert handled(idle_registry, line).startswith("ERR Malformed ")
    assert idle_registry._registry.discover() == []
    with pytest.raises(Unknown):
        idle_registry._handle("RESOLVE device_id=p")


def test_docs_registry_table_lists_the_lines_fields_in_order():
    section = WIRE_DOC.read_text(encoding="utf-8").split("## Discovery registry", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([A-Z_]+)((?: \w+=<[^>]*>)*)` \|", section, flags=re.MULTILINE)
    documented = [(tag, re.findall(r"(\w+)=<", fields)) for tag, fields in rows]
    assert documented == [(tag, list(pattern.groupindex)) for tag, pattern in LINES.items()]
