"""Shared helpers: identifier validation, value formatting, the line grammar, key-value codecs.

Every textual artifact in this package (wire messages, trace CSV, metadata
files) must round-trip bit-exactly, so floats are always printed with
``repr`` (shortest round-trip form) and identifiers are restricted to a
charset that is safe in all of those encodings.
"""

from __future__ import annotations

import math
import re
from enum import Enum
from typing import Any, Callable

# An id token, also inside a longer line: the charset, and not only dots,
# since ids name files and directories ("." or ".." is refused).
ID_PATTERN = r"(?!\.+(?![A-Za-z0-9_.:-]))[A-Za-z0-9_.:-]+"
_ID_RE = re.compile(ID_PATTERN + r"\Z")


def check_id(value: str, what: str = "identifier") -> str:
    """Validate an id token (no whitespace, '=', ',' or newlines, not only dots)."""
    if not isinstance(value, str) or not _ID_RE.match(value):
        raise ValueError(f"{what} {value!r} must match [A-Za-z0-9_.:-]+ and not be only dots")
    return value


def parse_finite(text: str, what: str = "number") -> float:
    """``float(text)``, refusing ``nan`` and infinities with ``ValueError``."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {text!r}")
    return value


def rule(holds: Callable[[Any], bool], text: str) -> Callable[[Any], Any]:
    """A check passing values for which ``holds`` is true; ``text`` says what they must be."""

    def check(value):
        if not holds(value):
            raise ValueError(f"must be {text}, got {value!r}")
        return value

    return check


def one_of(*names: str) -> Callable[[str], str]:
    return rule(lambda value: value in names, "|".join(names))


def member(kind: type[Enum]) -> Callable[[str], Enum]:
    named = one_of(*(m.value for m in kind))
    return lambda value: kind(named(value))


POSITIVE = rule(lambda value: value > 0, "> 0")
NON_NEGATIVE = rule(lambda value: value >= 0, ">= 0")


def fmt_float(x: float) -> str:
    """Shortest representation that parses back to exactly the same float."""
    return repr(float(x))


def fmt_value(value: Any) -> str:
    """A value as a line or a meta file writes it: an enum by its value, a bool as
    ``true`` or ``false``, a float round-trip exact, anything else by ``str``."""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, bool):
        return "true" if value else "false"
    return fmt_float(value) if isinstance(value, float) else str(value)


# the line grammar, ``TAG name=value ...`` with fields in a fixed order: a number is
# repr(float)'s form, read by float() and range-checked by the reader; the form without
# an exponent, the one a line carries, is tried first
NUMBER = r"-?[0-9]+\.[0-9]+|-?[0-9]+(?:\.[0-9]+)?e[+-][0-9]+"


def alternation(kind: type[Enum]) -> str:
    """A pattern of the values of ``kind``'s members."""
    return "|".join(m.value for m in kind)


def line_pattern(**fields: str) -> re.Pattern:
    """A line's fields after its tag, ``name=value`` in this order, each value a group named after it."""
    return re.compile(" ".join(f"{name}=(?P<{name}>{value})" for name, value in fields.items()))


def rel_close(a: float, b: float, tol: float) -> bool:
    """Relative closeness with a floor of 1.0 so near-zero values compare sanely."""
    # not finite is close to nothing: a tolerance scaled by an infinity admits every number
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def format_meta(values: dict[str, str]) -> str:
    """``key = value`` lines in the dict's order, each ending in a newline."""
    return "".join(f"{key} = {value}\n" for key, value in values.items())


def parse_meta(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines (blank lines skipped), the inverse of :func:`format_meta`."""
    values: dict[str, str] = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        key, sep, value = line.partition(" = ")
        if not sep or key in values:
            raise ValueError(f"malformed or repeated meta line {line!r}")
        values[key] = value
    return values
