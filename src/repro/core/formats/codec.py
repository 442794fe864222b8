"""The one codec for property values in the unified text formats.

The text, YAML and grammar forms write a value the same way: ``null``,
``true`` / ``false``, a number as ``repr`` writes it (``inf``, ``-inf`` and
``nan`` included), or a double-quoted string.  A quoted string escapes the
backslash and the double quote, writes ``\\n`` and ``\\r`` for those two
line terminators and ``\\uXXXX`` for the others ``str.splitlines()`` splits
on, so a value never breaks a line-based reader.  XML keeps its own typed
attributes and JSON its own encoder.
"""

from __future__ import annotations

import re
from typing import Tuple

from repro.core.model import PropertyValue

#: Every character ``str.splitlines()`` treats as a line terminator.
LINE_TERMINATORS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

_ESCAPES = str.maketrans(
    {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r",
     **{ch: f"\\u{ord(ch):04x}" for ch in LINE_TERMINATORS[2:]}}
)
_QUOTED = re.compile(r'"([^"\\]*(?:\\.[^"\\]*)*)"', re.DOTALL)
_ESCAPE = re.compile(r"\\(u[0-9a-fA-F]{4}|.)", re.DOTALL)
_UNESCAPES = {"n": "\n", "r": "\r"}
_WORDS = {"null": None, "true": True, "false": False}


def quote(text: str) -> str:
    """*text* as a double-quoted, escaped string."""
    return '"' + text.translate(_ESCAPES) + '"'


def _unescape(match: "re.Match[str]") -> str:
    escaped = match.group(1)
    if len(escaped) == 5:
        return chr(int(escaped[1:], 16))
    return _UNESCAPES.get(escaped, escaped)


def unquote(text: str, start: int = 0) -> Tuple[str, int]:
    """The string quoted at ``text[start]`` and the index after its closing
    quote; ``ValueError`` when no closing quote follows."""
    match = _QUOTED.match(text, start)
    if match is None:
        raise ValueError(f"unterminated string at position {start}")
    return _ESCAPE.sub(_unescape, match.group(1)), match.end()


def read_scalar(text: str) -> PropertyValue:
    """``null``, ``true``, ``false``, an int or a float (``inf``, ``-inf`` and
    ``nan`` too) from *text*; ``ValueError`` for anything else."""
    if text in _WORDS:
        return _WORDS[text]
    try:
        return int(text)
    except ValueError:
        return float(text)


def write_value(value: PropertyValue) -> str:
    """*value* as the unified text formats write it."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    return quote(str(value))


def read_value(text: str) -> PropertyValue:
    """The value :func:`write_value` wrote as *text*, surrounding spaces
    ignored; ``ValueError`` for anything else."""
    stripped = text.strip()
    if not stripped.startswith('"'):
        return read_scalar(stripped)
    value, end = unquote(stripped)
    if end != len(stripped):
        raise ValueError(f"text after the closing quote: {stripped!r}")
    return value
