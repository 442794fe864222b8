"""One indented-JSON emitter for every EXPLAIN JSON renderer.

``json.dumps(obj, indent=2)`` cannot use CPython's C encoder: with ``indent``
set it falls back to the generator-based pure-Python ``_make_iterencode``,
which yields once per token.  :func:`dumps_indented` writes the same text
from one recursive function appending to one list — ~50 µs against ~190 µs
for a 4 KB TPC-H plan (x86_64, CPython 3.11) — and is **byte-identical** to
``json.dumps(obj, indent=2, default=default)`` for every acyclic input: the
same type precedence (``str`` before ``None``/``True``/``False`` before
``int`` before ``float``, subclasses encoded as their base), the same key
coercion (``float``/``bool``/``None``/``int`` keys, a ``TypeError`` for any
other), ``NaN`` / ``Infinity`` / ``-Infinity`` for non-finite floats, ASCII
escaping through the C ``encode_basestring_ascii``, and *default*'s result
re-encoded in place of an unsupported object (a ``TypeError`` without one).
``tests/test_json_emit.py`` pins the identity with hypothesis and over every
dialect's EXPLAIN corpus.  The one input it does not share with ``json`` is
a cyclic container: ``json`` raises ``ValueError``, this recurses until
``RecursionError``; plans are trees, so none reaches it.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _string
from typing import Any, Callable, Dict, Optional

_int = int.__repr__
_float_repr = float.__repr__
_INFINITY = float("inf")


def _float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INFINITY:
        return "Infinity"
    if value == -_INFINITY:
        return "-Infinity"
    return _float_repr(value)


#: Encoders for the exact scalar types (subclasses take the isinstance chain
#: in :func:`_write`, which encodes them as their base type).
_SCALARS: Dict[type, Callable[[Any], str]] = {
    str: _string,
    int: _int,
    float: _float,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _key(key: Any) -> str:
    """A dict key as ``json`` coerces it (before string encoding)."""
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return _int(key)
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {key.__class__.__name__}"
    )


def dumps_indented(obj: Any, default: Optional[Callable[[Any], Any]] = None) -> str:
    """``json.dumps(obj, indent=2, default=default)``, byte for byte."""
    parts: list = []
    _write(obj, "\n", parts.append, default)
    return "".join(parts)


def _write(value: Any, newline: str, out: Callable[[str], None], default) -> None:
    """Append *value*'s encoding; *newline* is ``"\\n"`` plus the indentation
    of the line *value* starts on."""
    if isinstance(value, str):
        out(_string(value))
    elif value is None:
        out("null")
    elif value is True:
        out("true")
    elif value is False:
        out("false")
    elif isinstance(value, int):
        out(_int(value))
    elif isinstance(value, float):
        out(_float(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out("[]")
            return
        inner = newline + "  "
        prefix, separator = "[" + inner, "," + inner
        for item in value:
            # Exact scalars (most of a plan) skip the recursive call.
            scalar = _SCALARS.get(type(item))
            if scalar is not None:
                out(prefix + scalar(item))
            else:
                out(prefix)
                _write(item, inner, out, default)
            prefix = separator
        out(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out("{}")
            return
        inner = newline + "  "
        prefix, separator = "{" + inner, "," + inner
        for key, item in value.items():
            key = prefix + _string(_key(key)) + ": "
            scalar = _SCALARS.get(type(item))
            if scalar is not None:
                out(key + scalar(item))
            else:
                out(key)
                _write(item, inner, out, default)
            prefix = separator
        out(newline + "}")
    elif default is None:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")
    else:
        _write(default(value), newline, out, default)
