"""Serialization formats for the unified query plan representation.

The case study (Section III-E) classifies serialized formats into *natural*
formats optimized for readability (graph, text, table) and *structured*
formats optimized for machine reading (JSON, XML, YAML).  UPlan can be
serialized into any of them; JSON, XML, YAML, the indented text form, and
the grammar form can also be parsed back, and every round-trip preserves the
plan's fingerprint (the pipeline layer's round-trip invariant).  The text,
YAML and grammar forms share one value codec (:mod:`.codec`), and every
writer and reader walks the tree on an explicit stack except JSON's, which
is bounded like the stdlib reader (about 490 plan levels; deeper is a
:class:`~repro.errors.FormatError`).

The registry exposed here lets applications look formats up by name::

    from repro.core import formats
    text = formats.serialize(plan, "json")
    plan2 = formats.deserialize(text, "json")
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core.model import UnifiedPlan
from repro.errors import FormatError

from repro.core.formats.json_format import dumps as json_dumps, loads as json_loads
from repro.core.formats.text_format import render as text_render, parse as text_parse
from repro.core.formats.table_format import render as table_render
from repro.core.formats.xml_format import dumps as xml_dumps, loads as xml_loads
from repro.core.formats.yaml_format import dumps as yaml_dumps, loads as yaml_loads
from repro.core import grammar

#: Format classification mirroring Table III of the paper.
NATURAL_FORMATS = ("text", "table", "graph")
STRUCTURED_FORMATS = ("json", "xml", "yaml")

_SERIALIZERS: Dict[str, Callable[[UnifiedPlan], str]] = {}
_DESERIALIZERS: Dict[str, Callable[[str], UnifiedPlan]] = {}


def register_format(
    name: str,
    serializer: Callable[[UnifiedPlan], str],
    deserializer: Optional[Callable[[str], UnifiedPlan]] = None,
) -> None:
    """Register a serializer (and optionally a deserializer) for *name*.

    This is the extension point the paper's design calls out: supporting an
    additional format requires only registering a pair of callables.
    """
    key = name.strip().lower()
    if not key:
        raise FormatError("format name must be non-empty")
    _SERIALIZERS[key] = serializer
    if deserializer is not None:
        _DESERIALIZERS[key] = deserializer


def supported_formats() -> List[str]:
    """Return the names of all registered serialization formats."""
    return sorted(_SERIALIZERS)


def parseable_formats() -> List[str]:
    """Return the names of formats that can also be parsed back."""
    return sorted(_DESERIALIZERS)


def serialize(plan: UnifiedPlan, format_name: str) -> str:
    """Serialize *plan* into the named format."""
    key = format_name.strip().lower()
    serializer = _SERIALIZERS.get(key)
    if serializer is None:
        raise FormatError(
            f"unknown format {format_name!r}; supported: {supported_formats()}"
        )
    return serializer(plan)


def deserialize(text: str, format_name: str) -> UnifiedPlan:
    """Parse a plan from the named format (if the format supports parsing)."""
    key = format_name.strip().lower()
    deserializer = _DESERIALIZERS.get(key)
    if deserializer is None:
        raise FormatError(
            f"format {format_name!r} cannot be parsed; parseable: {parseable_formats()}"
        )
    return deserializer(text)


# Built-in formats ----------------------------------------------------------

register_format("json", json_dumps, json_loads)
register_format("text", text_render, text_parse)
register_format("table", table_render)
register_format("xml", xml_dumps, xml_loads)
register_format("yaml", yaml_dumps, yaml_loads)
register_format("grammar", grammar.serialize, grammar.parse)

__all__ = [
    "NATURAL_FORMATS",
    "STRUCTURED_FORMATS",
    "register_format",
    "supported_formats",
    "parseable_formats",
    "serialize",
    "deserialize",
]
