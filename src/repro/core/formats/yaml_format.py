"""YAML serialization of unified query plans.

Only PostgreSQL, of the studied DBMSs, exposes query plans as YAML
(Table III).  To keep the library dependency-free both the emitter and the
parser implement the small YAML subset needed for plan documents (nested
mappings, sequences and scalars) — the parser accepts exactly the documents
the emitter produces, which is what the pipeline's round-trip invariant
requires.  Both work through an explicit stack, so a plan of any depth
writes and reads back; scalars go through the shared
:mod:`~repro.core.formats.codec`.
"""

from __future__ import annotations

from typing import Any, List, Tuple

from repro.core.formats import codec
from repro.core.model import UnifiedPlan
from repro.errors import FormatError

_INDENT = "  "

#: Characters that make a string need quotes, besides a line terminator.
_SPECIAL = set(":#{}[],&*?|-<>=!%@`\"'" + codec.LINE_TERMINATORS)


def _plain(text: str) -> bool:
    """Whether *text* may stay unquoted: it must not read back as anything
    else (a scalar, a YAML 1.1 boolean, an empty container) or carry
    surrounding space or YAML syntax."""
    if not text or text.strip() != text or text.lower() in ("yes", "no"):
        return False
    if not _SPECIAL.isdisjoint(text):
        return False
    try:
        codec.read_scalar(text.lower())
    except ValueError:
        return True
    return False


def _scalar(value: Any) -> str:
    if isinstance(value, str) and _plain(value):
        return value
    return codec.write_value(value)


def dumps(plan: UnifiedPlan) -> str:
    """Serialize *plan* to a YAML document."""
    lines: List[str] = []
    stack: List[Any] = [(0, plan.to_dict())]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            lines.append(item)
            continue
        depth, block = item
        prefix = _INDENT * depth
        if isinstance(block, dict):
            entries = [(f"{prefix}{key}:", value) for key, value in block.items()]
        else:
            entries = [(f"{prefix}-", value) for value in block]
        pending: List[Any] = []
        for head, value in entries:
            if isinstance(value, (dict, list)) and value:
                pending.extend((head, (depth + 1, value)))
            elif isinstance(value, (dict, list)):
                pending.append(head + (" {}" if isinstance(value, dict) else " []"))
            else:
                pending.append(f"{head} {_scalar(value)}")
        stack.extend(reversed(pending))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Parsing (the emitter's subset only)
# ---------------------------------------------------------------------------


def _parse_scalar(text: str) -> Any:
    stripped = text.strip()
    if stripped == "[]":
        return []
    if stripped == "{}":
        return {}
    try:
        return codec.read_value(stripped)
    except ValueError as exc:
        if stripped.startswith('"'):
            raise FormatError(f"invalid YAML string: {stripped!r}") from exc
    return stripped


def _split_lines(text: str) -> List[Tuple[int, str]]:
    lines: List[Tuple[int, str]] = []
    for raw in text.splitlines():
        if not raw.strip():
            continue
        content = raw.lstrip(" ")
        indent_spaces = len(raw) - len(content)
        if indent_spaces % len(_INDENT) != 0:
            raise FormatError(f"inconsistent YAML indentation: {raw!r}")
        lines.append((indent_spaces // len(_INDENT), content))
    return lines


def _parse_document(lines: List[Tuple[int, str]]) -> dict:
    """The mapping *lines* spell out.  ``blocks[d]`` is the open container
    at depth ``d``; a ``key:`` or ``-`` with nothing after it leaves a
    *slot* that the next, one-deeper line fills with a new block."""
    root: dict = {}
    blocks: List[Any] = [root]
    slot = None
    for depth, content in lines:
        sequence_item = content.startswith("-")
        if slot is not None and depth == len(blocks):
            container, key = slot
            container[key] = [] if sequence_item else {}
            blocks.append(container[key])
        slot = None
        if depth >= len(blocks):
            raise FormatError(f"unexpected YAML indentation: {content!r}")
        del blocks[depth + 1:]
        block = blocks[depth]
        if sequence_item != isinstance(block, list):
            raise FormatError(f"YAML line does not fit its block: {content!r}")
        if sequence_item:
            key, rest = len(block), content[1:]
            block.append(None)
        elif ":" in content:
            key, _, rest = content.partition(":")
            key = key.strip()
        else:
            raise FormatError(f"expected 'key: value' in YAML line: {content!r}")
        if rest.strip():
            block[key] = _parse_scalar(rest)
        else:
            block[key] = None
            slot = (block, key)
    return root


def loads(text: str) -> UnifiedPlan:
    """Parse a unified plan from the YAML document form :func:`dumps` emits."""
    lines = _split_lines(text)
    if not lines:
        raise FormatError("empty YAML document")
    return UnifiedPlan.from_dict(_parse_document(lines))
