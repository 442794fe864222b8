"""JSON serialization of unified query plans.

JSON is the structured format most widely supported by the studied DBMSs
(Table III) and the format the paper's applications A.2 and A.3 rely on.  The
schema mirrors :meth:`repro.core.model.UnifiedPlan.to_dict`:

.. code-block:: json

    {
      "source_dbms": "postgresql",
      "query": "SELECT ...",
      "properties": [{"category": "Status", "identifier": "Planning Time", "value": 0.1}],
      "tree": {
        "operation": {"category": "Producer", "identifier": "Full Table Scan"},
        "properties": [...],
        "children": [...]
      }
    }
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.core.formats.json_emit import dumps_indented
from repro.core.model import UnifiedPlan
from repro.errors import FormatError


def dumps(plan: UnifiedPlan) -> str:
    """Serialize *plan* to a two-space-indented JSON document.

    The emitter recurses once per container: a plan nested deeper than the
    interpreter's recursion limit allows (about 490 levels, as for the
    stdlib reader) is a ``FormatError``.
    """
    try:
        return dumps_indented(plan.to_dict())
    except RecursionError as exc:
        raise FormatError(f"plan too deep for a JSON document: {exc}") from exc


def loads(text: str) -> UnifiedPlan:
    """Parse a unified plan from its JSON document form."""
    try:
        data: Dict[str, Any] = json.loads(text)
    except (ValueError, RecursionError) as exc:  # malformed, or nested past the parser's stack
        raise FormatError(f"invalid JSON document: {exc}") from exc
    if not isinstance(data, dict):
        raise FormatError("a unified plan JSON document must be an object")
    return UnifiedPlan.from_dict(data)
