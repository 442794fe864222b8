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
    """Serialize *plan* to a two-space-indented JSON document."""
    return dumps_indented(plan.to_dict())


def loads(text: str) -> UnifiedPlan:
    """Parse a unified plan from its JSON document form."""
    try:
        data: Dict[str, Any] = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON document: {exc}") from exc
    if not isinstance(data, dict):
        raise FormatError("a unified plan JSON document must be an object")
    try:
        return UnifiedPlan.from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed unified plan document: {exc}") from exc
