"""Storage substrate: heap tables, ordered indexes, and NoSQL stores."""

# The catalog's Database holds this package's tables, which name the
# catalog's schemas: importing the catalog first lets that cycle resolve.
import repro.catalog  # noqa: F401
from repro.storage.table import HeapTable, Row
from repro.storage.index import OrderedIndex, sortable

__all__ = ["HeapTable", "Row", "OrderedIndex", "sortable"]
