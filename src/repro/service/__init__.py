"""The multi-tenant query service (PR 9; thread-per-connection since PR 23).

A blocking-socket front end over the thread-safe dialect core: sessions,
per-tenant catalogs, prepared statements, cancellation, and EXPLAIN
passthrough, over a length-prefixed JSON wire protocol.  Each connection is
served on its own thread, start to finish.  Read-only statements run
concurrently with snapshot isolation; DDL/DML is linearizable.  See ``README.md`` ("Serving") and the "Service layer"
invariants block in ``ROADMAP.md``.
"""

from repro.service.client import (
    ServiceClient,
    ServiceDialect,
    ServiceError,
    ServiceSession,
    StatementCancelled,
)
from repro.service.protocol import MAX_MESSAGE_BYTES, FrameDecoder, ProtocolError
from repro.service.server import QueryService
from repro.service.tenants import TenantCatalog, TenantRegistry

__all__ = [
    "QueryService",
    "ServiceClient",
    "ServiceSession",
    "ServiceDialect",
    "ServiceError",
    "StatementCancelled",
    "TenantCatalog",
    "TenantRegistry",
    "FrameDecoder",
    "ProtocolError",
    "MAX_MESSAGE_BYTES",
]
