"""Per-tenant catalogs: explicit handles, no singleton.

Each tenant owns an isolated set of dialect instances (and therefore
databases) — cross-tenant leakage is impossible *by construction*, because
no shared registry, module global, or default catalog exists that two
tenants could reach: a session holds a :class:`TenantCatalog` reference and
every lookup goes through it.  (Compare the ``catalog_manager`` singleton
idiom some systems use, where isolation depends on every call site passing
the right key; here there is no wrong call to make.)

The registry itself is just an object the service owns; tests can build two
registries side by side in one process and nothing will connect them.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from repro.core.caching import LRUCache
from repro.dialects import EngineConfig, create_dialect
from repro.dialects.base import SimulatedDBMS

#: Entries each dialect's result cache keeps (least recently used go first).
RESULT_CACHE_ENTRIES = 256
#: Results longer than this many rows are never cached; they always execute.
RESULT_CACHE_MAX_ROWS = 256


class TenantCatalog:
    """One tenant's dialects, keyed by DBMS name, each with its result cache.

    Dialects are created lazily on first use and shared by every session of
    the tenant (two sessions of one tenant that open ``postgresql`` see the
    same database — the multi-session semantics the concurrency tests
    exercise).  Creation is lock-guarded so two sessions opening the same
    DBMS concurrently share one instance instead of racing two into
    existence.

    Beside each dialect lives the service's result cache for it (see
    :meth:`results`), so a tenant's cached rows are as private as its
    database.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._dialects: Dict[str, SimulatedDBMS] = {}
        self._results: Dict[str, LRUCache] = {}
        self._lock = threading.Lock()

    def dialect(self, dbms_name: str, options: Optional[Dict[str, object]] = None) -> SimulatedDBMS:
        """Return (creating on first use) this tenant's *dbms_name* dialect.

        *options* are :class:`EngineConfig` fields, validated on every
        call (an unknown key or a bad value raises), and configure the
        dialect at creation; later calls for an existing dialect ignore
        them (the first opener owns the configuration, as with a real
        server's instance settings).
        """
        options = options or {}
        EngineConfig(**options)  # the door: rejects a bad setting even for an open dialect
        key = dbms_name.lower()
        with self._lock:
            dialect = self._dialects.get(key)
            if dialect is None:
                dialect = create_dialect(key, **options)
                self._dialects[key] = dialect
                self._results[key] = LRUCache(maxsize=RESULT_CACHE_ENTRIES)
            return dialect

    def results(self, dbms_name: str) -> LRUCache:
        """The result cache of this tenant's (already opened) *dbms_name* dialect.

        The service keys it on ``(normalized text, config, freshness of
        every table read)``, so a write makes the entries that read the
        written table unreachable and nothing is ever dropped explicitly.
        """
        with self._lock:
            return self._results[dbms_name.lower()]

    def dbms_names(self) -> List[str]:
        """The DBMS names this tenant has opened so far."""
        with self._lock:
            return sorted(self._dialects)


class TenantRegistry:
    """The explicit collection of tenant catalogs a service serves.

    Deliberately *not* a module-level singleton: the service (or a test)
    constructs one and passes it down, so two services in one process are
    fully independent.
    """

    def __init__(self) -> None:
        self._tenants: Dict[str, TenantCatalog] = {}
        self._lock = threading.Lock()

    def catalog(self, tenant_name: str) -> TenantCatalog:
        """Return (creating on first use) the catalog for *tenant_name*."""
        key = tenant_name
        with self._lock:
            catalog = self._tenants.get(key)
            if catalog is None:
                catalog = TenantCatalog(key)
                self._tenants[key] = catalog
            return catalog
