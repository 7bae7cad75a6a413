"""Pluggable reenactment execution backends.

``resolve_backend(None | "memory" | "sqlite" | "duckdb" | instance)``
is the one entry point the rest of the system uses; the reenactor, the
what-if engine and the equivalence checker all accept a ``backend=`` in
that form.  See :mod:`repro.backends.base` for the contract and
``tests/backends/`` for the differential harness that enforces it.

The DuckDB backend is registered only when the optional ``duckdb``
driver is importable (:data:`repro.backends.duckdb.HAVE_DUCKDB`).
"""

from repro.backends.base import (BackendSession, BackendSpec,
                                 ExecutionBackend, SessionStats,
                                 SnapshotPipeline, SnapshotPlan,
                                 SnapshotPlanStep, available_backends,
                                 register_backend, resolve_backend)
from repro.backends.duckdb import (HAVE_DUCKDB, DuckDBBackend,
                                   DuckDBDialect, DuckDBSession)
from repro.backends.memory import InMemoryBackend
from repro.backends.binder import SnapshotBinder
from repro.backends.cache import SnapshotCache
from repro.backends.sqlbase import (BoundDialect, SQLBackend,
                                    SQLPipeline, SQLSession)
from repro.backends.sqlite import (SQLiteBackend, SQLiteDialect,
                                   SQLitePipeline, SQLiteSession)

register_backend("memory", InMemoryBackend)
register_backend("in-memory", InMemoryBackend)
register_backend("sqlite", SQLiteBackend)
if HAVE_DUCKDB:
    register_backend("duckdb", DuckDBBackend)

__all__ = [
    "BackendSession", "BackendSpec", "BoundDialect", "DuckDBBackend",
    "DuckDBDialect", "DuckDBSession", "ExecutionBackend",
    "HAVE_DUCKDB", "InMemoryBackend", "SQLBackend", "SQLPipeline",
    "SQLSession", "SQLiteBackend", "SQLiteDialect", "SQLiteSession",
    "SessionStats", "SnapshotBinder", "SnapshotCache",
    "available_backends", "register_backend", "resolve_backend",
]
