"""Pluggable reenactment execution backends.

``resolve_backend(None | "memory" | "sqlite" | instance)`` is the one
entry point the rest of the system uses; the reenactor, the what-if
engine and the equivalence checker all accept a ``backend=`` in that
form.  See :mod:`repro.backends.base` for the contract and
``tests/backends/`` for the differential harness that enforces it.

A SQL engine is one module — a registered
:class:`~repro.algebra.sqlgen.DialectConfig`, an :class:`SQLSession`
subclass with the driver glue, an :class:`SQLBackend` subclass naming
both (:mod:`repro.backends.sqlite` is the template) — plus a
``register_backend`` line below; ``docs/backends.md`` has the recipe.
"""

from repro.backends.base import (BackendSession, BackendSpec,
                                 ExecutionBackend, SessionStats,
                                 SnapshotPipeline, SnapshotPlan,
                                 SnapshotPlanStep, available_backends,
                                 register_backend, resolve_backend)
from repro.backends.memory import InMemoryBackend
from repro.backends.binder import SnapshotBinder
from repro.backends.cache import SnapshotCache
from repro.backends.sqlbase import (BoundDialect, SQLBackend,
                                    SQLPipeline, SQLSession)
from repro.backends.sqlite import SQLiteBackend, SQLiteSession

register_backend("memory", InMemoryBackend)
register_backend("in-memory", InMemoryBackend)
register_backend("sqlite", SQLiteBackend)

__all__ = [
    "BackendSession", "BackendSpec", "BoundDialect", "ExecutionBackend",
    "InMemoryBackend", "SQLBackend", "SQLPipeline", "SQLSession",
    "SQLiteBackend", "SQLiteSession", "SessionStats", "SnapshotBinder",
    "SnapshotCache", "available_backends", "register_backend",
    "resolve_backend",
]
