"""repro — reenactment-based transaction debugging and provenance.

A from-scratch reproduction of *"Debugging Transactions and Tracking
their Provenance with Reenactment"* (Niu et al., PVLDB 10(12), 2017) and
the GProM system it demonstrates.

Layering (bottom-up):

* :mod:`repro.db` — MVCC storage engine with snapshot isolation,
  time travel and audit logging (the substrate the paper assumes);
* :mod:`repro.sql` — SQL dialect: lexer/parser/formatter;
* :mod:`repro.algebra` — relational algebra IR, interpreter, SQL
  code generator;
* :mod:`repro.core` — the paper's contribution: the reenactor, the
  provenance rewriter, provenance-aware optimizations and the GProM
  middleware pipeline;
* :mod:`repro.debugger` — the transaction debugger (timeline, debug
  panel, what-if) from the demo;
* :mod:`repro.workloads` — deterministic concurrency simulator, the
  running bank example and workload generators for the experiments.

Quickstart::

    from repro import Database
    db = Database()
    db.execute("CREATE TABLE account (cust TEXT, typ TEXT, bal INT)")
    ...
"""

from repro.db import (Database, DatabaseConfig, IsolationLevel, Session,
                      WriteAheadLog)
from repro.backends import (BackendSession, ExecutionBackend,
                            InMemoryBackend, SQLiteBackend,
                            available_backends, resolve_backend)
from repro.errors import ReproError
from repro.faults import FaultPlan, FaultSpec, armed
from repro.service import (ReenactmentService, ResultCache,
                           SnapshotStore)

__version__ = "1.6.0"

__all__ = [
    "Database", "DatabaseConfig", "IsolationLevel", "Session",
    "WriteAheadLog",
    "BackendSession", "ExecutionBackend", "InMemoryBackend",
    "SQLiteBackend", "available_backends", "resolve_backend",
    "ReenactmentService", "ResultCache", "SnapshotStore",
    "FaultPlan", "FaultSpec", "armed",
    "ReproError", "__version__",
]
