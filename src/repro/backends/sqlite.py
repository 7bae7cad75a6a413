"""SQLite execution backend: reenactment as SQL on a stock engine.

All of the machinery — snapshot cache, materialization planner,
:class:`SnapshotBinder`, the priming pipeline, the window-compiled
sparkline scan — is shared with every SQL backend (see
:mod:`repro.backends.sqlbase`); this module contributes SQLite's
:class:`~repro.algebra.sqlgen.DialectConfig` and the driver glue.

Dialect deltas from the native printer, each load-bearing:

* ``AS OF`` scans become scans of the materialized snapshot tables
  (SQLite has no time travel — challenge C2 is met by materializing);
* compound-SELECT operands are *not* parenthesized — SQLite rejects
  ``(SELECT ...) UNION ALL (SELECT ...)`` — each side is wrapped as a
  plain ``SELECT * FROM (...)`` instead;
* identifiers are double-quoted (snapshot table names and annotation
  columns like ``__rowid__`` are not words we want the SQLite parser
  interpreting);
* :class:`~repro.algebra.operators.AnnotateRowId` (reenacted
  ``INSERT ... SELECT``) is expressible here via ``ROW_NUMBER() OVER
  ()`` — the native dialect has to refuse it;
* ``WITH ... AS MATERIALIZED`` barriers are only emitted on SQLite
  >= 3.35 (older parsers reject the keyword).

Known semantic deltas (documented, asserted on by the differential
harness only where the backends agree by design): SQLite integer
division truncates where the evaluator promotes to float on inexact
division, and SQLite compares values of mismatched types by storage
class instead of raising.  ``PRAGMA case_sensitive_like`` aligns LIKE
with the evaluator's case-sensitive semantics.
"""

from __future__ import annotations

import dataclasses
import sqlite3

# Re-exported so existing imports (tests, service code, __init__) keep
# working against this module; the implementations are shared.
from repro.algebra.sqlgen import (SQLITE, Dialect,  # noqa: F401
                                  DialectConfig, generate_sql)
from repro.backends.binder import SnapshotBinder
from repro.backends.cache import (DEFAULT_CACHE_CAPACITY,  # noqa: F401
                                  SnapshotCache, SnapshotKey,
                                  quote_ident, spillable_key)
from repro.backends.sqlbase import (BoundDialect,  # noqa: F401
                                    SQLBackend, SQLPipeline,
                                    SQLSession, _coerce_result)
from repro.obs.trace import span

#: SQLite's dialect config, with the CTE materialization barrier
#: dropped on engines too old to parse ``AS MATERIALIZED``.
SQLITE_DIALECT: DialectConfig = SQLITE \
    if sqlite3.sqlite_version_info >= (3, 35, 0) \
    else dataclasses.replace(SQLITE, cte_materialization="")


class SQLiteDialect(BoundDialect):
    """SQLite's SQL, wired to a :class:`SnapshotBinder`."""

    def __init__(self, binder: SnapshotBinder):
        super().__init__(binder, SQLITE_DIALECT)


class SQLitePipeline(SQLPipeline):
    """The planned cross-compile priming pipeline over one
    :class:`SQLiteSession` (see :class:`SQLPipeline` for the
    planning logic — nothing here is SQLite-specific)."""


class SQLiteSession(SQLSession):
    """One SQLite connection plus a snapshot cache, shared by every
    plan executed in the session (see :class:`SQLSession`)."""

    _error_types = (sqlite3.Error,)
    engine_label = "SQLite"
    _pipeline_class = SQLitePipeline

    def _connect(self):
        with span("session.open", engine="sqlite",
                  database=self.backend.database):
            return sqlite3.connect(self.backend.database)

    def _configure_connection(self) -> None:
        # LIKE is case-insensitive for ASCII by default; the paper's
        # semantics (and the in-memory evaluator) are case-sensitive
        self.conn.execute("PRAGMA case_sensitive_like = ON")

    def _dialect(self, binder: SnapshotBinder) -> Dialect:
        return SQLiteDialect(binder)

    def _gen_sql(self, plan, dialect: Dialect) -> str:
        # routed through this module's name so tests can stub it
        return generate_sql(plan, dialect=dialect)


class SQLiteBackend(SQLBackend):
    """Materialize snapshots into SQLite and run plans as SQL (see
    :class:`SQLBackend` for ``cache_capacity`` and ``spill_store``)."""

    name = "sqlite"
    dialect_config = SQLITE_DIALECT
    _session_class = SQLiteSession

    def open_session(self) -> SQLiteSession:
        return SQLiteSession(self)
