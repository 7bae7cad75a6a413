"""SQLite execution backend: reenactment as SQL on a stock engine.

All of the machinery — snapshot cache, materialization planner,
snapshot binder, the priming pipeline — lives in
:mod:`repro.backends.sqlbase`; this module is what an
engine *is*: its :class:`~repro.algebra.sqlgen.DialectConfig`, the
driver glue of its session, and a name.

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

import sqlite3

from repro.algebra.sqlgen import DialectConfig, register_dialect
from repro.backends.sqlbase import SQLBackend, SQLSession
from repro.obs.trace import span

#: SQLite: bounded parser stack (flat CTEs), bare compound operands,
#: and a MATERIALIZED barrier against the query flattener where the
#: linked library can parse the keyword (>= 3.35).
SQLITE_DIALECT = register_dialect(DialectConfig(
    name="sqlite", quote_style="double", use_ctes=True,
    parenthesized_compounds=False,
    cte_materialization="MATERIALIZED"
    if sqlite3.sqlite_version_info >= (3, 35, 0) else "",
    window_functions=True))


class SQLiteSession(SQLSession):
    """One SQLite connection plus a snapshot cache, shared by every
    plan executed in the session (see :class:`SQLSession`)."""

    _error_types = (sqlite3.Error,)
    engine_label = "SQLite"

    def _connect(self):
        with span("session.open", engine="sqlite",
                  database=self.backend.database):
            return sqlite3.connect(self.backend.database)

    def _configure_connection(self) -> None:
        # LIKE is case-insensitive for ASCII by default; the paper's
        # semantics (and the in-memory evaluator) are case-sensitive
        self.conn.execute("PRAGMA case_sensitive_like = ON")


class SQLiteBackend(SQLBackend):
    """Materialize snapshots into SQLite and run plans as SQL (see
    :class:`SQLBackend` for ``cache_capacity`` and ``spill_store``)."""

    name = "sqlite"
    dialect_config = SQLITE_DIALECT
    _session_class = SQLiteSession
