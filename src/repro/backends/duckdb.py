"""DuckDB execution backend: reenactment on a vectorized columnar
engine.

Same deployment story as :mod:`repro.backends.sqlite` — snapshots
materialized to temp tables through the shared
:class:`~repro.backends.binder.SnapshotBinder` pipeline, plans printed
through the ``duckdb`` :class:`~repro.algebra.sqlgen.DialectConfig`,
flag columns coerced back on the way out — but executed by DuckDB's
vectorized operators, which is what the analytic-shaped workloads
(dense timeline window scans, whole-history equivalence sweeps at 40k+)
want: columnar scans and hash joins over the snapshot temp tables
instead of SQLite's row-at-a-time B-tree walks.

Dialect deltas from SQLite, all expressed as config knobs:

* compound-SELECT operands *are* parenthesized (the portable ANSI
  form the native printer also uses);
* parameters are named ``$name`` markers — and DuckDB rejects a
  parameter dict carrying names the statement does not reference, so
  the session filters the context's params down to the markers that
  actually appear in the SQL;
* ``CREATE TEMP TABLE`` requires statically typed columns
  (``typed_temp_columns``): data columns come from the catalog (or
  are inferred from the first materialized row), annotation columns
  are BIGINT;
* no ``__rowid__`` indexes on snapshot temp tables
  (``index_rowids`` off): DuckDB's vectorized hash joins beat index
  upkeep, and its ART indexes would only slow materialization.

Known semantic deltas (documented; the differential harness only
asserts where backends agree by design): DuckDB's ``/`` on integers
returns DOUBLE (SQLite truncates; the reenactment plans the system
generates use only ``+``/``-``/``*`` on data columns), integer SUMs
come back as HUGEINT (plain Python ints — no coercion needed), and
LIKE is case-sensitive by default, matching the evaluator without a
pragma.

The ``duckdb`` package is an **optional** dependency: this module
always imports, :data:`HAVE_DUCKDB` says whether the driver is
available, and the backend is only registered in
:func:`repro.backends.available_backends` when it is.
"""

from __future__ import annotations

import re
from typing import Tuple

try:
    import duckdb
except ImportError:  # driver not installed — backend stays dormant
    duckdb = None

#: whether the ``duckdb`` driver is importable in this environment.
HAVE_DUCKDB = duckdb is not None

from repro.algebra.sqlgen import DUCKDB, Dialect
from repro.backends.binder import SnapshotBinder
from repro.backends.sqlbase import (BoundDialect, SQLBackend,
                                    SQLPipeline, SQLSession)
from repro.errors import ExecutionError
from repro.obs.trace import span

#: the ``$name`` parameter markers a generated statement references.
_PARAM_RE = re.compile(r"\$([A-Za-z_][A-Za-z0-9_]*)")


class DuckDBDialect(BoundDialect):
    """DuckDB's SQL, wired to a :class:`SnapshotBinder`."""

    def __init__(self, binder: SnapshotBinder):
        super().__init__(binder, DUCKDB)


class DuckDBPipeline(SQLPipeline):
    """The planned cross-compile priming pipeline over one
    :class:`DuckDBSession` (all planning logic shared)."""


class DuckDBSession(SQLSession):
    """One DuckDB connection plus a snapshot cache, shared by every
    plan executed in the session (see :class:`SQLSession`)."""

    engine_label = "DuckDB"
    _error_types: Tuple[type, ...] = \
        (duckdb.Error,) if HAVE_DUCKDB else (Exception,)
    #: columnar engine: vectorized hash joins, no rowid indexes
    index_rowids = False
    _pipeline_class = DuckDBPipeline

    def _connect(self):
        with span("session.open", engine="duckdb",
                  database=self.backend.database):
            return duckdb.connect(self.backend.database)

    def _dialect(self, binder: SnapshotBinder) -> Dialect:
        return DuckDBDialect(binder)

    def _run_query(self, sql: str, params) -> list:
        if params:
            # DuckDB rejects parameter dicts carrying names the
            # statement never references — pass only what it uses
            wanted = set(_PARAM_RE.findall(sql))
            params = {name: value for name, value in params.items()
                      if name in wanted}
        if params:
            return self.conn.execute(sql, params).fetchall()
        return self.conn.execute(sql).fetchall()


class DuckDBBackend(SQLBackend):
    """Materialize snapshots into DuckDB and run plans as SQL (see
    :class:`SQLBackend` for ``cache_capacity`` and ``spill_store``)."""

    name = "duckdb"
    dialect_config = DUCKDB
    _session_class = DuckDBSession

    def __init__(self, *args, **kwargs):
        if not HAVE_DUCKDB:
            raise ExecutionError(
                "the 'duckdb' package is not installed; install the "
                "dev requirements (pip install -r requirements-dev.txt)"
                " or pick another backend from available_backends()")
        super().__init__(*args, **kwargs)

    def open_session(self) -> DuckDBSession:
        return DuckDBSession(self)
