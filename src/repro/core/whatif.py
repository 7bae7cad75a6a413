"""What-if scenarios (§2 of the paper).

Two kinds of hypothetical change are supported, exactly as the demo
describes:

1. **edit the data in a table** — "we create a temporary table storing
   the updated version of table R (say R').  We, then, replace all
   accesses to R with R' in the reenactment query and reevaluate it":
   R' becomes a constant leaf of the plans (see
   :meth:`Reenactor.build_chains`);
2. **modify, delete, or add an update statement** — "we reconstruct the
   reenactment query using the modified statements instead of the
   original statements and reevaluate this query".

In addition, :meth:`WhatIfScenario.conflict_analysis` checks whether the
modified transaction's writes would have collided with a concurrent
transaction's writes — detecting, e.g., that adding the *promotion*
update (``UPDATE account SET bal = bal WHERE cust = :name``) to Bob's
transaction "would force T2 to abort" under first-updater-wins.  No
write set is reenacted only to be read: the modified transaction's comes
with its reenactment (:attr:`ReenactmentResult.written_rowids`), a
committed concurrent transaction's is read off storage's commit log
(:meth:`Database.rows_written_by`), and only an aborted one — whose
attempted writes never reached storage — is reenacted.

The intended workload is exploratory: a user probing *many* variants of
one suspect transaction.  :class:`WhatIfFleet` batches that — the record
is parsed once, the unmodified original and every variant are compiled
and then executed in **one** :meth:`Reenactor.execute_all` batch on one
backend session, so AS-OF snapshots are planned and materialized once
for the whole fleet instead of once per probe.  A fleet of N variants
is N + 1 reenactments in one batch, plus one per aborted concurrent
transaction; a standalone :meth:`WhatIfScenario.run` is a fleet of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.algebra.evaluator import Relation
from repro.backends import BackendSpec, resolve_backend
from repro.core.reenactor import (ParsedStatement, ReenactmentOptions,
                                  ReenactmentResult, Reenactor,
                                  physical_writes)
from repro.db.auditlog import TransactionRecord
from repro.db.engine import Database
from repro.errors import (AnalysisError, AuditLogError, ExecutionError,
                          ReenactmentError, SQLSyntaxError,
                          TimeTravelError, WhatIfError)
from repro.sql import ast
from repro.sql.parser import parse_statement

#: errors reenacting a *recorded* transaction can legitimately raise
#: (unsupported SQL in the log, audit/time-travel disabled, runtime
#: evaluation failures).  Conflict analysis degrades gracefully on
#: these — the transaction's write set is reported as unknown — but
#: anything else (KeyError, AttributeError, ...) is a bug in the
#: engine and must propagate, not masquerade as "no conflict".
EXPECTED_REENACTMENT_ERRORS = (AnalysisError, AuditLogError,
                               ExecutionError, ReenactmentError,
                               SQLSyntaxError, TimeTravelError)

#: the request whose result is a transaction's write set, where no
#: whole-transaction reenactment already holds it
_WRITES = ReenactmentOptions(annotations=True, include_deleted=True,
                             only_affected=True)


@dataclass
class TableDiff:
    """Multiset difference between original and what-if table states."""

    table: str
    added: List[tuple] = field(default_factory=list)
    removed: List[tuple] = field(default_factory=list)

    @property
    def changed(self) -> bool:
        return bool(self.added or self.removed)


@dataclass
class ConflictFinding:
    """A write-write collision the modified transaction would cause."""

    table: str
    rowid: int
    other_xid: int
    description: str


@dataclass
class WhatIfResult:
    original: ReenactmentResult
    modified: ReenactmentResult
    diffs: Dict[str, TableDiff]
    conflicts: List[ConflictFinding] = field(default_factory=list)
    #: concurrent transactions whose write sets could not be
    #: reconstructed (the storage read or the reenactment failed with
    #: an expected error, see :data:`EXPECTED_REENACTMENT_ERRORS`),
    #: keyed by xid with the error text.  Non-empty means
    #: :attr:`conflicts` may be missing collisions against those
    #: transactions.
    degraded_xids: Dict[int, str] = field(default_factory=dict)

    @property
    def degraded(self) -> bool:
        """Conflict analysis fell back for at least one concurrent
        transaction — findings are a lower bound, not the full set."""
        return bool(self.degraded_xids)

    @property
    def changed_tables(self) -> List[str]:
        return [t for t, d in self.diffs.items() if d.changed]

    def summary(self) -> str:
        lines = []
        for table, diff in sorted(self.diffs.items()):
            if not diff.changed:
                lines.append(f"{table}: unchanged")
                continue
            lines.append(f"{table}: +{len(diff.added)} row(s), "
                         f"-{len(diff.removed)} row(s)")
            for row in diff.added:
                lines.append(f"  + {row}")
            for row in diff.removed:
                lines.append(f"  - {row}")
        for conflict in self.conflicts:
            lines.append(f"conflict: {conflict.description}")
        for xid, error in sorted(self.degraded_xids.items()):
            lines.append(
                f"degraded: conflict analysis could not reconstruct "
                f"the writes of concurrent transaction {xid} ({error})")
        return "\n".join(lines)


class WhatIfScenario:
    """A mutable what-if scenario over one past transaction.

    ``backend`` selects the execution backend used for both the original
    and the modified reenactment (see :mod:`repro.backends`) — diffs are
    only meaningful when both sides ran on the same backend.
    """

    def __init__(self, db: Database, xid: int, backend=None,
                 reenactor: Optional[Reenactor] = None):
        if reenactor is None:
            reenactor = Reenactor(db, backend=backend)
        record = reenactor.transaction_record(xid)
        self._start(reenactor, record, reenactor.parsed_statements(record))

    @classmethod
    def parsed(cls, reenactor: Reenactor, record: TransactionRecord,
               statements: List[ParsedStatement]) -> "WhatIfScenario":
        """A scenario over a record whose statements are parsed already
        — how a fleet and a debug panel start one without parsing the
        record again.  ``statements`` is not modified."""
        scenario = cls.__new__(cls)
        scenario._start(reenactor, record, statements)
        return scenario

    def _start(self, reenactor: Reenactor, record: TransactionRecord,
               statements: List[ParsedStatement]) -> None:
        self.db = reenactor.db
        self.xid = record.xid
        self.reenactor = reenactor
        self.record = record
        self._statements = statements
        self._modified = list(statements)
        #: table -> R', the rows the modified transaction reads instead
        self._edits: Dict[str, Relation] = {}
        #: xid -> error text for concurrent transactions whose writes
        #: the most recent conflict analysis could not reconstruct.
        self.last_degraded: Dict[int, str] = {}

    # -- scenario editing --------------------------------------------------

    @property
    def statements(self) -> List[ParsedStatement]:
        return list(self._modified)

    def replace_statement(self, index: int, sql: str,
                          params: Optional[Dict[str, Any]] = None
                          ) -> "WhatIfScenario":
        self._check_index(index)
        self._modified[index] = ParsedStatement(
            index=index, ts=self._modified[index].ts,
            stmt=self._parse_dml(sql, params))
        return self

    def delete_statement(self, index: int) -> "WhatIfScenario":
        self._check_index(index)
        del self._modified[index]
        self._renumber()
        return self

    def insert_statement(self, index: int, sql: str,
                         params: Optional[Dict[str, Any]] = None
                         ) -> "WhatIfScenario":
        """Insert a new statement *before* position ``index`` (``index``
        may equal the statement count to append)."""
        if index < 0 or index > len(self._modified):
            raise WhatIfError(f"statement index {index} out of range")
        if index < len(self._modified):
            ts = self._modified[index].ts
        elif self._modified:
            ts = self._modified[-1].ts
        else:
            ts = self.record.begin_ts
        self._modified.insert(index, ParsedStatement(
            index=index, ts=ts, stmt=self._parse_dml(sql, params)))
        self._renumber()
        return self

    def edit_table(self, table: str,
                   rows: Sequence[Sequence[Any]]) -> "WhatIfScenario":
        """Replace the contents of ``table`` (the temporary table R' of
        §2); rows must match the table's schema.  R' rows are not
        stored rows, so conflict analysis never matches them against a
        concurrent transaction's writes."""
        schema = self.db.catalog.get(table)
        validated = [schema.validate_row(tuple(row)) for row in rows]
        self._edits[table] = Relation(list(schema.column_names), validated)
        return self

    # -- execution ------------------------------------------------------------

    def run(self, options: Optional[ReenactmentOptions] = None,
            session=None) -> WhatIfResult:
        """Reenact original and modified transaction and diff them: a
        fleet of one (see :meth:`WhatIfFleet.run`)."""
        (result,) = _run_batch(self.reenactor, self.record,
                               self._statements, [self],
                               options or ReenactmentOptions(), session)
        return result

    @staticmethod
    def diff_results(original: ReenactmentResult,
                     modified: ReenactmentResult
                     ) -> Dict[str, TableDiff]:
        """Per-table multiset diff between two reenactment results."""
        diffs: Dict[str, TableDiff] = {}
        for table in sorted(set(original.tables) | set(modified.tables)):
            before = original.tables.get(table)
            after = modified.tables.get(table)
            before_counts = before.as_multiset() if before else {}
            after_counts = after.as_multiset() if after else {}
            diff = TableDiff(table=table)
            for row, count in (+(_counter(after_counts)
                                 - _counter(before_counts))).items():
                diff.added.extend([row] * count)
            for row, count in (+(_counter(before_counts)
                                 - _counter(after_counts))).items():
                diff.removed.extend([row] * count)
            diffs[table] = diff
        return diffs

    # -- conflict analysis --------------------------------------------------------

    def conflict_analysis(self, session=None) -> List[ConflictFinding]:
        """Would the modified transaction's writes collide with a
        concurrent transaction?  Under first-updater-wins, two
        transactions with overlapping execution windows writing the same
        row cannot both commit — the later writer aborts (the promotion
        trick relies on this, §2).

        Standalone, this reenacts the modified transaction for its
        write set; :meth:`run` takes it from the reenactment it ran
        anyway.  Concurrent transactions whose writes cannot be
        reconstructed (expected failures only) contribute none; their
        xids and errors are recorded in :attr:`last_degraded` and
        surfaced as :attr:`WhatIfResult.degraded_xids` by :meth:`run`."""
        return self._conflicts(self._written_rowids(session), session, {})

    def _conflicts(self, written: Dict[str, set], session,
                   cache: Dict[int, Tuple]) -> List[ConflictFinding]:
        self.last_degraded = {}
        # every row of an edited table is a row of R' or an inserted
        # one: none is a stored row another transaction could write
        written = {table: rowids for table, rowids in written.items()
                   if table not in self._edits}
        if not written:
            return []
        my_begin = self.record.begin_ts
        my_end = self.record.end_ts or self.db.clock.now()

        findings: List[ConflictFinding] = []
        for other in self.db.audit_log.transactions(committed_only=False):
            if other.xid == self.record.xid:
                continue
            other_end = other.end_ts or self.db.clock.now()
            if other.begin_ts > my_end or other_end < my_begin:
                continue  # not concurrent
            other_written, error = self._rowids_written_by(
                other, session=session, cache=cache)
            if error is not None:
                self.last_degraded[other.xid] = error
            for table, rowids in written.items():
                overlap = rowids & other_written.get(table, set())
                for rowid in sorted(overlap):
                    findings.append(ConflictFinding(
                        table=table, rowid=rowid, other_xid=other.xid,
                        description=(
                            f"row {rowid} of {table!r} is written by "
                            f"both the modified transaction "
                            f"{self.record.xid} and concurrent "
                            f"transaction {other.xid}; under "
                            f"first-updater-wins the later writer "
                            f"would abort")))
        return findings

    def _written_rowids(self, session=None) -> Dict[str, set]:
        result = self.reenactor.reenact_record(
            self.record, _WRITES, statements=self._modified,
            edits=self._edits, session=session)
        return physical_writes(result.tables)

    def _rowids_written_by(self, other: TransactionRecord, session,
                           cache: Dict[int, Tuple]
                           ) -> Tuple[Dict[str, set], Optional[str]]:
        """Rows a concurrent transaction wrote, as ``(writes, error)``.

        A committed transaction's writes are in storage: they are read
        off the commit log at its commit time
        (:meth:`Database.rows_written_by`), which by the paper's
        contract is exactly what reenacting it would report.  An
        aborted (or still active) transaction's attempted writes never
        reached storage but still conflict, so only those are
        reenacted.  On an expected failure of either — a commit the
        log cannot answer for raises :class:`TimeTravelError` — the
        writes are ``{}`` and ``error`` names it, never a silent
        "wrote nothing".  Scenario edits never change what *other*
        transactions wrote, so a fleet shares one ``cache``."""
        if other.xid in cache:
            return cache[other.xid]
        try:
            if other.committed:
                writes = self.db.rows_written_by(other.xid, other.commit_ts)
            elif other.statements:
                writes = physical_writes(self.reenactor.reenact(
                    other.xid, _WRITES, session=session).tables)
            else:
                writes = {}
            out = writes, None
        except EXPECTED_REENACTMENT_ERRORS as exc:
            out = {}, f"{type(exc).__name__}: {exc}"
        cache[other.xid] = out
        return out

    # -- helpers ----------------------------------------------------------------------

    def _check_index(self, index: int) -> None:
        if index < 0 or index >= len(self._modified):
            raise WhatIfError(
                f"statement index {index} out of range (0.."
                f"{len(self._modified) - 1})")

    def _renumber(self) -> None:
        self._modified = [
            ParsedStatement(index=i, ts=s.ts, stmt=s.stmt)
            for i, s in enumerate(self._modified)
        ]

    @staticmethod
    def _parse_dml(sql: str,
                   params: Optional[Dict[str, Any]]) -> ast.Statement:
        stmt = parse_statement(sql)
        if not isinstance(stmt, (ast.Insert, ast.Update, ast.Delete)):
            raise WhatIfError(
                f"what-if statements must be DML, got "
                f"{type(stmt).__name__}")
        if params:
            from repro.sql.bind import bind_statement
            stmt = bind_statement(stmt, params)
        return stmt


class WhatIfFleet:
    """A batch of what-if scenarios over one past transaction, executed
    on one shared backend session.

    The naive loop pays full price per probe: each ``scenario.run()``
    reenacts the unmodified original again and (on SQLite) re-opens a
    connection and re-materializes every AS-OF snapshot.  The fleet
    parses the record once for all its scenarios, compiles and reenacts
    the original exactly once, memoizes concurrent transactions' write
    sets for conflict analysis, and runs the original and every variant
    as one :meth:`Reenactor.execute_all` batch on one session — so each
    ``(table, ts)`` snapshot is materialized exactly once no matter how
    many scenarios scan it.  The batch's snapshot pipeline primes each
    compile's set in ``(table, ts)`` order, so on a delta-capable
    backend the snapshots a variant adds (e.g. statement-time states of
    a timestamp the original never scanned) are built as incremental
    patches of the fleet's already-cached neighbors, not full rebuilds.

    Usage::

        fleet = WhatIfFleet(db, xid, backend="sqlite")
        fleet.scenario("promo").insert_statement(0, "UPDATE ...")
        fleet.scenario("no-withdrawal").delete_statement(0)
        for name, result in fleet.run().items():
            print(name, result.summary())
    """

    def __init__(self, db: Database, xid: int,
                 backend: BackendSpec = None):
        self.db = db
        self.xid = xid
        self.backend = resolve_backend(backend)
        self.reenactor = Reenactor(db, backend=self.backend)
        self.record = self.reenactor.transaction_record(xid)
        self.statements = self.reenactor.parsed_statements(self.record)
        self._scenarios: List[Tuple[str, WhatIfScenario]] = []
        #: session statistics of the most recent :meth:`run` — the
        #: observable proof of snapshot reuse (tests assert on it).
        self.last_stats = None
        #: merged :attr:`WhatIfResult.degraded_xids` of the most recent
        #: :meth:`run`: concurrent transactions whose writes no
        #: scenario's conflict analysis could reconstruct.
        self.last_degraded: Dict[int, str] = {}

    # -- building the fleet -------------------------------------------------

    def scenario(self, name: Optional[str] = None) -> WhatIfScenario:
        """A fresh scenario sharing this fleet's reenactor (audit-log
        record and parsed statements are reused, not re-parsed)."""
        scenario = WhatIfScenario.parsed(self.reenactor, self.record,
                                         self.statements)
        self.add(scenario, name=name)
        return scenario

    def add(self, scenario: WhatIfScenario,
            name: Optional[str] = None) -> "WhatIfFleet":
        """Adopt an externally built scenario into the fleet."""
        if scenario.xid != self.xid:
            raise WhatIfError(
                f"fleet reenacts transaction {self.xid}, scenario "
                f"modifies {scenario.xid}")
        if name is None:
            name = f"scenario-{len(self._scenarios) + 1}"
        if any(existing == name for existing, _ in self._scenarios):
            raise WhatIfError(f"duplicate scenario name {name!r}")
        self._scenarios.append((name, scenario))
        return self

    @property
    def scenarios(self) -> List[WhatIfScenario]:
        return [scenario for _, scenario in self._scenarios]

    def __len__(self) -> int:
        return len(self._scenarios)

    # -- execution ----------------------------------------------------------

    def run(self, options: Optional[ReenactmentOptions] = None,
            session=None) -> Dict[str, WhatIfResult]:
        """Run every scenario; returns name -> :class:`WhatIfResult`
        (insertion-ordered, so iteration follows fleet construction).

        Compile/execute split in action: the original transaction and
        each scenario's *modified* one are compiled, then executed in
        one batch on the shared session (see :func:`_run_batch`).
        Conflict analysis reads each variant's write set off its
        reenactment and committed concurrent transactions' off storage,
        so a fleet of N variants is N + 1 reenactments (plus one per
        aborted concurrent transaction, shared by all variants).

        ``session`` runs the whole fleet on a caller-held
        :class:`~repro.backends.base.BackendSession` (left open)."""
        if not self._scenarios:
            raise WhatIfError("fleet has no scenarios; add some first")
        if session is None:
            with self.backend.open_session() as scoped:
                return self.run(options, scoped)
        results = _run_batch(self.reenactor, self.record, self.statements,
                             self.scenarios, options or ReenactmentOptions(),
                             session)
        self.last_stats = session.stats
        self.last_degraded = {xid: error for result in results
                              for xid, error in result.degraded_xids.items()}
        return {name: result
                for (name, _), result in zip(self._scenarios, results)}


def _run_batch(reenactor: Reenactor, record: TransactionRecord,
               statements: List[ParsedStatement],
               scenarios: Sequence[WhatIfScenario],
               options: ReenactmentOptions, session) -> List[WhatIfResult]:
    """The original transaction (``statements``) and every scenario's
    modified one, compiled, then run as one :meth:`Reenactor.execute_all`
    batch; then, per scenario, its diff against the original and its
    conflicts — each concurrent transaction's writes looked up once."""
    compiles = [reenactor.compile(record, options, statements=statements)]
    compiles += [reenactor.compile(record, options, edits=scenario._edits,
                                   statements=scenario._modified)
                 for scenario in scenarios]
    original, *modified = reenactor.execute_all(compiles, session=session)
    whole = options.upto is None and options.table is None
    other_writes: Dict[int, Tuple] = {}
    results = []
    for scenario, result in zip(scenarios, modified):
        written = result.written_rowids if whole else None
        if written is None:
            written = scenario._written_rowids(session)
        results.append(WhatIfResult(
            original=original, modified=result,
            diffs=WhatIfScenario.diff_results(original, result),
            conflicts=scenario._conflicts(written, session, other_writes),
            degraded_xids=dict(scenario.last_degraded)))
    return results


def _counter(counts):
    from collections import Counter
    return counts if isinstance(counts, Counter) else Counter(counts)
