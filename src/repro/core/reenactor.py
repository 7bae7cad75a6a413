"""Transaction reenactment (§3 of the paper; construction from [1]).

The reenactor turns a past transaction — as recorded in the audit log —
into relational algebra over *time-traveled* table snapshots, such that
evaluating the algebra reproduces exactly the tables the original
execution produced, including every interaction with concurrent
transactions.  It consumes only the audit log and the time-travel API,
never engine internals (the paper's non-invasiveness claim, challenge
C1/C2).

Statement translation (Example 3):

* ``UPDATE R SET c = e WHERE θ``  →  projection with per-attribute
  ``CASE WHEN θ THEN e ELSE c END``;
* ``DELETE FROM R WHERE θ``       →  tombstone flag ``__del__`` set via
  CASE (kept, not filtered, so READ COMMITTED merging knows which rows
  the transaction wrote);
* ``INSERT INTO R VALUES ...``    →  union with a constant relation;
* ``INSERT INTO R (SELECT q)``    →  union with ``q`` rewritten so every
  table access reads the reenactment's view of that table.

Annotation columns threaded through every step:

* ``__rowid__`` — row identity (physical rowid; synthetic negative ids
  for reenacted inserts);
* ``__xid__``   — transaction that created the visible version;
* ``__upd__``   — whether the reenacted transaction wrote the row;
* ``__del__``   — whether the reenacted transaction deleted the row.

Isolation levels (§3 footnote 2):

* SERIALIZABLE (snapshot isolation): every statement chains over the
  ``AS OF begin(T)`` snapshot;
* READ COMMITTED: before each statement, the chain for the target table
  is re-based: the transaction's own rows (``__upd__``) are merged with
  the committed ``AS OF statement-time`` snapshot of all rows it has not
  written (rowid anti-join).  This is sound because write locks prevent
  concurrent commits to rows the transaction wrote (see
  :mod:`repro.db.mvcc`).

Execution pays for the rows the transaction wrote, not for the table
([5]): a request for whole table states is compiled to the
affected-rows query (the chain under ``σ __upd__``, pushed down to the
scan) and :meth:`Reenactor.execute` adds the rows the transaction never
wrote straight from the AS-OF snapshot.  The full query of Example 3
remains what :meth:`Reenactor.build_plans` and
:meth:`Reenactor.reenactment_sql` produce, and what the tests hold the
split to.

Plans are DAGs: a READ COMMITTED re-base reads the transaction's own
rows twice, and :meth:`Reenactor.compile_all` compiles many requests —
the prefixes of a debug panel — over one chain, each prefix a *tap* on
it, in one optimizer run.  No layer expands a shared node once per
reference.
"""

from __future__ import annotations

from bisect import bisect_left
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple

from repro.algebra import operators as op
from repro.algebra.evaluator import Evaluator, Relation
from repro.backends import BackendSpec, resolve_backend
from repro.backends.planner import RowKeys
from repro.algebra.expressions import (BinaryOp, Case, Column, Expr,
                                       InList, Literal, SubqueryExpr,
                                       UnaryOp, contains_subquery,
                                       transform, walk)
from repro.algebra.translator import Scope, Translator
from repro.db.auditlog import TransactionRecord
from repro.db.engine import Database
from repro.db.transaction import IsolationLevel
from repro.errors import ReenactmentError
from repro.obs.trace import NOOP_SPAN, span
from repro.sql import ast
from repro.sql.parser import parse_statement

ROWID = "__rowid__"
XID = "__xid__"
UPD = "__upd__"
DEL = "__del__"
ANNOTATION_NAMES = (ROWID, XID, UPD, DEL)


@dataclass
class ReenactmentOptions:
    """Knobs for one reenactment request."""

    #: reenact only the first ``upto`` statements (prefix reenactment,
    #: §3); ``None`` reenacts the whole transaction.
    upto: Optional[int] = None
    #: restrict the result to one table.
    table: Optional[str] = None
    #: keep annotation columns (__rowid__/__xid__/__upd__/__del__).
    annotations: bool = False
    #: filter to rows the transaction wrote (debug-panel default, Fig. 4).
    only_affected: bool = False
    #: add ``prov_<table>_<attr>`` columns holding each row's
    #: pre-transaction version (PROVENANCE OF TRANSACTION).
    with_provenance: bool = False
    #: keep rows the transaction deleted (tombstones) in the output —
    #: the debugger shows them with their deleting statement; requires
    #: ``annotations=True`` so ``__del__`` is visible.
    include_deleted: bool = False
    #: run the provenance-aware optimizer over the plans ([5], E6).
    optimize: bool = True


#: the request whose result is a transaction's write set: the rows it
#: wrote, annotated, tombstones kept — the plans a split compile runs.
WRITES = ReenactmentOptions(annotations=True, include_deleted=True,
                            only_affected=True)


@dataclass
class ParsedStatement:
    """One audit-log DML statement, parsed and timestamped."""

    index: int
    ts: int
    stmt: ast.Statement

    @property
    def target(self) -> str:
        return self.stmt.table


@dataclass
class ReenactmentResult:
    """Per updated table, the plan a backend ran and the resulting
    relation (for a whole-table request the plan is the affected-rows
    query; the relation is complete)."""

    xid: int
    plans: Dict[str, op.Operator]
    tables: Dict[str, Relation] = field(default_factory=dict)
    #: per table, the rows the transaction wrote as the plan returned
    #: them (annotated, tombstones kept) — held for a split compile
    #: only, the one whose plans compute exactly those.
    affected: Optional[Dict[str, Relation]] = field(
        default=None, repr=False, compare=False)
    #: the compile this result ran: its options, edits and ``state_ts``.
    compiled: Optional["CompiledReenactment"] = field(
        default=None, repr=False, compare=False)
    #: the AS-OF states a split result was completed from — where a
    #: stored row is read by rowid (:meth:`StoredStates.state`); ``None``
    #: unless the compile was split.
    states: Optional["StoredStates"] = field(
        default=None, repr=False, compare=False)

    @cached_property
    def written_rowids(self) -> Optional[Dict[str, Set[int]]]:
        """Per table, the stored rows the transaction wrote
        (:func:`physical_writes` of :attr:`affected`); ``None`` unless
        the compile was split."""
        return None if self.affected is None \
            else physical_writes(self.affected)

    def table(self, name: str) -> Relation:
        try:
            return self.tables[name]
        except KeyError:
            raise ReenactmentError(
                f"table {name!r} was not touched by transaction "
                f"{self.xid}") from None


@dataclass
class CompiledReenactment:
    """The compile half of a reenactment: optimized per-table plans plus
    everything an executor needs to run them — without touching storage.
    ``options`` is the request; for a request that asks for whole tables
    ``plans`` usually compute only the rows the transaction wrote
    (annotated, tombstones kept) and :meth:`Reenactor.execute` completes
    them (``split``).

    Compiling once and executing many times is the what-if fleet's hot
    path: plan construction and optimization are pure functions of the
    audit log, and the ``snapshots`` set names exactly the ``(table,
    ts)`` AS-OF states the plans scan, which is the key a backend
    session's snapshot cache memoizes on (and the seam incremental-delta
    materialization will plug into).
    """

    xid: int
    record: TransactionRecord
    options: ReenactmentOptions
    plans: Dict[str, op.Operator]
    #: distinct ``(table, as_of_ts)`` snapshot states the plans scan,
    #: including scans inside redirected subquery plans — sorted by
    #: ``(table, ts)`` so a delta-materializing session builds each
    #: snapshot as a small hop from its same-table predecessor.
    snapshots: List[Tuple[str, Optional[int]]]
    #: per plain ``(table, ts)`` of ``snapshots``, the rows its scans
    #: can pass (:func:`snapshot_analysis`): a backend session with
    #: nothing to reuse may build the state from those rows alone.
    #: Absent pairs are read whole.
    row_keys: Dict[Tuple[str, int], RowKeys] = field(
        default_factory=dict)
    #: optimizer rule applications of the run that optimized the plans
    #: (one run per :meth:`Reenactor.compile_all` batch).
    optimizer_stats: Dict[str, int] = field(default_factory=dict)
    #: what-if table edits (R -> R', §2): per edited table, the rows
    #: the plans read in its place — a constant leaf, not a scan.
    edits: Dict[str, Relation] = field(default_factory=dict)
    #: per table, the AS-OF time at which the rows the transaction
    #: never wrote are read (:meth:`Reenactor.state_timestamps`) — where
    #: :meth:`Reenactor.execute` completes a whole-table request from.
    state_ts: Dict[str, int] = field(default_factory=dict)
    #: whether ``plans`` compute only the rows the transaction wrote,
    #: for :meth:`Reenactor.execute_all` to complete from the snapshot
    #: at ``state_ts``; otherwise they compute what ``options`` ask for.
    split: bool = False

    @property
    def tables(self) -> List[str]:
        return list(self.plans)


def physical_writes(relations: Dict[str, Relation]) -> Dict[str, Set[int]]:
    """Per table, the positive ``__rowid__`` values of annotated
    reenactment relations: the stored rows written — the synthetic
    negative ids of inserted rows are conflict-free and left out.
    Tables with none are absent."""
    out: Dict[str, Set[int]] = {}
    for table, relation in relations.items():
        rowid_at = relation.column_index(ROWID)
        ids = {row[rowid_at] for row in relation.rows if row[rowid_at] > 0}
        if ids:
            out[table] = ids
    return out


def _edited_rows(relation: Relation) -> List[Tuple[int, tuple, int]]:
    """R' as a scan lists storage: row ids from 1, by no transaction."""
    return [(i + 1, tuple(row), 0) for i, row in enumerate(relation.rows)]


class StoredState(NamedTuple):
    """The rows of one AS-OF state (or R') as a split result holds the
    rows its transaction never wrote — annotated ``(values, rowid, xid,
    False, False)`` or bare values — in rowid order, with their rowids
    alongside."""

    rowids: List[int]
    rows: List[tuple]

    def position(self, rowid: int) -> Optional[int]:
        """Where stored row ``rowid`` is in :attr:`rows`; ``None`` when
        the state has no such row (an inserted row's synthetic id)."""
        at = bisect_left(self.rowids, rowid)
        if at < len(self.rowids) and self.rowids[at] == rowid:
            return at
        return None


class StoredStates:
    """The states one :meth:`Reenactor.execute_all` batch completes its
    split results from: each ``(table, ts)`` — or each edit's R' — read
    through the batch's context and formatted once per annotation
    setting, however many results of the batch complete from it (a
    what-if fleet's original and variants usually share one).  Results
    keep it, so a state stays readable by rowid after the batch; once
    the batch is over, a state it never read is read from storage."""

    def __init__(self, ctx):
        self._ctx = ctx
        self._states: Dict[tuple, StoredState] = {}

    def __enter__(self) -> "StoredStates":
        return self

    def __exit__(self, *exc) -> None:
        # results outlive the batch: keep no reference to its scan cache
        self._ctx = self._ctx.db.context(
            snapshot_provider=self._ctx.snapshot_provider)

    def state(self, table: str, ts: int, annotated: bool,
              edited: Optional[Relation] = None) -> StoredState:
        """``table`` at ``ts`` as :class:`StoredState`, or R' when
        ``edited``."""
        key = (table, annotated, ts if edited is None else edited)
        found = self._states.get(key)
        if found is None:
            stored = self._ctx.scan_table(table, ts) if edited is None \
                else _edited_rows(edited)
            rows = [values + (rowid, xid, False, False)
                    for rowid, values, xid in stored] if annotated \
                else [values for _rowid, values, _xid in stored]
            found = self._states[key] = StoredState(
                [rowid for rowid, _values, _xid in stored], rows)
        return found


def _check(options: ReenactmentOptions) -> None:
    if options.include_deleted and not options.annotations:
        raise ReenactmentError(
            "include_deleted requires annotations=True so the "
            "__del__ flag remains visible")


def _split(options: ReenactmentOptions) -> bool:
    """Whether a request is executed as *affected rows from the engine
    plus untouched rows from the snapshot* (see
    :meth:`Reenactor.execute`).  Not when the request is the affected
    rows already, nor under the provenance join, whose output columns
    the completion pass does not know."""
    return not (options.only_affected or options.with_provenance)


def _prefix_length(statements: List[ParsedStatement],
                   upto: Optional[int]) -> int:
    """How many statements a request with prefix ``upto`` reenacts."""
    if upto is None:
        return len(statements)
    if upto < 0 or upto > len(statements):
        raise ReenactmentError(
            f"prefix length {upto} out of range (transaction "
            f"has {len(statements)} statements)")
    return upto


Pair = Tuple[str, Optional[int]]


def snapshot_analysis(plan_sets: List[Dict[str, op.Operator]]
                      ) -> Tuple[List[List[Pair]],
                                 Dict[Tuple[str, int], RowKeys]]:
    """One walk over the DAG of a batch's plan sets: per set, the
    distinct ``(table, as_of_ts)`` states its plans scan, including
    scans inside expression subquery plans (the printer renders those
    too, so they hit the snapshot cache), sorted by ``(table, ts)`` —
    adjacent entries are the smallest version-history hops, the order
    a delta-materializing backend builds them in; and per plain
    ``(table, ts)``, the :data:`RowKeys` every row its scans feed must
    match.

    A pair has keys when each reader of each scan of it is a
    :class:`~repro.algebra.operators.Selection` — the pushed-down
    statement conditions of a split plan — whose predicate reduces to
    key atoms (:func:`_predicate_keys`) and holds no subquery: then a
    row matching none of them is read by nothing.  A scan read any
    other way, a plan root and a scan inside a subquery plan leave
    their pair without keys.  Each node is visited once, so a chain
    the sets share costs one walk, not one per set."""
    under: Dict[int, FrozenSet[Pair]] = {}
    #: pair -> merged ``{column: values}``, or None once refused
    keys: Dict[Pair, Optional[Dict[str, Set]]] = {}
    roots = [plan for plans in plan_sets for plan in plans.values()]
    for root in roots:
        if isinstance(root, op.TableScan):
            keys[_scan_pair(root)] = None
    stack: List[Tuple[op.Operator, Optional[list]]] = \
        [(root, None) for root in roots]
    while stack:
        node, subplans = stack.pop()
        if id(node) in under:
            continue
        if subplans is None:  # first visit: inputs before the node
            subplans = [sub.plan for expr in node.expressions()
                        for sub in walk(expr)
                        if isinstance(sub, SubqueryExpr)
                        and sub.plan is not None]
            stack.append((node, subplans))
            stack.extend((child, None)
                         for child in node.children() + subplans
                         if id(child) not in under)
            continue
        inputs = node.children() + subplans
        if isinstance(node, op.TableScan):
            under[id(node)] = frozenset([_scan_pair(node)])
        elif len(inputs) == 1:
            under[id(node)] = under[id(inputs[0])]
        else:
            under[id(node)] = frozenset().union(
                *(under[id(child)] for child in inputs))
        for sub in subplans:
            keys.update(dict.fromkeys(under[id(sub)]))
        for child in node.children():
            if isinstance(child, op.TableScan):
                _read_keys(keys, node, child)
    sets = [sorted(frozenset().union(*(under[id(plan)]
                                       for plan in plans.values())),
                   key=lambda key: (key[0], key[1] is not None,
                                    key[1] or 0))
            for plans in plan_sets]
    return sets, {pair: tuple(sorted((column, frozenset(values))
                                     for column, values in found.items()))
                  for pair, found in keys.items()
                  if found is not None and pair[1] is not None}


def _scan_pair(scan: op.TableScan) -> Pair:
    ts = scan.as_of.value if isinstance(scan.as_of, Literal) else None
    return scan.table, ts


def _read_keys(keys: Dict[Pair, Optional[Dict[str, Set]]],
               reader: op.Operator, scan: op.TableScan) -> None:
    """Fold one reader of ``scan`` into its pair's keys."""
    pair = _scan_pair(scan)
    if pair in keys and keys[pair] is None:
        return
    found = None
    if isinstance(reader, op.Selection) \
            and not contains_subquery(reader.condition):
        columns = {f"{scan.binding}.{column}": column
                   for column in scan.columns}
        found = _predicate_keys(reader.condition, columns)
    keys[pair] = None if found is None \
        else _union_keys(keys.get(pair, {}), found)


def _union_keys(left: Dict[str, Set], right: Dict[str, Set]
                ) -> Dict[str, Set]:
    out = {column: set(values) for column, values in left.items()}
    for column, values in right.items():
        out.setdefault(column, set()).update(values)
    return out


def _keyable(expr: Expr) -> bool:
    """An ``int`` or ``str`` literal: one whose SQL equality with any
    stored value is Python's (``bool`` is excluded)."""
    return isinstance(expr, Literal) \
        and type(expr.value) in (int, str)


def _predicate_keys(expr: Expr, columns: Dict[str, str]
                    ) -> Optional[Dict[str, Set]]:
    """Key atoms ``{column: values}`` some one of which every row
    ``expr`` is true on matches, or ``None`` when ``expr`` does not
    reduce: ``col = lit`` and ``col IN (lits)`` are atoms; ``AND``
    takes the smaller side that reduces, ``OR`` needs both;
    ``CASE WHEN c THEN r … ELSE d END`` is ``(c AND r) OR … OR d``;
    a ``false``/``NULL`` literal passes no row, so such a branch
    contributes nothing."""
    if isinstance(expr, BinaryOp) and expr.op == "=":
        for column, literal in ((expr.left, expr.right),
                                (expr.right, expr.left)):
            if isinstance(column, Column) and _keyable(literal):
                name = columns.get(column.key or column.display)
                return None if name is None else {name: {literal.value}}
        return None
    if isinstance(expr, InList) and not expr.negated:
        name = columns.get(expr.operand.key or expr.operand.display) \
            if isinstance(expr.operand, Column) else None
        if name is None or not all(map(_keyable, expr.items)):
            return None
        return {name: {item.value for item in expr.items}}
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        sides = [found for found in (_predicate_keys(expr.left, columns),
                                     _predicate_keys(expr.right, columns))
                 if found is not None]
        return min(sides, key=lambda found: sum(map(len, found.values())),
                   default=None)
    if isinstance(expr, BinaryOp) and expr.op == "OR":
        left = _predicate_keys(expr.left, columns)
        right = _predicate_keys(expr.right, columns)
        return None if left is None or right is None \
            else _union_keys(left, right)
    if isinstance(expr, Case):
        out: Dict[str, Set] = {}
        branches = [BinaryOp("AND", condition, result)
                    for condition, result in expr.whens]
        if expr.default is not None:
            branches.append(expr.default)
        for branch in branches:
            found = _predicate_keys(branch, columns)
            if found is None:
                return None
            out = _union_keys(out, found)
        return out
    if isinstance(expr, Literal) and (expr.value is None
                                      or expr.value is False):
        return {}  # no row passes
    return None


def _reach_shared(chains: List[Dict[str, op.Operator]]) -> List[bool]:
    """Per request (its chains, by table), whether they reach a node the
    chains of another request reach too."""
    first: Dict[int, int] = {}
    shared = [False] * len(chains)
    for index, tables in enumerate(chains):
        for node in op.walk_plan(*tables.values()):
            other = first.setdefault(id(node), index)
            if other != index:
                shared[index] = shared[other] = True
    return shared


class _Chains(dict):
    """``table → chain`` of one :meth:`Reenactor.build_chains` pass at
    one prefix.  Every copy shares the pass's base plans: :meth:`base`
    builds one node per ``(table, ts)``, so each prefix, each READ
    COMMITTED re-base and each redirected read of one snapshot state
    scans it through the same node; an edited table, at every ``ts``,
    its one leaf in :attr:`leaves` (§2: "replace all accesses to R")."""

    def __init__(self, base_plan, leaves, bases=None):
        super().__init__()
        self._base_plan = base_plan
        self.leaves = leaves
        self._bases: Dict[Tuple[str, int], op.Operator] = \
            {} if bases is None else bases

    def base(self, table: str, ts: int) -> op.Operator:
        node = self._bases.get((table, ts))
        if node is None:
            node = self._bases[table, ts] = self.leaves.get(table) \
                or self._base_plan(table, ts)
        return node

    def copy(self) -> "_Chains":
        out = _Chains(self._base_plan, self.leaves, self._bases)
        out.update(self)
        return out


class Reenactor:
    """Builds and evaluates reenactment queries for past transactions."""

    def __init__(self, db: Database, audit_log=None,
                 snapshot_provider=None, backend: BackendSpec = None):
        """``audit_log`` and ``snapshot_provider`` default to the
        engine's native audit log and time travel; pass the adapters of
        :class:`repro.core.trigger_history.TriggerHistory` to reenact on
        a database without native support (§3 footnote 3).  ``backend``
        selects how finished plans are executed when the caller holds
        no session of their own (see :mod:`repro.backends`)."""
        self.db = db
        self.audit_log = audit_log if audit_log is not None \
            else db.audit_log
        self.snapshot_provider = snapshot_provider
        self.backend = backend
        self._translator = Translator(db.catalog)

    # -- audit-log access ---------------------------------------------------

    def transaction_record(self, xid: int) -> TransactionRecord:
        return self.audit_log.transaction_record(xid)

    def parsed_statements(self, record: TransactionRecord
                          ) -> List[ParsedStatement]:
        out = []
        for stmt in record.statements:
            parsed = parse_statement(stmt.sql)
            if not isinstance(parsed, (ast.Insert, ast.Update, ast.Delete)):
                raise ReenactmentError(
                    f"statement {stmt.index} of transaction "
                    f"{record.xid} is not reenactable DML: {stmt.sql!r}")
            out.append(ParsedStatement(index=stmt.index, ts=stmt.ts,
                                       stmt=parsed))
        return out

    # -- public API -------------------------------------------------------------

    def reenact(self, xid: int,
                options: Optional[ReenactmentOptions] = None,
                session=None) -> ReenactmentResult:
        """Reenact transaction ``xid`` and evaluate the resulting plans
        over time-traveled snapshots.  ``session`` (a
        :class:`~repro.backends.base.BackendSession`) shares backend
        resources — connection, materialized snapshots — with other
        reenactments in the same batch."""
        options = options or ReenactmentOptions()
        record = self.transaction_record(xid)
        return self.reenact_record(record, options, session=session)

    def reenact_record(self, record: TransactionRecord,
                       options: Optional[ReenactmentOptions] = None,
                       statements: Optional[List[ParsedStatement]] = None,
                       edits: Optional[Dict[str, Relation]] = None,
                       session=None) -> ReenactmentResult:
        """Reenact from an explicit record/statement list — the hook the
        what-if engine uses to replay *modified* transactions (§2)."""
        compiled = self.compile(record, options, statements=statements,
                                edits=edits)
        return self.execute(compiled, session=session)

    def compile(self, record: TransactionRecord,
                options: Optional[ReenactmentOptions] = None,
                statements: Optional[List[ParsedStatement]] = None,
                edits: Optional[Dict[str, Relation]] = None
                ) -> CompiledReenactment:
        """The compile phase: build and optimize the reenactment plans
        for ``record`` without executing anything — the one-element case
        of :meth:`compile_all`.

        The result is inert — it can be executed any number of times,
        on any backend or session, via :meth:`execute`."""
        (compiled,) = self.compile_all(record, [options],
                                       statements=statements, edits=edits)
        return compiled

    def compile_all(self, record: TransactionRecord,
                    requests: List[Optional[ReenactmentOptions]],
                    statements: Optional[List[ParsedStatement]] = None,
                    edits: Optional[Dict[str, Relation]] = None
                    ) -> List[CompiledReenactment]:
        """Compile several requests over one transaction — prefixes,
        tables, option sets — as one DAG: one :meth:`build_chains` pass
        (prefix *k* reads the chain node statement *k* left, a *tap*),
        one root per requested table, one optimizer run over all roots.
        A node several roots share is rewritten once and stays one node,
        so a batch run by :meth:`execute_all` evaluates it once on the
        in-memory backend, and a CTE dialect prints it once.

        A request for whole tables compiles to the rows the transaction
        wrote and :meth:`execute_all` adds the rest from the snapshot
        (``split``) — unless its chains share a node with another
        request's: its affected-rows filter cannot move below the shared
        node, so splitting would only add a second snapshot scan, and it
        compiles whole, as the paper's Example-3 query.  For ``edits``
        (table → R') see :meth:`build_chains`."""
        requests = [options or ReenactmentOptions() for options in requests]
        for options in requests:
            _check(options)
        if not requests:
            return []
        with span("reenactor.compile", xid=record.xid) as sp:
            if statements is None:
                statements = self.parsed_statements(record)
            lengths = [_prefix_length(statements, options.upto)
                       for options in requests]
            taps = self.build_chains(record, statements, upto=max(lengths),
                                     edits=edits)
            chains = [self._request_chains(record, taps[k], options)
                      for k, options in zip(lengths, requests)]
            shared = _reach_shared(chains) if len(requests) > 1 \
                else [False]
            splits = [_split(options) and not whole
                      for options, whole in zip(requests, shared)]
            batch = []
            for options, split, tables in zip(requests, splits, chains):
                # a split request compiles to the rows the transaction
                # wrote, annotated and tombstones kept
                planned = replace(options, only_affected=True,
                                  annotations=True, include_deleted=True) \
                    if split else options
                batch.append((options, {
                    table: self._finalize(table, chain, record, planned,
                                          taps[0].leaves)
                    for table, chain in tables.items()}))
            optimizer_stats = self._optimize(batch)
            snapshot_sets, row_keys = snapshot_analysis(
                [plans for _options, plans in batch])
            out = []
            for (options, plans), split, snapshots in zip(
                    batch, splits, snapshot_sets):
                stamps = self.state_timestamps(record, statements,
                                               upto=options.upto)
                out.append(CompiledReenactment(
                    xid=record.xid, record=record, options=options,
                    plans=plans, snapshots=snapshots,
                    row_keys={pair: row_keys[pair] for pair in snapshots
                              if pair in row_keys},
                    optimizer_stats=dict(optimizer_stats),
                    edits=edits or {},
                    state_ts={table: stamps.get(table, record.begin_ts)
                              for table in plans},
                    split=split))
            sp.set("tables", sum(len(c.plans) for c in out))
            sp.set("snapshots", len({pair for c in out
                                     for pair in c.snapshots}))
        return out

    def execute(self, compiled: CompiledReenactment,
                session=None) -> ReenactmentResult:
        """The execute phase: run a compiled reenactment's plans — the
        one-element case of :meth:`execute_all`."""
        (result,) = self.execute_all([compiled], session=session)
        return result

    def execute_all(self, compiles, session=None):
        """Run a series of compiled reenactments on one session, lazily:
        yields each :class:`ReenactmentResult` in order.

        With ``session`` the plans run on the caller's open
        :class:`~repro.backends.base.BackendSession` (snapshots shared
        with everything else the session ran, left open); without one,
        a throwaway session on this reenactor's backend is used, so even
        a one-shot multi-table reenactment materializes each snapshot
        once.

        The whole series of compiled ``(table, ts)`` snapshot sets is
        handed to the session's
        :meth:`~repro.backends.base.BackendSession.snapshot_pipeline`
        up front, each pair with its ``row_keys``, and set *i* is primed
        immediately before compile *i* runs: a planning backend
        materializes pairs the compiles share once, builds each
        snapshot as a small hop from its same-table predecessor, and
        may build a state it has nothing to derive from out of the rows
        the batch's keys match.  Pipeline and throwaway session are released
        when the generator is exhausted or closed.  All compiles of a
        batch evaluate under one context — an edit is in its plans —
        and on the in-memory backend on one evaluator, which computes a
        node the plans of a :meth:`compile_all` batch share once.

        A split compile computes the rows the transaction wrote; the
        rows it never wrote are added here, straight from the AS-OF
        snapshot or the compile's edit (:meth:`_complete`) — on every
        backend alike, the engine only sees the affected rows.  Each
        such state is formatted once per batch (:class:`StoredStates`),
        so a result completing from a state another result of the batch
        already read costs a list copy plus its write set.  The
        result keeps the rows it wrote (``affected``), so its write set
        (:attr:`ReenactmentResult.written_rowids`) needs no second
        reenactment, and the states (``states``), so a what-if diff
        reads a stored row by rowid instead of scanning the table."""
        compiles = list(compiles)
        if not compiles:
            return
        ctx = self.db.context(params={},
                              snapshot_provider=self.snapshot_provider)
        with (nullcontext(session) if session is not None
              else resolve_backend(self.backend).open_session()) as active, \
                active.snapshot_pipeline(
                    [{pair: c.row_keys.get(pair) for pair in c.snapshots}
                     for c in compiles], ctx) as pipe, \
                StoredStates(ctx) as states:
            for index, compiled in enumerate(compiles):
                split = compiled.split
                result = ReenactmentResult(
                    xid=compiled.xid, plans=compiled.plans,
                    affected={} if split else None, compiled=compiled,
                    states=states if split else None)
                with span("reenactor.execute", xid=compiled.xid,
                          tables=len(compiled.plans)) as sp:
                    pipe.prime(index)
                    affected = passthrough = 0
                    for table, plan in compiled.plans.items():
                        relation = active.execute_plan(plan, ctx)
                        affected += len(relation.rows)
                        if split:
                            result.affected[table] = relation
                            relation, untouched = self._complete(
                                table, relation, states.state(
                                    table, compiled.state_ts[table],
                                    compiled.options.annotations,
                                    compiled.edits.get(table)),
                                compiled.options)
                            passthrough += untouched
                        result.tables[table] = relation
                    if sp is not NOOP_SPAN:
                        sp.set("affected_rows", affected)
                        sp.set("passthrough_rows", passthrough)
                yield result

    def _complete(self, table: str, affected: Relation,
                  state: StoredState, options: ReenactmentOptions
                  ) -> Tuple[Relation, int]:
        """The whole table state a request asked for, from the rows the
        transaction wrote (``affected``: annotated, tombstones kept) and
        the stored ``state`` it never wrote (the snapshot of ``table``
        at the compile's ``state_ts``, or R'), formatted as the request
        asks; also the number of rows taken from ``state``.

        Rests on one invariant of the statement translation: a row whose
        ``__upd__`` is still false at the end of the chain left every
        CASE through its ELSE branch — it *is* its input row, with
        ``__del__`` false.  So a stored row the affected relation does
        not carry is emitted as storage holds it; an affected row takes
        its stored row's place (found by bisecting the rowid-ordered
        state), rows the transaction inserted follow in the engine's
        order.  Tombstones are dropped and annotation columns stripped
        last, as the request says.  The state's rows are copied, never
        changed: other results of the batch complete from them too."""
        width = None if options.annotations \
            else len(self.db.catalog.get(table).columns)
        rowid_at = affected.column_index(ROWID)
        del_at = affected.column_index(DEL)
        keep_deleted = options.include_deleted
        rows: List[Optional[tuple]] = list(state.rows)
        inserted: List[tuple] = []
        replaced = dropped = 0
        for row in affected.rows:
            kept = keep_deleted or not row[del_at]
            at = state.position(row[rowid_at])
            if at is None:
                if kept:
                    inserted.append(row[:width])
                continue
            replaced += 1
            if kept:
                rows[at] = row[:width]
            else:
                rows[at] = None
                dropped += 1
        if dropped:
            rows = [row for row in rows if row is not None]
        rows.extend(inserted)
        return Relation(affected.attrs[:width], rows), \
            len(state.rows) - replaced

    def state_timestamps(self, record: TransactionRecord,
                         statements: List[ParsedStatement],
                         upto: Optional[int] = None) -> Dict[str, int]:
        """Per table written by the first ``upto`` statements, the
        AS-OF time its chain reads rows the transaction never wrote at:
        the begin time under snapshot isolation, the table's last
        statement under READ COMMITTED (where :meth:`_rc_input` re-bases
        the chain before every statement)."""
        rebased = record.isolation is IsolationLevel.READ_COMMITTED
        return {parsed.target: parsed.ts if rebased else record.begin_ts
                for parsed in statements[:upto]}

    def reenactment_sql(self, xid: int, table: Optional[str] = None,
                        options: Optional[ReenactmentOptions] = None,
                        dialect=None) -> str:
        """The reenactment query as SQL text (Example 3), in the native
        dialect by default (``dialect`` selects another — see
        :class:`repro.algebra.sqlgen.Dialect`).  This is the paper's
        query over whole tables, not the affected-rows query
        :meth:`execute` sends to a backend."""
        from repro.algebra.sqlgen import generate_sql
        options = options or ReenactmentOptions()
        if table is not None:
            options = replace(options, table=table)
        plans = self.build_plans(self.transaction_record(xid), options)
        if table is None:
            if len(plans) != 1:
                raise ReenactmentError(
                    f"transaction {xid} updates {sorted(plans)}; pass "
                    f"table= to choose one")
            table = next(iter(plans))
        if table not in plans:
            raise ReenactmentError(
                f"transaction {xid} does not update table {table!r}")
        return generate_sql(plans[table], dialect=dialect)

    # -- plan construction --------------------------------------------------------

    def build_plans(self, record: TransactionRecord,
                    options: ReenactmentOptions,
                    statements: Optional[List[ParsedStatement]] = None
                    ) -> Dict[str, op.Operator]:
        """The plans of one request exactly as it asks — never split."""
        _check(options)
        if statements is None:
            statements = self.parsed_statements(record)
        taps = self.build_chains(record, statements, upto=options.upto)
        plans = {table: self._finalize(table, chain, record, options,
                                       taps[-1].leaves)
                 for table, chain in self._request_chains(
                     record, taps[-1], options).items()}
        self._optimize([(options, plans)])
        return plans

    def build_chains(self, record: TransactionRecord,
                     statements: List[ParsedStatement],
                     upto: Optional[int] = None,
                     edits: Optional[Dict[str, Relation]] = None
                     ) -> List[Dict[str, op.Operator]]:
        """The raw reenactment chains (annotated, tombstones included)
        of every prefix of the first ``upto`` statements, from one pass:
        ``taps[k]`` maps each table the first ``k`` statements wrote to
        the chain node the last of them left — a *tap* on the one chain,
        which every longer prefix reads through.  The pass builds one
        base-plan node per ``(table, ts)``; every tap answers
        ``base(table, ts)`` with it — of a table in ``edits``, at every
        ``ts``, with one ``ConstRel`` leaf holding its R'."""
        statements = statements[:_prefix_length(statements, upto)]
        chains = _Chains(self._base_plan, {
            table: self._edit_leaf(table, relation)
            for table, relation in (edits or {}).items()})
        taps = [chains.copy()]
        for parsed in statements:
            target = parsed.target
            if not self.db.catalog.has(target):
                raise ReenactmentError(
                    f"table {target!r} no longer exists; cannot reenact")
            if record.isolation is IsolationLevel.READ_COMMITTED:
                chains[target] = self._rc_input(chains, target, parsed.ts)
            elif target not in chains:
                chains[target] = chains.base(target, record.begin_ts)
            chains[target] = self._apply_statement(
                chains, chains[target], parsed, record)
            taps.append(chains.copy())
        return taps

    @staticmethod
    def _request_chains(record: TransactionRecord, tap: "_Chains",
                        options: ReenactmentOptions
                        ) -> Dict[str, op.Operator]:
        """The chains a request reads at its prefix's tap: every table
        written so far, or the one it names — a table not written yet
        reads its begin-time snapshot."""
        if options.table is None:
            return dict(tap)
        return {options.table: tap.get(options.table)
                or tap.base(options.table, record.begin_ts)}

    @staticmethod
    def _optimize(batch: List[Tuple[ReenactmentOptions,
                                    Dict[str, op.Operator]]]
                  ) -> Dict[str, int]:
        """Optimize, in place, every plan of ``batch`` whose request asks
        for it — all in one optimizer run; returns its rule
        applications."""
        from repro.core.optimizer import ProvenanceOptimizer
        keys = [(plans, table) for options, plans in batch
                if options.optimize for table in plans]
        if not keys:
            return {}
        optimizer = ProvenanceOptimizer()
        optimized = optimizer.optimize([plans[table]
                                        for plans, table in keys])
        for (plans, table), plan in zip(keys, optimized):
            plans[table] = plan
        return optimizer.rule_applications

    def insert_sources(self, record: TransactionRecord,
                       statements: List[ParsedStatement], k: int
                       ) -> List[Tuple[int, List[Tuple[str, int]]]]:
        """For an ``INSERT ... SELECT`` at statement index ``k``, map
        each inserted row to the base rows its values came from.

        Returns ``[(synthetic_rowid, [(table, source_rowid), ...]), ...]``
        in insertion order.  The debug panel's provenance graph draws
        its derivation edges from insert sources with it (Fig. 4).
        """
        from repro.core.provenance.rewriter import ProvenanceRewriter
        parsed = statements[k]
        if not isinstance(parsed.stmt, ast.Insert) \
                or isinstance(parsed.stmt.source, ast.ValuesClause):
            raise ReenactmentError(
                f"statement {k} is not an INSERT ... SELECT")
        chains = self.build_chains(record, statements, upto=k)[-1]
        ctx = self.db.context(params={},
                      snapshot_provider=self.snapshot_provider)

        # the plain query fixes the insertion order (AnnotateRowId order)
        plain = self._translator.translate_query(parsed.stmt.source)
        plain_redirected = self._redirect_plan(plain, chains, parsed,
                                               record)
        plain_rows = Evaluator(ctx).evaluate(plain_redirected).rows

        rewrite = ProvenanceRewriter().rewrite(plain)
        redirected = self._redirect_plan(rewrite.plan, chains, parsed,
                                         record)
        relation = Evaluator(ctx).evaluate(redirected)
        rowid_attrs = [a for a in rewrite.prov_attrs
                       if a.column == "rowid"]
        rowid_positions = [(a.table, relation.attrs.index(a.name))
                           for a in rowid_attrs]
        n_data = len(plain.attrs)

        # provenance output has one row per *contributing* input row;
        # match each back to the inserted tuple it explains by value
        unused: Dict[tuple, List[int]] = {}
        for index, row in enumerate(plain_rows):
            unused.setdefault(tuple(row), []).append(index)
        assigned: Dict[tuple, int] = {}
        sources_by_index: Dict[int, List[Tuple[str, int]]] = {
            i: [] for i in range(len(plain_rows))}
        for row in relation.rows:
            data = tuple(row[:n_data])
            candidates = unused.get(data)
            if candidates:
                # fresh inserted tuple with these values
                index = candidates.pop(0)
                assigned[data] = index
            elif data in assigned:
                # additional contributing row for an aggregate group
                index = assigned[data]
            else:
                continue  # defensive; should not happen
            for table, position in rowid_positions:
                value = row[position]
                if value is not None:
                    pair = (table, value)
                    if pair not in sources_by_index[index]:
                        sources_by_index[index].append(pair)
        out: List[Tuple[int, List[Tuple[str, int]]]] = []
        for index in range(len(plain_rows)):
            synthetic = -(parsed.index * 1_000_000 + index + 1)
            out.append((synthetic, sources_by_index[index]))
        return out

    # .. base snapshots .............................................................

    def _base_plan(self, table: str, ts: int) -> op.Operator:
        """Annotated committed snapshot of ``table`` at time ``ts``."""
        schema = self.db.catalog.get(table)
        scan = op.TableScan(
            table=table, columns=list(schema.column_names), binding=table,
            as_of=Literal(ts),
            annotations=(op.ANNOT_ROWID, op.ANNOT_XID))
        exprs: List[Expr] = [
            Column(name=c, key=f"{table}.{c}")
            for c in schema.column_names
        ]
        names = [f"{table}.{c}" for c in schema.column_names]
        exprs.append(Column(name=ROWID, key=f"{table}.{ROWID}"))
        names.append(f"{table}.{ROWID}")
        exprs.append(Column(name=XID, key=f"{table}.{XID}"))
        names.append(f"{table}.{XID}")
        exprs.append(Literal(False))
        names.append(f"{table}.{UPD}")
        exprs.append(Literal(False))
        names.append(f"{table}.{DEL}")
        return op.Projection(scan, exprs, names)

    def _edit_leaf(self, table: str, relation: Relation) -> op.ConstRel:
        """R' as a plan leaf under a base plan's attributes, each row
        annotated as :func:`_edited_rows` lists it, never written."""
        false = Literal(False)
        return op.ConstRel(
            [[Literal(value) for value in values]
             + [Literal(rowid), Literal(xid), false, false]
             for rowid, values, xid in _edited_rows(relation)],
            self._base_plan(table, None).attrs)

    def _rc_input(self, chains: _Chains, table: str,
                  stmt_ts: int) -> op.Operator:
        """READ COMMITTED statement input: own-written rows merged with
        the committed statement-time snapshot of untouched rows.  ``own``
        is one node under two parents (the union and the anti-join's id
        list) — the chain is a DAG."""
        chain = chains.get(table)
        if chain is None:
            return chains.base(table, stmt_ts)
        upd_attr = f"{table}.{UPD}"
        rowid_attr = f"{table}.{ROWID}"

        own = op.Selection(chain, Column(name=UPD, key=upd_attr))
        written_ids = op.Projection(
            own, [Column(name=ROWID, key=rowid_attr)], ["__w__"])
        snapshot = chains.base(table, stmt_ts)
        untouched = op.Join(
            snapshot, written_ids, kind="anti",
            condition=BinaryOp("=",
                               Column(name=ROWID, key=rowid_attr),
                               Column(name="__w__", key="__w__")))
        return op.SetOp("union", own, untouched, all=True)

    # .. statement application ..........................................................

    def _apply_statement(self, chains: Dict[str, op.Operator],
                         chain: op.Operator, parsed: ParsedStatement,
                         record: TransactionRecord) -> op.Operator:
        stmt = parsed.stmt
        if isinstance(stmt, ast.Update):
            return self._apply_update(chains, chain, stmt, parsed, record)
        if isinstance(stmt, ast.Delete):
            return self._apply_delete(chains, chain, stmt, parsed, record)
        if isinstance(stmt, ast.Insert):
            return self._apply_insert(chains, chain, stmt, parsed, record)
        raise ReenactmentError(f"unsupported statement {stmt!r}")

    def _live_condition(self, table: str, where: Optional[Expr],
                        chain_attrs: List[str],
                        chains, parsed, record) -> Expr:
        """θ AND NOT __del__, resolved against the chain schema, with
        subquery table accesses redirected to reenactment views."""
        not_deleted: Expr = UnaryOp(
            "NOT", Column(name=DEL, key=f"{table}.{DEL}"))
        if where is None:
            return not_deleted
        scope = Scope(chain_attrs)
        condition = self._translator.resolve_expression(where, scope)
        condition = self._redirect_subqueries(condition, chains, parsed,
                                              record)
        return BinaryOp("AND", condition, not_deleted)

    def _apply_update(self, chains, chain: op.Operator, stmt: ast.Update,
                      parsed: ParsedStatement, record) -> op.Operator:
        table = stmt.table
        schema = self.db.catalog.get(table)
        attrs = chain.attrs
        condition = self._live_condition(table, stmt.where, attrs, chains,
                                         parsed, record)
        scope = Scope(attrs)
        assigned: Dict[str, Expr] = {}
        for assignment in stmt.assignments:
            value = self._translator.resolve_expression(assignment.value,
                                                        scope)
            value = self._redirect_subqueries(value, chains, parsed,
                                              record)
            assigned[assignment.column] = value

        exprs: List[Expr] = []
        names: List[str] = []
        for column in schema.column_names:
            key = f"{table}.{column}"
            old = Column(name=column, key=key)
            if column in assigned:
                exprs.append(Case(((condition, assigned[column]),), old))
            else:
                exprs.append(old)
            names.append(key)
        # annotations: rowid passes through; xid/upd flip when matched
        exprs.append(Column(name=ROWID, key=f"{table}.{ROWID}"))
        names.append(f"{table}.{ROWID}")
        exprs.append(Case(((condition, Literal(record.xid)),),
                          Column(name=XID, key=f"{table}.{XID}")))
        names.append(f"{table}.{XID}")
        exprs.append(Case(((condition, Literal(True)),),
                          Column(name=UPD, key=f"{table}.{UPD}")))
        names.append(f"{table}.{UPD}")
        exprs.append(Column(name=DEL, key=f"{table}.{DEL}"))
        names.append(f"{table}.{DEL}")
        return op.Projection(chain, exprs, names)

    def _apply_delete(self, chains, chain: op.Operator, stmt: ast.Delete,
                      parsed: ParsedStatement, record) -> op.Operator:
        table = stmt.table
        schema = self.db.catalog.get(table)
        condition = self._live_condition(table, stmt.where, chain.attrs,
                                         chains, parsed, record)
        exprs: List[Expr] = []
        names: List[str] = []
        for column in schema.column_names:
            key = f"{table}.{column}"
            exprs.append(Column(name=column, key=key))
            names.append(key)
        exprs.append(Column(name=ROWID, key=f"{table}.{ROWID}"))
        names.append(f"{table}.{ROWID}")
        exprs.append(Case(((condition, Literal(record.xid)),),
                          Column(name=XID, key=f"{table}.{XID}")))
        names.append(f"{table}.{XID}")
        exprs.append(Case(((condition, Literal(True)),),
                          Column(name=UPD, key=f"{table}.{UPD}")))
        names.append(f"{table}.{UPD}")
        exprs.append(Case(((condition, Literal(True)),),
                          Column(name=DEL, key=f"{table}.{DEL}")))
        names.append(f"{table}.{DEL}")
        return op.Projection(chain, exprs, names)

    def _apply_insert(self, chains, chain: op.Operator, stmt: ast.Insert,
                      parsed: ParsedStatement, record) -> op.Operator:
        table = stmt.table
        schema = self.db.catalog.get(table)
        ncols = len(schema.columns)
        names = chain.attrs

        if isinstance(stmt.source, ast.ValuesClause):
            rows: List[List[Expr]] = []
            for i, row in enumerate(stmt.source.rows):
                values = self._arrange_insert_row(stmt, row, schema)
                synthetic = -(parsed.index * 1_000_000 + i + 1)
                values.extend([Literal(synthetic), Literal(record.xid),
                               Literal(True), Literal(False)])
                rows.append(values)
            inserted: op.Operator = op.ConstRel(rows, list(names))
        else:
            query_plan = self._translator.translate_query(stmt.source)
            query_plan = self._redirect_plan(query_plan, chains, parsed,
                                             record)
            if len(query_plan.attrs) != (ncols if stmt.columns is None
                                         else len(stmt.columns)):
                raise ReenactmentError(
                    f"INSERT query arity mismatch for {table!r}")
            annotated = op.AnnotateRowId(query_plan, name="__new__",
                                         seed=parsed.index)
            exprs: List[Expr] = []
            if stmt.columns is None:
                for attr in query_plan.attrs:
                    exprs.append(Column(name=attr, key=attr))
            else:
                by_target: Dict[str, str] = dict(
                    zip(stmt.columns, query_plan.attrs))
                for column in schema.column_names:
                    source = by_target.get(column)
                    exprs.append(Column(name=source, key=source)
                                 if source is not None else Literal(None))
            exprs.append(Column(name="__new__", key="__new__"))
            exprs.append(Literal(record.xid))
            exprs.append(Literal(True))
            exprs.append(Literal(False))
            inserted = op.Projection(annotated, exprs, list(names))
        return op.SetOp("union", chain, inserted, all=True)

    def _arrange_insert_row(self, stmt: ast.Insert, row: List[Expr],
                            schema) -> List[Expr]:
        resolved = [self._translator.resolve_expression(v, Scope([]))
                    for v in row]
        if stmt.columns is None:
            if len(resolved) != len(schema.columns):
                raise ReenactmentError(
                    f"INSERT into {stmt.table!r} expects "
                    f"{len(schema.columns)} values, got {len(resolved)}")
            return list(resolved)
        by_target = dict(zip(stmt.columns, resolved))
        return [by_target.get(c, Literal(None))
                for c in schema.column_names]

    # .. redirecting reads to reenactment views ...........................................

    def _read_view(self, chains, table: str, parsed: ParsedStatement,
                   record) -> op.Operator:
        """What the reenacted statement sees when *reading* ``table``:
        live (non-deleted) rows of the current chain / snapshot."""
        if record.isolation is IsolationLevel.READ_COMMITTED:
            view = self._rc_input(chains, table, parsed.ts)
        else:
            view = chains.get(table) \
                or chains.base(table, record.begin_ts)
        return op.Selection(
            view, UnaryOp("NOT", Column(name=DEL, key=f"{table}.{DEL}")))

    def _redirect_plan(self, plan: op.Operator, chains,
                       parsed: ParsedStatement, record) -> op.Operator:
        """Replace every base-table scan in a query plan by the
        reenactment read view of that table, preserving the scan's
        binding and attribute keys."""

        def visit(node: op.Operator) -> op.Operator:
            if not isinstance(node, op.TableScan):
                return node.map_expressions(
                    lambda expr: self._redirect_subqueries(
                        expr, chains, parsed, record))
            view = chains.leaves.get(node.table) if node.as_of is not None \
                else self._read_view(chains, node.table, parsed, record)
            if view is None:  # time travel stays as written; R' has no past
                return node
            exprs: List[Expr] = []
            for attr in node.attrs:
                short = attr.rsplit(".", 1)[-1]
                exprs.append(Column(name=short,
                                    key=f"{node.table}.{short}"))
            return op.Projection(view, exprs, list(node.attrs))

        return op.transform_plan(plan, visit)

    def _redirect_subqueries(self, expr: Expr, chains, parsed,
                             record) -> Expr:
        """``expr`` with the plan of every subquery in it redirected
        (:meth:`_redirect_plan`); ``expr`` itself if it holds none."""
        def visit(node: Expr) -> Expr:
            if isinstance(node, SubqueryExpr) and node.plan is not None:
                return replace(node, plan=self._redirect_plan(
                    node.plan, chains, parsed, record))
            return node

        return transform(expr, visit) if contains_subquery(expr) else expr

    # .. finalization ..........................................................................

    def _finalize(self, table: str, chain: op.Operator,
                  record: TransactionRecord, options: ReenactmentOptions,
                  leaves: Dict[str, op.ConstRel]) -> op.Operator:
        """The request's (unoptimized) plan of ``table`` over its
        chain; ``leaves`` are the edited tables' (see :class:`_Chains`)."""
        plan = chain
        if not options.include_deleted:
            plan = op.Selection(
                plan, UnaryOp("NOT", Column(name=DEL,
                                            key=f"{table}.{DEL}")))
        if options.only_affected:
            plan = op.Selection(plan,
                                Column(name=UPD, key=f"{table}.{UPD}"))

        schema = self.db.catalog.get(table)
        exprs: List[Expr] = []
        names: List[str] = []
        for column in schema.column_names:
            exprs.append(Column(name=column, key=f"{table}.{column}"))
            names.append(column)
        if options.annotations:
            for annotation in ANNOTATION_NAMES:
                exprs.append(Column(name=annotation,
                                    key=f"{table}.{annotation}"))
                names.append(annotation)
        plan = op.Projection(plan, exprs, names)

        if options.with_provenance:
            plan = self._attach_provenance(
                table, plan, options, leaves.get(table)
                or self._base_plan(table, record.begin_ts))
        return plan

    def _attach_provenance(self, table: str, plan: op.Operator,
                           options: ReenactmentOptions,
                           base: op.Operator) -> op.Operator:
        """Left-join each output row with its pre-transaction version in
        ``base`` (``prov_<table>_<attr>`` columns, GProM naming)."""
        if not options.annotations:
            raise ReenactmentError(
                "with_provenance requires annotations=True (rows are "
                "matched on __rowid__)")
        schema = self.db.catalog.get(table)
        prov_names = [f"prov_{table}_{c}" for c in schema.column_names]
        prov_exprs: List[Expr] = [
            Column(name=c, key=f"{table}.{c}")
            for c in schema.column_names
        ]
        prov_exprs.append(Column(name=ROWID, key=f"{table}.{ROWID}"))
        prov_names_full = prov_names + [f"prov_{table}_rowid"]
        base_projected = op.Projection(base, prov_exprs, prov_names_full)
        return op.Join(
            plan, base_projected, kind="left",
            condition=BinaryOp(
                "=", Column(name=ROWID, key=ROWID),
                Column(name=f"prov_{table}_rowid",
                       key=f"prov_{table}_rowid")))
