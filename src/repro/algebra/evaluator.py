"""Relational algebra interpreter.

Evaluates operator trees produced by the translator or the reenactor.
The evaluator is deliberately a straightforward materializing
interpreter — it is the reproduction's stand-in for the backend DBMS
executor — with two performance concessions: plan nodes and their
expressions are compiled to closures once and then run over plain
tuples, and equi-join conditions are detected and executed as hash
joins, which the scaling experiment (E5) needs.

Evaluation contexts decide what a :class:`~repro.algebra.operators.
TableScan` sees:

* the executing transaction's MVCC view (normal query execution),
* a committed snapshot at ``AS OF`` time (time travel / reenactment).
"""

from __future__ import annotations

import weakref
from collections import Counter
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.algebra import operators as op
from repro.algebra.expressions import (BinaryOp, Case, Compiled, EvalState,
                                       Expr, Layout, Literal, RowEnv,
                                       SubqueryExpr, column_position,
                                       columns_used, compile_expr,
                                       conjunction, conjuncts, row_layout,
                                       walk)
from repro.errors import ExecutionError, TimeTravelError


class Relation:
    """Materialized result: attribute names + list of row tuples."""

    __slots__ = ("attrs", "rows", "_multiset")

    def __init__(self, attrs: Sequence[str], rows: List[tuple]):
        self.attrs = list(attrs)
        self.rows = rows
        self._multiset: Optional[Counter] = None

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def column_index(self, name: str) -> int:
        try:
            return self.attrs.index(name)
        except ValueError:
            # allow suffix match ("bal" for "account.bal")
            matches = [i for i, a in enumerate(self.attrs)
                       if a.rsplit(".", 1)[-1] == name]
            if len(matches) == 1:
                return matches[0]
            raise ExecutionError(
                f"no column {name!r} in {self.attrs}") from None

    def column(self, name: str) -> List[Any]:
        idx = self.column_index(name)
        return [row[idx] for row in self.rows]

    def as_dicts(self) -> List[Dict[str, Any]]:
        return [dict(zip(self.attrs, row)) for row in self.rows]

    def as_multiset(self) -> Counter:
        """Row multiset, computed once and cached — a shared result
        (e.g. the fleet's single original reenactment) is diffed
        against many variants without recounting its rows each time.
        Callers must not mutate ``rows`` after the first call."""
        if self._multiset is None:
            self._multiset = Counter(self.rows)
        return self._multiset

    def project(self, names: Sequence[str]) -> "Relation":
        indexes = [self.column_index(n) for n in names]
        rows = [tuple(row[i] for i in indexes) for row in self.rows]
        return Relation(list(names), rows)

    def sorted(self) -> "Relation":
        def key(row):
            return tuple((v is None, str(type(v)), v) for v in row)
        return Relation(self.attrs, sorted(self.rows, key=key))

    def pretty(self, max_rows: int = 50) -> str:
        """ASCII table rendering (used by examples and the debugger)."""
        headers = self.attrs
        shown = self.rows[:max_rows]
        cells = [[_render(v) for v in row] for row in shown]
        widths = [len(h) for h in headers]
        for row in cells:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        sep = "+" + "+".join("-" * (w + 2) for w in widths) + "+"
        lines = [sep,
                 "|" + "|".join(f" {h.ljust(w)} "
                                for h, w in zip(headers, widths)) + "|",
                 sep]
        for row in cells:
            lines.append("|" + "|".join(
                f" {c.ljust(w)} " for c, w in zip(row, widths)) + "|")
        lines.append(sep)
        if len(self.rows) > max_rows:
            lines.append(f"... ({len(self.rows) - max_rows} more rows)")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Relation({self.attrs}, {len(self.rows)} rows)"


def _render(value: Any) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


class EvalContext:
    """Scan resolution + bind parameters for one evaluation."""

    def __init__(self, params: Optional[Dict[str, Any]] = None):
        self.params = params or {}

    # Subclasses implement the actual storage access.
    def scan_table(self, table: str, as_of_ts: Optional[int]
                   ) -> List[Tuple[int, tuple, Optional[int]]]:
        """Return (rowid, values, creator_xid) triples with values in
        the table's full schema order."""
        raise NotImplementedError

    def table_columns(self, table: str) -> List[str]:
        """Full column list of ``table`` in storage order (needed when a
        pruned scan reads a subset of the columns)."""
        raise NotImplementedError


class StaticContext(EvalContext):
    """Context over plain in-memory relations — used in unit tests."""

    def __init__(self, tables: Dict[str, Relation],
                 params: Optional[Dict[str, Any]] = None):
        super().__init__(params=params)
        self.tables = tables

    def scan_table(self, table, as_of_ts):
        return [(i + 1, row, 0)
                for i, row in enumerate(self._relation(table).rows)]

    def table_columns(self, table):
        return [a.rsplit(".", 1)[-1] for a in self._relation(table).attrs]

    def _relation(self, table: str) -> Relation:
        relation = self.tables.get(table)
        if relation is None:
            raise ExecutionError(f"unknown table {table!r}")
        return relation


#: A compiled plan node: ``run(outer) -> rows``.
Runner = Callable[[Optional[RowEnv]], List[tuple]]


class Evaluator:
    """Interprets a plan against an :class:`EvalContext`.

    Compile, then run: each plan node becomes, on first use, a closure
    ``run(outer) -> rows`` that holds its expressions compiled
    (:func:`~repro.algebra.expressions.compile_expr`) against its
    children's row layouts, its child runners, and every decision that
    does not depend on the data (join strategy and kind, aggregate
    functions).  Runners are memoized per evaluator, not on the plan,
    so a correlated subplan run once per outer row compiles once and a
    cached plan retains no closures.

    Plans are DAGs, and a node's rows for a run without an outer frame
    are computed once per evaluator and reused by every referrer —
    across every plan the evaluator is handed, so the roots of one
    :meth:`~repro.core.reenactor.Reenactor.compile_all` batch evaluate
    the chain they share once.  Runners never change a list they are
    given, and :meth:`evaluate` hands out a copy.
    """

    def __init__(self, ctx: EvalContext):
        self.ctx = ctx
        # nothing the evaluator hands out refers back to it strongly, so
        # a one-shot evaluator and every row it kept are freed as soon
        # as its caller lets go of it, not at some later cyclic collection
        this = weakref.ref(self)
        self.state = EvalState(
            params=ctx.params,
            subquery_runner=lambda plan, layout:
            this()._subquery_runner(plan, layout))
        #: id(node) → (node, runner); holding the node keeps its id its own
        self._runners: Dict[int, Tuple[op.Operator, Runner]] = {}
        #: id(node) → the node's rows without an outer frame
        self._rows: Dict[int, List[tuple]] = {}

    # -- public ------------------------------------------------------------

    def evaluate(self, plan: op.Operator) -> Relation:
        rows = self._eval(plan, None)
        return Relation(plan.attrs, list(rows))

    def compile(self, expr: Expr, attrs: Sequence[str]) -> Compiled:
        """Compile ``expr`` for rows with schema ``attrs``."""
        return compile_expr(expr, row_layout(attrs), self.state)

    # -- subqueries ---------------------------------------------------------

    def _subquery_runner(self, plan: op.Operator, layout: Layout):
        """``rows_of(row, outer)`` for a subquery nested in an expression
        over rows of ``layout``.  An uncorrelated plan runs once; a
        correlated one runs per row with that row as its outer frame."""
        from repro.algebra.translator import plan_free_columns
        this = weakref.ref(self)
        if not plan_free_columns(plan):
            return lambda row, outer: this()._eval(plan, None)
        columns = tuple(layout.items())

        def run(row, outer):
            frame = RowEnv({key: row[i] for key, i in columns}, outer)
            return this()._eval(plan, frame)
        return run

    # -- dispatcher -----------------------------------------------------------

    def _runner(self, plan: op.Operator) -> Runner:
        entry = self._runners.get(id(plan))
        if entry is None:
            build = _BUILDERS.get(type(plan))
            if build is None:
                raise ExecutionError(f"cannot evaluate operator {plan!r}")
            entry = self._runners[id(plan)] = (
                plan, self._once(id(plan), build(self, plan)))
        return entry[1]

    def _once(self, key: int, run: Runner) -> Runner:
        """``run`` with its rows for a run without an outer frame kept
        under ``key`` and reused."""
        computed = self._rows

        def run_once(outer):
            if outer is not None:
                return run(outer)
            rows = computed.get(key)
            if rows is None:
                rows = computed[key] = run(None)
            return rows
        return run_once

    def _eval(self, plan: op.Operator,
              outer: Optional[RowEnv]) -> List[tuple]:
        return self._runner(plan)(outer)

    # -- helpers ---------------------------------------------------------------

    def _compile_tuple(self, exprs: Sequence[Expr], layout: Layout
                       ) -> Callable[[tuple, Optional[RowEnv]], tuple]:
        """``make(row, outer)`` → tuple of the expressions' values."""
        positions = [column_position(e, layout) for e in exprs]
        if None not in positions:
            pick = _picker(positions)
            return lambda row, outer: pick(row)
        fns = [compile_expr(e, layout, self.state) for e in exprs]
        return lambda row, outer: tuple([f(row, outer) for f in fns])

    # -- operators ----------------------------------------------------------------

    def _build_scan(self, scan: op.TableScan) -> Runner:
        ctx = self.ctx
        table, columns = scan.table, scan.columns
        as_of = None if scan.as_of is None \
            else compile_expr(scan.as_of, {}, self.state)
        want_rowid = op.ANNOT_ROWID in scan.annotations
        want_xid = op.ANNOT_XID in scan.annotations

        def run(outer):
            as_of_ts: Optional[int] = None
            if as_of is not None:
                value = as_of((), outer)
                if value is None:
                    raise TimeTravelError(
                        f"AS OF timestamp for {table!r} is NULL")
                as_of_ts = int(value)
            triples = ctx.scan_table(table, as_of_ts)
            full = ctx.table_columns(table)
            if columns == full:
                pick = tuple
            else:  # pruned scans read a subset of the stored columns
                try:
                    pick = _picker([full.index(c) for c in columns])
                except ValueError as exc:
                    raise ExecutionError(
                        f"scan of {table!r} asks for columns "
                        f"{columns} but storage has {full}") from exc
            if want_rowid and want_xid:
                return [pick(values) + (rowid, xid)
                        for rowid, values, xid in triples]
            if want_rowid:
                return [pick(values) + (rowid,)
                        for rowid, values, _ in triples]
            if want_xid:
                return [pick(values) + (xid,) for _, values, xid in triples]
            return [pick(values) for _, values, _ in triples]
        return run

    def _build_const(self, node: op.ConstRel) -> Runner:
        rows = [[compile_expr(e, {}, self.state) for e in row]
                for row in node.rows]
        return lambda outer: [tuple([f((), outer) for f in row])
                              for row in rows]

    def _build_selection(self, node: op.Selection) -> Runner:
        child = self._runner(node.child)
        keep = self.compile(node.condition, node.child.attrs)
        return lambda outer: [row for row in child(outer)
                              if keep(row, outer) is True]

    def _build_projection(self, node: op.Projection) -> Runner:
        child = self._runner(node.child)
        layout = row_layout(node.child.attrs)
        width = len(node.child.attrs)
        positions = [column_position(e, layout) for e in node.exprs]
        if positions == list(range(width)):
            return child  # a rename: the input rows are the output rows
        if None not in positions:
            pick = _picker(positions)
            return lambda outer: list(map(pick, child(outer)))
        guarded = self._guarded_projection(node.exprs, positions, layout,
                                           width)
        if guarded is not None:
            return lambda outer: guarded(child(outer), outer)
        fns = [compile_expr(e, layout, self.state) for e in node.exprs]
        if all(p is None for p in positions):
            return lambda outer: [tuple([f(row, outer) for f in fns])
                                  for row in child(outer)]
        # most columns pass through, a few are computed.  Pick the whole
        # row in one go (computed slots read position 0 as a
        # placeholder), then overwrite those.
        pick = _picker([p or 0 for p in positions])
        computed = [(slot, f) for slot, (f, p)
                    in enumerate(zip(fns, positions)) if p is None]

        def run(outer):
            out = []
            for row in child(outer):
                values = list(pick(row))
                for slot, value_of in computed:
                    values[slot] = value_of(row, outer)
                out.append(tuple(values))
            return out
        return run

    def _guarded_projection(self, exprs: Sequence[Expr],
                            positions: Sequence[Optional[int]],
                            layout: Layout, width: int):
        """The projection every reenacted ``UPDATE`` and ``DELETE``
        compiles to, as ``run(rows, outer) -> rows``, or None for any
        other shape.

        Its computed slots are ``CASE WHEN c THEN x ELSE y END`` on one
        condition ``c`` without a subquery, each ``y`` an input column
        or a literal (and plain literals, a folded annotation).  ``c``
        is tested once per row, not once per slot: a row it selects
        takes every ``x`` in slot order, as the slot-by-slot runner
        would, and raises where that one raises; any other row is its
        ELSE row — the input tuple itself when the ELSE branches map
        every column to its own position."""
        condition = None
        thens: List[Tuple[int, Expr]] = []
        else_positions: List[int] = []
        constants: List[Any] = []
        for slot, (expr, position) in enumerate(zip(exprs, positions)):
            if position is not None:
                else_positions.append(position)
                continue
            if type(expr) is Literal:
                thens.append((slot, expr))
                default: Expr = expr
            elif type(expr) is Case and len(expr.whens) == 1 \
                    and expr.default is not None:
                (when, then), = expr.whens
                if condition is None:
                    condition = when
                elif when != condition:
                    return None
                thens.append((slot, then))
                default = expr.default
            else:
                return None
            if type(default) is Literal:
                else_positions.append(width + len(constants))
                constants.append(default.value)
            else:
                position = column_position(default, layout)
                if position is None:
                    return None
                else_positions.append(position)
        if condition is None or any(isinstance(node, SubqueryExpr)
                                    for node in walk(condition)):
            return None
        test = compile_expr(condition, layout, self.state)
        pick = _picker([p or 0 for p in positions])
        computed = [(slot, compile_expr(then, layout, self.state))
                    for slot, then in thens]
        identity = else_positions == list(range(width))
        pick_else = _picker(else_positions)
        extra = tuple(constants)

        def run(rows, outer):
            out = []
            append = out.append
            for row in rows:
                if test(row, outer) is True:
                    values = list(pick(row))
                    for slot, value_of in computed:
                        values[slot] = value_of(row, outer)
                    append(tuple(values))
                elif identity:
                    append(row)
                else:
                    append(pick_else(row + extra))
            return out
        return run

    # .. joins ....................................................................

    def _build_join(self, node: op.Join) -> Runner:
        left = self._runner(node.left)
        right = self._runner(node.right)
        left_attrs, right_attrs = node.left.attrs, node.right.attrs
        if node.kind == "cross":
            def run_cross(outer):
                left_rows, right_rows = left(outer), right(outer)
                return [l + r for l in left_rows for r in right_rows]
            return run_cross

        emit = _JOIN_EMITTERS[node.kind]
        pad = (None,) * len(right_attrs)
        combined = row_layout(left_attrs + right_attrs)
        equi, residual = self._split_equi(node.condition, left_attrs,
                                          right_attrs)
        if not equi:  # nested loop
            matches_condition = None if node.condition is None \
                else compile_expr(node.condition, combined, self.state)

            def run_nested(outer):
                left_rows, right_rows = left(outer), right(outer)
                out: List[tuple] = []
                for lrow in left_rows:
                    matches = right_rows if matches_condition is None \
                        else [rrow for rrow in right_rows
                              if matches_condition(lrow + rrow, outer)
                              is True]
                    emit(out, lrow, matches, pad)
                return out
            return run_nested

        left_key = self._compile_tuple([l for l, _ in equi],
                                       row_layout(left_attrs))
        right_key = self._compile_tuple([r for _, r in equi],
                                        row_layout(right_attrs))
        passes_residual = None if residual is None \
            else compile_expr(residual, combined, self.state)

        def run_hash(outer):
            left_rows, right_rows = left(outer), right(outer)
            index: Dict[tuple, List[tuple]] = {}
            for rrow in right_rows:
                key = right_key(rrow, outer)
                if None not in key:  # NULL never equi-joins
                    index.setdefault(key, []).append(rrow)
            out: List[tuple] = []
            for lrow in left_rows:
                matches = index.get(left_key(lrow, outer), ())
                if passes_residual is not None and matches:
                    matches = [rrow for rrow in matches
                               if passes_residual(lrow + rrow, outer)
                               is True]
                emit(out, lrow, matches, pad)
            return out
        return run_hash

    @staticmethod
    def _split_equi(condition: Optional[Expr],
                    left_attrs: List[str], right_attrs: List[str]):
        """Split a join condition into equi-join pairs and a residual."""
        if condition is None:
            return [], None
        left_set = set(left_attrs)
        right_set = set(right_attrs)
        pairs = []
        residual = []
        for part in conjuncts(condition):
            if isinstance(part, BinaryOp) and part.op == "=" \
                    and not any(isinstance(n, SubqueryExpr)
                                for n in walk(part)):
                lcols = set(columns_used(part.left))
                rcols = set(columns_used(part.right))
                if lcols and rcols:
                    if lcols <= left_set and rcols <= right_set:
                        pairs.append((part.left, part.right))
                        continue
                    if lcols <= right_set and rcols <= left_set:
                        pairs.append((part.right, part.left))
                        continue
            residual.append(part)
        return pairs, conjunction(residual)

    # .. aggregation ...............................................................

    def _build_aggregation(self, node: op.Aggregation) -> Runner:
        child = self._runner(node.child)
        layout = row_layout(node.child.attrs)
        group_key = self._compile_tuple(node.group_exprs, layout) \
            if node.group_exprs else None
        aggregates = [self._compile_aggregate(spec, layout)
                      for spec in node.aggregates]

        def run(outer):
            rows = child(outer)
            if group_key is None:
                # global aggregation: one row, also over an empty input
                groups: Dict[tuple, List[tuple]] = {(): rows}
            else:
                groups = {}
                for row in rows:
                    groups.setdefault(group_key(row, outer), []).append(row)
            return [key + tuple([agg(members, outer) for agg in aggregates])
                    for key, members in groups.items()]
        return run

    def _compile_aggregate(self, spec: op.AggSpec, layout: Layout
                           ) -> Callable[[List[tuple], Optional[RowEnv]],
                                         Any]:
        if spec.expr is None:  # COUNT(*)
            return lambda rows, outer: len(rows)
        argument = compile_expr(spec.expr, layout, self.state)
        func, distinct = spec.func, spec.distinct
        fold = _AGGREGATES.get(func)

        def run(rows, outer):
            values = [v for v in [argument(row, outer) for row in rows]
                      if v is not None]
            if distinct:
                values = list(dict.fromkeys(values))
            if fold is None:
                raise ExecutionError(f"unknown aggregate {func!r}")
            if not values and fold is not len:
                return None
            try:
                return fold(values)
            except TypeError as exc:
                raise ExecutionError(
                    f"cannot compute {func} over mixed types") from exc
        return run

    # .. set operations ...............................................................

    def _build_distinct(self, node: op.Distinct) -> Runner:
        child = self._runner(node.child)
        return lambda outer: _distinct(child(outer))

    def _build_setop(self, node: op.SetOp) -> Runner:
        left = self._runner(node.left)
        right = self._runner(node.right)
        combine = _SETOPS[node.kind, bool(node.all)]
        return lambda outer: combine(left(outer), right(outer))

    # .. ordering ...................................................................

    def _build_orderby(self, node: op.OrderBy) -> Runner:
        child = self._runner(node.child)
        sort_keys = self._compile_tuple([e for e, _ in node.items],
                                        row_layout(node.child.attrs))
        directions = [ascending for _, ascending in node.items]

        def run(outer):
            keyed = [(sort_keys(row, outer), row) for row in child(outer)]
            try:
                # stable multi-key sort: apply keys right-to-left
                for index in range(len(directions) - 1, -1, -1):
                    keyed.sort(
                        key=lambda pair, i=index: _sort_key(pair[0][i]),
                        reverse=not directions[index])
            except TypeError as exc:
                raise ExecutionError(
                    f"cannot ORDER BY values of mixed types: {exc}"
                ) from exc
            return [row for _, row in keyed]
        return run

    def _build_limit(self, node: op.Limit) -> Runner:
        child = self._runner(node.child)
        count_of = compile_expr(node.count, {}, self.state)

        def run(outer):
            count = count_of((), outer)
            try:
                limit = int(count)
            except (TypeError, ValueError):
                limit = -1
            if limit < 0:
                raise ExecutionError(f"invalid LIMIT {count!r}")
            return child(outer)[:limit]
        return run

    def _build_annotate_rowid(self, node: op.AnnotateRowId) -> Runner:
        child = self._runner(node.child)
        base = node.seed * 1_000_000
        return lambda outer: [row + (-(base + i + 1),)
                              for i, row in enumerate(child(outer))]


_BUILDERS: Dict[type, Callable[[Evaluator, Any], Runner]] = {
    op.TableScan: Evaluator._build_scan,
    op.ConstRel: Evaluator._build_const,
    op.Selection: Evaluator._build_selection,
    op.Projection: Evaluator._build_projection,
    op.Join: Evaluator._build_join,
    op.Aggregation: Evaluator._build_aggregation,
    op.Distinct: Evaluator._build_distinct,
    op.SetOp: Evaluator._build_setop,
    op.OrderBy: Evaluator._build_orderby,
    op.Limit: Evaluator._build_limit,
    op.AnnotateRowId: Evaluator._build_annotate_rowid,
}


def _picker(positions: Sequence[int]) -> Callable[[Sequence[Any]], tuple]:
    """``pick(row)`` → tuple of the values at ``positions``."""
    if len(positions) == 1:
        (only,) = positions
        return lambda row: (row[only],)
    if not positions:
        return lambda row: ()
    return itemgetter(*positions)


def _emit_inner(out, lrow, matches, pad) -> None:
    out.extend([lrow + rrow for rrow in matches])


def _emit_left(out, lrow, matches, pad) -> None:
    if matches:
        out.extend([lrow + rrow for rrow in matches])
    else:
        out.append(lrow + pad)


def _emit_semi(out, lrow, matches, pad) -> None:
    if matches:
        out.append(lrow)


def _emit_anti(out, lrow, matches, pad) -> None:
    if not matches:
        out.append(lrow)


#: join kind → what one left row and its matching right rows produce
_JOIN_EMITTERS = {"inner": _emit_inner, "left": _emit_left,
                  "semi": _emit_semi, "anti": _emit_anti}

#: aggregate function → fold over the non-NULL argument values
_AGGREGATES: Dict[str, Callable[[List[Any]], Any]] = {
    "COUNT": len, "SUM": sum, "MIN": min, "MAX": max,
    "AVG": lambda values: sum(values) / len(values),
}


def _sort_key(value: Any):
    # NULLs sort last under ASC (first under DESC via reverse)
    return (1, 0) if value is None else (0, value)


def _distinct(rows: List[tuple]) -> List[tuple]:
    return list(dict.fromkeys(rows))


def _intersect_all(left: List[tuple], right: List[tuple]) -> List[tuple]:
    budget = Counter(right)
    out = []
    for row in left:
        if budget[row] > 0:
            budget[row] -= 1
            out.append(row)
    return out


def _except_all(left: List[tuple], right: List[tuple]) -> List[tuple]:
    budget = Counter(right)
    out = []
    for row in left:
        if budget[row] > 0:
            budget[row] -= 1
        else:
            out.append(row)
    return out


def _intersect(left: List[tuple], right: List[tuple]) -> List[tuple]:
    members = set(right)
    return _distinct([row for row in left if row in members])


def _except(left: List[tuple], right: List[tuple]) -> List[tuple]:
    members = set(right)
    return _distinct([row for row in left if row not in members])


#: (kind, ALL?) → combine(left rows, right rows)
_SETOPS: Dict[Tuple[str, bool],
              Callable[[List[tuple], List[tuple]], List[tuple]]] = {
    ("union", True): lambda left, right: left + right,
    ("union", False): lambda left, right: _distinct(left + right),
    ("intersect", True): _intersect_all,
    ("intersect", False): _intersect,
    ("except", True): _except_all,
    ("except", False): _except,
}
