"""SQL AST → relational algebra translation with name resolution.

The translator is GProM's parser/analyzer stage (Fig. 5): it resolves
every column reference to an exact attribute key of its scope, plans
subqueries (marking correlation), extracts aggregates into
:class:`~repro.algebra.operators.Aggregation`, and produces an operator
tree ready for rewriting or evaluation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.algebra import operators as op
from repro.algebra.expressions import (Column, Expr, FuncCall, Star,
                                       SubqueryExpr, columns_used,
                                       contains_aggregate, transform,
                                       transform_topdown, walk)
from repro.db.schema import Catalog
from repro.errors import AnalysisError
from repro.sql import ast


class Scope:
    """Attributes visible at one query level, chained to outer scopes."""

    def __init__(self, attrs: List[str], outer: Optional["Scope"] = None):
        self.attrs = attrs
        self.outer = outer

    def resolve(self, column: Column) -> Tuple[str, int]:
        """Resolve a column; returns (attribute key, scope depth).

        Depth 0 is the current scope; greater depths indicate a
        correlated reference into an enclosing query.
        """
        scope: Optional[Scope] = self
        depth = 0
        while scope is not None:
            matches = scope._matches(column)
            if len(matches) > 1:
                raise AnalysisError(
                    f"ambiguous column reference {column.display!r} "
                    f"(candidates: {', '.join(matches)})")
            if matches:
                return matches[0], depth
            scope = scope.outer
            depth += 1
        raise AnalysisError(f"unknown column {column.display!r}")

    def _matches(self, column: Column) -> List[str]:
        if column.table:
            wanted = f"{column.table}.{column.name}"
            return [a for a in self.attrs if a == wanted]
        out = []
        suffix = "." + column.name
        for attr in self.attrs:
            if attr == column.name or attr.endswith(suffix):
                out.append(attr)
        return out


def plan_free_columns(plan: op.Operator) -> List[str]:
    """Column keys referenced by a plan but not produced inside it —
    non-empty exactly for correlated subquery plans."""
    free: List[str] = []
    for node in op.walk_plan(plan):
        available = set()
        for child in node.children():
            available.update(child.attrs)
        for expr in node.expressions():
            for key in columns_used(expr):
                if key not in available and key not in free:
                    free.append(key)
            for sub in walk(expr):
                if isinstance(sub, SubqueryExpr) and sub.plan is not None:
                    for key in plan_free_columns(sub.plan):
                        if key not in available and key not in free:
                            free.append(key)
    return free


class Translator:
    """Stateless translator bound to a catalog."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self._name_counter = 0

    # -- public API --------------------------------------------------------

    def translate_query(self, query: ast.QueryExpr,
                        outer: Optional[Scope] = None) -> op.Operator:
        if isinstance(query, ast.Select):
            return self._translate_select(query, outer)
        if isinstance(query, ast.SetOpQuery):
            return self._translate_setop(query, outer)
        if isinstance(query, ast.ValuesClause):
            # FROM (VALUES ...): columns named as SQL engines name them
            width = len(query.rows[0])
            if any(len(row) != width for row in query.rows):
                raise AnalysisError("VALUES rows have different arity")
            return op.ConstRel(
                [[self._resolve(value, Scope([])) for value in row]
                 for row in query.rows],
                [f"column{i + 1}" for i in range(width)])
        raise AnalysisError(f"cannot translate query node {query!r}")

    def resolve_expression(self, expr: Expr, scope: Scope) -> Expr:
        """Resolve columns / plan subqueries inside one expression."""
        return self._resolve(expr, scope)

    # -- internals -----------------------------------------------------------

    def _fresh(self, prefix: str) -> str:
        self._name_counter += 1
        return f"{prefix}{self._name_counter}"

    def _translate_setop(self, query: ast.SetOpQuery,
                         outer: Optional[Scope]) -> op.Operator:
        left = self.translate_query(query.left, outer)
        right = self.translate_query(query.right, outer)
        if len(left.attrs) != len(right.attrs):
            raise AnalysisError(
                f"{query.op} operands have different arity "
                f"({len(left.attrs)} vs {len(right.attrs)})")
        plan: op.Operator = op.SetOp(query.op.lower(), left, right,
                                     all=query.all)
        plan = self._apply_order_limit(plan, query.order_by, query.limit,
                                       Scope(plan.attrs, outer))
        return plan

    # .. FROM clause .........................................................

    @staticmethod
    def _collect_pseudo_columns(select: ast.Select) -> Tuple[str, ...]:
        """Detect references to the engine pseudo-columns ``__rowid__``
        and ``__xid__`` so the affected scans expose them.  This is what
        makes generated reenactment SQL executable on the engine."""
        names = set()

        def scan_expr(expr: Optional[Expr]):
            if expr is None:
                return
            for node in walk(expr):
                if isinstance(node, Column):
                    if node.name == "__rowid__":
                        names.add(op.ANNOT_ROWID)
                    elif node.name == "__xid__":
                        names.add(op.ANNOT_XID)

        for item in select.items:
            scan_expr(item.expr)
        scan_expr(select.where)
        for g in select.group_by:
            scan_expr(g)
        scan_expr(select.having)
        for o in select.order_by:
            scan_expr(o.expr)

        def scan_source(source: ast.TableSource):
            if isinstance(source, ast.JoinSource):
                scan_expr(source.condition)
                scan_source(source.left)
                scan_source(source.right)

        for source in select.sources:
            scan_source(source)
        ordered = []
        for flag in (op.ANNOT_ROWID, op.ANNOT_XID):
            if flag in names:
                ordered.append(flag)
        return tuple(ordered)

    def _translate_sources(self, sources: List[ast.TableSource],
                           outer: Optional[Scope],
                           pseudo: Tuple[str, ...] = ()) -> op.Operator:
        if not sources:
            return op.ConstRel(rows=[[]], names=[])
        plan = self._translate_source(sources[0], outer, pseudo)
        for source in sources[1:]:
            right = self._translate_source(source, outer, pseudo)
            plan = op.Join(plan, right, kind="cross")
        return plan

    def _translate_source(self, source: ast.TableSource,
                          outer: Optional[Scope],
                          pseudo: Tuple[str, ...] = ()) -> op.Operator:
        if isinstance(source, ast.TableRef):
            schema = self.catalog.get(source.name)
            binding = source.binding
            as_of = None
            if source.as_of is not None:
                # AS OF expressions may use literals/params only; an
                # empty scope rejects column references.
                as_of = self._resolve(source.as_of, Scope([], None))
            return op.TableScan(table=source.name,
                                columns=list(schema.column_names),
                                binding=binding, as_of=as_of,
                                annotations=pseudo)
        if isinstance(source, ast.SubquerySource):
            inner = self.translate_query(source.query, outer)
            names = []
            seen = set()
            for attr in inner.attrs:
                short = attr.rsplit(".", 1)[-1]
                if short in seen:
                    raise AnalysisError(
                        f"duplicate column {short!r} in subquery "
                        f"{source.alias!r}; add aliases")
                seen.add(short)
                names.append(f"{source.alias}.{short}")
            exprs = [Column(name=a, key=a) for a in inner.attrs]
            return op.Projection(inner, exprs, names)
        if isinstance(source, ast.JoinSource):
            left = self._translate_source(source.left, outer, pseudo)
            right = self._translate_source(source.right, outer, pseudo)
            kind = source.kind.lower()
            if kind == "cross":
                return op.Join(left, right, kind="cross")
            scope = Scope(left.attrs + right.attrs, outer)
            condition = self._resolve(source.condition, scope)
            return op.Join(left, right, kind=kind, condition=condition)
        raise AnalysisError(f"cannot translate source {source!r}")

    # .. SELECT core ..........................................................

    def _translate_select(self, select: ast.Select,
                          outer: Optional[Scope]) -> op.Operator:
        pseudo = self._collect_pseudo_columns(select)
        plan = self._translate_sources(select.sources, outer, pseudo)
        scope = Scope(plan.attrs, outer)

        if select.where is not None:
            condition = self._resolve(select.where, scope)
            if contains_aggregate(condition):
                raise AnalysisError("aggregates are not allowed in WHERE")
            plan = op.Selection(plan, condition)

        # expand stars and resolve select expressions
        items: List[Tuple[Expr, str]] = []
        for item in select.items:
            if isinstance(item.expr, Star):
                items.extend(self._expand_star(item.expr, scope))
            else:
                resolved = self._resolve(item.expr, scope)
                items.append((resolved,
                              item.alias or self._derive_name(item.expr)))
        names = self._uniquify([name for _, name in items])
        items = [(expr, name) for (expr, _), name in zip(items, names)]

        group_exprs = [self._resolve(g, scope) for g in select.group_by]
        having = self._resolve(select.having, scope) \
            if select.having is not None else None

        has_aggregates = (bool(group_exprs)
                          or any(contains_aggregate(e) for e, _ in items)
                          or (having is not None
                              and contains_aggregate(having)))

        order_items: List[Tuple[Expr, bool]] = []

        if has_aggregates:
            plan, rewrite = self._plan_aggregation(plan, group_exprs,
                                                   items, having)
            agg_scope = Scope(plan.attrs, outer)
            items = [(rewrite(expr), name) for expr, name in items]
            for expr, name in items:
                self._check_grouped(expr, plan.attrs, name)
            if having is not None:
                having_rewritten = rewrite(having)
                self._check_grouped(having_rewritten, plan.attrs, "HAVING")
                plan = op.Selection(plan, having_rewritten)
            resolve_order = lambda e: rewrite(self._resolve(e, scope))  # noqa: E731
        else:
            if having is not None:
                raise AnalysisError("HAVING requires GROUP BY or aggregates")
            resolve_order = lambda e: self._resolve(e, scope)  # noqa: E731

        projection = op.Projection(plan, [e for e, _ in items],
                                   [n for _, n in items])
        out_scope = Scope(projection.attrs, outer)

        # ORDER BY may reference output aliases or underlying columns;
        # underlying references get carried through as hidden columns.
        hidden: List[Tuple[Expr, str]] = []
        for order_item in select.order_by:
            try:
                expr = self._resolve(order_item.expr, out_scope)
                if isinstance(expr, Column) and expr.key not in \
                        projection.attrs:
                    raise AnalysisError("outer-resolved")
            except AnalysisError:
                expr = resolve_order(order_item.expr)
                name = self._fresh("__ord")
                hidden.append((expr, name))
                expr = Column(name=name, key=name)
            order_items.append((expr, order_item.ascending))

        if hidden:
            projection = op.Projection(
                plan,
                [e for e, _ in items] + [e for e, _ in hidden],
                [n for _, n in items] + [n for _, n in hidden])

        result: op.Operator = projection
        if select.distinct:
            result = op.Distinct(result)
        result = self._apply_order_limit_resolved(result, order_items,
                                                  select.limit, out_scope)
        if hidden:
            keep = [n for _, n in items]
            result = op.Projection(
                result, [Column(name=n, key=n) for n in keep], keep)
        return result

    def _apply_order_limit(self, plan: op.Operator,
                           order_by: List[ast.OrderItem],
                           limit: Optional[Expr],
                           scope: Scope) -> op.Operator:
        items = [(self._resolve(i.expr, scope), i.ascending)
                 for i in order_by]
        return self._apply_order_limit_resolved(plan, items, limit, scope)

    def _apply_order_limit_resolved(self, plan: op.Operator,
                                    order_items, limit, scope
                                    ) -> op.Operator:
        if order_items:
            plan = op.OrderBy(plan, order_items)
        if limit is not None:
            plan = op.Limit(plan, self._resolve(limit, Scope([], None)))
        return plan

    def _expand_star(self, star: Star,
                     scope: Scope) -> List[Tuple[Expr, str]]:
        if star.table:
            prefix = star.table + "."
            attrs = [a for a in scope.attrs if a.startswith(prefix)]
            if not attrs:
                raise AnalysisError(f"unknown table alias {star.table!r} "
                                    f"in {star.table}.*")
        else:
            attrs = list(scope.attrs)
        out = []
        for attr in attrs:
            if attr.rsplit(".", 1)[-1].startswith("__"):
                continue  # annotation columns never leak through *
            short = attr.rsplit(".", 1)[-1]
            out.append((Column(name=short, key=attr), short))
        return out

    @staticmethod
    def _derive_name(expr: Expr) -> str:
        if isinstance(expr, Column):
            return expr.name
        if isinstance(expr, FuncCall):
            return expr.name.lower()
        return "col"

    @staticmethod
    def _uniquify(names: List[str]) -> List[str]:
        seen: Dict[str, int] = {}
        out = []
        for name in names:
            if name in seen:
                seen[name] += 1
                out.append(f"{name}_{seen[name]}")
            else:
                seen[name] = 0
                out.append(name)
        return out

    # .. aggregation ...........................................................

    def _plan_aggregation(self, plan: op.Operator,
                          group_exprs: List[Expr],
                          items: List[Tuple[Expr, str]],
                          having: Optional[Expr]):
        """Build the Aggregation operator and a rewrite function that
        maps select/having expressions onto its outputs."""
        group_names = []
        for i, g in enumerate(group_exprs):
            if isinstance(g, Column):
                group_names.append(g.key)
            else:
                group_names.append(self._fresh("__grp"))

        # collect aggregate calls (structural dedup)
        agg_calls: List[FuncCall] = []

        def collect(expr: Optional[Expr]):
            if expr is None:
                return
            for node in walk(expr):
                if isinstance(node, FuncCall) and node.is_aggregate:
                    if not any(node == seen for seen in agg_calls):
                        agg_calls.append(node)

        for expr, _ in items:
            collect(expr)
        collect(having)

        specs: List[op.AggSpec] = []
        agg_names: List[str] = []
        for call in agg_calls:
            for arg in call.args:
                if contains_aggregate(arg):
                    raise AnalysisError("nested aggregates are not allowed")
            name = self._fresh("__agg")
            agg_names.append(name)
            if call.name == "COUNT" and (not call.args or
                                         isinstance(call.args[0], Star)):
                specs.append(op.AggSpec("COUNT", None, name,
                                        distinct=call.distinct))
            else:
                if len(call.args) != 1:
                    raise AnalysisError(
                        f"aggregate {call.name} takes exactly one argument")
                specs.append(op.AggSpec(call.name, call.args[0], name,
                                        distinct=call.distinct))

        aggregation = op.Aggregation(plan, list(group_exprs), group_names,
                                     specs)

        def rewrite(expr: Expr) -> Expr:
            def visit(node: Expr) -> Expr:
                if isinstance(node, FuncCall) and node.is_aggregate:
                    for call, name in zip(agg_calls, agg_names):
                        if node == call:
                            return Column(name=name, key=name)
                    raise AnalysisError(
                        f"aggregate {node} not collected (analyzer bug)")
                for g, name in zip(group_exprs, group_names):
                    if node == g:
                        return Column(name=name.rsplit(".", 1)[-1],
                                      key=name)
                return node

            # top-down so whole group expressions (and aggregate calls)
            # match before their sub-expressions are rewritten
            return transform_topdown(expr, visit)

        return aggregation, rewrite

    @staticmethod
    def _check_grouped(expr: Expr, available: List[str],
                       context: str) -> None:
        bad = [key for key in columns_used(expr) if key not in available]
        if bad:
            raise AnalysisError(
                f"column {bad[0]!r} in {context} must appear in GROUP BY "
                f"or inside an aggregate")

    # .. expression resolution ...................................................

    def _resolve(self, expr: Expr, scope: Scope) -> Expr:
        def visit(node: Expr) -> Expr:
            if isinstance(node, Column):
                key, _depth = scope.resolve(node)
                return Column(name=node.name, table=node.table, key=key)
            if isinstance(node, SubqueryExpr):
                plan = self.translate_query(node.query, outer=scope)
                correlated = bool(plan_free_columns(plan))
                return SubqueryExpr(node.kind, node.query, node.operand,
                                    node.negated, plan, correlated)
            return node

        return transform(expr, visit)
