"""SQL code generation: algebra plan → executable SQL text.

This is the last stage of the GProM pipeline (Fig. 5): after the
provenance rewriter and the reenactor have produced a plain relational
algebra expression, it is printed as SQL in the backend's dialect and
executed there.  Our backend dialect is the one in :mod:`repro.sql`, so
generated SQL re-parses and re-evaluates on the engine — the round trip
is covered by tests.

Engine-specific pseudo-columns (``__rowid__``, ``__xid__``) are part of
the dialect (every table scan exposes them), so even reenactment plans
with row-identity bookkeeping are expressible.  The one exception is
:class:`~repro.algebra.operators.AnnotateRowId` over a *dynamic* input
(reenacted ``INSERT ... SELECT``): synthesizing row identities for an
unknown number of rows needs ROW_NUMBER-style machinery the native
dialect does not have, so :func:`generate_sql` raises and callers fall
back to direct plan evaluation (documented in DESIGN.md §4.5).  Target
dialects that do have window functions can render it by overriding
:meth:`Dialect.gen_annotate_rowid`.

Generation is parameterized by a :class:`Dialect`: the policy knobs —
quoting, compound-SELECT form, CTE materialization barriers,
window-function availability — live in first-class
:class:`DialectConfig` objects, one per target engine, so execution
backends (:mod:`repro.backends`) only override the hooks where
behavior (not policy) differs: mapping time-traveled scans onto
materialized snapshot tables.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.algebra import operators as op
from repro.algebra.expressions import (Column, Expr, SubqueryExpr,
                                       transform, walk)
from repro.errors import ReenactmentError, ReproError
from repro.sql.formatter import format_expr


@dataclass(frozen=True)
class DialectConfig:
    """The policy knobs of one target SQL dialect.

    Everything here is declarative — the :class:`Dialect` renderer
    reads these knobs, and a backend declares its dialect by pointing
    at a config instead of overriding string-producing methods.  Each
    engine module registers its own config (:func:`register_dialect`),
    so policy tests sweep every dialect through
    :func:`available_dialects`.
    """

    name: str
    #: identifier quoting: "none" (emit bare — the native dialect has
    #: no reserved-word collisions with generated names) or "double"
    #: (standard SQL ``"ident"`` with ``""`` escaping).
    quote_style: str = "none"
    #: hoist derived tables into a WITH clause.  Deep reenactment
    #: chains (READ COMMITTED re-basing in particular) nest subqueries
    #: hundreds of levels deep; engines with a bounded parser stack
    #: need the flat CTE form, which also prints a node several parents
    #: share (a READ COMMITTED chain's own rows) once.  The native
    #: dialect keeps inline nesting so generated SQL stays a
    #: re-parseable fixpoint.
    use_ctes: bool = False
    #: parenthesize compound-SELECT operands.  Standard form is
    #: ``(SELECT ...) UNION ALL (SELECT ...)``; SQLite rejects the
    #: parens and needs bare operands.
    parenthesized_compounds: bool = True
    #: CTE materialization barrier keyword ("" = plain ``AS (...)``).
    #: Engines whose flatteners inline single-reference CTEs compound
    #: reenactment CASE stacks exponentially at prepare time without
    #: the barrier.
    cte_materialization: str = ""
    #: the engine has ROW_NUMBER() OVER window machinery: the
    #: synthetic row-id annotation is expressible.
    window_functions: bool = False
    #: snapshot-planner cutover (:mod:`repro.backends.planner`): a
    #: cached neighbor is patched — moved or cloned — when the
    #: estimated delta is at most this fraction of the table's
    #: cardinality; above it a store read or storage scan wins.
    delta_max_ratio: float = 0.5

    def __post_init__(self):
        if self.quote_style not in ("none", "double"):
            raise ReproError(
                f"dialect {self.name!r}: quote_style must be 'none' "
                f"or 'double', got {self.quote_style!r}")

    def quote(self, ident: str) -> str:
        """Apply this dialect's identifier-quoting policy."""
        if self.quote_style == "double":
            return '"' + ident.replace('"', '""') + '"'
        return ident


#: registered dialect configs, by lowercase name.
_DIALECTS: Dict[str, DialectConfig] = {}


def register_dialect(config: DialectConfig) -> DialectConfig:
    """Register a dialect config under its name (later registrations
    replace earlier ones)."""
    _DIALECTS[config.name.lower()] = config
    return config


def available_dialects() -> List[str]:
    """Sorted names of every registered dialect config."""
    return sorted(_DIALECTS)


def get_dialect(name: str) -> DialectConfig:
    """Look up a registered dialect config by name."""
    config = _DIALECTS.get(name.lower())
    if config is None:
        raise ReproError(
            f"unknown SQL dialect {name!r}; available: "
            f"{available_dialects()}")
    return config


#: the repo's own dialect: bare identifiers, inline nesting, AS OF
#: time travel, no window machinery — a re-parseable fixpoint.
NATIVE = register_dialect(DialectConfig(name="native"))


class Dialect:
    """Renderer for one target SQL dialect, driven by a
    :class:`DialectConfig`.

    With the default (native) config it prints the repo's own dialect —
    time-travel ``AS OF`` scans, parenthesized compound queries —
    whose output re-parses and re-evaluates on the engine (a tested
    fixpoint).  Everything policy-shaped (quoting, compound form, CTE
    barriers) is read from the config; subclasses
    override only behavior that is not expressible as a knob (backends
    map time-traveled scans onto materialized snapshot tables).  The
    synthetic row-id hook renders shared ANSI window SQL, gated on the
    config's ``window_functions`` capability — no engine-specific
    rendering lives here.
    """

    name = "native"

    #: mirror of ``config.use_ctes``, kept as a class attribute so
    #: lightweight test dialects can flip it without a config.
    use_ctes = False

    #: the policy knobs; instance construction with an explicit config
    #: overrides this class-level default.
    config: DialectConfig = NATIVE

    def __init__(self, config: Optional[DialectConfig] = None):
        if config is not None:
            self.config = config
            self.name = config.name
            self.use_ctes = config.use_ctes

    def quote(self, ident: str) -> str:
        """Quote an identifier per the config's quoting policy."""
        return self.config.quote(ident)

    def scan_source(self, scan: op.TableScan) -> str:
        """FROM-clause source text for a base-table scan."""
        source = self.quote(scan.table)
        if scan.as_of is not None:
            source += f" AS OF {format_expr(scan.as_of)}"
        return source

    def compound(self, left_body: str, right_body: str,
                 word: str) -> str:
        """Combine two simple SELECT bodies with a set operation."""
        if self.config.parenthesized_compounds:
            return f"({left_body}) {word} ({right_body})"
        return f"{left_body} {word} {right_body}"

    def cte_item(self, name: str, body: str,
                 shared: bool = False) -> Optional[str]:
        """One ``name AS (body)`` item of a WITH clause (only reached
        when :attr:`use_ctes` is set), with the config's
        materialization barrier if it declares one.  ``shared`` marks
        the CTE of a node several parents read; a dialect that computes
        such a node ahead of the query, under ``name``, returns None."""
        barrier = self.config.cte_materialization
        if barrier:
            return f"{self.quote(name)} AS {barrier} ({body})"
        return f"{self.quote(name)} AS ({body})"

    def gen_annotate_rowid(self, gen: "_Generator",
                           node: op.AnnotateRowId
                           ) -> Tuple[str, Dict[str, str]]:
        """Render synthetic row-id annotation, or raise if the dialect
        cannot express it.

        Synthetic negative ids in input order, mirroring the
        evaluator's ``-(seed * 1_000_000 + i + 1)`` scheme.  Engines
        keep a deterministic scan order over materialized snapshots,
        but ``ROW_NUMBER`` without ``ORDER BY`` is formally
        unordered — row identity assignment for ``INSERT ... SELECT``
        should be compared on data columns, not annotation columns
        (the differential harness does exactly that)."""
        if not self.config.window_functions:
            raise ReenactmentError(
                "plan contains synthetic row-id annotation over a "
                "dynamic input (reenacted INSERT ... SELECT); it "
                "cannot be printed as SQL — evaluate the plan "
                "directly instead")
        sql, colmap = gen.gen(node.child)
        alias = gen.fresh("t")
        flat = gen.fresh("c")
        columns = ", ".join(colmap[a] for a in node.child.attrs)
        offset = node.seed * 1_000_000
        out = dict(colmap)
        out[node.name] = flat
        return (f"SELECT {columns}, -({offset} + ROW_NUMBER() OVER ()) "
                f"AS {flat} FROM {gen.derived(sql)} AS {alias}", out)


class _Generator:
    def __init__(self, dialect: Optional[Dialect], plan: op.Operator):
        self._counter = 0
        self.dialect = dialect or Dialect()
        #: hoisted (name, body) common table expressions, in dependency
        #: order (a body only references CTEs appended before it).
        self.ctes: List[Tuple[str, str]] = []
        #: bodies :meth:`_gen_scan` rendered — a bare scan renames
        #: columns and nothing else, so :meth:`derived` keeps it inline.
        self._scan_bodies: Set[str] = set()
        #: ``id`` of the nodes of ``plan`` with more than one referrer,
        #: and the rendering of each already printed (CTE dialects only;
        #: the native dialect prints every reference inline): a shared
        #: node is one CTE every referrer reads under one name.
        self._shared: Set[int] = set()
        if self.dialect.use_ctes:
            refs = _referrers(plan)
            self._shared = {key for key, count in refs.items()
                            if count > 1}
        self._printed: Dict[int, Tuple[str, Dict[str, str]]] = {}
        #: the (name, body) CTEs of the shared nodes, in dependency
        #: order; a body holds the CTEs only it reads in a WITH of its
        #: own, and reads other shared nodes by name.
        self.shared_ctes: List[Tuple[str, str]] = []
        #: reference bodies of those CTEs → their names (see
        #: :meth:`derived`).
        self._cte_refs: Dict[str, str] = {}
        #: >0 while rendering a correlated expression-level subquery.
        #: Such bodies carry references to outer flat names (remapped
        #: by :func:`_remap_plan`) and therefore must stay inline — a
        #: CTE cannot see the enclosing query's columns.  An
        #: uncorrelated subquery plan is counted in the referrer census
        #: (:func:`_referrers`) and printed once when shared.
        self._subquery_depth = 0

    def fresh(self, prefix: str = "c") -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def derived(self, body: str) -> str:
        """A derived table for a FROM clause: inline ``(body)`` or, for
        CTE dialects outside subquery context, a hoisted CTE name.

        A bare table scan always stays inline.  Hoisting exists to bound
        nesting depth and to put the dialect's materialization barrier
        between stacked CASE projections; a leaf scan adds one level and
        carries no expression an engine's flattener could compound,
        while behind a barrier it costs a full copy of the scanned
        table on every query.  The body of a shared node's CTE is read
        as that CTE."""
        name = self._cte_refs.get(body)
        if name is not None:
            return self.dialect.quote(name)
        if self.dialect.use_ctes and self._subquery_depth == 0 \
                and body not in self._scan_bodies:
            name = self.fresh("q")
            self.ctes.append((name, body))
            return self.dialect.quote(name)
        return f"({body})"

    # Each _gen returns (sql_text, colmap) where colmap maps the plan's
    # attribute keys to the flat column names used in the SQL text.

    def gen(self, plan: op.Operator) -> Tuple[str, Dict[str, str]]:
        if id(plan) not in self._shared or self._subquery_depth:
            return self._gen(plan)
        printed = self._printed.get(id(plan))
        if printed is None:
            outer, self.ctes = self.ctes, []
            body, colmap = self._gen(plan)
            private, self.ctes = self.ctes, outer
            if body not in self._scan_bodies:  # a bare scan stays inline
                name = self.fresh("q")
                if private:
                    body = f"WITH {self._with_items(private)} {body}"
                self.shared_ctes.append((name, body))
                body = f"SELECT * FROM {self.dialect.quote(name)}"
                self._cte_refs[body] = name
            printed = self._printed[id(plan)] = (body, colmap)
        return printed

    def _with_items(self, ctes: List[Tuple[str, str]]) -> str:
        return ", ".join(self.dialect.cte_item(name, body)
                         for name, body in ctes)

    def _gen(self, plan: op.Operator) -> Tuple[str, Dict[str, str]]:
        if isinstance(plan, op.TableScan):
            return self._gen_scan(plan)
        if isinstance(plan, op.ConstRel):
            return self._gen_const(plan)
        if isinstance(plan, op.Selection):
            return self._gen_selection(plan)
        if isinstance(plan, op.Projection):
            return self._gen_projection(plan)
        if isinstance(plan, op.Join):
            return self._gen_join(plan)
        if isinstance(plan, op.Aggregation):
            return self._gen_aggregation(plan)
        if isinstance(plan, op.Distinct):
            sql, colmap = self.gen(plan.child)
            alias = self.fresh("t")
            return (f"SELECT DISTINCT * FROM {self.derived(sql)} AS {alias}",
                    colmap)
        if isinstance(plan, op.SetOp):
            return self._gen_setop(plan)
        if isinstance(plan, op.OrderBy):
            return self._gen_orderby(plan)
        if isinstance(plan, op.Limit):
            sql, colmap = self.gen(plan.child)
            alias = self.fresh("t")
            count = format_expr(_remap(plan.count, colmap, self))
            return (f"SELECT * FROM {self.derived(sql)} AS {alias} "
                    f"LIMIT {count}", colmap)
        if isinstance(plan, op.AnnotateRowId):
            return self.dialect.gen_annotate_rowid(self, plan)
        raise ReproError(f"cannot generate SQL for {plan!r}")

    # -- leaves -------------------------------------------------------------

    def _gen_scan(self, scan: op.TableScan):
        colmap: Dict[str, str] = {}
        pieces = []
        for attr in scan.attrs:
            short = attr.rsplit(".", 1)[-1]
            flat = self.fresh("c")
            colmap[attr] = flat
            pieces.append(f"{self.dialect.quote(short)} AS {flat}")
        from_clause = self.dialect.scan_source(scan)
        alias = self.fresh("t")
        sql = (f"SELECT {', '.join(pieces)} FROM {from_clause} {alias}")
        self._scan_bodies.add(sql)
        return sql, colmap

    def _gen_const(self, const: op.ConstRel):
        colmap: Dict[str, str] = {}
        flats: List[str] = []
        for attr in const.names:
            flat = self.fresh("c")
            colmap[attr] = flat
            flats.append(flat)
        if not const.names:
            return "SELECT 1 AS __dummy", {}
        if not const.rows:
            null_items = ", ".join(f"NULL AS {f}" for f in flats)
            return (f"SELECT {null_items} WHERE FALSE", colmap)
        # one VALUES list, not a compound SELECT per row: engines cap
        # the terms of a compound (SQLite at 500) but not a VALUES list
        values = ", ".join(
            "(" + ", ".join(format_expr(_remap(value, {}, self))
                            for value in row) + ")"
            for row in const.rows)
        items = ", ".join(f"{self.dialect.quote(f'column{i + 1}')} AS {flat}"
                          for i, flat in enumerate(flats))
        return (f"SELECT {items} FROM (VALUES {values}) AS "
                f"{self.fresh('t')}", colmap)

    # -- unary ---------------------------------------------------------------

    def _gen_selection(self, node: op.Selection):
        sql, colmap = self.gen(node.child)
        alias = self.fresh("t")
        condition = format_expr(_remap(node.condition, colmap, self))
        return (f"SELECT * FROM {self.derived(sql)} AS {alias} "
                f"WHERE {condition}", colmap)

    def _gen_projection(self, node: op.Projection):
        sql, child_map = self.gen(node.child)
        alias = self.fresh("t")
        colmap: Dict[str, str] = {}
        pieces = []
        for expr, name in zip(node.exprs, node.names):
            flat = self.fresh("c")
            colmap[name] = flat
            pieces.append(f"{format_expr(_remap(expr, child_map, self))} "
                          f"AS {flat}")
        return (f"SELECT {', '.join(pieces)} FROM {self.derived(sql)} "
                f"AS {alias}", colmap)

    # -- binary ----------------------------------------------------------------

    def _gen_join(self, node: op.Join):
        left_sql, left_map = self.gen(node.left)
        right_sql, right_map = self.gen(node.right)
        left_alias = self.fresh("t")
        right_alias = self.fresh("t")
        combined = dict(left_map)
        combined.update(right_map)

        if node.kind in ("semi", "anti"):
            condition = format_expr(_remap(node.condition, combined, self)) \
                if node.condition is not None else "TRUE"
            word = "EXISTS" if node.kind == "semi" else "NOT EXISTS"
            # the EXISTS wrapper is correlated (its WHERE references the
            # left side) and stays inline; the right body itself is
            # self-contained and may be hoisted.
            return (
                f"SELECT * FROM {self.derived(left_sql)} AS {left_alias} "
                f"WHERE {word} "
                f"(SELECT 1 FROM {self.derived(right_sql)} "
                f"AS {right_alias} WHERE {condition})", left_map)

        select_list = ", ".join(
            list(left_map.values()) + list(right_map.values())) or "*"
        if node.kind == "cross":
            return (
                f"SELECT {select_list} "
                f"FROM {self.derived(left_sql)} AS {left_alias} "
                f"CROSS JOIN {self.derived(right_sql)} AS {right_alias}",
                combined)
        condition = format_expr(_remap(node.condition, combined, self)) \
            if node.condition is not None else "TRUE"
        word = "LEFT JOIN" if node.kind == "left" else "JOIN"
        return (
            f"SELECT {select_list} "
            f"FROM {self.derived(left_sql)} AS {left_alias} "
            f"{word} {self.derived(right_sql)} AS {right_alias} "
            f"ON {condition}", combined)

    def _gen_setop(self, node: op.SetOp):
        left_sql, left_map = self.gen(node.left)
        right_sql, right_map = self.gen(node.right)
        # align right column order with left attr order
        left_alias = self.fresh("t")
        right_alias = self.fresh("t")
        left_cols = [left_map[a] for a in node.left.attrs]
        right_cols = [right_map[a] for a in node.right.attrs]
        # re-select both sides so positional union lines up
        left_body = (f"SELECT {', '.join(left_cols)} "
                     f"FROM {self.derived(left_sql)} AS {left_alias}")
        right_body = (f"SELECT "
                      f"{', '.join(f'{r} AS {l}' for l, r in zip(left_cols, right_cols))} "
                      f"FROM {self.derived(right_sql)} AS {right_alias}")
        word = node.kind.upper() + (" ALL" if node.all else "")
        colmap = {attr: left_map[attr] for attr in node.left.attrs}
        return self.dialect.compound(left_body, right_body, word), colmap

    def _gen_aggregation(self, node: op.Aggregation):
        sql, child_map = self.gen(node.child)
        alias = self.fresh("t")
        colmap: Dict[str, str] = {}
        pieces: List[str] = []
        group_texts: List[str] = []
        for expr, name in zip(node.group_exprs, node.group_names):
            text = format_expr(_remap(expr, child_map, self))
            flat = self.fresh("c")
            colmap[name] = flat
            pieces.append(f"{text} AS {flat}")
            group_texts.append(text)
        for spec in node.aggregates:
            flat = self.fresh("c")
            colmap[spec.name] = flat
            if spec.expr is None:
                call = "COUNT(*)"
            else:
                arg = format_expr(_remap(spec.expr, child_map, self))
                distinct = "DISTINCT " if spec.distinct else ""
                call = f"{spec.func}({distinct}{arg})"
            pieces.append(f"{call} AS {flat}")
        sql_text = (f"SELECT {', '.join(pieces)} "
                    f"FROM {self.derived(sql)} AS {alias}")
        if group_texts:
            sql_text += f" GROUP BY {', '.join(group_texts)}"
        return sql_text, colmap

    def _gen_orderby(self, node: op.OrderBy):
        sql, colmap = self.gen(node.child)
        alias = self.fresh("t")
        pieces = []
        for expr, ascending in node.items:
            text = format_expr(_remap(expr, colmap, self))
            if not ascending:
                text += " DESC"
            pieces.append(text)
        return (f"SELECT * FROM {self.derived(sql)} AS {alias} "
                f"ORDER BY {', '.join(pieces)}", colmap)


def _remap(expr: Expr, colmap: Dict[str, str],
           gen: Optional["_Generator"] = None) -> Expr:
    """Rewrite resolved column keys to the flat names of generated SQL.

    Correlated subquery plans are rewritten too: their free references to
    outer attributes must point at the outer query's flat names, since
    those are the only names in scope in the generated text.  When a
    generator is supplied the subquery is rendered immediately *with the
    same name counter*, so inner aliases can never shadow the outer flat
    names the correlation refers to.
    """
    from repro.algebra.expressions import SubqueryExpr

    def visit(node: Expr) -> Expr:
        if isinstance(node, Column):
            key = node.key or node.display
            if key in colmap:
                return Column(name=colmap[key], key=colmap[key])
        if isinstance(node, SubqueryExpr) and node.plan is not None:
            if gen is not None:
                return _render_subquery(node, colmap, gen)
            return SubqueryExpr(node.kind, node.query, node.operand,
                                node.negated,
                                _remap_plan(node.plan, colmap),
                                node.correlated)
        return node

    return transform(expr, visit)


def _render_subquery(node, colmap: Dict[str, str],
                     gen: "_Generator") -> Expr:
    from repro.algebra.expressions import RawSQL
    # a correlated body refers to outer flat names: remap them, and
    # suppress CTE hoisting for everything rendered inside it.  An
    # uncorrelated plan outside such a body is a node like any other.
    inline = node.correlated or gen._subquery_depth > 0
    plan = _remap_plan(node.plan, colmap) if inline else node.plan
    gen._subquery_depth += inline
    try:
        body, submap = gen.gen(plan)
        alias = gen.fresh("t")
        columns = ", ".join(submap[a] for a in plan.attrs)
        sub_sql = f"SELECT {columns} FROM ({body}) AS {alias}"
    finally:
        gen._subquery_depth -= inline
    if node.kind == "EXISTS":
        word = "NOT EXISTS" if node.negated else "EXISTS"
        return RawSQL(f"{word} ({sub_sql})")
    if node.kind == "SCALAR":
        return RawSQL(f"({sub_sql})")
    if node.kind == "IN":
        operand = format_expr(_remap(node.operand, colmap, gen), 100)
        word = "NOT IN" if node.negated else "IN"
        return RawSQL(f"{operand} {word} ({sub_sql})")
    raise ReproError(f"unknown subquery kind {node.kind!r}")


def _referrers(plan: op.Operator) -> Counter:
    """Per node ``id``, how many references print it: child edges plus
    the uncorrelated subqueries whose plan it is, over the DAG under
    ``plan`` and those subquery plans."""
    refs: Counter = Counter()
    seen: Set[int] = set()
    stack = [plan]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        inputs = node.children() + [
            sub.plan for expr in node.expressions() for sub in walk(expr)
            if isinstance(sub, SubqueryExpr) and sub.plan is not None
            and not sub.correlated]
        refs.update(id(child) for child in inputs)
        stack.extend(inputs)
    return refs


def _remap_plan(plan: op.Operator, colmap: Dict[str, str]) -> op.Operator:
    """``plan`` with ``_remap`` applied to its *free* expressions — only
    columns the plan does not produce itself are correlated references
    that need renaming to the outer query's flat names."""
    available = set()
    for child in plan.children():
        available.update(child.attrs)
    local = {key: flat for key, flat in colmap.items()
             if key not in available}
    if local:
        plan = plan.map_expressions(lambda expr: _remap(expr, local))
    return plan.with_children(
        [_remap_plan(child, colmap) for child in plan.children()])


def generate_sql(plan: op.Operator,
                 dialect: Optional[Dialect] = None) -> str:
    """Print a plan as a single SQL query whose output columns are the
    plan's attributes (short names, in order).  ``dialect`` selects the
    target syntax; the default is the repo's native dialect."""
    generator = _Generator(dialect, plan)
    body, colmap = generator.gen(plan)
    outer_alias = generator.fresh("t")
    pieces = []
    seen: Dict[str, int] = {}
    for attr in plan.attrs:
        short = attr.rsplit(".", 1)[-1]
        if short in seen:
            seen[short] += 1
            short = f"{short}_{seen[short]}"
        else:
            seen[short] = 0
        pieces.append(f"{colmap[attr]} AS "
                      f"{generator.dialect.quote(short)}")
    text = f"SELECT {', '.join(pieces)} FROM ({body}) AS {outer_alias}"
    items = [generator.dialect.cte_item(name, cte_body, shared=True)
             for name, cte_body in generator.shared_ctes]
    items = [item for item in items if item is not None]
    if generator.ctes:
        items.append(generator._with_items(generator.ctes))
    if items:
        text = f"WITH {', '.join(items)} {text}"
    return text


# ---------------------------------------------------------------------------
# Plan explanation (debugging / middleware artifacts)
# ---------------------------------------------------------------------------

def explain(plan: op.Operator, indent: int = 0) -> str:
    """Human-readable operator tree."""
    pad = "  " * indent
    if isinstance(plan, op.TableScan):
        extra = f" AS OF {format_expr(plan.as_of)}" if plan.as_of else ""
        ann = f" +{','.join(plan.annotations)}" if plan.annotations else ""
        line = f"{pad}TableScan({plan.table} as {plan.binding}{extra}{ann})"
        return line
    if isinstance(plan, op.ConstRel):
        return f"{pad}ConstRel({len(plan.rows)} rows: {plan.names})"
    if isinstance(plan, op.Selection):
        head = f"{pad}Selection({format_expr(plan.condition)})"
    elif isinstance(plan, op.Projection):
        items = ", ".join(f"{format_expr(e)} AS {n}"
                          for e, n in zip(plan.exprs, plan.names))
        if len(items) > 120:
            items = items[:117] + "..."
        head = f"{pad}Projection({items})"
    elif isinstance(plan, op.Join):
        cond = format_expr(plan.condition) if plan.condition else "TRUE"
        head = f"{pad}Join[{plan.kind}]({cond})"
    elif isinstance(plan, op.Aggregation):
        groups = ", ".join(format_expr(g) for g in plan.group_exprs)
        aggs = ", ".join(
            f"{a.func}({format_expr(a.expr) if a.expr else '*'})"
            for a in plan.aggregates)
        head = f"{pad}Aggregation(groups=[{groups}], aggs=[{aggs}])"
    elif isinstance(plan, op.Distinct):
        head = f"{pad}Distinct"
    elif isinstance(plan, op.SetOp):
        head = f"{pad}SetOp[{plan.kind}{' all' if plan.all else ''}]"
    elif isinstance(plan, op.OrderBy):
        head = f"{pad}OrderBy"
    elif isinstance(plan, op.Limit):
        head = f"{pad}Limit({format_expr(plan.count)})"
    elif isinstance(plan, op.AnnotateRowId):
        head = f"{pad}AnnotateRowId({plan.name}, seed={plan.seed})"
    else:
        head = f"{pad}{type(plan).__name__}"
    lines = [head]
    for child in plan.children():
        lines.append(explain(child, indent + 1))
    return "\n".join(lines)
