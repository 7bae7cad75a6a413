"""Relational algebra operators.

The algebra graph is GProM's intermediate language (Fig. 5): the
translator produces it from SQL, the provenance rewriter, the reenactor
and the optimizer each build a new graph from it, and it is either
interpreted directly (:mod:`repro.algebra.evaluator`) or printed back to
SQL (:mod:`repro.algebra.sqlgen`).

Plans are values: every operator is a frozen dataclass, so a node can be
held, compared and referenced from more than one parent.  A class names
its child fields (``CHILDREN``) and its expression-bearing fields
(``EXPRS``) once; :meth:`Operator.children`, :meth:`Operator.with_children`,
:meth:`Operator.expressions` and :meth:`Operator.map_expressions` are
derived from that, and both rebuilders return ``self`` when nothing
changed.  List-typed fields and the expressions in them are immutable
by contract — nothing assigns to them after construction.

Attribute naming convention: scan outputs are qualified
``"<binding>.<column>"`` keys; projections introduce the (plain) output
names.  Annotation attributes used by reenactment and provenance carry
dunder-ish names (``__rowid__``, ``__xid__``, ``__upd__``) and are
stripped before results reach users.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar, Dict, List, Optional, Tuple

from repro.algebra.expressions import Expr
from repro.errors import AnalysisError

#: Annotation flags a TableScan can expose.
ANNOT_ROWID = "rowid"    # physical row identity
ANNOT_XID = "xid"        # xid of the transaction that created the version

ROWID_SUFFIX = "__rowid__"
XID_SUFFIX = "__xid__"
UPD_FLAG = "__upd__"     # updated-by-reenacted-transaction flag
DEL_FLAG = "__del__"     # deleted-by-reenacted-transaction flag


@dataclass(frozen=True)
class AggSpec:
    """One aggregate: ``func(expr)`` named ``name`` in the output."""

    func: str                  # COUNT / SUM / AVG / MIN / MAX
    expr: Optional[Expr]       # None means COUNT(*)
    name: str
    distinct: bool = False


def _exprs_in(value, out: List[Expr]) -> List[Expr]:
    """``out`` plus the expressions held by one ``EXPRS`` field value,
    whatever its shape: an expression, ``None``, an :class:`AggSpec`,
    or lists and tuples of those (``(expr, ascending)`` order items
    included)."""
    if isinstance(value, Expr):
        out.append(value)
    elif isinstance(value, (list, tuple)):
        for item in value:
            if isinstance(item, Expr):  # a projection list, mostly
                out.append(item)
            else:
                _exprs_in(item, out)
    elif isinstance(value, AggSpec) and value.expr is not None:
        out.append(value.expr)
    return out


def _map_exprs(value, fn):
    """``value`` with ``fn`` applied to every expression
    :func:`_exprs_in` finds; ``value`` itself when ``fn`` returned each
    of them unchanged."""
    if isinstance(value, Expr):
        return fn(value)
    if isinstance(value, AggSpec):
        if value.expr is None:
            return value
        expr = fn(value.expr)
        return value if expr is value.expr else replace(value, expr=expr)
    if isinstance(value, (list, tuple)):
        items = [_map_exprs(item, fn) for item in value]
        if all(new is old for new, old in zip(items, value)):
            return value
        return type(value)(items)
    return value


class Operator:
    """Base class; subclasses are frozen dataclasses that name their
    child fields in ``CHILDREN`` and their expression-bearing fields in
    ``EXPRS``, and define ``attrs``."""

    CHILDREN: ClassVar[Tuple[str, ...]] = ()
    EXPRS: ClassVar[Tuple[str, ...]] = ()

    def children(self) -> List["Operator"]:
        return [getattr(self, name) for name in self.CHILDREN]

    def with_children(self, new_children: List["Operator"]) -> "Operator":
        """This node over ``new_children`` — ``self`` if they are the
        children it already has."""
        if len(new_children) != len(self.CHILDREN):
            raise AnalysisError(
                f"{type(self).__name__} has {len(self.CHILDREN)} "
                f"children, got {len(new_children)}")
        return self._with({name: new
                           for name, new in zip(self.CHILDREN, new_children)
                           if new is not getattr(self, name)})

    def expressions(self) -> List[Expr]:
        """All scalar expressions owned directly by this operator."""
        out: List[Expr] = []
        for name in self.EXPRS:
            _exprs_in(getattr(self, name), out)
        return out

    def map_expressions(self, fn) -> "Operator":
        """This node with ``fn`` applied to each of its expressions —
        ``self`` if ``fn`` returned every one of them unchanged."""
        changed = {}
        for name in self.EXPRS:
            old = getattr(self, name)
            new = _map_exprs(old, fn)
            if new is not old:
                changed[name] = new
        return self._with(changed)

    def _with(self, changed: dict) -> "Operator":
        return replace(self, **changed) if changed else self

    @property
    def attrs(self) -> List[str]:
        raise NotImplementedError

    def __str__(self) -> str:
        from repro.algebra.sqlgen import explain
        return explain(self)


@dataclass(frozen=True)
class TableScan(Operator):
    """Access a base table, optionally at a past point in time.

    ``as_of`` is an expression (usually a literal timestamp) selecting a
    committed snapshot — the engine's time travel (challenge C2).  When
    ``None`` the scan sees the executing transaction's view.
    """

    EXPRS = ("as_of",)

    table: str
    columns: List[str]
    binding: str
    as_of: Optional[Expr] = None
    annotations: Tuple[str, ...] = ()

    @property
    def attrs(self) -> List[str]:
        out = [f"{self.binding}.{c}" for c in self.columns]
        if ANNOT_ROWID in self.annotations:
            out.append(f"{self.binding}.{ROWID_SUFFIX}")
        if ANNOT_XID in self.annotations:
            out.append(f"{self.binding}.{XID_SUFFIX}")
        return out


@dataclass(frozen=True)
class ConstRel(Operator):
    """Constant relation: rows of expressions (VALUES / reenacted
    INSERT ... VALUES)."""

    EXPRS = ("rows",)

    rows: List[List[Expr]]
    names: List[str]

    @property
    def attrs(self) -> List[str]:
        return list(self.names)


@dataclass(frozen=True)
class Selection(Operator):
    CHILDREN = ("child",)
    EXPRS = ("condition",)

    child: Operator
    condition: Expr

    @property
    def attrs(self) -> List[str]:
        return self.child.attrs


@dataclass(frozen=True)
class Projection(Operator):
    CHILDREN = ("child",)
    EXPRS = ("exprs",)

    child: Operator
    exprs: List[Expr]
    names: List[str]

    def __post_init__(self):
        if len(self.exprs) != len(self.names):
            raise AnalysisError("projection exprs/names length mismatch")

    @property
    def attrs(self) -> List[str]:
        return list(self.names)


JOIN_KINDS = ("inner", "left", "cross", "semi", "anti")


@dataclass(frozen=True)
class Join(Operator):
    """Join of two inputs.

    ``semi``/``anti`` output only left attributes; ``anti`` keeps left
    rows with *no* match — the shape reenactment uses to merge
    READ COMMITTED statement snapshots with the transaction's own chain.
    """

    CHILDREN = ("left", "right")
    EXPRS = ("condition",)

    left: Operator
    right: Operator
    kind: str = "inner"
    condition: Optional[Expr] = None

    def __post_init__(self):
        if self.kind not in JOIN_KINDS:
            raise AnalysisError(f"unknown join kind {self.kind!r}")

    @property
    def attrs(self) -> List[str]:
        if self.kind in ("semi", "anti"):
            return self.left.attrs
        return self.left.attrs + self.right.attrs


@dataclass(frozen=True)
class Aggregation(Operator):
    CHILDREN = ("child",)
    EXPRS = ("group_exprs", "aggregates")

    child: Operator
    group_exprs: List[Expr]
    group_names: List[str]
    aggregates: List[AggSpec]

    @property
    def attrs(self) -> List[str]:
        return list(self.group_names) + [a.name for a in self.aggregates]


@dataclass(frozen=True)
class Distinct(Operator):
    CHILDREN = ("child",)

    child: Operator

    @property
    def attrs(self) -> List[str]:
        return self.child.attrs


SETOP_KINDS = ("union", "intersect", "except")


@dataclass(frozen=True)
class SetOp(Operator):
    CHILDREN = ("left", "right")

    kind: str
    left: Operator
    right: Operator
    all: bool = False

    def __post_init__(self):
        if self.kind not in SETOP_KINDS:
            raise AnalysisError(f"unknown set operation {self.kind!r}")

    @property
    def attrs(self) -> List[str]:
        return self.left.attrs


@dataclass(frozen=True)
class OrderBy(Operator):
    CHILDREN = ("child",)
    EXPRS = ("items",)

    child: Operator
    items: List[Tuple[Expr, bool]]  # (expr, ascending)

    @property
    def attrs(self) -> List[str]:
        return self.child.attrs


@dataclass(frozen=True)
class Limit(Operator):
    CHILDREN = ("child",)
    EXPRS = ("count",)

    child: Operator
    count: Expr

    @property
    def attrs(self) -> List[str]:
        return self.child.attrs


@dataclass(frozen=True)
class AnnotateRowId(Operator):
    """Append a synthetic rowid column.

    Reenacted ``INSERT`` statements need row identities for rows that did
    not exist in the base snapshot.  Ids are deterministic in evaluation
    order and scoped by ``seed`` (the statement index) so that prefix
    reenactments of the same transaction assign identical ids to the same
    inserted rows (DESIGN.md §4.5).
    """

    CHILDREN = ("child",)

    child: Operator
    name: str
    seed: int = 0

    @property
    def attrs(self) -> List[str]:
        return self.child.attrs + [self.name]


# ---------------------------------------------------------------------------
# Tree utilities
# ---------------------------------------------------------------------------

def walk_plan(*roots: Operator):
    """Pre-order iteration over the distinct nodes of the plan DAG under
    ``roots`` (a node referenced twice is visited once)."""
    seen = set()
    stack = list(reversed(roots))
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node
        stack.extend(reversed(node.children()))


def plan_tables(op: Operator) -> List[str]:
    """Base tables accessed by a plan, in scan order."""
    out: List[str] = []
    for node in walk_plan(op):
        if isinstance(node, TableScan) and node.table not in out:
            out.append(node.table)
    return out


def transform_plan(op: Operator, fn) -> Operator:
    """Bottom-up plan rewrite: children first, then ``fn`` on the node
    over its rewritten children.  Pure — ``op`` is left as it was, and
    a subtree ``fn`` changed nothing in comes back as the same object.
    Each node is rewritten once, memoised by identity, so a node shared
    by several parents stays one node shared by their rewrites."""
    done: Dict[int, Operator] = {}

    def visit(node: Operator) -> Operator:
        out = done.get(id(node))
        if out is None:
            changed = {}
            for name in node.CHILDREN:
                child = getattr(node, name)
                new = visit(child)
                if new is not child:
                    changed[name] = new
            out = done[id(node)] = fn(node._with(changed))
        return out

    return visit(op)
