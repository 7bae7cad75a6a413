"""Relational algebra operators.

The algebra graph is GProM's intermediate language (Fig. 5): the
translator produces it from SQL, the provenance rewriter and the
reenactor transform it, the optimizer rewrites it, and it is either
interpreted directly (:mod:`repro.algebra.evaluator`) or printed back to
SQL (:mod:`repro.algebra.sqlgen`).

Attribute naming convention: scan outputs are qualified
``"<binding>.<column>"`` keys; projections introduce the (plain) output
names.  Annotation attributes used by reenactment and provenance carry
dunder-ish names (``__rowid__``, ``__xid__``, ``__upd__``) and are
stripped before results reach users.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.algebra.expressions import Expr
from repro.errors import AnalysisError

#: Annotation flags a TableScan can expose.
ANNOT_ROWID = "rowid"    # physical row identity
ANNOT_XID = "xid"        # xid of the transaction that created the version

ROWID_SUFFIX = "__rowid__"
XID_SUFFIX = "__xid__"
UPD_FLAG = "__upd__"     # updated-by-reenacted-transaction flag
DEL_FLAG = "__del__"     # deleted-by-reenacted-transaction flag


class Operator:
    """Base class; subclasses define ``children`` and ``attrs``."""

    def children(self) -> List["Operator"]:
        return []

    def replace_children(self, new_children: List["Operator"]) -> None:
        raise NotImplementedError

    @property
    def attrs(self) -> List[str]:
        raise NotImplementedError

    def __str__(self) -> str:
        from repro.algebra.sqlgen import explain
        return explain(self)


@dataclass
class TableScan(Operator):
    """Access a base table, optionally at a past point in time.

    ``as_of`` is an expression (usually a literal timestamp) selecting a
    committed snapshot — the engine's time travel (challenge C2).  When
    ``None`` the scan sees the executing transaction's view.
    """

    table: str
    columns: List[str]
    binding: str
    as_of: Optional[Expr] = None
    annotations: Tuple[str, ...] = ()

    def children(self) -> List[Operator]:
        return []

    def replace_children(self, new_children: List[Operator]) -> None:
        if new_children:
            raise AnalysisError("TableScan has no children")

    @property
    def attrs(self) -> List[str]:
        out = [f"{self.binding}.{c}" for c in self.columns]
        if ANNOT_ROWID in self.annotations:
            out.append(f"{self.binding}.{ROWID_SUFFIX}")
        if ANNOT_XID in self.annotations:
            out.append(f"{self.binding}.{XID_SUFFIX}")
        return out


@dataclass
class ConstRel(Operator):
    """Constant relation: rows of expressions (VALUES / reenacted
    INSERT ... VALUES)."""

    rows: List[List[Expr]]
    names: List[str]

    def children(self) -> List[Operator]:
        return []

    def replace_children(self, new_children: List[Operator]) -> None:
        if new_children:
            raise AnalysisError("ConstRel has no children")

    @property
    def attrs(self) -> List[str]:
        return list(self.names)


@dataclass
class Selection(Operator):
    child: Operator
    condition: Expr

    def children(self) -> List[Operator]:
        return [self.child]

    def replace_children(self, new_children: List[Operator]) -> None:
        (self.child,) = new_children

    @property
    def attrs(self) -> List[str]:
        return self.child.attrs


@dataclass
class Projection(Operator):
    child: Operator
    exprs: List[Expr]
    names: List[str]

    def __post_init__(self):
        if len(self.exprs) != len(self.names):
            raise AnalysisError("projection exprs/names length mismatch")

    def children(self) -> List[Operator]:
        return [self.child]

    def replace_children(self, new_children: List[Operator]) -> None:
        (self.child,) = new_children

    @property
    def attrs(self) -> List[str]:
        return list(self.names)


JOIN_KINDS = ("inner", "left", "cross", "semi", "anti")


@dataclass
class Join(Operator):
    """Join of two inputs.

    ``semi``/``anti`` output only left attributes; ``anti`` keeps left
    rows with *no* match — the shape reenactment uses to merge
    READ COMMITTED statement snapshots with the transaction's own chain.
    """

    left: Operator
    right: Operator
    kind: str = "inner"
    condition: Optional[Expr] = None

    def __post_init__(self):
        if self.kind not in JOIN_KINDS:
            raise AnalysisError(f"unknown join kind {self.kind!r}")

    def children(self) -> List[Operator]:
        return [self.left, self.right]

    def replace_children(self, new_children: List[Operator]) -> None:
        self.left, self.right = new_children

    @property
    def attrs(self) -> List[str]:
        if self.kind in ("semi", "anti"):
            return self.left.attrs
        return self.left.attrs + self.right.attrs


@dataclass
class AggSpec:
    """One aggregate: ``func(expr)`` named ``name`` in the output."""

    func: str                  # COUNT / SUM / AVG / MIN / MAX
    expr: Optional[Expr]       # None means COUNT(*)
    name: str
    distinct: bool = False


@dataclass
class Aggregation(Operator):
    child: Operator
    group_exprs: List[Expr]
    group_names: List[str]
    aggregates: List[AggSpec]

    def children(self) -> List[Operator]:
        return [self.child]

    def replace_children(self, new_children: List[Operator]) -> None:
        (self.child,) = new_children

    @property
    def attrs(self) -> List[str]:
        return list(self.group_names) + [a.name for a in self.aggregates]


@dataclass
class Distinct(Operator):
    child: Operator

    def children(self) -> List[Operator]:
        return [self.child]

    def replace_children(self, new_children: List[Operator]) -> None:
        (self.child,) = new_children

    @property
    def attrs(self) -> List[str]:
        return self.child.attrs


SETOP_KINDS = ("union", "intersect", "except")


@dataclass
class SetOp(Operator):
    kind: str
    left: Operator
    right: Operator
    all: bool = False

    def __post_init__(self):
        if self.kind not in SETOP_KINDS:
            raise AnalysisError(f"unknown set operation {self.kind!r}")

    def children(self) -> List[Operator]:
        return [self.left, self.right]

    def replace_children(self, new_children: List[Operator]) -> None:
        self.left, self.right = new_children

    @property
    def attrs(self) -> List[str]:
        return self.left.attrs


@dataclass
class OrderBy(Operator):
    child: Operator
    items: List[Tuple[Expr, bool]]  # (expr, ascending)

    def children(self) -> List[Operator]:
        return [self.child]

    def replace_children(self, new_children: List[Operator]) -> None:
        (self.child,) = new_children

    @property
    def attrs(self) -> List[str]:
        return self.child.attrs


@dataclass
class Limit(Operator):
    child: Operator
    count: Expr

    def children(self) -> List[Operator]:
        return [self.child]

    def replace_children(self, new_children: List[Operator]) -> None:
        (self.child,) = new_children

    @property
    def attrs(self) -> List[str]:
        return self.child.attrs


@dataclass
class AnnotateRowId(Operator):
    """Append a synthetic rowid column.

    Reenacted ``INSERT`` statements need row identities for rows that did
    not exist in the base snapshot.  Ids are deterministic in evaluation
    order and scoped by ``seed`` (the statement index) so that prefix
    reenactments of the same transaction assign identical ids to the same
    inserted rows (DESIGN.md §4.5).
    """

    child: Operator
    name: str
    seed: int = 0

    def children(self) -> List[Operator]:
        return [self.child]

    def replace_children(self, new_children: List[Operator]) -> None:
        (self.child,) = new_children

    @property
    def attrs(self) -> List[str]:
        return self.child.attrs + [self.name]


# ---------------------------------------------------------------------------
# Tree utilities
# ---------------------------------------------------------------------------

def walk_plan(op: Operator):
    """Pre-order iteration over the operator tree."""
    yield op
    for child in op.children():
        yield from walk_plan(child)


def plan_tables(op: Operator) -> List[str]:
    """Base tables accessed by a plan, in scan order."""
    out: List[str] = []
    for node in walk_plan(op):
        if isinstance(node, TableScan) and node.table not in out:
            out.append(node.table)
    return out


def transform_plan(op: Operator, fn) -> Operator:
    """Bottom-up plan rewrite: children first, then ``fn`` on the node.
    A child counts as rewritten when ``fn`` returned another object —
    dataclass ``==`` would compare whole subtrees at every level."""
    children = op.children()
    new_children = [transform_plan(c, fn) for c in children]
    if any(new is not old for new, old in zip(new_children, children)):
        op.replace_children(new_children)
    return fn(op)
