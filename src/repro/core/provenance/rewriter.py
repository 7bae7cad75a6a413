"""Perm-style provenance instrumentation of query plans.

``PROVENANCE OF (q)`` (Fig. 5) is answered by rewriting the plan of
``q`` so that every output row carries, in additional
``prov_<table>_<attr>`` columns, the values (and rowid) of the input
rows it was derived from — GProM's relational encoding of provenance
(PI-CS semantics from the Perm lineage of work):

* scans copy their data columns into provenance columns;
* selection/projection/order/limit pass provenance through;
* joins concatenate the provenance of both sides;
* aggregation joins the aggregated result back to the (rewritten) input
  on the group-by values (null-safe), so each group row is paired with
  every contributing input row;
* union pads the provenance columns of the other branch with NULLs;
* intersection/difference keep the provenance of the left input;
* DISTINCT is dropped — duplicates are meaningful under provenance
  semantics (each duplicate carries different provenance).

The rewriter's output is a plain relational plan: it can be printed to
SQL by the code generator and executed on the backend, exactly as in the
paper's pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.algebra import operators as op
from repro.algebra.expressions import (BinaryOp, Column, Expr, IsNull,
                                       Literal, conjunction)
from repro.errors import ReproError


@dataclass
class ProvenanceAttribute:
    """Metadata about one provenance column in the rewritten output."""

    name: str         #: attribute key in the rewritten plan
    table: str        #: base table it came from
    column: str       #: base column (or "rowid")
    scan_index: int   #: disambiguates multiple scans of the same table


@dataclass
class RewriteResult:
    plan: op.Operator
    prov_attrs: List[ProvenanceAttribute] = field(default_factory=list)

    @property
    def prov_names(self) -> List[str]:
        return [a.name for a in self.prov_attrs]


class ProvenanceRewriter:
    """Instruments plans for provenance capture."""

    def __init__(self):
        self._scan_counters: Dict[str, int] = {}
        self._join_counter = 0

    def rewrite(self, plan: op.Operator) -> RewriteResult:
        return self._rewrite(plan)

    # -- dispatch -----------------------------------------------------------

    def _rewrite(self, plan: op.Operator) -> RewriteResult:
        if isinstance(plan, op.TableScan):
            return self._rewrite_scan(plan)
        if isinstance(plan, op.ConstRel):
            return RewriteResult(plan, [])
        if isinstance(plan, op.Selection):
            child = self._rewrite(plan.child)
            return RewriteResult(
                op.Selection(child.plan, plan.condition),
                child.prov_attrs)
        if isinstance(plan, op.Projection):
            child = self._rewrite(plan.child)
            exprs = list(plan.exprs)
            names = list(plan.names)
            for attr in child.prov_attrs:
                exprs.append(Column(name=attr.name, key=attr.name))
                names.append(attr.name)
            return RewriteResult(
                op.Projection(child.plan, exprs, names),
                child.prov_attrs)
        if isinstance(plan, op.Join):
            return self._rewrite_join(plan)
        if isinstance(plan, op.Aggregation):
            return self._rewrite_aggregation(plan)
        if isinstance(plan, op.Distinct):
            # duplicates carry distinct provenance — drop the Distinct
            return self._rewrite(plan.child)
        if isinstance(plan, op.SetOp):
            return self._rewrite_setop(plan)
        if isinstance(plan, op.OrderBy):
            child = self._rewrite(plan.child)
            return RewriteResult(op.OrderBy(child.plan, plan.items),
                                 child.prov_attrs)
        if isinstance(plan, op.Limit):
            child = self._rewrite(plan.child)
            return RewriteResult(op.Limit(child.plan, plan.count),
                                 child.prov_attrs)
        if isinstance(plan, op.AnnotateRowId):
            child = self._rewrite(plan.child)
            return RewriteResult(
                op.AnnotateRowId(child.plan, plan.name, plan.seed),
                child.prov_attrs)
        raise ReproError(f"cannot rewrite operator {plan!r} "
                         f"for provenance")

    # -- leaves ----------------------------------------------------------------

    def _rewrite_scan(self, scan: op.TableScan) -> RewriteResult:
        index = self._scan_counters.get(scan.table, 0)
        self._scan_counters[scan.table] = index + 1
        suffix = "" if index == 0 else f"_{index}"

        annotations = tuple(
            dict.fromkeys(scan.annotations + (op.ANNOT_ROWID,)))
        new_scan = op.TableScan(table=scan.table,
                                columns=list(scan.columns),
                                binding=scan.binding, as_of=scan.as_of,
                                annotations=annotations)
        exprs: List[Expr] = []
        names: List[str] = []
        for attr in scan.attrs:  # original outputs, unchanged
            exprs.append(Column(name=attr.rsplit(".", 1)[-1], key=attr))
            names.append(attr)
        prov_attrs: List[ProvenanceAttribute] = []
        for column in scan.columns:
            name = f"prov_{scan.table}{suffix}_{column}"
            exprs.append(Column(name=column,
                                key=f"{scan.binding}.{column}"))
            names.append(name)
            prov_attrs.append(ProvenanceAttribute(
                name=name, table=scan.table, column=column,
                scan_index=index))
        rowid_name = f"prov_{scan.table}{suffix}_rowid"
        exprs.append(Column(name=op.ROWID_SUFFIX,
                            key=f"{scan.binding}.{op.ROWID_SUFFIX}"))
        names.append(rowid_name)
        prov_attrs.append(ProvenanceAttribute(
            name=rowid_name, table=scan.table, column="rowid",
            scan_index=index))
        return RewriteResult(op.Projection(new_scan, exprs, names),
                             prov_attrs)

    # -- binary operators -----------------------------------------------------------

    def _rewrite_join(self, join: op.Join) -> RewriteResult:
        if join.kind in ("semi", "anti"):
            # only left rows appear in the output; the right side is a
            # filter and contributes no provenance (PI-CS)
            left = self._rewrite(join.left)
            return RewriteResult(
                op.Join(left.plan, join.right, join.kind, join.condition),
                left.prov_attrs)
        left = self._rewrite(join.left)
        right = self._rewrite(join.right)
        return RewriteResult(
            op.Join(left.plan, right.plan, join.kind, join.condition),
            left.prov_attrs + right.prov_attrs)

    def _rewrite_setop(self, setop: op.SetOp) -> RewriteResult:
        if setop.kind == "union":
            left = self._rewrite(setop.left)
            right = self._rewrite(setop.right)
            left_data = setop.left.attrs
            right_data = setop.right.attrs
            # pad each side with NULLs for the other side's prov columns
            left_exprs: List[Expr] = [
                Column(name=a.rsplit(".", 1)[-1], key=a)
                for a in left_data]
            left_names = list(left_data)
            right_exprs: List[Expr] = [
                Column(name=a.rsplit(".", 1)[-1], key=a)
                for a in right_data]
            right_names = list(left_data)  # align with left naming
            for attr in left.prov_attrs:
                left_exprs.append(Column(name=attr.name, key=attr.name))
                left_names.append(attr.name)
                right_exprs.append(Literal(None))
                right_names.append(attr.name)
            for attr in right.prov_attrs:
                left_exprs.append(Literal(None))
                left_names.append(attr.name)
                right_exprs.append(Column(name=attr.name, key=attr.name))
                right_names.append(attr.name)
            padded_left = op.Projection(left.plan, left_exprs, left_names)
            padded_right = op.Projection(right.plan, right_exprs,
                                         right_names)
            return RewriteResult(
                op.SetOp("union", padded_left, padded_right, all=True),
                left.prov_attrs + right.prov_attrs)
        # intersect / except: result rows come from the left input;
        # re-derive their provenance by joining the plain set-op result
        # with the rewritten left input on (null-safe) data equality.
        left = self._rewrite(setop.left)
        renamed_attrs = [f"__set{self._next_join()}_{i}"
                         for i in range(len(setop.attrs))]
        renamed = op.Projection(
            setop,
            [Column(name=a.rsplit(".", 1)[-1], key=a)
             for a in setop.attrs],
            renamed_attrs)
        condition = self._nullsafe_pairs(
            renamed_attrs, list(setop.left.attrs))
        joined = op.Join(renamed, left.plan, "inner", condition)
        out_exprs: List[Expr] = [Column(name=a, key=a)
                                 for a in renamed_attrs]
        out_names = list(setop.left.attrs)
        for attr in left.prov_attrs:
            out_exprs.append(Column(name=attr.name, key=attr.name))
            out_names.append(attr.name)
        return RewriteResult(op.Projection(joined, out_exprs, out_names),
                             left.prov_attrs)

    def _next_join(self) -> int:
        self._join_counter += 1
        return self._join_counter

    @staticmethod
    def _nullsafe_pairs(left_keys: List[str],
                        right_keys: List[str]) -> Expr:
        parts = []
        for lk, rk in zip(left_keys, right_keys):
            lcol = Column(name=lk.rsplit(".", 1)[-1], key=lk)
            rcol = Column(name=rk.rsplit(".", 1)[-1], key=rk)
            equal = BinaryOp("=", lcol, rcol)
            both_null = BinaryOp("AND", IsNull(lcol), IsNull(rcol))
            parts.append(BinaryOp("OR", equal, both_null))
        return conjunction(parts) or Literal(True)

    # -- aggregation ---------------------------------------------------------------

    def _rewrite_aggregation(self, agg: op.Aggregation) -> RewriteResult:
        child = self._rewrite(agg.child)
        # the aggregation itself runs over the *plain* child: ``agg``
        # as it is, referenced from the join beside the rewritten child
        if not agg.group_exprs:
            # global aggregate: every input row is provenance
            joined = op.Join(agg, child.plan, "cross")
        else:
            join_id = self._next_join()
            group_names = [f"__g{join_id}_{i}"
                           for i in range(len(agg.group_exprs))]
            prov_side_exprs: List[Expr] = list(agg.group_exprs)
            prov_side_names = list(group_names)
            for attr in child.prov_attrs:
                prov_side_exprs.append(Column(name=attr.name,
                                              key=attr.name))
                prov_side_names.append(attr.name)
            prov_side = op.Projection(child.plan, prov_side_exprs,
                                      prov_side_names)
            condition = self._nullsafe_pairs(list(agg.group_names),
                                             group_names)
            joined = op.Join(agg, prov_side, "inner", condition)
        out_exprs: List[Expr] = [
            Column(name=a.rsplit(".", 1)[-1], key=a)
            for a in agg.attrs]
        out_names = list(agg.attrs)
        for attr in child.prov_attrs:
            out_exprs.append(Column(name=attr.name, key=attr.name))
            out_names.append(attr.name)
        return RewriteResult(op.Projection(joined, out_exprs, out_names),
                             child.prov_attrs)
