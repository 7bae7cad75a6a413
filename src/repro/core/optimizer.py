"""Provenance-aware plan optimization (reference [5] of the paper).

Reenactment produces characteristically-shaped plans: deep stacks of
CASE projections (one per statement), selections for tombstone and
affected-row filtering, and annotation columns that are often not needed
downstream.  The paper credits "provenance-specific optimizations" for
reenacting transactions over millions of rows "within seconds" (§4).
This module implements the rules that matter for those shapes:

* **projection merging** (CASE composition) — collapses a k-statement
  reenactment chain into a bounded number of projection passes.  A size
  guard stops merging when substitution would blow the expression up
  (updated columns appear twice per CASE level, so unbounded merging is
  exponential);
* **selection pushdown** through projections and ``UNION ALL`` (a
  reenacted INSERT), as far as it goes in one visit, and **selection
  fusion** — what turns the affected-rows query into a filter on the
  scan;
* **identity-projection removal**;
* **dead-column pruning** — drops annotation and data columns that no
  ancestor needs, narrowing table scans (this is what makes
  ``annotations=False`` reenactment cheap);
* **constant folding** of the boolean/CASE skeletons substitution
  leaves behind.

Every rule can be disabled individually — the ablation benchmark (E6)
measures each rule's contribution.

The optimizer is pure: :meth:`ProvenanceOptimizer.optimize` leaves its
input as it was and builds new nodes only on the path to a change, so
the plan it is handed may be held (a trace's "rewritten" stage) or
share subtrees with other plans.  What it learns about a node — an
expression already folded, a merge or push already found too large —
lives in identity memos on the optimizer, never on the node.

Plans are DAGs — a READ COMMITTED chain reads the transaction's own
rows twice, the prefixes of one debug panel share one chain — and the
optimizer keeps them so: every pass rewrites each node once, memoised
by identity, and a node with more than one referrer is a *barrier*.
Everything below a barrier is rewritten once; no rule merges, pushes
or prunes through it, since each of its referrers would need a
different rewrite and the shared node would be computed once per
referrer again.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Set

from repro.algebra import operators as op
from repro.algebra.expressions import (BinaryOp, Case, Column, Expr,
                                       IsNull, Literal, SubqueryExpr,
                                       UnaryOp, columns_used, substitute,
                                       transform, walk)


@dataclass
class OptimizerConfig:
    merge_projections: bool = True
    push_selections: bool = True
    combine_selections: bool = True
    remove_identity: bool = True
    prune_columns: bool = True
    fold_constants: bool = True
    #: stop merging two projections when the merged expression tree
    #: would exceed this many nodes (guards against the exponential
    #: blow-up of composing CASE updates on the same column).
    merge_size_limit: int = 4000
    #: fixpoint iteration bound.
    max_passes: int = 10

    @classmethod
    def disabled(cls) -> "OptimizerConfig":
        return cls(merge_projections=False, push_selections=False,
                   combine_selections=False, remove_identity=False,
                   prune_columns=False, fold_constants=False)


def expr_size(expr: Expr) -> int:
    return sum(1 for _ in walk(expr))


def _column_ref_counts(exprs) -> Dict[str, int]:
    """How many times each resolved column key is referenced (with
    multiplicity — substitution duplicates the mapped expression once
    per reference)."""
    counts: Dict[str, int] = {}
    for expr in exprs:
        for node in walk(expr):
            if isinstance(node, Column):
                key = node.key or node.display
                counts[key] = counts.get(key, 0) + 1
    return counts


def _estimate_merged_size(outer_exprs, mapping: Dict[str, Expr]) -> int:
    """Size of ``substitute(outer, mapping)`` without performing the
    substitution: outer size plus (refs × (inner size − 1)) per mapped
    column.  Exact for tree-shaped expressions, which is what we have."""
    total = sum(expr_size(e) for e in outer_exprs)
    for name, count in _column_ref_counts(outer_exprs).items():
        if name in mapping:  # only what is referenced gets measured
            total += count * (expr_size(mapping[name]) - 1)
    return total


def expr_required_columns(expr: Expr) -> List[str]:
    """Columns an expression needs from its input, including the free
    (correlated) columns of any subquery plans it contains."""
    out = list(columns_used(expr))
    for node in walk(expr):
        if isinstance(node, SubqueryExpr) and node.plan is not None:
            from repro.algebra.translator import plan_free_columns
            for key in plan_free_columns(node.plan):
                if key not in out:
                    out.append(key)
    return out


def _contains_subquery(expr: Expr) -> bool:
    return any(isinstance(n, SubqueryExpr) for n in walk(expr))


def _shared(roots: List[op.Operator]) -> Set[int]:
    """``id`` of every node of the DAG under ``roots`` with more than
    one referrer — a parent's child field or a place in ``roots``."""
    seen: Set[int] = set()
    shared: Set[int] = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            shared.add(id(node))
        else:
            seen.add(id(node))
            stack.extend(node.children())
    return shared


class ProvenanceOptimizer:
    """Rule-driven plan optimizer."""

    def __init__(self, config: Optional[OptimizerConfig] = None):
        self.config = config or OptimizerConfig()
        self.rule_applications: Dict[str, int] = {}
        #: expressions :meth:`_fold` produced, by ``id`` (held, so no id
        #: is reused): folding is idempotent and expressions are never
        #: mutated, so a later pass skips what no rule has rebuilt since
        #: — the pass that only confirms the fixpoint folds nothing.
        self._folded: Dict[int, Expr] = {}
        #: selections :meth:`_push_selection` / projections
        #: :meth:`_merge_projections` estimated past ``merge_size_limit``,
        #: by ``id`` (held likewise): nodes are immutable, so the answer
        #: stands for as long as a pass meets the same node again.
        self._push_rejected: Dict[int, op.Operator] = {}
        self._merge_rejected: Dict[int, op.Operator] = {}
        #: ``id`` of the barriers — nodes with more than one referrer —
        #: of the plan being rewritten (see :meth:`_pass`), and the
        #: pruned form of each (see :meth:`_prune`).
        self._barriers: Set[int] = set()
        self._pruned: Dict[int, op.Operator] = {}

    def optimize(self, plan):
        """The optimized form of ``plan`` — or, given a list of plans,
        the list of their optimized forms, rewritten together in one
        run: a node two of them share is a barrier like any other, and
        stays one node shared by their rewrites."""
        roots = [plan] if isinstance(plan, op.Operator) else list(plan)
        cfg = self.config
        rules = [rule for enabled, rule in (
            (cfg.fold_constants, self._fold_operator),
            (cfg.combine_selections, self._combine_selections),
            (cfg.push_selections, self._push_selection),
            (cfg.merge_projections, self._merge_projections),
            (cfg.remove_identity, self._remove_identity)) if enabled]
        self._barriers = _shared(roots)
        for _ in range(cfg.max_passes):
            before = self.rule_applications.copy()
            for rule in rules:
                roots = self._pass(roots, rule)
            if self.rule_applications == before:
                break
        if cfg.prune_columns:
            self._pruned = {}
            roots = [self._prune(root, required=None) for root in roots]
        return roots[0] if isinstance(plan, op.Operator) else roots

    def _pass(self, roots: List[op.Operator], rule) -> List[op.Operator]:
        """One bottom-up application of ``rule`` to the DAG under
        ``roots``: each node once, over its rewritten children.  The
        rewrite of a barrier is registered as one before any of its
        parents is visited, so a rule looking at a child knows whether
        it may rewrite through it — and since no rule rewrites through
        one, the barriers of the rewritten DAG are exactly those: the
        shared nodes are found once per run, not once per pass."""
        shared, barriers = self._barriers, set()
        self._barriers = barriers
        # rewrites of the shared nodes; any other node is met once anyway
        done: Dict[int, op.Operator] = {}

        def visit(node: op.Operator) -> op.Operator:
            key = id(node)
            barrier = key in shared
            if barrier and key in done:
                return done[key]
            changed = {}
            for name in node.CHILDREN:
                child = getattr(node, name)
                new = visit(child)
                if new is not child:
                    changed[name] = new
            out = rule(node._with(changed) if changed else node)
            if barrier:
                done[key] = out
                barriers.add(id(out))
            return out

        return [visit(root) for root in roots]

    def _through(self, child: op.Operator) -> bool:
        """Whether a rule may rewrite through ``child`` (it is not a
        barrier)."""
        return id(child) not in self._barriers

    def _hit(self, rule: str) -> None:
        self.rule_applications[rule] = \
            self.rule_applications.get(rule, 0) + 1

    # -- rules ------------------------------------------------------------

    def _combine_selections(self, node: op.Operator) -> op.Operator:
        if isinstance(node, op.Selection) \
                and isinstance(node.child, op.Selection) \
                and self._through(node.child):
            inner = node.child
            self._hit("combine_selections")
            return op.Selection(
                inner.child,
                BinaryOp("AND", inner.condition, node.condition))
        return node

    def _push_selection(self, node: op.Operator) -> op.Operator:
        """Push a selection below the projection or UNION ALL under it
        — and on, as far as it goes: the rewrite visits bottom-up, so
        a selection that moved one level per pass would cost one full
        pass (every expression folded again) per level."""
        if not isinstance(node, op.Selection) \
                or not self._through(node.child):
            return node
        if isinstance(node.child, op.SetOp):
            return self._push_through_union(node, node.child)
        if not isinstance(node.child, op.Projection):
            return node
        if id(node) in self._push_rejected:
            return node
        projection = node.child
        mapping = dict(zip(projection.names, projection.exprs))
        if any(_contains_subquery(e) for e in mapping.values()):
            return node
        # estimate first — substitution on a doomed push is the cost
        if _estimate_merged_size([node.condition], mapping) \
                > self.config.merge_size_limit:
            self._push_rejected[id(node)] = node
            return node
        pushed = substitute(node.condition, mapping)
        self._hit("push_selection")
        return op.Projection(
            self._push_selection(op.Selection(projection.child, pushed)),
            projection.exprs, projection.names)

    def _push_through_union(self, node: op.Selection,
                            union: op.SetOp) -> op.Operator:
        """σ(L ∪all R) = σ(L) ∪all σ'(R).  Every reenacted INSERT puts
        a UNION ALL on top of the chain; a filter left above it (the
        affected-rows filter above all) makes the whole CASE stack run
        over every row before any is dropped.  R's attributes answer
        L's by position, so σ' is the condition with L's keys replaced
        by R's.  A condition holding a subquery stays put (its plan may
        refer to L's keys too), and so does every distinct-sensitive
        set operation."""
        if not (union.kind == "union" and union.all) \
                or _contains_subquery(node.condition):
            return node
        renames = {
            left: Column(name=right.rsplit(".", 1)[-1], key=right)
            for left, right in zip(union.left.attrs, union.right.attrs)
            if left != right}
        self._hit("push_selection")
        return op.SetOp(
            "union",
            self._push_selection(
                op.Selection(union.left, node.condition)),
            self._push_selection(
                op.Selection(union.right,
                             substitute(node.condition, renames)
                             if renames else node.condition)),
            all=True)

    def _merge_projections(self, node: op.Operator) -> op.Operator:
        if not (isinstance(node, op.Projection)
                and isinstance(node.child, op.Projection)
                and self._through(node.child)):
            return node
        if id(node) in self._merge_rejected:
            return node
        inner = node.child
        mapping = dict(zip(inner.names, inner.exprs))
        if any(_contains_subquery(e) for e in inner.exprs):
            # substitution may duplicate subqueries; only merge if each
            # inner output is referenced at most once overall
            refs = _column_ref_counts(node.exprs)
            for name, expr in mapping.items():
                if _contains_subquery(expr) and refs.get(name, 0) > 1:
                    return node
        if _estimate_merged_size(node.exprs, mapping) \
                > self.config.merge_size_limit:
            self._merge_rejected[id(node)] = node
            return node
        merged = [substitute(e, mapping) for e in node.exprs]
        self._hit("merge_projections")
        return op.Projection(inner.child, merged, list(node.names))

    def _remove_identity(self, node: op.Operator) -> op.Operator:
        if isinstance(node, op.Projection) \
                and node.names == node.child.attrs \
                and all(isinstance(e, Column) and e.key == name
                        for e, name in zip(node.exprs, node.names)):
            self._hit("remove_identity")
            return node.child
        return node

    # -- constant folding -----------------------------------------------------

    def _fold_operator(self, node: op.Operator) -> op.Operator:
        if not node.CHILDREN:
            # VALUES rows and AS OF times are as the statement wrote
            # them: no rule substitutes into a leaf, there is no
            # skeleton to fold
            return node
        node = node.map_expressions(self._fold)
        if isinstance(node, op.Selection) \
                and isinstance(node.condition, Literal) \
                and node.condition.value is True:
            self._hit("fold_constants")
            return node.child
        return node

    def _fold(self, expr: Expr) -> Expr:
        if id(expr) in self._folded:
            return expr
        folded = transform(expr, self._fold_node)
        if folded == expr:
            folded = expr  # nothing folded: the node holding it stands
        else:
            self._hit("fold_constants")
        self._folded[id(folded)] = folded
        return folded

    @staticmethod
    def _fold_node(node: Expr) -> Expr:
        if isinstance(node, UnaryOp) and node.op == "NOT" \
                and isinstance(node.operand, Literal) \
                and isinstance(node.operand.value, bool):
            return Literal(not node.operand.value)
        if isinstance(node, BinaryOp) and node.op in ("AND", "OR"):
            left, right = node.left, node.right
            lval = left.value if isinstance(left, Literal) else ...
            rval = right.value if isinstance(right, Literal) else ...
            if node.op == "AND":
                if lval is True:
                    return right
                if rval is True:
                    return left
                if lval is False or rval is False:
                    return Literal(False)
            else:
                if lval is False:
                    return right
                if rval is False:
                    return left
                if lval is True or rval is True:
                    return Literal(True)
        if isinstance(node, Case):
            whens = []
            for cond, result in node.whens:
                if isinstance(cond, Literal):
                    if cond.value is True and not whens:
                        return result
                    if cond.value is True:
                        whens.append((cond, result))
                        break
                    continue  # False/NULL branch never taken
                whens.append((cond, result))
            if not whens:
                return node.default if node.default is not None \
                    else Literal(None)
            if len(whens) != len(node.whens):
                return Case(tuple(whens), node.default)
        if isinstance(node, IsNull) and isinstance(node.operand, Literal):
            value = node.operand.value is None
            return Literal((not value) if node.negated else value)
        return node

    # -- column pruning -----------------------------------------------------------

    def _prune(self, plan: op.Operator,
               required: Optional[Set[str]]) -> op.Operator:
        """Top-down dead-column elimination.  ``required=None`` means
        every output attribute is needed (the root, and a barrier, whose
        referrers may need different columns — it is pruned once).
        Returns ``plan`` itself where nothing under it had a column to
        lose."""
        if id(plan) in self._barriers:
            out = self._pruned.get(id(plan))
            if out is None:
                out = self._pruned[id(plan)] = self._prune_node(plan, None)
            return out
        return self._prune_node(plan, required)

    def _prune_node(self, plan: op.Operator,
                    required: Optional[Set[str]]) -> op.Operator:
        if isinstance(plan, op.Projection):
            if required is not None:
                keep = [(e, n) for e, n in zip(plan.exprs, plan.names)
                        if n in required]
                if not keep:
                    keep = [(plan.exprs[0], plan.names[0])]
                if len(keep) != len(plan.exprs):
                    self._hit("prune_columns")
                    plan = replace(plan, exprs=[e for e, _ in keep],
                                   names=[n for _, n in keep])
            child_required: Set[str] = set()
            for expr in plan.exprs:
                child_required.update(expr_required_columns(expr))
            return plan.with_children(
                [self._prune(plan.child, child_required)])
        if isinstance(plan, (op.Selection, op.OrderBy)):
            child_required = set(required) if required is not None \
                else set(plan.child.attrs)
            for expr in plan.expressions():
                child_required.update(expr_required_columns(expr))
            return plan.with_children(
                [self._prune(plan.child, child_required)])
        if isinstance(plan, op.Join):
            needed = set(required) if required is not None \
                else set(plan.attrs)
            if plan.condition is not None:
                needed.update(expr_required_columns(plan.condition))
            left_attrs = set(plan.left.attrs)
            right_attrs = set(plan.right.attrs)
            left_req = needed & left_attrs
            right_req = needed & right_attrs
            if plan.kind in ("semi", "anti"):
                # right side exists only for the condition
                right_req = set(expr_required_columns(plan.condition)) \
                    & right_attrs if plan.condition is not None else set()
            return plan.with_children(
                [self._prune(plan.left, left_req or None),
                 self._prune(plan.right, right_req or None)])
        if isinstance(plan, op.Aggregation):
            if required is not None:
                keep = [a for a in plan.aggregates if a.name in required]
                if len(keep) != len(plan.aggregates):
                    self._hit("prune_columns")
                    plan = replace(plan, aggregates=keep)
            child_required = set()
            for expr in plan.expressions():
                child_required.update(expr_required_columns(expr))
            return plan.with_children(
                [self._prune(plan.child, child_required or None)])
        if isinstance(plan, op.SetOp):
            left, right = plan.left, plan.right
            if plan.kind == "union" and plan.all and required is not None:
                positions = [i for i, a in enumerate(left.attrs)
                             if a in required]
                if positions and len(positions) < len(left.attrs):
                    self._hit("prune_columns")
                    left = _narrow(left, positions)
                    right = _narrow(right, positions)
            # distinct-sensitive set ops need every column
            return plan.with_children(
                [self._prune(left, None), self._prune(right, None)])
        if isinstance(plan, op.Distinct):
            return plan.with_children([self._prune(plan.child, None)])
        if isinstance(plan, op.Limit):
            return plan.with_children([self._prune(plan.child, required)])
        if isinstance(plan, op.AnnotateRowId):
            if required is not None and plan.name not in required:
                self._hit("prune_columns")
                return self._prune(plan.child, required)
            child_required = (set(required) - {plan.name}) \
                if required is not None else None
            return plan.with_children(
                [self._prune(plan.child, child_required)])
        if isinstance(plan, op.TableScan):
            if required is None:
                return plan
            keep_columns = [c for c in plan.columns
                            if f"{plan.binding}.{c}" in required]
            if not keep_columns:
                keep_columns = plan.columns[:1]
            keep_annotations = tuple(
                flag for flag, suffix in
                ((op.ANNOT_ROWID, op.ROWID_SUFFIX),
                 (op.ANNOT_XID, op.XID_SUFFIX))
                if flag in plan.annotations
                and f"{plan.binding}.{suffix}" in required)
            if len(keep_columns) != len(plan.columns) \
                    or keep_annotations != plan.annotations:
                self._hit("prune_columns")
                return replace(plan, columns=keep_columns,
                               annotations=keep_annotations)
            return plan
        if isinstance(plan, op.ConstRel):
            if required is not None:
                positions = [i for i, n in enumerate(plan.names)
                             if n in required]
                if positions and len(positions) < len(plan.names):
                    self._hit("prune_columns")
                    return op.ConstRel(
                        [[row[i] for i in positions] for row in plan.rows],
                        [plan.names[i] for i in positions])
            return plan
        # unknown operator: be conservative
        return plan.with_children(
            [self._prune(child, None) for child in plan.children()])


def _narrow(plan: op.Operator, positions: List[int]) -> op.Operator:
    """Positional projection used when pruning through UNION ALL."""
    attrs = plan.attrs
    exprs = [Column(name=attrs[i].rsplit(".", 1)[-1], key=attrs[i])
             for i in positions]
    names = [attrs[i] for i in positions]
    return op.Projection(plan, exprs, names)
