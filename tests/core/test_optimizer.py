"""Provenance-aware optimizer: every rule preserves semantics, and the
rules fire on the plan shapes reenactment produces."""

import copy

import pytest

from repro import Database
from repro.algebra import operators as op
from repro.algebra.evaluator import Evaluator
from repro.algebra.translator import Translator
from repro.core.optimizer import (OptimizerConfig, ProvenanceOptimizer,
                                  expr_size)
from repro.core.reenactor import ReenactmentOptions, Reenactor
from repro.sql.parser import parse_statement


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE t (a INT, b TEXT, c INT)")
    database.execute("INSERT INTO t VALUES (1,'x',10), (2,'y',20), "
                     "(3,'z',30), (4,'x',40)")
    return database


def plan_for(db, sql):
    return Translator(db.catalog).translate_query(parse_statement(sql))


def rows(db, plan):
    return sorted(Evaluator(db.context()).evaluate(plan).rows)


QUERIES = [
    "SELECT a FROM t WHERE b = 'x'",
    "SELECT a + c AS s FROM t WHERE a > 1 ORDER BY s",
    "SELECT b, SUM(a) FROM t GROUP BY b HAVING COUNT(*) > 1",
    "SELECT x.s FROM (SELECT a + c AS s, b FROM t) x WHERE x.b = 'x'",
    "SELECT t1.a FROM t t1 JOIN t t2 ON t1.a = t2.c / 10",
    "SELECT DISTINCT b FROM t WHERE a IN (SELECT a FROM t WHERE c > 15)",
    "SELECT a FROM t UNION ALL SELECT c FROM t",
]


def assert_unchanged(plan, snapshot):
    """``plan`` still is what the ``copy.deepcopy`` taken before it was
    handed out says it was.  ``repr`` is structural everywhere; ``==``
    is too, except that a ``SubqueryExpr`` equals only itself."""
    text = repr(plan)
    assert text == repr(snapshot)
    if "SubqueryExpr(" not in text:
        assert plan == snapshot


@pytest.mark.parametrize("sql", QUERIES)
def test_optimizer_preserves_semantics(db, sql):
    plan = plan_for(db, sql)
    snapshot = copy.deepcopy(plan)
    optimizer = ProvenanceOptimizer()
    optimized = optimizer.optimize(plan)
    # plans are values: the optimizer built a new plan, the one it was
    # handed is as it was — and is the reference to compare against
    assert optimizer.rule_applications and optimized is not plan
    assert_unchanged(plan, snapshot)
    assert rows(db, optimized) == rows(db, plan)


class TestRules:
    def test_merge_projections(self, db):
        inner = plan_for(db, "SELECT a + 1 AS x, b FROM t")
        outer = op.Projection(
            inner,
            [__import__("repro.algebra.expressions",
                        fromlist=["Column"]).Column(name="x", key="x")],
            ["x"])
        optimizer = ProvenanceOptimizer()
        result = optimizer.optimize(outer)
        assert optimizer.rule_applications.get("merge_projections", 0) \
            >= 1
        assert rows(db, result) == [(2,), (3,), (4,), (5,)]

    def test_combine_selections(self, db):
        base = plan_for(db, "SELECT a FROM t WHERE a > 1")
        from repro.algebra.expressions import BinaryOp, Column, Literal
        wrapped = op.Selection(
            op.Selection(base, BinaryOp("<", Column(name="a", key="a"),
                                        Literal(4))),
            BinaryOp("<>", Column(name="a", key="a"), Literal(3)))
        optimizer = ProvenanceOptimizer()
        result = optimizer.optimize(wrapped)
        assert optimizer.rule_applications.get("combine_selections", 0) \
            >= 1
        assert rows(db, result) == [(2,)]

    def test_identity_projection_removed(self, db):
        base = plan_for(db, "SELECT a, b, c FROM t")
        from repro.algebra.expressions import Column
        identity = op.Projection(
            base, [Column(name=n, key=n) for n in base.attrs],
            list(base.attrs))
        # disable merging so the identity-removal rule (not projection
        # merging) is what eliminates the wrapper
        optimizer = ProvenanceOptimizer(OptimizerConfig(
            merge_projections=False))
        optimizer.optimize(identity)
        assert optimizer.rule_applications.get("remove_identity", 0) >= 1

    def test_prune_columns_narrows_scan(self, db):
        plan = plan_for(db, "SELECT a FROM t")
        optimized = ProvenanceOptimizer().optimize(plan)
        scans = [n for n in op.walk_plan(optimized)
                 if isinstance(n, op.TableScan)]
        assert scans[0].columns == ["a"]

    def test_prune_keeps_condition_columns(self, db):
        plan = plan_for(db, "SELECT a FROM t WHERE c > 15")
        optimized = ProvenanceOptimizer().optimize(plan)
        scans = [n for n in op.walk_plan(optimized)
                 if isinstance(n, op.TableScan)]
        assert set(scans[0].columns) == {"a", "c"}

    def test_fold_constants(self, db):
        from repro.algebra.expressions import (BinaryOp, Literal)
        base = plan_for(db, "SELECT a FROM t")
        wrapped = op.Selection(base, BinaryOp("AND", Literal(True),
                                              Literal(True)))
        optimizer = ProvenanceOptimizer()
        result = optimizer.optimize(wrapped)
        # the tautological selection disappears entirely
        assert not any(isinstance(n, op.Selection)
                       for n in op.walk_plan(result))

    def test_disabled_config_changes_nothing(self, db):
        plan = plan_for(db, "SELECT a FROM t WHERE b = 'x'")
        optimizer = ProvenanceOptimizer(OptimizerConfig.disabled())
        assert optimizer.optimize(plan) is plan
        assert optimizer.rule_applications == {}


class TestRejectionMemos:
    """A merge or push estimated past ``merge_size_limit`` is remembered
    by the optimizer (nodes are frozen, nothing is stashed on them): the
    next pass meets the same node and does not estimate again."""

    def test_rejected_merge_and_push_are_not_re_estimated(
            self, db, monkeypatch):
        from repro.algebra.expressions import BinaryOp, Column, Literal
        from repro.core import optimizer as optimizer_module
        a = Column(name="a", key="a")
        # two copies: one node under both would be a barrier, never
        # merged or pushed into, so never estimated
        rejected_push = op.Selection(
            plan_for(db, "SELECT a + a + a + a AS a FROM t"),
            BinaryOp(">", a, Literal(2)))
        rejected_merge = op.Projection(
            plan_for(db, "SELECT a + a + a + a AS a FROM t"),
            [BinaryOp("+", a, a)], ["a"])
        # two stacked selections keep pass one busy, so there is a pass two
        busy = plan_for(db, "SELECT a FROM t WHERE c > 15")
        busy = busy.with_children([op.Selection(
            busy.child, BinaryOp("<", Column(name="c", key="t.c"),
                                 Literal(40)))])
        plan = op.SetOp(
            "union", op.SetOp("union", rejected_push, rejected_merge,
                              all=True), busy, all=True)
        expected = rows(db, plan)

        estimates = []
        estimate = optimizer_module._estimate_merged_size
        monkeypatch.setattr(
            optimizer_module, "_estimate_merged_size",
            lambda exprs, mapping: estimates.append(exprs)
            or estimate(exprs, mapping))
        optimizer = ProvenanceOptimizer(OptimizerConfig(
            remove_identity=False, prune_columns=False,
            fold_constants=False, merge_size_limit=5))
        result = optimizer.optimize(plan)
        assert optimizer.rule_applications == {"combine_selections": 1}
        assert len(estimates) == 2  # one per rejected node, over two passes
        assert result.left.left is rejected_push
        assert result.left.right is rejected_merge
        assert vars(rejected_push).keys() == {"child", "condition"}
        # ... and not on a later call of the same optimizer either
        assert optimizer.optimize(result) is result
        assert len(estimates) == 2
        assert rows(db, result) == expected


class TestOnReenactmentChains:
    def make_chain_xid(self, db, n):
        s = db.connect()
        s.begin()
        for i in range(n):
            s.execute(f"UPDATE t SET c = c + 1 WHERE a = {(i % 4) + 1}")
        xid = s.txn.xid
        s.commit()
        return xid

    def test_chain_collapses(self, db):
        xid = self.make_chain_xid(db, 8)
        reenactor = Reenactor(db)
        record = reenactor.transaction_record(xid)
        naive = reenactor.build_plans(
            record, ReenactmentOptions(optimize=False))["t"]
        optimized = reenactor.build_plans(
            record, ReenactmentOptions(optimize=True))["t"]
        count = lambda p: sum(1 for _ in op.walk_plan(p))  # noqa: E731
        assert count(optimized) < count(naive)
        assert rows(db, optimized) == rows(db, naive)

    def test_merge_size_guard_stops_blowup(self, db):
        xid = self.make_chain_xid(db, 30)
        reenactor = Reenactor(db)
        record = reenactor.transaction_record(xid)
        plans = reenactor.build_plans(
            record, ReenactmentOptions(optimize=False))
        config = OptimizerConfig(merge_size_limit=500)
        optimized = ProvenanceOptimizer(config).optimize(plans["t"])
        # every projection's expressions stay under the size guard
        for node in op.walk_plan(optimized):
            if isinstance(node, op.Projection):
                assert sum(expr_size(e) for e in node.exprs) <= 500 * 2

    def test_read_committed_chain_is_left_as_it_was(self, db):
        """A 6-statement READ COMMITTED chain is a DAG — every re-basing
        references the transaction's own rows twice — and the optimizer
        rewrites each reference without touching the shared node."""
        s = db.connect()
        s.begin("READ COMMITTED")
        for i in range(5):
            s.execute(f"UPDATE t SET c = c + 1 WHERE a = {(i % 4) + 1}")
        s.execute("INSERT INTO t VALUES (5, 'w', 50)")
        xid = s.txn.xid
        s.commit()
        reenactor = Reenactor(db)
        plan = reenactor.build_plans(
            reenactor.transaction_record(xid),
            ReenactmentOptions(optimize=False, annotations=True,
                               only_affected=True))["t"]
        unions = [n for n in op.walk_plan(plan)
                  if isinstance(n, op.SetOp) and
                  isinstance(n.right, op.Join)]
        assert unions and all(u.left is u.right.right.child
                              for u in unions)
        snapshot = copy.deepcopy(plan)
        optimizer = ProvenanceOptimizer()
        optimized = optimizer.optimize(plan)
        assert optimizer.rule_applications["merge_projections"] > 0
        assert_unchanged(plan, snapshot)
        assert rows(db, optimized) == rows(db, plan)

    def test_optimized_reenactment_correct(self, db):
        xid = self.make_chain_xid(db, 12)
        reenactor = Reenactor(db)
        optimized = reenactor.reenact(
            xid, ReenactmentOptions(optimize=True)).tables["t"]
        naive = reenactor.reenact(
            xid, ReenactmentOptions(optimize=False)).tables["t"]
        assert sorted(optimized.rows) == sorted(naive.rows)


class TestSelectionThroughUnionAll:
    """σ(L ∪all R) → σ(L) ∪all σ'(R): what gets the affected-rows
    filter below a reenacted INSERT."""

    PUSH_ONLY = OptimizerConfig(
        merge_projections=False, combine_selections=False,
        remove_identity=False, prune_columns=False, fold_constants=False)

    @staticmethod
    def above_union(db, sql, condition):
        union = plan_for(db, sql)
        assert isinstance(union, op.SetOp)
        return op.Selection(union, condition)

    @staticmethod
    def a_above(bound):
        from repro.algebra.expressions import BinaryOp, Column, Literal
        return BinaryOp(">", Column(name="a", key="a"), Literal(bound))

    def test_right_side_is_remapped_by_position(self, db):
        from repro.algebra.expressions import columns_used
        plan = self.above_union(
            db, "SELECT a FROM t UNION ALL SELECT c FROM t",
            self.a_above(2))
        assert plan.child.left.attrs != plan.child.right.attrs
        expected = rows(db, plan)
        assert expected == [(3,), (4,), (10,), (20,), (30,), (40,)]
        optimizer = ProvenanceOptimizer(self.PUSH_ONLY)
        result = optimizer.optimize(plan)
        assert isinstance(result, op.SetOp) and result.all
        assert optimizer.rule_applications["push_selection"] >= 3
        for side in (result.left, result.right):
            selections = [n for n in op.walk_plan(side)
                          if isinstance(n, op.Selection)]
            assert len(selections) == 1
            assert set(columns_used(selections[0].condition)) \
                <= set(selections[0].child.attrs)
        assert rows(db, result) == expected

    def test_subquery_condition_stays_above(self, db):
        from repro.algebra.expressions import Column, SubqueryExpr
        condition = SubqueryExpr(
            "IN", None, operand=Column(name="a", key="a"),
            plan=plan_for(db, "SELECT a FROM t WHERE c > 15"))
        plan = self.above_union(
            db, "SELECT a FROM t UNION ALL SELECT c FROM t", condition)
        expected = rows(db, plan)
        result = ProvenanceOptimizer().optimize(plan)
        assert isinstance(result, op.Selection)
        assert isinstance(result.child, op.SetOp)
        assert rows(db, result) == expected == [(2,), (3,), (4,)]

    @pytest.mark.parametrize("word", ["UNION", "EXCEPT", "INTERSECT"])
    def test_distinct_sensitive_set_operations_are_left_alone(self, db,
                                                              word):
        plan = self.above_union(
            db, f"SELECT a FROM t {word} SELECT c / 10 FROM t",
            self.a_above(0))
        expected = rows(db, plan)
        result = ProvenanceOptimizer().optimize(plan)
        assert isinstance(result, op.Selection)
        assert isinstance(result.child, op.SetOp)
        assert rows(db, result) == expected

    def test_merge_size_guard_still_stops_the_push_below(self, db):
        """Through the union the condition travels as it is; under it,
        substituting it into a projection is still subject to
        ``merge_size_limit``."""
        plan = self.above_union(
            db, "SELECT a + a + a + a AS a FROM t "
                "UNION ALL SELECT c FROM t", self.a_above(2))
        config = OptimizerConfig(
            merge_projections=False, combine_selections=False,
            remove_identity=False, prune_columns=False,
            fold_constants=False, merge_size_limit=5)
        result = ProvenanceOptimizer(config).optimize(plan)
        assert isinstance(result, op.SetOp)
        # left: a > 2 over four references to a is past the limit
        assert isinstance(result.left, op.Selection)
        assert isinstance(result.left.child, op.Projection)
        # right: a plain column fits, the selection went below
        assert isinstance(result.right, op.Projection)
        assert isinstance(result.right.child, op.Selection)

    def test_affected_rows_filter_reaches_the_scan_under_an_insert(
            self, db):
        s = db.connect()
        s.begin()
        s.execute("UPDATE t SET c = c + 1 WHERE a = 1")
        s.execute("INSERT INTO t VALUES (5, 'w', 50)")
        xid = s.txn.xid
        s.commit()
        reenactor = Reenactor(db)
        plan = reenactor.build_plans(
            reenactor.transaction_record(xid),
            ReenactmentOptions(annotations=True, only_affected=True,
                               include_deleted=True))["t"]
        unions = [n for n in op.walk_plan(plan)
                  if isinstance(n, op.SetOp)]
        assert len(unions) == 1
        scan_side = list(op.walk_plan(unions[0].left))
        assert isinstance(scan_side[-1], op.TableScan)
        assert isinstance(scan_side[-2], op.Selection)
        assert rows(db, plan) == [
            (1, "x", 11, 1, xid, True, False),
            (5, "w", 50, -1_000_001, xid, True, False)]
