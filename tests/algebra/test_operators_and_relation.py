"""Operator-tree invariants and Relation helper tests."""

import pytest

from repro.algebra import operators as op
from repro.algebra.evaluator import Relation
from repro.algebra.expressions import BinaryOp, Column, Literal
from repro.errors import AnalysisError, ExecutionError


def scan(table="t", binding=None, columns=("a", "b")):
    return op.TableScan(table=table, columns=list(columns),
                        binding=binding or table)


class TestSchemas:
    def test_scan_attrs_qualified(self):
        assert scan().attrs == ["t.a", "t.b"]

    def test_scan_annotations_extend_attrs(self):
        node = op.TableScan(table="t", columns=["a"], binding="x",
                            annotations=(op.ANNOT_ROWID, op.ANNOT_XID))
        assert node.attrs == ["x.a", "x.__rowid__", "x.__xid__"]

    def test_projection_arity_checked(self):
        with pytest.raises(AnalysisError, match="length mismatch"):
            op.Projection(scan(), [Literal(1)], ["a", "b"])

    def test_join_attrs_by_kind(self):
        left, right = scan("l"), scan("r")
        inner = op.Join(left, right, "inner",
                        BinaryOp("=", Column(name="a", key="l.a"),
                                 Column(name="a", key="r.a")))
        assert inner.attrs == ["l.a", "l.b", "r.a", "r.b"]
        semi = op.Join(scan("l"), scan("r"), "semi", Literal(True))
        assert semi.attrs == ["l.a", "l.b"]
        anti = op.Join(scan("l"), scan("r"), "anti", Literal(True))
        assert anti.attrs == ["l.a", "l.b"]

    def test_bad_join_kind_rejected(self):
        with pytest.raises(AnalysisError, match="join kind"):
            op.Join(scan("l"), scan("r"), "sideways")

    def test_bad_setop_kind_rejected(self):
        with pytest.raises(AnalysisError, match="set operation"):
            op.SetOp("merge", scan("l"), scan("r"))

    def test_setop_attrs_from_left(self):
        union = op.SetOp("union", scan("l"), scan("r"), all=True)
        assert union.attrs == ["l.a", "l.b"]

    def test_aggregation_attrs(self):
        agg = op.Aggregation(
            scan(), [Column(name="a", key="t.a")], ["t.a"],
            [op.AggSpec("COUNT", None, "__agg1")])
        assert agg.attrs == ["t.a", "__agg1"]

    def test_annotate_rowid_appends(self):
        node = op.AnnotateRowId(scan(), name="__new__", seed=2)
        assert node.attrs == ["t.a", "t.b", "__new__"]


class TestTreeUtilities:
    def make_plan(self):
        return op.Selection(
            op.Join(scan("x"), scan("y", columns=("c",)), "cross"),
            Literal(True))

    def test_walk_plan_preorder(self):
        plan = self.make_plan()
        kinds = [type(n).__name__ for n in op.walk_plan(plan)]
        assert kinds == ["Selection", "Join", "TableScan", "TableScan"]

    def test_plan_tables_deduplicates(self):
        plan = op.Join(scan("t"), scan("t", binding="t2"), "cross")
        assert op.plan_tables(plan) == ["t"]

    def test_transform_plan_bottom_up_replacement(self):
        plan = self.make_plan()

        def strip_selection(node):
            if isinstance(node, op.Selection):
                return node.child
            return node

        result = op.transform_plan(plan, strip_selection)
        assert isinstance(result, op.Join)

    def test_transform_plan_is_pure_and_keeps_untouched_subtrees(self):
        plan = self.make_plan()
        assert op.transform_plan(plan, lambda node: node) is plan
        narrowed = scan("y", columns=())

        def narrow_y(node):
            if isinstance(node, op.TableScan) and node.table == "y":
                return narrowed
            return node

        result = op.transform_plan(plan, narrow_y)
        assert result is not plan and result != plan
        assert plan == self.make_plan()
        assert result.child.left is plan.child.left
        assert result.child.right is narrowed


class TestPlansAreValues:
    """Operators are frozen; the two rebuilders return the node itself
    when nothing changed and a new node — never a changed one —
    otherwise."""

    def make_join(self):
        return op.Join(scan("l"), scan("r"), "inner",
                       BinaryOp("=", Column(name="a", key="l.a"),
                                Column(name="a", key="r.a")))

    def test_with_children_same_children_is_self(self):
        join = self.make_join()
        assert join.with_children(join.children()) is join
        assert join.with_children([join.left, join.right]) is join

    def test_with_children_builds_a_new_node(self):
        join = self.make_join()
        other = scan("z")
        rebuilt = join.with_children([join.left, other])
        assert rebuilt is not join
        assert rebuilt.right is other and rebuilt.left is join.left
        assert (rebuilt.kind, rebuilt.condition) == ("inner",
                                                     join.condition)
        assert join.right == scan("r")

    def test_with_children_checks_arity(self):
        with pytest.raises(AnalysisError, match="children"):
            self.make_join().with_children([scan("l")])

    def test_leaf_refuses_children(self):
        assert scan().with_children([]) == scan()
        with pytest.raises(AnalysisError, match="children"):
            scan().with_children([scan()])
        with pytest.raises(AnalysisError, match="children"):
            op.ConstRel([[Literal(1)]], ["a"]).with_children([scan()])

    def test_map_expressions_unchanged_is_self(self):
        for node in (self.make_join(), scan(),
                     op.Join(scan("l"), scan("r"), "cross"),
                     op.Distinct(scan())):
            assert node.map_expressions(lambda expr: expr) is node

    def test_map_expressions_builds_a_new_node(self):
        node = op.Projection(scan(), [Column(name="a", key="t.a"),
                                      Literal(1)], ["a", "one"])
        kept = node.exprs[0]
        mapped = node.map_expressions(
            lambda expr: Literal(2) if expr == Literal(1) else expr)
        assert mapped is not node
        assert mapped.exprs == [kept, Literal(2)]
        assert mapped.exprs[0] is kept and mapped.child is node.child
        assert node.exprs == [kept, Literal(1)]

    def test_expressions_cover_every_expression_bearing_field(self):
        a, b = Column(name="a", key="t.a"), Column(name="b", key="t.b")
        count_star = op.AggSpec("COUNT", None, "n")
        cases = [
            (op.TableScan("t", ["a"], "t", as_of=Literal(3)),
             [Literal(3)]),
            (scan(), []),
            (op.ConstRel([[Literal(1), Literal(2)], [Literal(3), a]],
                         ["x", "y"]),
             [Literal(1), Literal(2), Literal(3), a]),
            (op.Selection(scan(), a), [a]),
            (op.Join(scan("l"), scan("r"), "cross"), []),
            (op.Aggregation(scan(), [a], ["t.a"],
                            [count_star, op.AggSpec("SUM", b, "s")]),
             [a, b]),
            (op.OrderBy(scan(), [(a, True), (b, False)]), [a, b]),
            (op.Limit(scan(), Literal(5)), [Literal(5)]),
            (op.AnnotateRowId(scan(), "__new__"), []),
        ]
        for node, expected in cases:
            assert node.expressions() == expected
            seen = []
            renamed = node.map_expressions(
                lambda expr: seen.append(expr) or Literal("x"))
            assert seen == expected
            assert renamed.expressions() == [Literal("x")] * len(expected)
            assert node.expressions() == expected
        agg = cases[5][0].map_expressions(lambda expr: Literal("x"))
        assert agg.aggregates[0] is count_star
        assert agg.aggregates[1] == op.AggSpec("SUM", Literal("x"), "s")
        ordered = cases[6][0].map_expressions(lambda expr: Literal("x"))
        assert ordered.items == [(Literal("x"), True),
                                 (Literal("x"), False)]

    def test_assigning_to_a_field_raises(self):
        from dataclasses import FrozenInstanceError
        selection = op.Selection(scan(), Literal(True))
        with pytest.raises(FrozenInstanceError):
            selection.child = scan("u")
        with pytest.raises(FrozenInstanceError):
            selection.condition = Literal(False)
        with pytest.raises(FrozenInstanceError):
            scan().columns = ["a"]
        with pytest.raises(FrozenInstanceError):
            selection._push_rejected = True
        with pytest.raises(FrozenInstanceError):
            op.AggSpec("SUM", Literal(1), "s").expr = Literal(2)

    def test_a_node_may_sit_under_two_parents(self):
        shared = op.Selection(scan(), Literal(True))
        plan = op.SetOp("union", shared,
                        op.Join(scan("u"), shared, "anti", Literal(True)),
                        all=True)
        assert plan.left is plan.right.right
        # a DAG walk meets each node once, also across several roots
        assert sum(1 for n in op.walk_plan(plan) if n is shared) == 1
        assert [n for n in op.walk_plan(shared, plan)].count(shared) == 1
        # a rewrite keeps it one node under both parents
        rewritten = op.transform_plan(plan, lambda node: node.map_expressions(
            lambda expr: Literal(False) if expr == Literal(True) else expr))
        assert rewritten.left is rewritten.right.right is not shared


class TestRelation:
    @pytest.fixture
    def relation(self):
        return Relation(["t.a", "b"], [(1, "x"), (2, None), (1, "x")])

    def test_len_iter(self, relation):
        assert len(relation) == 3
        assert list(relation)[0] == (1, "x")

    def test_column_index_exact_and_suffix(self, relation):
        assert relation.column_index("t.a") == 0
        assert relation.column_index("a") == 0
        with pytest.raises(ExecutionError, match="no column"):
            relation.column_index("zzz")

    def test_ambiguous_suffix_rejected(self):
        relation = Relation(["x.a", "y.a"], [])
        with pytest.raises(ExecutionError):
            relation.column_index("a")

    def test_column_values(self, relation):
        assert relation.column("b") == ["x", None, "x"]

    def test_as_dicts(self, relation):
        assert relation.as_dicts()[1] == {"t.a": 2, "b": None}

    def test_as_multiset(self, relation):
        counts = relation.as_multiset()
        assert counts[(1, "x")] == 2 and counts[(2, None)] == 1

    def test_project(self, relation):
        projected = relation.project(["b"])
        assert projected.attrs == ["b"]
        assert projected.rows == [("x",), (None,), ("x",)]

    def test_sorted_handles_nulls_and_types(self, relation):
        ordered = relation.sorted()
        assert ordered.rows[-1] == (2, None)

    def test_pretty_truncates(self):
        relation = Relation(["n"], [(i,) for i in range(100)])
        text = relation.pretty(max_rows=5)
        assert "95 more rows" in text
        assert text.count("\n") < 20

    def test_pretty_renders_null_and_bool(self):
        text = Relation(["v"], [(None,), (True,)]).pretty()
        assert "NULL" in text and "true" in text
