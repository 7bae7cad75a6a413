"""The compile-then-run evaluator: compiled closures against SQLite as an
independent oracle, scope resolution (positional columns, correlated
outer frames), and the typed-error contract at the edges."""

import functools
import sqlite3

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database
from repro.algebra import evaluator as evaluator_module
from repro.algebra import operators as op
from repro.algebra.evaluator import Evaluator, Relation, StaticContext
from repro.algebra.expressions import (Between, BinaryOp, Case, Column,
                                       EvalState, FuncCall, InList, IsNull,
                                       Literal, Param, RowEnv, SubqueryExpr,
                                       UnaryOp, _like_regex, compile_expr,
                                       eval_expr, row_layout)
from repro.errors import ExecutionError
from repro.sql.parser import parse_expression

# ---------------------------------------------------------------------------
# Property: compiled closure == SQLite on the formatted expression
# ---------------------------------------------------------------------------

INT_COLUMNS = ("a", "b", "c")
BOOL_COLUMNS = ("p", "q")
COLUMNS = INT_COLUMNS + BOOL_COLUMNS

#: Small magnitudes: a depth-3 tree of products stays far inside SQLite's
#: 64-bit integers, where its arithmetic is exact like ours.
small_ints = st.one_of(st.none(), st.integers(-9, 9))
tristate = st.one_of(st.none(), st.booleans())

int_constant = st.one_of(st.integers(0, 9).map(Literal),
                         st.just(Literal(None)), st.just(Param("k")))
int_leaf = st.one_of(
    st.sampled_from(INT_COLUMNS).map(lambda name: Column(name=name)),
    int_constant)
bool_leaf = st.one_of(
    st.sampled_from(BOOL_COLUMNS).map(lambda name: Column(name=name)),
    st.booleans().map(Literal))


@functools.lru_cache(maxsize=None)
def int_exprs(depth):
    if depth == 0:
        return int_leaf
    ints, bools = int_exprs(depth - 1), bool_exprs(depth - 1)
    return st.one_of(
        int_leaf,
        st.builds(BinaryOp, st.sampled_from(["+", "-", "*"]), ints, ints),
        st.builds(UnaryOp, st.just("-"), ints),
        st.builds(lambda cond, then, default: Case(((cond, then),), default),
                  bools, ints, st.one_of(st.none(), ints)),
        st.builds(lambda arg: FuncCall("ABS", (arg,)), ints),
        st.builds(lambda x, y: FuncCall("NULLIF", (x, y)), ints, ints),
        st.builds(lambda args: FuncCall("COALESCE", tuple(args)),
                  st.lists(ints, min_size=2, max_size=3)))


@functools.lru_cache(maxsize=None)
def bool_exprs(depth):
    if depth == 0:
        return bool_leaf
    ints, bools = int_exprs(depth - 1), bool_exprs(depth - 1)
    flags = st.booleans()
    return st.one_of(
        bool_leaf,
        st.builds(BinaryOp, st.sampled_from(["AND", "OR"]), bools, bools),
        st.builds(UnaryOp, st.just("NOT"), bools),
        st.builds(BinaryOp,
                  st.sampled_from(["=", "<>", "<", "<=", ">", ">="]),
                  ints, ints),
        st.builds(IsNull, st.one_of(ints, bools), flags),
        st.builds(lambda x, items, neg: InList(x, tuple(items), neg),
                  ints, st.lists(ints, min_size=1, max_size=3), flags),
        # lists of constants only, NULL and bound parameter included
        st.builds(lambda x, items, neg: InList(x, tuple(items), neg),
                  ints, st.lists(int_constant, min_size=1, max_size=4),
                  flags),
        st.builds(Between, ints, ints, ints, flags),
        st.builds(lambda c1, r1, c2, r2, default:
                  Case(((c1, r1), (c2, r2)), default),
                  bools, bools, bools, bools, st.one_of(st.none(), bools)))


rows = st.fixed_dictionaries({
    **{name: small_ints for name in INT_COLUMNS},
    **{name: tristate for name in BOOL_COLUMNS},
    "k": st.integers(-9, 9),
})


@pytest.fixture(scope="module")
def sqlite():
    connection = sqlite3.connect(":memory:")
    yield connection
    connection.close()


def sqlite_value(connection, expr, row):
    """SQLite's answer for ``expr`` with the row's columns and ``:k``
    bound — it shares no code with our evaluator."""
    source = ", ".join(f":{name} AS {name}" for name in COLUMNS)
    (value,), = connection.execute(
        f"SELECT {expr} FROM (SELECT {source})", row).fetchall()
    return value


def ours(expr, row):
    layout = row_layout(COLUMNS)
    values = tuple(row[name] for name in COLUMNS)
    state = EvalState(params={"k": row["k"]})
    compiled = compile_expr(expr, layout, state)(values, None)
    # the one-shot wrapper resolves every column through the outer
    # chain instead of positionally; same semantics either way
    one_shot = eval_expr(expr, RowEnv(dict(zip(COLUMNS, values))), state)
    assert compiled == one_shot and type(compiled) is type(one_shot)
    return compiled


@settings(max_examples=400, deadline=None)
@given(expr=int_exprs(3), row=rows)
def test_integer_expressions_match_sqlite(sqlite, expr, row):
    assert ours(expr, row) == sqlite_value(sqlite, expr, row)


@settings(max_examples=400, deadline=None)
@given(expr=bool_exprs(3), row=rows)
def test_boolean_expressions_match_sqlite(sqlite, expr, row):
    expected = sqlite_value(sqlite, expr, row)  # SQLite booleans are 0/1
    got = ours(expr, row)
    assert got is None or isinstance(got, bool)
    assert got == (None if expected is None else bool(expected))


# ---------------------------------------------------------------------------
# Scope resolution
# ---------------------------------------------------------------------------

def col(key):
    return Column(name=key.rsplit(".", 1)[-1], key=key)


def scan(table, columns, binding=None):
    return op.TableScan(table=table, columns=list(columns),
                        binding=binding or table)


def evaluate(plan, tables, params=None):
    return Evaluator(StaticContext(tables, params=params)).evaluate(plan)


TABLES = {
    "t": Relation(["x", "y"], [(1, 10), (2, 20), (3, 30)]),
    "u": Relation(["x", "z"], [(10, "ten"), (30, "thirty"), (1, "one")]),
}


class TestScopes:
    def test_inner_attribute_shadows_outer_of_the_same_name(self):
        # both scans are bound as "s", so "s.x" exists in both scopes;
        # "s.y" only in the outer one.  EXISTS (u AS s WHERE s.x = s.y)
        # must read s.x from the inner row and s.y from the outer row.
        inner = op.Selection(scan("u", ["x", "z"], "s"),
                             BinaryOp("=", col("s.x"), col("s.y")))
        exists = SubqueryExpr("EXISTS", None, plan=inner, correlated=True)
        plan = op.Selection(scan("t", ["x", "y"], "s"), exists)
        assert evaluate(plan, TABLES).rows == [(1, 10), (3, 30)]

    def test_shadowing_through_sql(self):
        db = Database()
        db.execute("CREATE TABLE dept (dept TEXT, head TEXT)")
        db.execute("INSERT INTO dept VALUES ('eng','ann'), ('ops','cat')")
        db.execute("CREATE TABLE emp (name TEXT, dept TEXT)")
        db.execute("INSERT INTO emp VALUES ('eve','hr')")
        # the inner "d" is emp: d.dept = 'hr' holds there for every
        # outer row, though no outer d.dept is 'hr'
        rows = db.execute(
            "SELECT d.dept FROM dept d WHERE EXISTS "
            "(SELECT 1 FROM emp d WHERE d.dept = 'hr')").rows
        assert sorted(rows) == [("eng",), ("ops",)]

    def test_two_levels_of_correlation(self):
        # innermost references the outermost row through two frames
        innermost = op.Selection(scan("u", ["x", "z"], "w"),
                                 BinaryOp("=", col("w.x"), col("t.y")))
        middle = op.Selection(
            scan("u", ["x", "z"]),
            BinaryOp("AND", BinaryOp("=", col("u.x"), col("t.x")),
                     SubqueryExpr("EXISTS", None, plan=innermost)))
        plan = op.Selection(scan("t", ["x", "y"]),
                            SubqueryExpr("EXISTS", None, plan=middle))
        # t.x must be in u.x (only 1 is) and t.y in u.x (10 is)
        assert evaluate(plan, TABLES).rows == [(1, 10)]

    def test_column_missing_from_every_scope_is_a_typed_error(self):
        plan = op.Selection(scan("t", ["x", "y"]),
                            BinaryOp("=", col("t.ghost"), Literal(1)))
        with pytest.raises(ExecutionError, match=r"'t\.ghost'"):
            evaluate(plan, TABLES)
        inner = op.Selection(scan("u", ["x", "z"]),
                             BinaryOp("=", col("u.x"), col("nowhere.v")))
        outer = op.Selection(scan("t", ["x", "y"]),
                             SubqueryExpr("EXISTS", None, plan=inner))
        with pytest.raises(ExecutionError, match=r"'nowhere\.v'"):
            evaluate(outer, TABLES)

    def test_missing_bind_parameter(self):
        plan = op.Selection(scan("t", ["x", "y"]),
                            BinaryOp("=", col("t.x"), Param("wanted")))
        with pytest.raises(ExecutionError,
                           match="missing bind parameter :wanted"):
            evaluate(plan, TABLES)
        assert evaluate(plan, TABLES, {"wanted": 2}).rows == [(2, 20)]
        # what is never evaluated never fails
        empty = {"t": Relation(["x", "y"], [])}
        assert evaluate(plan, empty).rows == []

    def test_duplicate_attribute_names_resolve_to_the_last(self):
        both_a = op.Projection(scan("t", ["x", "y"]),
                               [col("t.x"), col("t.y")], ["a", "a"])
        assert both_a.attrs == ["a", "a"]
        picked = op.Projection(both_a, [col("a")], ["v"])
        assert evaluate(picked, TABLES).rows == [(10,), (20,), (30,)]
        computed = op.Projection(
            both_a, [BinaryOp("+", col("a"), Literal(1))], ["v"])
        assert evaluate(computed, TABLES).rows == [(11,), (21,), (31,)]
        kept = op.Selection(both_a, BinaryOp(">", col("a"), Literal(15)))
        assert evaluate(kept, TABLES).rows == [(2, 20), (3, 30)]

    def test_mixed_projection_keeps_slot_order(self):
        plan = op.Projection(
            scan("t", ["x", "y"]),
            [col("t.y"), BinaryOp("*", col("t.x"), Literal(2)),
             col("t.x"), Literal("k")],
            ["y", "double", "x", "tag"])
        assert evaluate(plan, TABLES).rows == [
            (10, 2, 1, "k"), (20, 4, 2, "k"), (30, 6, 3, "k")]

    def test_correlated_subplan_compiles_once(self, monkeypatch):
        def compilations(n_outer):
            counted = []
            real = evaluator_module.compile_expr

            def counting(expr, layout, state):
                counted.append(expr)
                return real(expr, layout, state)
            monkeypatch.setattr(evaluator_module, "compile_expr", counting)
            inner = op.Selection(scan("u", ["x", "z"]),
                                 BinaryOp("=", col("u.x"), col("t.y")))
            plan = op.Selection(scan("t", ["x", "y"]),
                                SubqueryExpr("EXISTS", None, plan=inner))
            tables = dict(TABLES, t=Relation(
                ["x", "y"], [(i, 10 * i) for i in range(n_outer)]))
            evaluate(plan, tables)
            return len(counted)
        assert compilations(2) == compilations(50) == 2


# ---------------------------------------------------------------------------
# Typed errors and hygiene
# ---------------------------------------------------------------------------

def ev(sql):
    return eval_expr(parse_expression(sql), None, EvalState())


class TestEdges:
    def test_exact_integer_division_above_2_to_the_53(self):
        assert ev("9007199254740993 / 1") == 9007199254740993
        assert ev("18014398509481986 / 2") == 9007199254740993
        assert isinstance(ev("9007199254740993 / 1"), int)
        assert ev("7 / 2") == 3.5
        assert ev("-9 / 3") == -3

    def test_huge_integer_division(self):
        huge = Literal(10 ** 400)
        exact = BinaryOp("/", huge, Literal(1))
        assert eval_expr(exact, None, EvalState()) == 10 ** 400
        inexact = BinaryOp("/", huge, Literal(3))
        with pytest.raises(ExecutionError, match="bad operands for '/'"):
            eval_expr(inexact, None, EvalState())

    def test_float_overflow_is_typed(self):
        overflow = BinaryOp("*", Literal(10 ** 400), Literal(1.5))
        with pytest.raises(ExecutionError, match=r"bad operands for '\*'"):
            eval_expr(overflow, None, EvalState())

    def test_order_by_mixed_types_is_typed(self):
        tables = {"m": Relation(["v"], [(1,), ("one",), (None,)])}
        plan = op.OrderBy(scan("m", ["v"]), [(col("m.v"), True)])
        with pytest.raises(ExecutionError, match="ORDER BY"):
            evaluate(plan, tables)

    def test_order_by_nulls_last_and_bools_with_numbers(self):
        tables = {"m": Relation(["v"], [(2,), (None,), (True,), (0.5,)])}
        ascending = op.OrderBy(scan("m", ["v"]), [(col("m.v"), True)])
        assert evaluate(ascending, tables).rows == [
            (0.5,), (True,), (2,), (None,)]
        descending = op.OrderBy(scan("m", ["v"]), [(col("m.v"), False)])
        assert evaluate(descending, tables).rows == [
            (None,), (2,), (True,), (0.5,)]

    def test_aggregate_over_mixed_types_is_typed(self):
        tables = {"m": Relation(["v"], [(1,), ("one",)])}
        plan = op.Aggregation(scan("m", ["v"]), [], [],
                              [op.AggSpec("MAX", col("m.v"), "top")])
        with pytest.raises(ExecutionError, match="MAX"):
            evaluate(plan, tables)

    def test_like_cache_is_bounded(self):
        assert _like_regex.cache_info().maxsize is not None
        for i in range(_like_regex.cache_info().maxsize + 50):
            _like_regex(f"pattern-{i}%")
        info = _like_regex.cache_info()
        assert info.currsize <= info.maxsize

    def test_wrong_arity_is_typed(self):
        with pytest.raises(ExecutionError, match="bad arguments for ABS"):
            ev("ABS(1, 2)")
