"""Regression tests for sqlgen gaps the SQLite backend exposed.

Each test pins one fix:

* compound-SELECT operands: the native dialect parenthesizes (its
  parser requires it), but targets like SQLite reject that form — the
  composition is now a dialect hook;
* ORDER BY items were remapped without the generator, so subquery
  plans inside them rendered with the *default* dialect (and a fresh
  alias counter) — time-traveled scans leaked ``AS OF`` into foreign
  dialects;
* deep plans (RC re-basing chains) nest subqueries past bounded parser
  stacks — CTE dialects flatten every uncorrelated derived table into
  a WITH clause, while correlated expression subqueries stay inline;
* AnnotateRowId is now renderable by dialects with window functions
  instead of being unconditionally unprintable;
* identifier quoting is dialect-controlled.
"""

import sqlite3

import pytest

from repro.algebra import operators as op
from repro.algebra.expressions import (BinaryOp, Column, Literal,
                                       SubqueryExpr)
from repro.algebra.sqlgen import Dialect, DialectConfig, generate_sql
from repro.errors import ReenactmentError


class MappingDialect(Dialect):
    """Minimal non-native dialect: quotes identifiers, maps scans to
    plain physical names, flattens with CTEs."""

    def __init__(self):
        super().__init__(DialectConfig(
            name="mapping", quote_style="double", use_ctes=True,
            parenthesized_compounds=False))
        self.bound = []

    def scan_source(self, scan):
        self.bound.append(scan.table)
        return self.quote(f"phys_{scan.table}")


def scan(table="t", columns=("a", "b")):
    return op.TableScan(table=table, columns=list(columns),
                        binding=table, as_of=Literal(5))


def test_native_output_unchanged_for_setops():
    plan = op.SetOp("union", scan(), scan(), all=True)
    sql = generate_sql(plan)
    assert ") UNION ALL (" in sql
    assert "WITH" not in sql


def test_dialect_compound_without_parens_is_sqlite_valid():
    plan = op.SetOp("union",
                    op.ConstRel([[Literal(1)], [Literal(2)]], ["x"]),
                    op.ConstRel([[Literal(3)]], ["x"]), all=True)
    sql = generate_sql(plan, dialect=MappingDialect())
    rows = sqlite3.connect(":memory:").execute(sql).fetchall()
    assert sorted(rows) == [(1,), (2,), (3,)]


def test_native_compound_rejected_by_sqlite():
    """Documents why the hook exists: the native parenthesized form is
    a syntax error on SQLite."""
    plan = op.SetOp("union",
                    op.ConstRel([[Literal(1)]], ["x"]),
                    op.ConstRel([[Literal(2)]], ["x"]), all=True)
    native_sql = generate_sql(plan)
    with pytest.raises(sqlite3.OperationalError):
        sqlite3.connect(":memory:").execute(native_sql)


def test_orderby_subquery_uses_dialect():
    subplan = op.Projection(scan("s", ("v",)),
                            [Column(name="v", key="s.v")], ["v"])
    subquery = SubqueryExpr("SCALAR", None, plan=subplan)
    plan = op.OrderBy(scan(), items=[(subquery, True)])
    dialect = MappingDialect()
    sql = generate_sql(plan, dialect=dialect)
    assert "AS OF" not in sql, \
        "ORDER BY subquery rendered with the wrong dialect"
    assert "s" in dialect.bound


def test_deep_chain_flattened_into_ctes():
    plan = scan()
    for index in range(150):
        plan = op.Projection(
            plan,
            [BinaryOp("+", Column(name="a", key="t.a"), Literal(1)),
             Column(name="b", key="t.b")],
            ["t.a", "t.b"])
    sql = generate_sql(plan, dialect=MappingDialect())
    assert sql.startswith("WITH ")
    # nesting depth must stay flat no matter the chain length
    depth, worst = 0, 0
    for ch in sql:
        if ch == "(":
            depth += 1
            worst = max(worst, depth)
        elif ch == ")":
            depth -= 1
    assert worst < 20, f"CTE flattening failed: paren depth {worst}"
    # native stays inline (the re-parse fixpoint relies on it)
    assert not generate_sql(plan).startswith("WITH ")


def test_correlated_subquery_not_hoisted():
    """A correlated scalar subquery must stay inline: a CTE cannot see
    the enclosing query's columns."""
    inner = op.Projection(
        op.Selection(
            scan("s", ("v",)),
            BinaryOp("=", Column(name="v", key="s.v"),
                     Column(name="a", key="t.a"))),
        [Column(name="v", key="s.v")], ["v"])
    subquery = SubqueryExpr("SCALAR", None, plan=inner, correlated=True)
    plan = op.Selection(scan(),
                        BinaryOp("=", Column(name="a", key="t.a"),
                                 subquery))
    sql = generate_sql(plan, dialect=MappingDialect())
    with_clause = sql.split("SELECT", 1)[0]
    assert "phys_s" not in with_clause, \
        "correlated subquery body was hoisted into the WITH clause"


def test_annotate_rowid_native_still_raises():
    plan = op.AnnotateRowId(scan(), name="__new__", seed=2)
    with pytest.raises(ReenactmentError):
        generate_sql(plan)


def test_annotate_rowid_renderable_by_window_dialect():
    class WindowDialect(MappingDialect):
        def gen_annotate_rowid(self, gen, node):
            sql, colmap = gen.gen(node.child)
            alias = gen.fresh("t")
            flat = gen.fresh("c")
            columns = ", ".join(colmap[a] for a in node.child.attrs)
            out = dict(colmap)
            out[node.name] = flat
            return (f"SELECT {columns}, "
                    f"-({node.seed * 1_000_000} + ROW_NUMBER() OVER ())"
                    f" AS {flat} FROM {gen.derived(sql)} AS {alias}",
                    out)

    plan = op.AnnotateRowId(
        op.ConstRel([[Literal(10)], [Literal(20)]], ["x"]),
        name="__new__", seed=3)
    sql = generate_sql(plan, dialect=WindowDialect())
    rows = sqlite3.connect(":memory:").execute(sql).fetchall()
    assert sorted(rows) == [(10, -3000001), (20, -3000002)]


def test_identifier_quoting_is_dialect_controlled():
    reserved = op.TableScan(table="order", columns=["group"],
                            binding="order", as_of=None)
    native = generate_sql(reserved)
    assert '"order"' not in native
    quoted = generate_sql(reserved, dialect=MappingDialect())
    assert '"phys_order"' in quoted and '"group"' in quoted


def test_empty_const_rel_executes_on_sqlite():
    """NULL-typed empty relation: ``WHERE FALSE`` guard must yield zero
    rows, not a single all-NULL row (NULL-vs-tombstone distinction)."""
    plan = op.ConstRel([], ["x", "y"])
    sql = generate_sql(plan, dialect=MappingDialect())
    rows = sqlite3.connect(":memory:").execute(sql).fetchall()
    assert rows == []
