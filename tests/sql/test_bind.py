"""Bind-parameter inlining tests."""

import pytest

from repro.algebra.expressions import Literal, Param
from repro.errors import ExecutionError
from repro.sql.bind import bind_expression, bind_statement
from repro.sql.formatter import format_statement
from repro.sql.parser import parse_expression, parse_statement


class TestBindExpression:
    def test_simple(self):
        expr = bind_expression(parse_expression(":a + :b"),
                               {"a": 1, "b": 2})
        assert str(expr) == "1 + 2"

    def test_string_value_quoted(self):
        expr = bind_expression(parse_expression(":name"),
                               {"name": "O'Hara"})
        assert expr == Literal("O'Hara")
        assert str(expr) == "'O''Hara'"

    def test_missing_parameter(self):
        with pytest.raises(ExecutionError, match="missing bind"):
            bind_expression(parse_expression(":gone"), {})

    def test_null_value(self):
        expr = bind_expression(parse_expression(":v"), {"v": None})
        assert expr == Literal(None)


class TestBindStatement:
    def test_update_binding(self):
        stmt = parse_statement(
            "UPDATE account SET bal = bal - :amount "
            "WHERE cust = :name AND typ = :type")
        bound = bind_statement(stmt, {"amount": 70, "name": "Alice",
                                      "type": "Checking"})
        text = format_statement(bound)
        assert ":" not in text
        assert "bal - 70" in text and "'Alice'" in text

    def test_original_statement_unchanged(self):
        stmt = parse_statement("UPDATE t SET a = :v")
        bind_statement(stmt, {"v": 1})
        assert isinstance(stmt.assignments[0].value, Param)

    def test_insert_select_with_subquery_params(self):
        stmt = parse_statement(
            "INSERT INTO overdraft (SELECT a1.cust, a1.bal + a2.bal "
            "FROM account a1, account a2 WHERE a1.cust = :name "
            "AND a1.bal + a2.bal < :limit)")
        bound = bind_statement(stmt, {"name": "Alice", "limit": 0})
        text = format_statement(bound)
        assert ":" not in text and "'Alice'" in text

    def test_params_inside_expression_subquery(self):
        stmt = parse_statement(
            "DELETE FROM t WHERE a IN (SELECT b FROM u WHERE c = :k)")
        bound = bind_statement(stmt, {"k": 5})
        assert ":" not in format_statement(bound)

    def test_select_everywhere(self):
        stmt = parse_statement(
            "SELECT :a AS x FROM t WHERE b = :b GROUP BY c "
            "HAVING COUNT(*) > :c ORDER BY d LIMIT :d")
        bound = bind_statement(stmt, {"a": 1, "b": 2, "c": 3, "d": 4})
        assert ":" not in format_statement(bound)

    def test_as_of_param(self):
        stmt = parse_statement("SELECT * FROM t AS OF :ts")
        bound = bind_statement(stmt, {"ts": 12})
        assert "AS OF 12" in format_statement(bound)

    def test_bound_statement_reparses_equal(self):
        stmt = parse_statement("UPDATE t SET a = :v WHERE b = :w")
        bound = bind_statement(stmt, {"v": 10, "w": "x"})
        reparsed = parse_statement(format_statement(bound))
        assert format_statement(reparsed) == format_statement(bound)

    def test_missing_parameter_in_statement(self):
        stmt = parse_statement("UPDATE t SET a = 1 WHERE b = :gone")
        with pytest.raises(ExecutionError, match="missing bind"):
            bind_statement(stmt, {})
        nested = parse_statement(
            "DELETE FROM t WHERE a IN (SELECT b FROM u WHERE c = :gone)")
        with pytest.raises(ExecutionError, match="missing bind"):
            bind_statement(nested, {"other": 1})

    def test_statement_without_parameters_is_returned_as_is(self):
        for sql in ("INSERT INTO t VALUES (1, 'a'), (2, 'b')",
                    "UPDATE t SET a = a + 1 WHERE b = 2",
                    "DELETE FROM t WHERE a IN (SELECT b FROM u)",
                    "SELECT a FROM t AS OF 3 WHERE b = 1 ORDER BY a"):
            stmt = parse_statement(sql)
            assert bind_statement(stmt, {}) is stmt
            assert bind_statement(stmt, {"unused": 1}) is stmt

    @pytest.mark.parametrize("sql", [
        "UPDATE t SET a = :v, b = 2 WHERE c = :w AND d = 1",
        "DELETE FROM t WHERE a IN (SELECT b FROM u WHERE c = :v) "
        "AND d < :w",
        "INSERT INTO t VALUES (1, :v), (:w, 2)",
        "INSERT INTO t (SELECT a, :v FROM u AS OF :w JOIN s ON u.a = s.a)",
        "SELECT :v AS x FROM t WHERE b = :w GROUP BY c "
        "HAVING COUNT(*) > :v ORDER BY :w LIMIT :v",
        "SELECT a FROM t WHERE b = :v UNION SELECT a FROM u LIMIT :w",
    ])
    def test_callers_statement_is_never_mutated(self, sql):
        stmt = parse_statement(sql)
        # the dataclass repr is structural (subquery nodes compare by
        # identity, so == cannot tell)
        before = repr(stmt)
        bound = bind_statement(stmt, {"v": 10, "w": 20})
        assert bound is not stmt
        assert repr(stmt) == before
        assert ":" not in format_statement(bound)
        # binding is repeatable: the first call left no literal behind
        assert format_statement(bind_statement(stmt, {"v": 1, "w": 2})) \
            != format_statement(bound)
