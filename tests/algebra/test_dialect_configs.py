"""Policy tests for the first-class ``DialectConfig`` layer.

Both shipped dialects — :data:`~repro.algebra.sqlgen.NATIVE` and
:data:`~repro.backends.sqlite.SQLITE_DIALECT` — are swept with the same
identifier/quoting cases (reserved words, mixed-case names, embedded
quotes), pinning that the base :class:`~repro.algebra.sqlgen.Dialect`
carries **no** backend-specific rendering: everything an engine needs
is declared on its config.
"""

import dataclasses

import pytest

from repro.algebra import operators as op
from repro.algebra.expressions import BinaryOp, Column, Literal, Param
from repro.algebra.sqlgen import (NATIVE, Dialect, DialectConfig,
                                  generate_sql)
from repro.backends.sqlite import SQLITE_DIALECT
from repro.errors import ReenactmentError, ReproError

ALL_DIALECTS = {config.name: config for config in (NATIVE, SQLITE_DIALECT)}


def dialect(name):
    return Dialect(ALL_DIALECTS[name])


def scan(table="t", columns=("a", "b")):
    return op.TableScan(table=table, columns=list(columns),
                        binding=table, as_of=None)


class TestRegistry:
    """The configs themselves: immutable and validated on creation."""

    def test_configs_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            SQLITE_DIALECT.quote_style = "none"

    def test_invalid_quote_style_rejected(self):
        with pytest.raises(ReproError, match="quote_style"):
            DialectConfig(name="bad", quote_style="backtick")


@pytest.mark.parametrize("name", ALL_DIALECTS)
class TestIdentifierPolicy:
    """The same identifier cases against both shipped dialects."""

    def test_reserved_words(self, name):
        d = dialect(name)
        for word in ("order", "group", "select", "table"):
            quoted = d.quote(word)
            if d.config.quote_style == "double":
                assert quoted == f'"{word}"'
            else:
                assert quoted == word

    def test_mixed_case_preserved(self, name):
        d = dialect(name)
        assert "AcctBal" in d.quote("AcctBal")

    def test_embedded_quotes_escaped(self, name):
        d = dialect(name)
        quoted = d.quote('we"ird')
        if d.config.quote_style == "double":
            assert quoted == '"we""ird"'
        else:
            assert quoted == 'we"ird'

    def test_generated_sql_quotes_reserved_identifiers(self, name):
        d = dialect(name)
        sql = generate_sql(op.TableScan(table="order",
                                        columns=["group"],
                                        binding="order", as_of=None),
                           dialect=d)
        if d.config.quote_style == "double":
            assert '"order"' in sql and '"group"' in sql
        else:
            assert '"' not in sql

    def test_param_marker(self, name):
        # every shipped engine binds ``:name``; the marker is code,
        # not a config field
        plan = op.Projection(scan(), [Param("ts")], ["p"])
        assert ":ts AS" in generate_sql(plan, dialect=dialect(name))

    def test_generated_sql_uses_dialect_param_marker(self, name):
        d = dialect(name)
        plan = op.Selection(scan(),
                            BinaryOp("=", Column(name="a", key="t.a"),
                                     Param("ts")))
        assert "= :ts" in generate_sql(plan, dialect=d)


@pytest.mark.parametrize("name", ALL_DIALECTS)
class TestRenderingPolicy:
    def test_compound_form_follows_config(self, name):
        d = dialect(name)
        plan = op.SetOp("union",
                        op.ConstRel([[Literal(1)]], ["x"]),
                        op.ConstRel([[Literal(2)]], ["x"]), all=True)
        sql = generate_sql(plan, dialect=d)
        if d.config.parenthesized_compounds:
            assert ") UNION ALL (" in sql
        else:
            assert ") UNION ALL (" not in sql and "UNION ALL" in sql

    def test_cte_barrier_follows_config(self, name):
        d = dialect(name)
        item = d.cte_item("cte_1", "SELECT 1")
        if d.config.cte_materialization:
            assert f"AS {d.config.cte_materialization} (" in item
        else:
            assert "AS (" in item and "MATERIALIZED" not in item

    def test_window_capability_gates_the_hooks(self, name):
        d = dialect(name)
        annotate = op.AnnotateRowId(
            op.ConstRel([[Literal(10)]], ["x"]), name="__new__",
            seed=1)
        if d.config.window_functions:
            assert "ROW_NUMBER() OVER ()" in generate_sql(annotate,
                                                          dialect=d)
        else:
            with pytest.raises(ReenactmentError):
                generate_sql(annotate, dialect=d)


class TestBaseDialectIsPolicyFree:
    """Acceptance pin: the base class carries no backend-specific
    rendering — stripping window hooks from *any* config makes the
    same Dialect instance refuse them, and granting them makes the
    same class render ANSI SQL."""

    def test_stripped_config_refuses_windows(self):
        stripped = dataclasses.replace(SQLITE_DIALECT,
                                       name="sqlite-nowindow",
                                       window_functions=False)
        annotate = op.AnnotateRowId(
            op.ConstRel([[Literal(10)]], ["x"]), name="__new__",
            seed=1)
        with pytest.raises(ReenactmentError):
            generate_sql(annotate, dialect=Dialect(stripped))

    def test_default_dialect_is_native(self):
        d = Dialect()
        assert d.config is NATIVE
        assert d.quote("order") == "order"
