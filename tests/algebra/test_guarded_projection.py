"""The projection every reenacted UPDATE and DELETE compiles to —
computed slots ``CASE WHEN c THEN x ELSE y END`` on one condition ``c``
— tests ``c`` once per row.  Row for row and type for type it must equal
each expression compiled on its own and evaluated slot by slot, raise
the same typed error where that does, and leave every other shape to
the slot-by-slot runner."""

from typing import List
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra import operators as op
from repro.algebra.evaluator import Evaluator, Relation, StaticContext
from repro.algebra.expressions import (BinaryOp, Case, Column, Expr,
                                       IsNull, Literal, SubqueryExpr,
                                       UnaryOp, column_position,
                                       compile_expr, row_layout)
from repro.errors import ExecutionError

COLUMNS = ("a", "b", "p", "q")


def col(name: str) -> Column:
    return Column(name=name, key=f"r.{name}")


SCAN = op.TableScan(table="r", columns=list(COLUMNS), binding="r")
LAYOUT = row_layout(SCAN.attrs)
OTHER = op.TableScan(table="s", columns=["v"], binding="s")

#: Conditions that are TRUE, FALSE or NULL depending on the row, plus
#: constant ones, one that raises where ``b`` is 0, and an integer one
#: (only TRUE selects a row; 1 does not).
CONDITIONS = [
    col("p"),
    col("a"),
    BinaryOp(">", col("a"), col("b")),
    BinaryOp("AND", col("p"), UnaryOp("NOT", col("q"))),
    IsNull(col("a"), False),
    Literal(True), Literal(False), Literal(None),
    BinaryOp(">", BinaryOp("/", col("a"), col("b")), Literal(0)),
]
#: THEN values; the last raises on every row it is evaluated for
THENS = [
    BinaryOp("+", col("a"), Literal(1)),
    BinaryOp("*", col("b"), Literal(2)),
    Literal(7),
    Literal(True),
    col("q"),
    BinaryOp("/", Literal(1), Literal(0)),
]

ints = st.one_of(st.none(), st.integers(-3, 3))
tristate = st.one_of(st.none(), st.booleans())
rows_strategy = st.lists(st.tuples(ints, ints, tristate, tristate),
                         max_size=8)


def reference(exprs: List[Expr], rows: List[tuple], evaluator: Evaluator):
    """Each expression compiled on its own, evaluated slot by slot:
    the rows, or the ExecutionError that the first failing slot
    raises."""
    fns = [compile_expr(e, LAYOUT, evaluator.state) for e in exprs]
    try:
        return [tuple(f(row, None) for f in fns) for row in rows]
    except ExecutionError as exc:
        return exc


def run(exprs: List[Expr], rows: List[tuple]):
    """The projection's rows from the evaluator, or its ExecutionError,
    with whether the one-condition runner took it."""
    tables = {"r": Relation(list(COLUMNS), list(rows)),
              "s": Relation(["v"], [(1,)])}
    evaluator = Evaluator(StaticContext(tables))
    plan = op.Projection(SCAN, exprs, [f"o{i}" for i in range(len(exprs))])
    positions = [column_position(e, LAYOUT) for e in exprs]
    guarded = evaluator._guarded_projection(exprs, positions, LAYOUT,
                                            len(COLUMNS))
    try:
        got = evaluator.evaluate(plan).rows
    except ExecutionError as exc:
        got = exc
    return got, reference(exprs, list(rows), evaluator), guarded is not None


def typed(result):
    if isinstance(result, ExecutionError):
        return ("raises", str(result))
    return [tuple((type(v), v) for v in row) for row in result]


@st.composite
def reenacted_projections(draw):
    """A projection of the reenactment shape: pass-through columns and
    ``CASE WHEN c THEN x ELSE y END`` slots on one ``c``, each ``y``
    the slot's own column (identity), another column or a literal, and
    plain literal slots."""
    condition = draw(st.sampled_from(CONDITIONS))
    exprs: List[Expr] = []
    for own in COLUMNS + draw(st.sampled_from([(), ("a",)])):
        kind = draw(st.sampled_from(["keep", "case", "case", "literal"]))
        if kind == "keep":
            exprs.append(col(own))
            continue
        if kind == "literal":
            exprs.append(Literal(draw(st.sampled_from([False, 0, None]))))
            continue
        default = draw(st.sampled_from(
            [col(own), col(own), col("b"), Literal(False), Literal(0)]))
        exprs.append(Case(((condition, draw(st.sampled_from(THENS))),),
                          default))
    if not any(type(e) is Case for e in exprs):
        exprs[-1] = Case(((condition, Literal(True)),), exprs[-1]
                         if type(exprs[-1]) is Column else col("q"))
    return exprs


def breakers(condition: Expr) -> List[Expr]:
    """Computed slots that take any projection off the one-condition
    runner."""
    exists = SubqueryExpr("EXISTS", None, plan=OTHER)
    return [
        Case(((col("q"), Literal(1)),), col("a")),            # other c
        Case(((condition, Literal(1)), (col("q"), Literal(2))),
             col("a")),                                        # two WHENs
        Case(((condition, Literal(1)),)),                      # no ELSE
        Case(((BinaryOp("AND", condition, exists), Literal(1)),),
             col("a")),                                        # subquery
        Case(((condition, Literal(1)),),
             BinaryOp("+", col("a"), Literal(1))),             # computed y
        Case(((condition, Literal(1)),),
             Column(name="z", key="outer.z")),                 # outer y
        BinaryOp("+", col("a"), col("b")),                     # no CASE
    ]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(reenacted_projections(), rows_strategy)
def test_one_condition_runner_equals_slot_by_slot(exprs, rows):
    got, expected, guarded = run(exprs, rows)
    assert guarded
    assert typed(got) == typed(expected)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(reenacted_projections(), st.integers(0, 6), st.data(), rows_strategy)
def test_every_other_shape_keeps_the_slot_by_slot_runner(exprs, which,
                                                        data, rows):
    case = next(e for e in exprs if type(e) is Case)
    condition = case.whens[0][0]
    slot = data.draw(st.integers(0, len(exprs)))
    exprs = exprs[:slot] + [breakers(condition)[which]] + exprs[slot:]
    got, expected, guarded = run(exprs, rows)
    assert not guarded
    assert typed(got) == typed(expected)


@st.composite
def column_and_literal_projections(draw):
    """Slots that are input columns or literals, at least one literal:
    the base projection of every chain (stored columns, then ``false AS
    __upd__, false AS __del__``) and any reordering of it."""
    exprs = draw(st.lists(st.one_of(
        st.sampled_from([col(c) for c in COLUMNS]),
        st.sampled_from([Literal(False), Literal(0), Literal(None),
                         Literal("x")])), max_size=7))
    slot = draw(st.integers(0, len(exprs)))
    return exprs[:slot] + [draw(st.sampled_from(
        [Literal(False), Literal(1.5)]))] + exprs[slot:]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(column_and_literal_projections(), rows_strategy)
def test_columns_and_literals_are_one_pick(exprs, rows):
    """Built without compiling a single slot: no slot-by-slot runner."""
    evaluator = Evaluator(StaticContext(
        {"r": Relation(list(COLUMNS), list(rows))}))
    plan = op.Projection(SCAN, exprs, [f"o{i}" for i in range(len(exprs))])
    with mock.patch("repro.algebra.evaluator.compile_expr",
                    side_effect=AssertionError("compiled a slot")):
        got = evaluator.evaluate(plan).rows
    assert typed(got) == typed(reference(exprs, list(rows), evaluator))


def _rows_of(exprs: List[Expr], rows: List[tuple]):
    tables = {"r": Relation(list(COLUMNS), rows)}
    evaluator = Evaluator(StaticContext(tables))
    scanned = evaluator._runner(SCAN)(None)
    plan = op.Projection(SCAN, exprs, [f"o{i}" for i in range(len(exprs))])
    return scanned, evaluator._runner(plan)(None)


ROWS = [(1, 0, True, False), (2, 5, False, None), (None, 1, None, True)]


def test_unselected_rows_are_the_input_tuples():
    exprs = [col("a"), Case(((col("p"), Literal(9)),), col("b")),
             col("p"), Case(((col("p"), Literal(True)),), col("q"))]
    scanned, out = _rows_of(exprs, ROWS)
    assert out[0] == (1, 9, True, True)
    assert out[1] is scanned[1] and out[2] is scanned[2]


def test_a_literal_else_builds_the_else_row():
    # the first statement's __upd__: ELSE false where the input has none
    exprs = [col("a"), col("b"), col("p"),
             Case(((col("p"), Literal(True)),), Literal(False)),
             Literal(False)]
    _, out = _rows_of(exprs, ROWS)
    assert typed(out) == typed([(1, 0, True, True, False),
                                (2, 5, False, False, False),
                                (None, 1, None, False, False)])


def test_a_rename_hands_on_its_input_rows():
    scanned, out = _rows_of([col(c) for c in COLUMNS], ROWS)
    assert out is scanned


@pytest.mark.parametrize("selected, raises", [
    ((True, False, None), True), ((False, None, None), False)])
def test_then_raises_only_on_selected_rows(selected, raises):
    rows = [(1, 1, p, None) for p in selected]
    exprs = [col("a"), col("b"), col("p"),
             Case(((col("p"), BinaryOp("/", Literal(1), Literal(0))),),
                  col("q"))]
    got, expected, guarded = run(exprs, rows)
    assert guarded
    assert isinstance(got, ExecutionError) is raises
    assert typed(got) == typed(expected)

