"""Bind-parameter inlining.

The audit log must contain self-contained SQL: the paper's transactions
use bind parameters (``:name``, ``:amount`` in Fig. 1), and reenactment
needs the *bound* statement text.  Commercial audit logs record bind
values alongside statements; we normalize by substituting parameters
with literals before logging.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List

from repro.algebra.expressions import (Expr, Literal, Param, SubqueryExpr,
                                       transform)
from repro.errors import ExecutionError
from repro.sql import ast


def bind_expression(expr: Expr, params: Dict[str, Any]) -> Expr:
    """Replace every :class:`Param` with the literal bound value.
    ``expr`` is never mutated; it is returned as is when it holds no
    parameter."""
    replaced = False

    def visit(node: Expr) -> Expr:
        nonlocal replaced
        if isinstance(node, Param):
            if node.name not in params:
                raise ExecutionError(
                    f"missing bind parameter :{node.name}")
            replaced = True
            return Literal(params[node.name])
        if isinstance(node, SubqueryExpr) and node.query is not None:
            bound = _with(node, query=bind_statement(node.query, params))
            replaced = replaced or bound is not node
            return bound
        return node

    bound = transform(expr, visit)
    return bound if replaced else expr


def bind_statement(stmt: ast.Statement,
                   params: Dict[str, Any]) -> ast.Statement:
    """``stmt`` with all parameters inlined.  The caller's statement is
    never mutated: nodes on the way to a replaced parameter are built
    anew, everything else is shared — a statement holding no parameter
    is returned as is."""

    def expr(e):
        return None if e is None else bind_expression(e, params)

    def exprs(items: List[Expr]) -> List[Expr]:
        return _each(items, expr)

    def keyed(items):   # SelectItem / OrderItem
        return _each(items, lambda item: _with(item, expr=expr(item.expr)))

    def source(src: ast.TableSource) -> ast.TableSource:
        if isinstance(src, ast.TableRef):
            return _with(src, as_of=expr(src.as_of))
        if isinstance(src, ast.SubquerySource):
            return _with(src, query=bind_statement(src.query, params))
        if isinstance(src, ast.JoinSource):
            return _with(src, left=source(src.left),
                         right=source(src.right),
                         condition=expr(src.condition))
        return src

    if isinstance(stmt, ast.Select):
        return _with(stmt, items=keyed(stmt.items),
                     sources=_each(stmt.sources, source),
                     where=expr(stmt.where),
                     group_by=exprs(stmt.group_by),
                     having=expr(stmt.having),
                     order_by=keyed(stmt.order_by),
                     limit=expr(stmt.limit))
    if isinstance(stmt, ast.SetOpQuery):
        return _with(stmt, left=bind_statement(stmt.left, params),
                     right=bind_statement(stmt.right, params),
                     order_by=keyed(stmt.order_by),
                     limit=expr(stmt.limit))
    if isinstance(stmt, ast.ValuesClause):
        return _with(stmt, rows=_each(stmt.rows, exprs))
    if isinstance(stmt, ast.Insert):
        return _with(stmt, source=bind_statement(stmt.source, params))
    if isinstance(stmt, ast.Update):
        return _with(stmt, where=expr(stmt.where), assignments=_each(
            stmt.assignments,
            lambda a: _with(a, value=expr(a.value))))
    if isinstance(stmt, ast.Delete):
        return _with(stmt, where=expr(stmt.where))
    if isinstance(stmt, ast.ProvenanceOfQuery):
        return _with(stmt, query=bind_statement(stmt.query, params))
    # DDL / transaction control / transaction-id requests carry no
    # parameters
    return stmt


def _with(node, **fields):
    """``node`` with ``fields`` replaced — ``node`` itself when it
    already holds every one of those values."""
    changed = {name: value for name, value in fields.items()
               if value is not getattr(node, name)}
    return dataclasses.replace(node, **changed) if changed else node


def _each(items: List, bind: Callable) -> List:
    """``[bind(item) for item in items]`` — ``items`` itself when
    ``bind`` changed none of them."""
    out = [bind(item) for item in items]
    if all(new is old for new, old in zip(out, items)):
        return items
    return out
