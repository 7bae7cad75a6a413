"""Scalar expression IR with SQL three-valued logic.

Expressions are produced by the SQL parser, resolved by the translator
(column references get rewritten to exact attribute keys of their scope),
rewritten by the reenactor and the optimizer, evaluated by the algebra
interpreter, and printed back to SQL by the formatter / code generator.

Design notes
------------
* SQL NULL is Python ``None``.  Comparisons and arithmetic involving NULL
  yield NULL; ``AND``/``OR`` follow Kleene logic; ``WHERE`` keeps only
  rows whose condition is exactly ``True``.
* After translation every :class:`Column` carries the exact attribute key
  of the operator input schema (e.g. ``"a1.bal"``).  :func:`compile_expr`
  turns an expression into a closure once per operator; a column of the
  operator's input becomes a positional ``row[i]``, and only correlated
  references search the chain of outer scopes (:class:`RowEnv`).
* Aggregate function calls never reach :func:`compile_expr`; the
  translator extracts them into
  :class:`~repro.algebra.operators.Aggregation`.
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

from repro.db.types import coerce_value, lookup_type
from repro.errors import ExecutionError

#: Function names treated as aggregates (extracted by the translator).
AGGREGATE_FUNCTIONS = {"COUNT", "SUM", "AVG", "MIN", "MAX"}


class Expr:
    """Base class of all scalar expressions."""

    def children(self) -> List["Expr"]:
        return []

    def __str__(self) -> str:
        # The SQL formatter renders expressions; import locally to avoid
        # a circular import at module load time.
        from repro.sql.formatter import format_expr
        return format_expr(self)


@dataclass(eq=True)
class Literal(Expr):
    value: Any


@dataclass(eq=True)
class Column(Expr):
    """A column reference.

    ``table`` is the (optional) qualifier as written in SQL.  After name
    resolution, :attr:`key` holds the exact attribute name in the operator
    schema and is what evaluation uses.
    """

    name: str
    table: Optional[str] = None
    key: Optional[str] = None

    @property
    def display(self) -> str:
        if self.table:
            return f"{self.table}.{self.name}"
        return self.name


@dataclass(eq=True)
class Param(Expr):
    """A named bind parameter, ``:name`` in SQL (Fig. 1 of the paper)."""

    name: str


@dataclass(eq=True)
class Star(Expr):
    """``*`` or ``t.*`` — valid only in select lists and COUNT(*)."""

    table: Optional[str] = None


@dataclass(eq=True)
class BinaryOp(Expr):
    op: str  # + - * / % || = <> < <= > >= AND OR
    left: Expr
    right: Expr

    def children(self) -> List[Expr]:
        return [self.left, self.right]


@dataclass(eq=True)
class UnaryOp(Expr):
    op: str  # NOT, -
    operand: Expr

    def children(self) -> List[Expr]:
        return [self.operand]


@dataclass(eq=True)
class Case(Expr):
    """Searched CASE: ``CASE WHEN c THEN r ... ELSE d END``.

    Simple CASE (``CASE x WHEN v ...``) is normalized by the parser into
    the searched form, so only this node exists downstream — the
    reenactor's update rewriting (Example 3 of the paper) produces it.
    """

    whens: Tuple[Tuple[Expr, Expr], ...]
    default: Optional[Expr] = None

    def children(self) -> List[Expr]:
        out: List[Expr] = []
        for cond, result in self.whens:
            out.append(cond)
            out.append(result)
        if self.default is not None:
            out.append(self.default)
        return out


@dataclass(eq=True)
class FuncCall(Expr):
    name: str  # upper-cased
    args: Tuple[Expr, ...]
    distinct: bool = False  # COUNT(DISTINCT x)

    def children(self) -> List[Expr]:
        return list(self.args)

    @property
    def is_aggregate(self) -> bool:
        return self.name in AGGREGATE_FUNCTIONS


@dataclass(eq=True)
class IsNull(Expr):
    operand: Expr
    negated: bool = False

    def children(self) -> List[Expr]:
        return [self.operand]


@dataclass(eq=True)
class InList(Expr):
    operand: Expr
    items: Tuple[Expr, ...]
    negated: bool = False

    def children(self) -> List[Expr]:
        return [self.operand] + list(self.items)


@dataclass(eq=True)
class Between(Expr):
    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False

    def children(self) -> List[Expr]:
        return [self.operand, self.low, self.high]


@dataclass(eq=True)
class Like(Expr):
    operand: Expr
    pattern: Expr
    negated: bool = False

    def children(self) -> List[Expr]:
        return [self.operand, self.pattern]


@dataclass(eq=False)
class SubqueryExpr(Expr):
    """Scalar / EXISTS / IN subquery.

    ``query`` holds the parsed ``Select`` AST until the translator plans
    it and stores the algebra plan in ``plan``.  Correlated columns are
    resolved against enclosing scopes and evaluated via the environment
    chain.
    """

    kind: str  # 'SCALAR' | 'EXISTS' | 'IN'
    query: Any  # repro.sql.ast.Select until planned
    operand: Optional[Expr] = None  # IN only
    negated: bool = False
    plan: Any = None  # repro.algebra.operators.Operator once planned
    correlated: bool = False  # set by the translator

    def children(self) -> List[Expr]:
        return [self.operand] if self.operand is not None else []


@dataclass(eq=True)
class RawSQL(Expr):
    """Pre-rendered SQL text, emitted verbatim by the formatter.

    Only the SQL code generator creates these (for subqueries that must
    share the outer query's name space); they are never evaluated.
    """

    text: str


# ---------------------------------------------------------------------------
# Traversal / rewriting utilities
# ---------------------------------------------------------------------------

def transform(expr: Expr, fn: Callable[[Expr], Expr]) -> Expr:
    """Bottom-up rewrite: rebuild ``expr`` with ``fn`` applied to every
    node after its children have been transformed."""
    if isinstance(expr, BinaryOp):
        expr = BinaryOp(expr.op, transform(expr.left, fn),
                        transform(expr.right, fn))
    elif isinstance(expr, UnaryOp):
        expr = UnaryOp(expr.op, transform(expr.operand, fn))
    elif isinstance(expr, Case):
        whens = tuple((transform(c, fn), transform(r, fn))
                      for c, r in expr.whens)
        default = transform(expr.default, fn) if expr.default else None
        expr = Case(whens, default)
    elif isinstance(expr, FuncCall):
        expr = FuncCall(expr.name,
                        tuple(transform(a, fn) for a in expr.args),
                        expr.distinct)
    elif isinstance(expr, IsNull):
        expr = IsNull(transform(expr.operand, fn), expr.negated)
    elif isinstance(expr, InList):
        expr = InList(transform(expr.operand, fn),
                      tuple(transform(i, fn) for i in expr.items),
                      expr.negated)
    elif isinstance(expr, Between):
        expr = Between(transform(expr.operand, fn),
                       transform(expr.low, fn), transform(expr.high, fn),
                       expr.negated)
    elif isinstance(expr, Like):
        expr = Like(transform(expr.operand, fn),
                    transform(expr.pattern, fn), expr.negated)
    elif isinstance(expr, SubqueryExpr):
        operand = transform(expr.operand, fn) if expr.operand else None
        expr = SubqueryExpr(expr.kind, expr.query, operand, expr.negated,
                            expr.plan, expr.correlated)
    return fn(expr)


def transform_topdown(expr: Expr, fn: Callable[[Expr], Expr]) -> Expr:
    """Top-down rewrite: ``fn`` is tried on each node first; if it
    returns a replacement (anything not identical to the node), the
    replacement is kept and its children are *not* visited.  Used when
    whole-expression matches must win over sub-expression matches
    (e.g. mapping GROUP BY expressions onto aggregation outputs)."""
    replaced = fn(expr)
    if replaced is not expr:
        return replaced

    # Rebuild one level, recursing with transform_topdown so deeper
    # nodes also get first-match-wins.
    if isinstance(expr, BinaryOp):
        return BinaryOp(expr.op, transform_topdown(expr.left, fn),
                        transform_topdown(expr.right, fn))
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, transform_topdown(expr.operand, fn))
    if isinstance(expr, Case):
        whens = tuple((transform_topdown(c, fn), transform_topdown(r, fn))
                      for c, r in expr.whens)
        default = transform_topdown(expr.default, fn) \
            if expr.default else None
        return Case(whens, default)
    if isinstance(expr, FuncCall):
        return FuncCall(expr.name,
                        tuple(transform_topdown(a, fn) for a in expr.args),
                        expr.distinct)
    if isinstance(expr, IsNull):
        return IsNull(transform_topdown(expr.operand, fn), expr.negated)
    if isinstance(expr, InList):
        return InList(transform_topdown(expr.operand, fn),
                      tuple(transform_topdown(i, fn) for i in expr.items),
                      expr.negated)
    if isinstance(expr, Between):
        return Between(transform_topdown(expr.operand, fn),
                       transform_topdown(expr.low, fn),
                       transform_topdown(expr.high, fn), expr.negated)
    if isinstance(expr, Like):
        return Like(transform_topdown(expr.operand, fn),
                    transform_topdown(expr.pattern, fn), expr.negated)
    if isinstance(expr, SubqueryExpr):
        operand = transform_topdown(expr.operand, fn) \
            if expr.operand is not None else None
        return SubqueryExpr(expr.kind, expr.query, operand, expr.negated,
                            expr.plan, expr.correlated)
    return expr


def walk(expr: Expr) -> Iterable[Expr]:
    """Pre-order iteration over all nodes of an expression tree.

    Iterative (explicit stack): reenactment chains produce expressions
    thousands of nodes deep, where generator recursion is both slow and
    a recursion-limit hazard.
    """
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        children = node.children()
        if children:
            stack.extend(reversed(children))


def columns_used(expr: Expr) -> List[str]:
    """Resolved attribute keys referenced by the expression, in order of
    first occurrence (unresolved columns report their display name)."""
    seen: Dict[str, None] = {}
    for node in walk(expr):
        if isinstance(node, Column):
            seen.setdefault(node.key or node.display, None)
    return list(seen)


def substitute(expr: Expr, mapping: Dict[str, Expr]) -> Expr:
    """Replace resolved column references by expressions (the core of
    projection merging and of composing reenactment CASE stacks)."""

    def visit(node: Expr) -> Expr:
        if isinstance(node, Column):
            key = node.key or node.display
            if key in mapping:
                return mapping[key]
        return node

    return transform(expr, visit)


def contains_aggregate(expr: Expr) -> bool:
    return any(isinstance(n, FuncCall) and n.is_aggregate
               for n in walk(expr))


def contains_subquery(expr: Expr) -> bool:
    return any(isinstance(n, SubqueryExpr) for n in walk(expr))


def conjuncts(expr: Optional[Expr]) -> List[Expr]:
    """Split a condition into its top-level AND-ed conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return conjuncts(expr.left) + conjuncts(expr.right)
    return [expr]


def conjunction(parts: Sequence[Expr]) -> Optional[Expr]:
    """AND together a list of conditions (None for the empty list)."""
    result: Optional[Expr] = None
    for part in parts:
        result = part if result is None else BinaryOp("AND", result, part)
    return result


def negate(expr: Expr) -> Expr:
    """Logical negation, with trivial simplifications."""
    if isinstance(expr, UnaryOp) and expr.op == "NOT":
        return expr.operand
    if isinstance(expr, Literal) and isinstance(expr.value, bool):
        return Literal(not expr.value)
    return UnaryOp("NOT", expr)


# ---------------------------------------------------------------------------
# Evaluation: compile once, call per row
# ---------------------------------------------------------------------------

class RowEnv:
    """Outer scope of a correlated subquery: attribute key → value of
    the enclosing rows, innermost first.

    Built only when a correlated subquery needs an outer frame; an
    operator's own columns are read positionally from its input row.
    """

    __slots__ = ("values", "outer")

    def __init__(self, values: Dict[str, Any],
                 outer: Optional["RowEnv"] = None):
        self.values = values
        self.outer = outer

    def lookup(self, key: str) -> Any:
        env: Optional[RowEnv] = self
        while env is not None:
            if key in env.values:
                return env.values[key]
            env = env.outer
        raise ExecutionError(f"unknown column {key!r} at evaluation time")


#: A compiled expression, called as ``f(row, outer)``.
Compiled = Callable[[tuple, Optional[RowEnv]], Any]

#: Attribute key → position in the rows a compiled expression is fed.
Layout = Mapping[str, int]

#: Provided by the algebra evaluator: (subquery plan, layout of the
#: enclosing rows) → ``rows_of(row, outer)``.
SubqueryRunner = Callable[[Any, Layout],
                          Callable[[tuple, Optional[RowEnv]], List[tuple]]]


def row_layout(attrs: Sequence[str]) -> Dict[str, int]:
    """Layout of rows with schema ``attrs``; a duplicated name resolves
    to its last position."""
    return {attr: index for index, attr in enumerate(attrs)}


class EvalState:
    """Compile-time context: bind parameters and the subquery runner
    provided by the algebra evaluator."""

    __slots__ = ("params", "subquery_runner")

    def __init__(self, params: Optional[Dict[str, Any]] = None,
                 subquery_runner: Optional[SubqueryRunner] = None):
        self.params = params or {}
        self.subquery_runner = subquery_runner


def compile_expr(expr: Expr, layout: Layout, state: EvalState) -> Compiled:
    """Compile a (fully resolved, aggregate-free) expression into a
    closure ``f(row, outer)``.

    Everything that does not depend on the row is decided here: a column
    whose key is in ``layout`` becomes ``row[i]``; operators, negation
    flags, scalar functions, cast targets and bind parameters are looked
    up once.  Only columns missing from ``layout`` (correlated
    references) search the ``outer`` chain at run time.  What cannot be
    evaluated compiles to a closure that raises when called, so a branch
    that never runs never fails.
    """
    build = _COMPILERS.get(type(expr))
    if build is None:
        return _raises(f"cannot evaluate expression {expr!r}")
    return build(expr, layout, state)


def eval_expr(expr: Expr, env: Optional[RowEnv], state: EvalState) -> Any:
    """One-shot evaluation: compiled against an empty layout, so every
    column resolves through ``env``."""
    return compile_expr(expr, {}, state)((), env)


def column_position(expr: Expr, layout: Layout) -> Optional[int]:
    """Row position of a plain column reference that is in ``layout``."""
    if type(expr) is Column:
        return layout.get(expr.key or expr.display)
    return None


def _raises(message: str) -> Compiled:
    def run(row, outer):
        raise ExecutionError(message)
    return run


def _constant(value: Any) -> Compiled:
    return lambda row, outer: value


_NOT_CONSTANT = object()


def _constant_of(expr: Expr, state: EvalState) -> Any:
    """Value of a literal or bound parameter, else ``_NOT_CONSTANT``."""
    if type(expr) is Literal:
        return expr.value
    if type(expr) is Param:
        return state.params.get(expr.name, _NOT_CONSTANT)
    return _NOT_CONSTANT


def _compile_literal(expr: Literal, layout, state) -> Compiled:
    return _constant(expr.value)


def _compile_column(expr: Column, layout, state) -> Compiled:
    key = expr.key or expr.display
    index = layout.get(key)
    if index is not None:
        return lambda row, outer: row[index]

    def run(row, outer):
        if outer is None:
            raise ExecutionError(
                f"unknown column {key!r} at evaluation time")
        return outer.lookup(key)
    return run


def _compile_param(expr: Param, layout, state) -> Compiled:
    if expr.name not in state.params:
        return _raises(f"missing bind parameter :{expr.name}")
    return _constant(state.params[expr.name])


# .. three-valued logic .......................................................

def _as_bool(value: Any) -> Optional[bool]:
    if value is None or value is True or value is False:
        return value
    raise ExecutionError(
        f"expected a boolean condition value, got {value!r}")


def _kleene_and(left: Optional[bool], right: Optional[bool]
                ) -> Optional[bool]:
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return True


def _kleene_or(left: Optional[bool], right: Optional[bool]
               ) -> Optional[bool]:
    if left is True or right is True:
        return True
    if left is None or right is None:
        return None
    return False


def _kleene_not(value: Optional[bool]) -> Optional[bool]:
    return None if value is None else not value


# .. NULL-strict binary operators .............................................

def _divide(left: Any, right: Any) -> Any:
    if right == 0:
        raise ExecutionError("division by zero")
    # SQL-style: INT / INT stays integral when exact.  divmod, not a
    # float quotient: floats lose integers above 2**53.
    if isinstance(left, int) and isinstance(right, int) \
            and not isinstance(left, bool):
        quotient, remainder = divmod(left, right)
        if remainder == 0:
            return quotient
    return left / right


def _modulo(left: Any, right: Any) -> Any:
    if right == 0:
        raise ExecutionError("division by zero")
    return left % right


def _concat(left: Any, right: Any) -> str:
    return str(left) + str(right)


_CANNOT_COMPARE = "cannot compare {!r} and {!r}"

_COMPARISONS: Dict[str, Callable[[Any, Any], Any]] = {
    "=": operator.eq, "<>": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}

_ARITHMETIC: Dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": _divide, "%": _modulo, "||": _concat,
}


def _apply_strict(fn: Callable[[Any, Any], Any], complaint: str,
                  left: Any, right: Any) -> Any:
    """``fn(left, right)``; NULL if either side is NULL."""
    if left is None or right is None:
        return None
    try:
        return fn(left, right)
    except (TypeError, OverflowError) as exc:
        raise ExecutionError(complaint.format(left, right)) from exc


def _compile_strict(fn: Callable[[Any, Any], Any], complaint: str,
                    expr: BinaryOp, layout, state) -> Compiled:
    """:func:`_apply_strict` over two compiled operands.  The shape
    ``column <op> constant`` — the conditions and increments of
    reenacted updates — skips the calls for its leaves."""
    position = column_position(expr.left, layout)
    constant = _constant_of(expr.right, state)
    if position is None or constant is _NOT_CONSTANT or constant is None:
        left = compile_expr(expr.left, layout, state)
        right = compile_expr(expr.right, layout, state)
        return lambda row, outer: _apply_strict(
            fn, complaint, left(row, outer), right(row, outer))

    def run_column(row, outer):
        value = row[position]
        if value is None:
            return None
        try:
            return fn(value, constant)
        except (TypeError, OverflowError) as exc:
            raise ExecutionError(
                complaint.format(value, constant)) from exc
    return run_column


def _compile_binary(expr: BinaryOp, layout, state) -> Compiled:
    op = expr.op
    if op in _COMPARISONS:
        return _compile_strict(_COMPARISONS[op], _CANNOT_COMPARE,
                               expr, layout, state)
    if op in _ARITHMETIC:
        return _compile_strict(_ARITHMETIC[op],
                               f"bad operands for {op!r}: {{!r}}, {{!r}}",
                               expr, layout, state)
    left = compile_expr(expr.left, layout, state)
    right = compile_expr(expr.right, layout, state)
    if op == "AND":
        def run_and(row, outer):
            lhs = left(row, outer)
            if lhs is False:
                return False
            return _kleene_and(_as_bool(lhs), _as_bool(right(row, outer)))
        return run_and
    if op == "OR":
        def run_or(row, outer):
            lhs = left(row, outer)
            if lhs is True:
                return True
            return _kleene_or(_as_bool(lhs), _as_bool(right(row, outer)))
        return run_or
    return _raises(f"unknown binary operator {op!r}")


def _compile_unary(expr: UnaryOp, layout, state) -> Compiled:
    operand = compile_expr(expr.operand, layout, state)
    if expr.op == "NOT":
        return lambda row, outer: _kleene_not(
            _as_bool(operand(row, outer)))
    if expr.op == "-":
        def run_minus(row, outer):
            value = operand(row, outer)
            try:
                return None if value is None else -value
            except TypeError as exc:
                raise ExecutionError(
                    f"bad operand for '-': {value!r}") from exc
        return run_minus
    return _raises(f"unknown unary operator {expr.op!r}")


# .. scalar functions ........................................................

_SCALAR_FUNCTIONS: Dict[str, Callable[..., Any]] = {}


def scalar_function(name: str):
    def register(fn):
        _SCALAR_FUNCTIONS[name] = fn
        return fn
    return register


@scalar_function("ABS")
def _fn_abs(value):
    return None if value is None else abs(value)


@scalar_function("COALESCE")
def _fn_coalesce(*args):
    for arg in args:
        if arg is not None:
            return arg
    return None


@scalar_function("NULLIF")
def _fn_nullif(left, right):
    if left is None or right is None:
        return left
    return None if left == right else left


@scalar_function("UPPER")
def _fn_upper(value):
    return None if value is None else str(value).upper()


@scalar_function("LOWER")
def _fn_lower(value):
    return None if value is None else str(value).lower()


@scalar_function("LENGTH")
def _fn_length(value):
    return None if value is None else len(str(value))


@scalar_function("ROUND")
def _fn_round(value, digits=0):
    if value is None:
        return None
    return round(value, int(digits or 0))


@scalar_function("MOD")
def _fn_mod(left, right):
    if left is None or right is None:
        return None
    if right == 0:
        raise ExecutionError("division by zero in MOD")
    return left % right


@scalar_function("GREATEST")
def _fn_greatest(*args):
    if any(a is None for a in args):
        return None
    return max(args)


@scalar_function("LEAST")
def _fn_least(*args):
    if any(a is None for a in args):
        return None
    return min(args)


# .. CASE, functions, predicates ..............................................

def _compile_case(expr: Case, layout, state) -> Compiled:
    whens = [(compile_expr(cond, layout, state),
              compile_expr(result, layout, state))
             for cond, result in expr.whens]
    default = _constant(None) if expr.default is None \
        else compile_expr(expr.default, layout, state)
    if len(whens) == 1:
        # the shape every reenacted UPDATE produces
        (cond, result), = whens

        def run_single(row, outer):
            if cond(row, outer) is True:
                return result(row, outer)
            return default(row, outer)
        return run_single

    def run(row, outer):
        for cond, result in whens:
            if cond(row, outer) is True:
                return result(row, outer)
        return default(row, outer)
    return run


def _compile_func(expr: FuncCall, layout, state) -> Compiled:
    name = expr.name
    if expr.is_aggregate:
        return _raises(f"aggregate {name} evaluated outside an "
                       f"aggregation operator (analyzer bug)")
    args = [compile_expr(arg, layout, state) for arg in expr.args]
    if name.startswith("CAST_"):
        try:
            target = lookup_type(name[5:])
        except ExecutionError as exc:
            return _raises(str(exc))
        operand = args[0]
        return lambda row, outer: coerce_value(operand(row, outer), target)
    fn = _SCALAR_FUNCTIONS.get(name)
    if fn is None:
        return _raises(f"unknown function {name!r}")

    def run(row, outer):
        values = [arg(row, outer) for arg in args]
        try:
            return fn(*values)
        except TypeError as exc:
            raise ExecutionError(
                f"bad arguments for {name}: {values!r}") from exc
    return run


def _compile_is_null(expr: IsNull, layout, state) -> Compiled:
    operand = compile_expr(expr.operand, layout, state)
    if expr.negated:
        return lambda row, outer: operand(row, outer) is not None
    return lambda row, outer: operand(row, outer) is None


def _in(value: Any, candidates: Iterable[Any]) -> Optional[bool]:
    """``value IN candidates``: TRUE on a match, else NULL if the value
    or a candidate is NULL, else FALSE.  Stops at the first match."""
    unknown = value is None
    for candidate in candidates:
        if candidate is None:
            unknown = True
        elif value == candidate:
            return True
    return None if unknown else False


def _compile_in_list(expr: InList, layout, state) -> Compiled:
    operand = compile_expr(expr.operand, layout, state)
    negated = expr.negated
    items = [compile_expr(item, layout, state) for item in expr.items]

    def run(row, outer):
        result = _in(operand(row, outer),
                     (item(row, outer) for item in items))
        return _kleene_not(result) if negated else result
    return run


def _compile_between(expr: Between, layout, state) -> Compiled:
    operand = compile_expr(expr.operand, layout, state)
    low = compile_expr(expr.low, layout, state)
    high = compile_expr(expr.high, layout, state)
    negated = expr.negated

    def run(row, outer):
        value = operand(row, outer)
        result = _kleene_and(
            _apply_strict(operator.ge, _CANNOT_COMPARE, value,
                          low(row, outer)),
            _apply_strict(operator.le, _CANNOT_COMPARE, value,
                          high(row, outer)))
        return _kleene_not(result) if negated else result
    return run


@functools.lru_cache(maxsize=256)
def _like_regex(pattern: str) -> "re.Pattern[str]":
    regex = []
    for ch in pattern:
        if ch == "%":
            regex.append(".*")
        elif ch == "_":
            regex.append(".")
        else:
            regex.append(re.escape(ch))
    return re.compile("^" + "".join(regex) + "$", re.DOTALL)


def _compile_like(expr: Like, layout, state) -> Compiled:
    operand = compile_expr(expr.operand, layout, state)
    pattern = compile_expr(expr.pattern, layout, state)
    negated = expr.negated

    def run(row, outer):
        value = operand(row, outer)
        like = pattern(row, outer)
        if value is None or like is None:
            return None
        matched = _like_regex(str(like)).match(str(value)) is not None
        return matched is not negated
    return run


def _compile_subquery(expr: SubqueryExpr, layout, state) -> Compiled:
    if state.subquery_runner is None or expr.plan is None:
        return _raises(
            "subquery evaluated without an executor (analyzer bug)")
    rows_of = state.subquery_runner(expr.plan, layout)
    negated = expr.negated
    kind = expr.kind
    if kind == "EXISTS":
        return lambda row, outer: bool(rows_of(row, outer)) is not negated
    if kind == "SCALAR":
        def run_scalar(row, outer):
            rows = rows_of(row, outer)
            if not rows:
                return None
            if len(rows) > 1:
                raise ExecutionError(
                    "scalar subquery returned more than one row")
            if len(rows[0]) != 1:
                raise ExecutionError(
                    "scalar subquery must return exactly one column")
            return rows[0][0]
        return run_scalar
    if kind == "IN":
        operand = compile_expr(expr.operand, layout, state)

        def run_in(row, outer):
            rows = rows_of(row, outer)
            if rows and len(rows[0]) != 1:
                raise ExecutionError(
                    "IN subquery must return exactly one column")
            result = _in(operand(row, outer), (r[0] for r in rows))
            return _kleene_not(result) if negated else result
        return run_in
    return _raises(f"unknown subquery kind {kind!r}")


_COMPILERS: Dict[type, Callable[[Any, Layout, EvalState], Compiled]] = {
    Literal: _compile_literal,
    Column: _compile_column,
    Param: _compile_param,
    BinaryOp: _compile_binary,
    UnaryOp: _compile_unary,
    Case: _compile_case,
    FuncCall: _compile_func,
    IsNull: _compile_is_null,
    InList: _compile_in_list,
    Between: _compile_between,
    Like: _compile_like,
    SubqueryExpr: _compile_subquery,
    Star: lambda expr, layout, state: _raises(
        "* is not a scalar expression"),
}
