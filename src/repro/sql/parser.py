"""Recursive-descent parser for the SQL dialect.

Entry points:

* :func:`parse` — a script (one or more ``;``-separated statements);
* :func:`parse_statement` — exactly one statement;
* :func:`parse_expression` — a scalar expression (used in tests and by
  the what-if API when the user supplies condition snippets).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.algebra.expressions import (Between, BinaryOp, Case, Column, Expr,
                                       FuncCall, InList, IsNull, Like,
                                       Literal, Param, Star, SubqueryExpr,
                                       UnaryOp)
from repro.errors import SQLSyntaxError
from repro.sql import ast
from repro.sql.lexer import Token, TokenKind, tokenize

#: Words that terminate an expression / cannot start an alias.  The
#: dialect treats keywords contextually, but aliases may not collide with
#: these clause-introducing words.
_RESERVED = {
    "SELECT", "FROM", "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT",
    "UNION", "INTERSECT", "EXCEPT", "ON", "JOIN", "INNER", "LEFT",
    "RIGHT", "CROSS", "OUTER", "AND", "OR", "NOT", "IN", "IS", "BETWEEN",
    "LIKE", "EXISTS", "CASE", "WHEN", "THEN", "ELSE", "END", "AS", "BY",
    "INSERT", "INTO", "VALUES", "UPDATE", "SET", "DELETE", "CREATE",
    "DROP", "TABLE", "BEGIN", "COMMIT", "ROLLBACK", "ABORT", "DISTINCT",
    "ASC", "DESC", "NULL", "TRUE", "FALSE", "PROVENANCE", "REENACT",
    "TRANSACTION", "OF", "UPTO", "WITH", "ISOLATION", "LEVEL",
}

#: Words that can never start an expression — catching typos like
#: ``SELECT FROM`` early instead of reading FROM as a column name.
_HARD_RESERVED = {
    "SELECT", "FROM", "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT",
    "UNION", "INTERSECT", "EXCEPT", "ON", "JOIN", "INNER", "CROSS",
    "OUTER", "AND", "OR", "WHEN", "THEN", "ELSE", "END", "AS", "BY",
    "INSERT", "INTO", "VALUES", "UPDATE", "SET", "DELETE",
}


class Parser:
    def __init__(self, sql: str):
        self.sql = sql
        self.tokens = tokenize(sql)
        self.pos = 0

    # -- token helpers -----------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind is not TokenKind.EOF:
            self.pos += 1
        return token

    def at_keyword(self, *words: str) -> bool:
        token = self.peek()
        return token.kind is TokenKind.IDENT and token.upper() in words

    def accept_keyword(self, *words: str) -> Optional[str]:
        if self.at_keyword(*words):
            return self.advance().upper()
        return None

    def expect_keyword(self, word: str) -> Token:
        token = self.peek()
        if token.kind is TokenKind.IDENT and token.upper() == word:
            return self.advance()
        raise self.error(f"expected {word}")

    def at_op(self, *ops: str) -> bool:
        token = self.peek()
        return token.kind is TokenKind.OP and token.value in ops

    def accept_op(self, *ops: str) -> Optional[str]:
        if self.at_op(*ops):
            return self.advance().value
        return None

    def expect_op(self, op: str) -> Token:
        token = self.peek()
        if token.kind is TokenKind.OP and token.value == op:
            return self.advance()
        raise self.error(f"expected {op!r}")

    def expect_ident(self, what: str = "identifier") -> str:
        token = self.peek()
        if token.kind is TokenKind.IDENT:
            return self.advance().value
        raise self.error(f"expected {what}")

    def expect_integer(self, what: str = "integer") -> int:
        token = self.peek()
        if token.kind is TokenKind.NUMBER and "." not in token.value:
            return int(self.advance().value)
        raise self.error(f"expected {what}")

    def error(self, message: str) -> SQLSyntaxError:
        token = self.peek()
        shown = token.value if token.kind is not TokenKind.EOF \
            else "end of input"
        return SQLSyntaxError(f"{message}, found {shown!r}",
                              token.position, token.line, token.column)

    # -- entry points --------------------------------------------------------

    def parse_script(self) -> List[ast.Statement]:
        statements: List[ast.Statement] = []
        while True:
            while self.accept_op(";"):
                pass
            if self.peek().kind is TokenKind.EOF:
                break
            statements.append(self.parse_statement())
            if self.peek().kind is TokenKind.EOF:
                break
            self.expect_op(";")
        return statements

    def parse_statement(self) -> ast.Statement:
        if self.at_keyword("SELECT") or self.at_op("("):
            return self.parse_query()
        if self.at_keyword("INSERT"):
            return self.parse_insert()
        if self.at_keyword("UPDATE"):
            return self.parse_update()
        if self.at_keyword("DELETE"):
            return self.parse_delete()
        if self.at_keyword("CREATE"):
            return self.parse_create_table()
        if self.at_keyword("DROP"):
            return self.parse_drop_table()
        if self.at_keyword("BEGIN", "START"):
            return self.parse_begin()
        if self.at_keyword("COMMIT"):
            self.advance()
            self.accept_keyword("TRANSACTION", "WORK")
            return ast.Commit()
        if self.at_keyword("ROLLBACK", "ABORT"):
            self.advance()
            self.accept_keyword("TRANSACTION", "WORK")
            return ast.Rollback()
        if self.at_keyword("PROVENANCE"):
            return self.parse_provenance()
        if self.at_keyword("REENACT"):
            return self.parse_reenact()
        raise self.error("expected a statement")

    # -- transaction control --------------------------------------------------

    def parse_begin(self) -> ast.BeginTransaction:
        self.advance()  # BEGIN / START
        self.accept_keyword("TRANSACTION", "WORK")
        isolation = None
        if self.accept_keyword("ISOLATION"):
            self.expect_keyword("LEVEL")
            words = [self.expect_ident("isolation level")]
            while self.peek().kind is TokenKind.IDENT \
                    and not self.at_op(";"):
                words.append(self.advance().value)
            isolation = " ".join(words)
        return ast.BeginTransaction(isolation=isolation)

    # -- GProM extensions -------------------------------------------------------

    def parse_provenance(self) -> ast.Statement:
        self.expect_keyword("PROVENANCE")
        self.expect_keyword("OF")
        if self.at_keyword("TRANSACTION"):
            self.advance()
            xid = self.expect_integer("transaction id")
            upto, table = self._parse_reenact_options()
            return ast.ProvenanceOfTransaction(xid=xid, upto=upto,
                                               table=table)
        self.expect_op("(")
        query = self.parse_query()
        self.expect_op(")")
        return ast.ProvenanceOfQuery(query=query)

    def parse_reenact(self) -> ast.ReenactTransaction:
        self.expect_keyword("REENACT")
        self.expect_keyword("TRANSACTION")
        xid = self.expect_integer("transaction id")
        upto, table = self._parse_reenact_options()
        with_provenance = False
        if self.accept_keyword("WITH"):
            self.expect_keyword("PROVENANCE")
            with_provenance = True
        return ast.ReenactTransaction(xid=xid, upto=upto, table=table,
                                      with_provenance=with_provenance)

    def _parse_reenact_options(self) -> Tuple[Optional[int], Optional[str]]:
        upto = None
        table = None
        while True:
            if self.accept_keyword("UPTO"):
                upto = self.expect_integer("statement index")
            elif self.accept_keyword("ON"):
                self.expect_keyword("TABLE")
                table = self.expect_ident("table name")
            else:
                break
        return upto, table

    # -- DDL ---------------------------------------------------------------------

    def parse_create_table(self) -> ast.CreateTable:
        self.expect_keyword("CREATE")
        self.expect_keyword("TABLE")
        name = self.expect_ident("table name")
        self.expect_op("(")
        columns: List[ast.ColumnDef] = []
        while True:
            col_name = self.expect_ident("column name")
            type_name = self.expect_ident("type name")
            not_null = False
            primary_key = False
            while True:
                if self.accept_keyword("PRIMARY"):
                    self.expect_keyword("KEY")
                    primary_key = True
                elif self.accept_keyword("NOT"):
                    self.expect_keyword("NULL")
                    not_null = True
                else:
                    break
            columns.append(ast.ColumnDef(col_name, type_name,
                                         not_null=not_null,
                                         primary_key=primary_key))
            if not self.accept_op(","):
                break
        self.expect_op(")")
        return ast.CreateTable(name=name, columns=columns)

    def parse_drop_table(self) -> ast.DropTable:
        self.expect_keyword("DROP")
        self.expect_keyword("TABLE")
        return ast.DropTable(name=self.expect_ident("table name"))

    # -- DML ---------------------------------------------------------------------

    def parse_insert(self) -> ast.Insert:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        table = self.expect_ident("table name")
        columns: Optional[List[str]] = None
        source: Optional[ast.QueryExpr] = None
        if self.at_op("("):
            # Either a column list or a parenthesized query
            # (the paper writes ``INSERT INTO overdraft (SELECT ...)``).
            if self.peek(1).kind is TokenKind.IDENT \
                    and self.peek(1).upper() == "SELECT":
                self.advance()  # (
                source = self.parse_query()
                self.expect_op(")")
                return ast.Insert(table=table, columns=None, source=source)
            self.advance()  # (
            columns = [self.expect_ident("column name")]
            while self.accept_op(","):
                columns.append(self.expect_ident("column name"))
            self.expect_op(")")
        if not (self.at_keyword("VALUES", "SELECT") or self.at_op("(")):
            raise self.error("expected VALUES or a query in INSERT")
        source = self.parse_query()
        return ast.Insert(table=table, columns=columns, source=source)

    def _parse_value_row(self) -> List[Expr]:
        self.expect_op("(")
        row = [self.parse_expr()]
        while self.accept_op(","):
            row.append(self.parse_expr())
        self.expect_op(")")
        return row

    def parse_update(self) -> ast.Update:
        self.expect_keyword("UPDATE")
        table = self.expect_ident("table name")
        self.expect_keyword("SET")
        assignments = [self._parse_assignment()]
        while self.accept_op(","):
            assignments.append(self._parse_assignment())
        where = None
        if self.accept_keyword("WHERE"):
            where = self.parse_expr()
        return ast.Update(table=table, assignments=assignments, where=where)

    def _parse_assignment(self) -> ast.Assignment:
        column = self.expect_ident("column name")
        self.expect_op("=")
        return ast.Assignment(column=column, value=self.parse_expr())

    def parse_delete(self) -> ast.Delete:
        self.expect_keyword("DELETE")
        self.expect_keyword("FROM")
        table = self.expect_ident("table name")
        where = None
        if self.accept_keyword("WHERE"):
            where = self.parse_expr()
        return ast.Delete(table=table, where=where)

    # -- queries -------------------------------------------------------------------

    def parse_query(self) -> ast.QueryExpr:
        left = self._parse_query_term()
        while self.at_keyword("UNION", "INTERSECT", "EXCEPT"):
            op = self.advance().upper()
            all_flag = bool(self.accept_keyword("ALL"))
            right = self._parse_query_term()
            left = ast.SetOpQuery(op=op, left=left, right=right,
                                  all=all_flag)
        # trailing ORDER BY / LIMIT apply to the whole set-op expression
        if self.at_keyword("ORDER") or self.at_keyword("LIMIT"):
            order_by, limit = self._parse_order_limit()
            if isinstance(left, (ast.Select, ast.SetOpQuery)) \
                    and not left.order_by and left.limit is None:
                left.order_by = order_by
                left.limit = limit
        return left

    def _parse_query_term(self) -> ast.QueryExpr:
        if self.accept_op("("):
            query = self.parse_query()
            self.expect_op(")")
            return query
        if self.accept_keyword("VALUES"):
            rows = [self._parse_value_row()]
            while self.accept_op(","):
                rows.append(self._parse_value_row())
            return ast.ValuesClause(rows=rows)
        return self.parse_select_core()

    def parse_select_core(self) -> ast.Select:
        self.expect_keyword("SELECT")
        distinct = bool(self.accept_keyword("DISTINCT"))
        self.accept_keyword("ALL")
        items = [self._parse_select_item()]
        while self.accept_op(","):
            items.append(self._parse_select_item())
        sources: List[ast.TableSource] = []
        if self.accept_keyword("FROM"):
            sources.append(self._parse_table_source())
            while self.accept_op(","):
                sources.append(self._parse_table_source())
        where = self.parse_expr() if self.accept_keyword("WHERE") else None
        group_by: List[Expr] = []
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            group_by.append(self.parse_expr())
            while self.accept_op(","):
                group_by.append(self.parse_expr())
        having = self.parse_expr() if self.accept_keyword("HAVING") else None
        order_by, limit = self._parse_order_limit()
        return ast.Select(items=items, sources=sources, where=where,
                          group_by=group_by, having=having,
                          order_by=order_by, limit=limit,
                          distinct=distinct)

    def _parse_order_limit(self) -> Tuple[List[ast.OrderItem],
                                          Optional[Expr]]:
        order_by: List[ast.OrderItem] = []
        limit: Optional[Expr] = None
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            order_by.append(self._parse_order_item())
            while self.accept_op(","):
                order_by.append(self._parse_order_item())
        if self.accept_keyword("LIMIT"):
            limit = self.parse_expr()
        return order_by, limit

    def _parse_order_item(self) -> ast.OrderItem:
        expr = self.parse_expr()
        ascending = True
        if self.accept_keyword("DESC"):
            ascending = False
        else:
            self.accept_keyword("ASC")
        return ast.OrderItem(expr=expr, ascending=ascending)

    def _parse_select_item(self) -> ast.SelectItem:
        if self.at_op("*"):
            self.advance()
            return ast.SelectItem(expr=Star())
        # t.* form
        if self.peek().kind is TokenKind.IDENT \
                and self.peek(1).kind is TokenKind.OP \
                and self.peek(1).value == "." \
                and self.peek(2).kind is TokenKind.OP \
                and self.peek(2).value == "*":
            table = self.advance().value
            self.advance()  # .
            self.advance()  # *
            return ast.SelectItem(expr=Star(table=table))
        expr = self.parse_expr()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_ident("alias")
        elif self.peek().kind is TokenKind.IDENT \
                and self.peek().upper() not in _RESERVED:
            alias = self.advance().value
        return ast.SelectItem(expr=expr, alias=alias)

    # -- FROM sources ------------------------------------------------------------

    def _parse_table_source(self) -> ast.TableSource:
        source = self._parse_table_primary()
        while True:
            if self.at_keyword("JOIN", "INNER", "LEFT", "CROSS"):
                kind = "INNER"
                if self.accept_keyword("INNER"):
                    pass
                elif self.accept_keyword("LEFT"):
                    self.accept_keyword("OUTER")
                    kind = "LEFT"
                elif self.accept_keyword("CROSS"):
                    kind = "CROSS"
                self.expect_keyword("JOIN")
                right = self._parse_table_primary()
                condition = None
                if kind != "CROSS":
                    self.expect_keyword("ON")
                    condition = self.parse_expr()
                source = ast.JoinSource(left=source, right=right,
                                        kind=kind, condition=condition)
            else:
                return source

    def _parse_table_primary(self) -> ast.TableSource:
        if self.accept_op("("):
            query = self.parse_query()
            self.expect_op(")")
            self.accept_keyword("AS")
            alias = self.expect_ident("subquery alias")
            return ast.SubquerySource(query=query, alias=alias)
        name = self.expect_ident("table name")
        as_of: Optional[Expr] = None
        alias: Optional[str] = None
        # "AS OF <expr>" vs "AS <alias>": disambiguate on the word after AS.
        if self.at_keyword("AS"):
            if self.peek(1).kind is TokenKind.IDENT \
                    and self.peek(1).upper() == "OF":
                self.advance()  # AS
                self.advance()  # OF
                as_of = self._parse_primary()
            else:
                self.advance()  # AS
                alias = self.expect_ident("alias")
        if alias is None and self.peek().kind is TokenKind.IDENT \
                and self.peek().upper() not in _RESERVED:
            alias = self.advance().value
        # allow "account a1 AS OF 5"?  No — AS OF binds to the table name.
        return ast.TableRef(name=name, alias=alias, as_of=as_of)

    # -- expressions -----------------------------------------------------------------

    def parse_expr(self) -> Expr:
        return self._parse_or()

    def _parse_or(self) -> Expr:
        left = self._parse_and()
        while self.at_keyword("OR"):
            self.advance()
            left = BinaryOp("OR", left, self._parse_and())
        return left

    def _parse_and(self) -> Expr:
        left = self._parse_not()
        while self.at_keyword("AND"):
            self.advance()
            left = BinaryOp("AND", left, self._parse_not())
        return left

    def _parse_not(self) -> Expr:
        if self.accept_keyword("NOT"):
            return UnaryOp("NOT", self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> Expr:
        left = self._parse_additive()
        while True:
            if self.at_op("=", "<>", "<", "<=", ">", ">="):
                op = self.advance().value
                left = BinaryOp(op, left, self._parse_additive())
                continue
            if self.at_keyword("IS"):
                self.advance()
                negated = bool(self.accept_keyword("NOT"))
                self.expect_keyword("NULL")
                left = IsNull(left, negated=negated)
                continue
            negated = False
            if self.at_keyword("NOT") and self.peek(1).kind is \
                    TokenKind.IDENT and self.peek(1).upper() in (
                        "IN", "BETWEEN", "LIKE"):
                self.advance()
                negated = True
            if self.accept_keyword("IN"):
                left = self._parse_in(left, negated)
                continue
            if self.accept_keyword("BETWEEN"):
                low = self._parse_additive()
                self.expect_keyword("AND")
                high = self._parse_additive()
                left = Between(left, low, high, negated=negated)
                continue
            if self.accept_keyword("LIKE"):
                left = Like(left, self._parse_additive(), negated=negated)
                continue
            if negated:
                raise self.error("expected IN, BETWEEN or LIKE after NOT")
            return left

    def _parse_in(self, operand: Expr, negated: bool) -> Expr:
        self.expect_op("(")
        if self.at_keyword("SELECT"):
            query = self.parse_query()
            self.expect_op(")")
            return SubqueryExpr("IN", query, operand=operand,
                                negated=negated)
        items = [self.parse_expr()]
        while self.accept_op(","):
            items.append(self.parse_expr())
        self.expect_op(")")
        return InList(operand, tuple(items), negated=negated)

    def _parse_additive(self) -> Expr:
        left = self._parse_multiplicative()
        while self.at_op("+", "-", "||"):
            op = self.advance().value
            left = BinaryOp(op, left, self._parse_multiplicative())
        return left

    def _parse_multiplicative(self) -> Expr:
        left = self._parse_unary()
        while self.at_op("*", "/", "%"):
            op = self.advance().value
            left = BinaryOp(op, left, self._parse_unary())
        return left

    def _parse_unary(self) -> Expr:
        if self.at_op("-"):
            self.advance()
            operand = self._parse_unary()
            if isinstance(operand, Literal) \
                    and isinstance(operand.value, (int, float)) \
                    and not isinstance(operand.value, bool):
                return Literal(-operand.value)
            return UnaryOp("-", operand)
        if self.at_op("+"):
            self.advance()
            return self._parse_unary()
        return self._parse_primary()

    def _parse_primary(self) -> Expr:
        token = self.peek()
        if token.kind is TokenKind.NUMBER:
            self.advance()
            if "." in token.value or "e" in token.value \
                    or "E" in token.value:
                return Literal(float(token.value))
            return Literal(int(token.value))
        if token.kind is TokenKind.STRING:
            self.advance()
            return Literal(token.value)
        if token.kind is TokenKind.PARAM:
            self.advance()
            return Param(token.value)
        if self.at_op("("):
            self.advance()
            if self.at_keyword("SELECT"):
                query = self.parse_query()
                self.expect_op(")")
                return SubqueryExpr("SCALAR", query)
            expr = self.parse_expr()
            self.expect_op(")")
            return expr
        if token.kind is TokenKind.IDENT:
            word = token.upper()
            if word == "NULL":
                self.advance()
                return Literal(None)
            if word == "TRUE":
                self.advance()
                return Literal(True)
            if word == "FALSE":
                self.advance()
                return Literal(False)
            if word == "CASE":
                return self._parse_case()
            if word == "EXISTS":
                self.advance()
                self.expect_op("(")
                query = self.parse_query()
                self.expect_op(")")
                return SubqueryExpr("EXISTS", query)
            if word == "CAST":
                return self._parse_cast()
            if word in _HARD_RESERVED:
                raise self.error("expected an expression")
            # function call?
            if self.peek(1).kind is TokenKind.OP \
                    and self.peek(1).value == "(":
                return self._parse_func_call()
            # column reference: name or table.name
            self.advance()
            if self.at_op(".") :
                self.advance()
                column = self.expect_ident("column name")
                return Column(name=column, table=token.value)
            return Column(name=token.value)
        raise self.error("expected an expression")

    def _parse_cast(self) -> Expr:
        # CAST(expr AS type) is normalized to a function call so it needs
        # no dedicated IR node.
        self.expect_keyword("CAST")
        self.expect_op("(")
        operand = self.parse_expr()
        self.expect_keyword("AS")
        type_name = self.expect_ident("type name")
        self.expect_op(")")
        return FuncCall("CAST_" + type_name.upper(), (operand,))

    def _parse_func_call(self) -> Expr:
        name = self.advance().upper()
        self.expect_op("(")
        if name == "COUNT" and self.at_op("*"):
            self.advance()
            self.expect_op(")")
            return FuncCall("COUNT", (Star(),))
        distinct = bool(self.accept_keyword("DISTINCT"))
        args: List[Expr] = []
        if not self.at_op(")"):
            args.append(self.parse_expr())
            while self.accept_op(","):
                args.append(self.parse_expr())
        self.expect_op(")")
        return FuncCall(name, tuple(args), distinct=distinct)

    def _parse_case(self) -> Expr:
        self.expect_keyword("CASE")
        operand: Optional[Expr] = None
        if not self.at_keyword("WHEN"):
            operand = self.parse_expr()
        whens: List[Tuple[Expr, Expr]] = []
        while self.accept_keyword("WHEN"):
            cond = self.parse_expr()
            self.expect_keyword("THEN")
            result = self.parse_expr()
            if operand is not None:
                cond = BinaryOp("=", operand, cond)
            whens.append((cond, result))
        if not whens:
            raise self.error("CASE requires at least one WHEN branch")
        default = None
        if self.accept_keyword("ELSE"):
            default = self.parse_expr()
        self.expect_keyword("END")
        return Case(tuple(whens), default)


# ---------------------------------------------------------------------------
# Module-level convenience functions
# ---------------------------------------------------------------------------

def parse(sql: str) -> List[ast.Statement]:
    """Parse a script of ``;``-separated statements."""
    return Parser(sql).parse_script()


def parse_statement(sql: str) -> ast.Statement:
    """Parse exactly one statement; trailing tokens are an error."""
    parser = Parser(sql)
    statement = parser.parse_statement()
    parser.accept_op(";")
    if parser.peek().kind is not TokenKind.EOF:
        raise parser.error("unexpected trailing input")
    return statement


def parse_expression(sql: str) -> Expr:
    """Parse a scalar expression (no statement keywords)."""
    parser = Parser(sql)
    expr = parser.parse_expr()
    if parser.peek().kind is not TokenKind.EOF:
        raise parser.error("unexpected trailing input")
    return expr
