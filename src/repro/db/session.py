"""Sessions: parse → analyze → plan → evaluate / apply DML.

A :class:`Session` owns at most one open transaction.  Statements
executed outside an explicit transaction run in an implicit auto-commit
transaction.  On a transaction error (write conflict / serialization
failure) the transaction is aborted immediately and the error re-raised
— mirroring the behaviour the paper's promotion example relies on
("this would force T2 to abort", §2).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.algebra import operators as op
from repro.algebra.evaluator import Evaluator, Relation
from repro.algebra.expressions import eval_expr
from repro.algebra.translator import Scope, Translator
from repro.db.engine import Database
from repro.db.transaction import Transaction, parse_isolation
from repro.errors import (AnalysisError, ConstraintViolation,
                          ExecutionError, TransactionError,
                          TransactionStateError)
from repro.sql import ast
from repro.sql.bind import bind_statement
from repro.sql.parser import parse


class Result:
    """Outcome of one statement."""

    def __init__(self, relation: Optional[Relation] = None,
                 rowcount: Optional[int] = None, message: str = "OK"):
        self.relation = relation
        self.rowcount = rowcount
        self.message = message

    @property
    def rows(self) -> List[tuple]:
        return self.relation.rows if self.relation is not None else []

    @property
    def columns(self) -> List[str]:
        return self.relation.attrs if self.relation is not None else []

    def pretty(self) -> str:
        if self.relation is not None:
            return self.relation.pretty()
        if self.rowcount is not None:
            return f"{self.message} ({self.rowcount} rows)"
        return self.message

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if self.relation is not None:
            return f"Result({len(self.rows)} rows)"
        return f"Result({self.message!r}, rowcount={self.rowcount})"


class Session:
    """One client connection."""

    def __init__(self, db: Database, user: str = "app",
                 session_id: int = 0):
        self.db = db
        self.user = user
        self.session_id = session_id
        self.txn: Optional[Transaction] = None
        self._translator = Translator(db.catalog)

    # -- transaction control ---------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        return self.txn is not None and self.txn.is_active

    def begin(self, isolation: Optional[str] = None) -> Transaction:
        if self.in_transaction:
            raise TransactionStateError(
                f"session {self.session_id} already has an open "
                f"transaction (xid={self.txn.xid})")
        level = parse_isolation(isolation) if isolation else None
        self.txn = self.db.begin_transaction(level, user=self.user,
                                             session_id=self.session_id)
        return self.txn

    def commit(self) -> int:
        if not self.in_transaction:
            raise TransactionStateError("no open transaction to commit")
        commit_ts = self.db.commit_transaction(self.txn)
        self.txn = None
        return commit_ts

    def rollback(self) -> None:
        if not self.in_transaction:
            raise TransactionStateError("no open transaction to roll back")
        self.db.abort_transaction(self.txn)
        self.txn = None

    # -- execution ---------------------------------------------------------------

    def execute(self, sql: str,
                params: Optional[Dict[str, Any]] = None) -> Result:
        """Execute a script of statements; returns the last result."""
        result = Result()
        for stmt in parse(sql):
            result = self.execute_statement(stmt, params)
        return result

    def query(self, sql: str,
              params: Optional[Dict[str, Any]] = None) -> Relation:
        """Execute a single query and return its relation."""
        result = self.execute(sql, params)
        if result.relation is None:
            raise ExecutionError("statement did not produce rows")
        return result.relation

    def execute_statement(self, stmt: ast.Statement,
                          params: Optional[Dict[str, Any]] = None
                          ) -> Result:
        params = params or {}
        # transaction control first — no implicit transaction involved
        if isinstance(stmt, ast.BeginTransaction):
            self.begin(stmt.isolation)
            return Result(message=f"BEGIN (xid={self.txn.xid})")
        if isinstance(stmt, ast.Commit):
            ts = self.commit()
            return Result(message=f"COMMIT (ts={ts})")
        if isinstance(stmt, ast.Rollback):
            self.rollback()
            return Result(message="ROLLBACK")
        if isinstance(stmt, (ast.CreateTable, ast.DropTable)):
            return self._execute_ddl(stmt)
        if isinstance(stmt, (ast.ProvenanceOfQuery,
                             ast.ProvenanceOfTransaction,
                             ast.ReenactTransaction)):
            return self._execute_gprom(stmt, params)

        implicit = not self.in_transaction
        if implicit:
            self.begin()
        try:
            if isinstance(stmt, (ast.Select, ast.SetOpQuery)):
                result = self._execute_query(stmt, params)
            elif isinstance(stmt, ast.Insert):
                result = self._execute_insert(stmt, params)
            elif isinstance(stmt, ast.Update):
                result = self._execute_update(stmt, params)
            elif isinstance(stmt, ast.Delete):
                result = self._execute_delete(stmt, params)
            else:
                raise AnalysisError(
                    f"unsupported statement {type(stmt).__name__}")
        except TransactionError:
            # conflict: the transaction is dead (first-updater-wins)
            if self.in_transaction:
                self.db.abort_transaction(self.txn)
                self.txn = None
            raise
        except Exception:
            if implicit:
                self.db.abort_transaction(self.txn)
                self.txn = None
            raise
        if implicit:
            self.commit()
        return result

    # -- DDL -------------------------------------------------------------------

    def _execute_ddl(self, stmt: ast.Statement) -> Result:
        if self.in_transaction:
            raise TransactionStateError(
                "DDL is not allowed inside a transaction")
        if isinstance(stmt, ast.CreateTable):
            self.db.create_table_from_defs(stmt.name, stmt.columns)
            return Result(message=f"CREATE TABLE {stmt.name}")
        self.db.drop_table(stmt.name)
        return Result(message=f"DROP TABLE {stmt.name}")

    # -- GProM extensions ----------------------------------------------------------

    def _execute_gprom(self, stmt: ast.Statement,
                       params: Dict[str, Any]) -> Result:
        from repro.core.middleware import GProM
        relation = GProM(self.db).process_statement(stmt, params=params)
        return Result(relation=relation)

    # -- queries ---------------------------------------------------------------------

    def _execute_query(self, stmt: ast.QueryExpr,
                       params: Dict[str, Any]) -> Result:
        plan = self._translator.translate_query(stmt)
        ts = self.db.clock.tick()
        ctx = self.db.context(txn=self.txn, stmt_ts=ts, params=params)
        relation = Evaluator(ctx).evaluate(plan)
        # user-facing column names are the short names
        relation = Relation([a.rsplit(".", 1)[-1] for a in relation.attrs],
                            relation.rows)
        return Result(relation=relation)

    # -- DML ---------------------------------------------------------------------------

    def _log_dml(self, stmt: ast.Statement, params: Dict[str, Any],
                 ts: int) -> None:
        index = self.txn.statement_count
        self.txn.statement_count += 1
        # binding + formatting is the audit path's real cost; skip it
        # entirely when nothing consumes statements (experiment E4
        # measures exactly this toggle)
        if not self.db.config.audit_enabled \
                and not self.db.on_statement:
            return
        bound = bind_statement(stmt, params)
        self.db.log_statement(self.txn, index, ts, str(bound))

    def _pk_index(self, schema, stmt_ts: int) -> Optional[Dict[tuple, int]]:
        """Visible primary-key values → rowid, or None when the table
        declares no primary key (fast path)."""
        pk_cols = schema.primary_key_columns
        if not pk_cols:
            return None
        indexes = [schema.index_of(c) for c in pk_cols]
        table = self.db.table(schema.name)
        out: Dict[tuple, int] = {}
        for rowid, values, _xid in self.db.mvcc.read(
                self.txn, table, stmt_ts):
            out[tuple(values[i] for i in indexes)] = rowid
        return out

    @staticmethod
    def _pk_of(schema, values: tuple) -> tuple:
        return tuple(values[schema.index_of(c)]
                     for c in schema.primary_key_columns)

    def _execute_insert(self, stmt: ast.Insert,
                        params: Dict[str, Any]) -> Result:
        schema = self.db.catalog.get(stmt.table)
        table = self.db.table(stmt.table)
        ts = self.db.clock.tick()
        self._log_dml(stmt, params, ts)

        rows = self._insert_rows(stmt, params, ts)
        pk_index = self._pk_index(schema, ts)
        count = 0
        for values in rows:
            validated = schema.validate_row(values)
            if pk_index is not None:
                pk = self._pk_of(schema, validated)
                if pk in pk_index:
                    raise ConstraintViolation(
                        f"duplicate primary key {pk!r} in {stmt.table!r}")
            rowid = self.db.mvcc.insert(self.txn, table, validated, ts)
            if pk_index is not None:
                pk_index[self._pk_of(schema, validated)] = rowid
            self.db.fire_triggers("insert", self.txn, ts, stmt.table,
                                  rowid, None, validated)
            count += 1
        return Result(rowcount=count, message="INSERT")

    def _insert_rows(self, stmt: ast.Insert, params: Dict[str, Any],
                     ts: int) -> List[tuple]:
        schema = self.db.catalog.get(stmt.table)
        if isinstance(stmt.source, ast.ValuesClause):
            ctx = self.db.context(txn=self.txn, stmt_ts=ts, params=params)
            evaluator = Evaluator(ctx)
            raw_rows = [
                tuple(eval_expr(value, None, evaluator.state)
                      for value in row)
                for row in stmt.source.rows
            ]
        else:
            plan = self._translator.translate_query(stmt.source)
            ctx = self.db.context(txn=self.txn, stmt_ts=ts, params=params)
            raw_rows = Evaluator(ctx).evaluate(plan).rows

        if stmt.columns is None:
            expected = len(schema.columns)
            for row in raw_rows:
                if len(row) != expected:
                    raise AnalysisError(
                        f"INSERT into {stmt.table!r} expects {expected} "
                        f"values, got {len(row)}")
            return list(raw_rows)
        # explicit column list: reorder, fill the rest with NULL
        positions = [schema.index_of(c) for c in stmt.columns]
        out = []
        for row in raw_rows:
            if len(row) != len(positions):
                raise AnalysisError(
                    f"INSERT column list has {len(positions)} columns "
                    f"but {len(row)} values were supplied")
            full: List[Any] = [None] * len(schema.columns)
            for position, value in zip(positions, row):
                full[position] = value
            out.append(tuple(full))
        return out

    def _target_rows(self, table_name: str, where, params: Dict[str, Any],
                     ts: int) -> Relation:
        """Rows of ``table_name`` (with rowids) matching ``where`` in the
        current transaction's view."""
        schema = self.db.catalog.get(table_name)
        scan = op.TableScan(table=table_name,
                            columns=list(schema.column_names),
                            binding=table_name,
                            annotations=(op.ANNOT_ROWID,))
        plan: op.Operator = scan
        if where is not None:
            scope = Scope(scan.attrs)
            condition = self._translator.resolve_expression(where, scope)
            plan = op.Selection(scan, condition)
        ctx = self.db.context(txn=self.txn, stmt_ts=ts, params=params)
        return Evaluator(ctx).evaluate(plan)

    def _execute_update(self, stmt: ast.Update,
                        params: Dict[str, Any]) -> Result:
        schema = self.db.catalog.get(stmt.table)
        table = self.db.table(stmt.table)
        ts = self.db.clock.tick()
        self._log_dml(stmt, params, ts)

        matched = self._target_rows(stmt.table, stmt.where, params, ts)
        ncols = len(schema.columns)
        scope = Scope(matched.attrs[:ncols])
        ctx = self.db.context(txn=self.txn, stmt_ts=ts, params=params)
        evaluator = Evaluator(ctx)
        assignments = [
            (schema.index_of(a.column),
             evaluator.compile(
                 self._translator.resolve_expression(a.value, scope),
                 scope.attrs))
            for a in stmt.assignments
        ]
        pk_index = self._pk_index(schema, ts)
        if pk_index is not None:
            # rows being rewritten release their old key first
            for row in matched.rows:
                old_pk = self._pk_of(schema, row[:ncols])
                pk_index.pop(old_pk, None)
        count = 0
        for row in matched.rows:
            rowid = row[ncols]
            new_values = list(row[:ncols])
            for index, value_of in assignments:
                new_values[index] = value_of(row, None)
            validated = schema.validate_row(new_values)
            if pk_index is not None:
                pk = self._pk_of(schema, validated)
                if pk in pk_index and pk_index[pk] != rowid:
                    raise ConstraintViolation(
                        f"duplicate primary key {pk!r} in {stmt.table!r}")
                pk_index[pk] = rowid
            self.db.mvcc.update(self.txn, table, rowid, validated, ts)
            self.db.fire_triggers("update", self.txn, ts, stmt.table,
                                  rowid, tuple(row[:ncols]), validated)
            count += 1
        return Result(rowcount=count, message="UPDATE")

    def _execute_delete(self, stmt: ast.Delete,
                        params: Dict[str, Any]) -> Result:
        schema = self.db.catalog.get(stmt.table)
        table = self.db.table(stmt.table)
        ts = self.db.clock.tick()
        self._log_dml(stmt, params, ts)
        matched = self._target_rows(stmt.table, stmt.where, params, ts)
        ncols = len(schema.columns)
        count = 0
        for row in matched.rows:
            rowid = row[ncols]
            self.db.mvcc.delete(self.txn, table, rowid, ts)
            self.db.fire_triggers("delete", self.txn, ts, stmt.table,
                                  rowid, tuple(row[:ncols]), None)
            count += 1
        return Result(rowcount=count, message="DELETE")
