"""Feeds generated histories and ops to the program.

One :class:`Driver` per workload.  ``setup`` is what ``setup_s`` times:
record the history (DDL, bulk load, generated transactions — the
engine's write path) and open whatever the ops run on (backend
session, service, WAL).  ``run`` is what an op's latency times: the
call a user makes, then :meth:`Driver.digest`, which reads out of the
result what the user came for (the rows the transaction wrote and
deleted, or the state at each tick) — so a lazy result cannot hide
work.  ``verify`` runs outside the timer, against ``perf/verify.py``.

The program is used through names it exports from ``repro`` and its
first-level packages, plus the two those do not export
(``WhatIfFleet``, ``timeline_states``).  No mode knob slated for deletion in
ROADMAP.md (``delta=``, ``pipeline=``, ``windowscan=``,
``spill_publish=``) is set anywhere: every workload runs the defaults
plus the cache capacities named in its description.
"""

from __future__ import annotations

import os
import shutil
import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro import Database, ReenactmentService, SQLiteBackend, \
    resolve_backend
from repro.backends import SessionStats
from repro.core import ReenactmentOptions, Reenactor
from repro.core.whatif import WhatIfFleet
from repro.debugger import TransactionInspector
from repro.debugger.timeline import timeline_states
from repro.service import (EquivalenceJob, ReenactJob, TimelineScanJob,
                           WhatIfFleetJob)
from repro.workloads import HistorySimulator, TxnScript

from perf import verify, workloads
from perf.layers import PIPELINE, SESSION, SESSION_COUNTS
from perf.workloads import TABLE, Op, Spec

OP_TIMEOUT_S = 60.0
#: ``record_write``'s stated durability policy.
WAL_OPTIONS = {"fsync": "commit", "checkpoint_every": 150}
SESSION_CACHE = 8
SERVICE_WORKERS = 2
SERVICE_CACHE = 6


@dataclass
class Digest:
    """What the harness read out of one op's result."""

    kind: str                       #: writes | ticks | commit
    xid: Optional[int] = None
    effects: Optional[Dict[str, verify.Effects]] = None
    states: Optional[Dict[int, object]] = None
    #: equivalence reports carry only a count of deleted rows
    deleted_counts: Optional[Dict[str, int]] = None
    ok: bool = True
    commit_ts: Optional[int] = None
    #: ``record_write``: what the model says the commit must have done
    expected: Optional[Dict[str, verify.Effects]] = None


def _options(op: Op) -> ReenactmentOptions:
    return ReenactmentOptions(annotations=True, **dict(op.options))


def _relation_effects(tables, include_deleted: bool = True
                      ) -> Dict[str, verify.Effects]:
    out = {}
    for name, relation in tables.items():
        upd = relation.column_index("__upd__")
        dele = relation.column_index("__del__")
        rowid = relation.column_index("__rowid__")
        ncols = min(upd, dele, rowid,
                    relation.column_index("__xid__"))
        written, deleted = [], []
        for row in relation.rows:
            if row[dele]:
                deleted.append(row[rowid])
            elif row[upd]:
                written.append(row[:ncols])
        out[name] = verify.Effects.of(
            written, deleted if include_deleted else None)
    return out


class Driver:
    """Base: a recorded history plus the reenactment-side helpers."""

    backend_spec: object = None     #: what ``resolve_backend`` takes

    def __init__(self, spec: Spec, seed: int, workdir: str):
        self.spec = spec
        self.seed = seed
        self.workdir = workdir
        self.history = workloads.history(spec, seed)
        self.tracer = None
        self.db: Optional[Database] = None
        self.xids: List[int] = []
        self.ticks: List[int] = []
        self.backend = None
        #: counters of throwaway sessions, merged as they close
        self.totals = SessionStats()

    # -- set-up ----------------------------------------------------------

    def new_database(self) -> Database:
        return Database()

    def setup(self) -> None:
        self.db = db = self.new_database()
        loader = db.connect(user="loader")
        for sql in self.history.load:
            loader.execute(sql)
        scripts = [TxnScript(name=t.name,
                             ops=[s.sql for s in t.statements],
                             isolation=t.isolation, user=f"lane-{t.lane}")
                   for t in self.history.txns]
        outcomes = HistorySimulator(db).run(scripts, self.history.schedule)
        failed = [o.error for o in outcomes.values() if not o.committed]
        if failed:
            raise RuntimeError(f"generated history did not commit: "
                               f"{failed[:3]}")
        self.xids = [outcomes[t.name].xid for t in self.history.txns]
        self.ticks = sorted(outcomes[t.name].commit_ts
                            for t in self.history.txns)
        self.totals = SessionStats()
        self.tick_counts: Dict[int, int] = {}
        self.open()

    def open(self) -> None:
        if self.backend_spec is not None:
            self.backend = resolve_backend(self.backend_spec)

    def close(self) -> None:
        pass

    def live_classes(self) -> Dict[str, type]:
        """The session and pipeline classes ops will run on."""
        if self.backend is None:
            return {}
        with self.backend.open_session() as session:
            pipeline = session.snapshot_pipeline([], self.db.context(
                params={}))
            return {SESSION: type(session), PIPELINE: type(pipeline)}

    # -- ops -----------------------------------------------------------------

    def stream(self):
        return workloads.ops(self.spec, self.seed, self.history)

    def run(self, op: Op, index: int):
        raise NotImplementedError

    def digest(self, op: Op, result) -> Digest:
        if op.kind in ("timeline_sparkline", "timeline_full"):
            if op.kind == "timeline_sparkline":
                states = {ts: int(rel.rows[0][0])
                          for ts, rel in result.items()}
            else:
                states = {ts: rel.rows for ts, rel in result.items()}
            return Digest("ticks", states=states)
        xid = self.xids[op.target]
        if op.kind == "equivalence":
            return Digest(
                "writes", xid, ok=result.ok,
                effects={c.table: verify.Effects(
                    Counter({verify.typed(row): n for row, n
                             in c.written_actual.items()}), None)
                    for c in result.checks},
                deleted_counts={c.table: c.deleted_actual
                                for c in result.checks})
        if op.kind == "whatif":
            result = next(iter(result.values())).original
        return Digest("writes", xid, effects=_relation_effects(
            result.tables, dict(op.options).get("include_deleted", True)))

    def verify(self, op: Op, digest: Digest) -> Optional[str]:
        if digest.kind == "ticks":
            return verify.check_ticks(self.db, TABLE, digest.states,
                                      self.tick_counts)
        truth = verify.recorded_effects(self.db, digest.xid)
        problem = verify.compare_effects(truth, digest.effects)
        if problem is None and not digest.ok:
            problem = "equivalence report is not ok"
        if problem is None and digest.deleted_counts is not None:
            for table, count in digest.deleted_counts.items():
                want = len(truth.get(table, verify.NO_EFFECTS).deleted)
                if count != want:
                    problem = (f"{table}: {count} rows deleted, "
                               f"recorded {want}")
        return problem

    def corrupted(self, digest: Digest) -> List[Digest]:
        """Damaged copies of ``digest`` that :meth:`verify` must
        reject (empty when there is nothing to damage)."""
        if digest.kind == "ticks":
            return [Digest("ticks", states=states)
                    for states in verify.corrupt_ticks(digest.states)]
        return [Digest("writes", digest.xid, effects=effects,
                       deleted_counts=digest.deleted_counts, ok=digest.ok)
                for effects in verify.corruptions(digest.effects)]

    def finish(self) -> Dict[str, object]:
        """End-of-run checks; ``{"problems": [...], ...extras}``."""
        return {"problems": []}

    # -- counters ----------------------------------------------------------

    def counters(self) -> Dict[str, float]:
        """Always-on public stats, flat, monotone."""
        return self._session_counters(self.totals.as_dict())

    @staticmethod
    def _session_counters(stats: Dict[str, int]) -> Dict[str, float]:
        out = {f"backends.{name}": float(stats.get(name, 0))
               for name in SESSION_COUNTS}
        out["backends.snapshots_materialized"] = \
            float(stats.get("snapshots_materialized", 0))
        return out

    # -- helpers -------------------------------------------------------------

    def _reenact_once(self, op: Op):
        """A cold lookup: throwaway session, counters kept."""
        with self.backend.open_session() as session:
            result = Reenactor(self.db, backend=self.backend).reenact(
                self.xids[op.target], _options(op), session=session)
            self.totals.merge(session.stats)
        return result

    def _tick_times(self, op: Op) -> List[int]:
        return [self.ticks[i] for i in op.ticks]


class PanelDriver(Driver):
    """``TransactionInspector(db, xid).columns()`` as a user gets it:
    the default backend is the in-memory interpreter."""

    def open(self) -> None:
        self.backend = resolve_backend(None)

    def run(self, op: Op, index: int):
        inspector = TransactionInspector(self.db, self.xids[op.target])
        columns = inspector.columns()
        self.totals.merge(inspector.last_stats)
        return columns

    def digest(self, op: Op, result) -> Digest:
        effects = {}
        for table, state in result[-1].states.items():
            effects[table] = verify.Effects.of(
                (r.values for r in state.rows
                 if r.affected and not r.deleted),
                (r.rowid for r in state.rows if r.deleted))
        return Digest("writes", self.xids[op.target], effects=effects)


class OneshotDriver(Driver):
    backend_spec = "sqlite"

    def run(self, op: Op, index: int):
        return self._reenact_once(op)


class SessionDriver(Driver):
    """One analyst's long-lived SQLite session."""

    def open(self) -> None:
        self.backend = SQLiteBackend(cache_capacity=SESSION_CACHE)
        self.session = self.backend.open_session()
        self.reenactor = Reenactor(self.db, backend=self.backend)

    def close(self) -> None:
        self.session.close()

    def run(self, op: Op, index: int):
        if op.kind == "reenact":
            return self.reenactor.reenact(self.xids[op.target],
                                          _options(op),
                                          session=self.session)
        if op.kind == "whatif":
            fleet = WhatIfFleet(self.db, self.xids[op.target],
                                backend=self.backend)
            for name, edit in op.variants:
                scenario = fleet.scenario(name)
                if edit[0] == "insert":
                    scenario.insert_statement(edit[1], edit[2])
                elif edit[0] == "replace":
                    scenario.replace_statement(edit[1], edit[2])
                else:
                    scenario.delete_statement(edit[1])
            return fleet.run(_options(op), session=self.session)
        mode = "sparkline" if op.kind == "timeline_sparkline" else "full"
        return timeline_states(self.db, TABLE, self._tick_times(op),
                               session=self.session, mode=mode)

    def counters(self) -> Dict[str, float]:
        return self._session_counters(self.session.stats.as_dict())


class ServiceDriver(Driver):
    backend_spec = "sqlite"

    def open(self) -> None:
        super().open()
        # a spill store of its own per round
        self.spill_dir = os.path.join(self.workdir, "spill")
        os.makedirs(self.spill_dir)
        self.service = ReenactmentService(
            self.db, backend="sqlite", workers=SERVICE_WORKERS,
            cache_capacity=SERVICE_CACHE,
            store=os.path.join(self.spill_dir, "store.sqlite"))

    def close(self) -> None:
        self.service.close()
        shutil.rmtree(self.spill_dir, ignore_errors=True)

    def run(self, op: Op, index: int):
        if op.kind == "reenact":
            job = ReenactJob(self.xids[op.target], _options(op))
        elif op.kind == "whatif":
            job = WhatIfFleetJob(self.xids[op.target],
                                 variants=op.variants,
                                 options=_options(op))
        elif op.kind == "equivalence":
            job = EquivalenceJob(self.xids[op.target],
                                 optimize=op.optimize)
        else:
            job = TimelineScanJob(
                TABLE, self._tick_times(op),
                mode="sparkline" if op.kind == "timeline_sparkline"
                else "full")
        if self.tracer is not None:
            self.tracer.bind_job(job, index)
        return self.service.submit(job).result(timeout=OP_TIMEOUT_S)

    def counters(self) -> Dict[str, float]:
        stats = self.service.stats().as_dict()
        out = self._session_counters(stats["sessions"])
        store = stats["store"] or {}
        out["service.store.spills"] = float(store.get("spills", 0))
        out["service.store.rehydrations"] = \
            float(store.get("rehydrations", 0))
        out["service.jobs_deduplicated"] = \
            float(stats["jobs_deduplicated"])
        out["service.jobs_from_cache"] = float(stats["jobs_from_cache"])
        out["service.jobs_submitted"] = float(stats["jobs_submitted"])
        return out


class WriteDriver(Driver):
    """The recorded workload itself, on a durable database."""

    def new_database(self) -> Database:
        self.wal_dir = os.path.join(self.workdir, "wal")
        shutil.rmtree(self.wal_dir, ignore_errors=True)
        return Database.open(self.wal_dir, **WAL_OPTIONS)

    def open(self) -> None:
        self.writer = self.db.connect(user="client")
        self.model = verify.TableModel(
            workloads.initial_rows(self.spec, self.seed))
        self.commits: List = []

    def close(self) -> None:
        if self.db is not None and self.db.wal is not None:
            self.db.wal.close()
        shutil.rmtree(self.wal_dir, ignore_errors=True)

    def run(self, op: Op, index: int):
        writer = self.writer
        writer.begin(op.txn.isolation)
        for stmt in op.txn.statements:
            writer.execute(stmt.sql)
        xid = writer.txn.xid
        return xid, writer.commit()

    def digest(self, op: Op, result) -> Digest:
        return Digest("commit", result[0], commit_ts=result[1])

    def verify(self, op: Op, digest: Digest) -> Optional[str]:
        if digest.expected is None:
            # first look, in op order: the model advances per commit
            digest.expected = self.model.commit(op.txn)
            self.commits.append((digest.xid, digest.commit_ts))
            digest.effects = verify.recorded_effects(
                self.db, digest.xid, by_id=True)
        return verify.compare_effects(digest.expected, digest.effects)

    def corrupted(self, digest: Digest) -> List[Digest]:
        return [Digest("commit", digest.xid, effects=effects,
                       commit_ts=digest.commit_ts,
                       expected=digest.expected)
                for effects in verify.corruptions(digest.effects)]

    def counters(self) -> Dict[str, float]:
        stats = self.db.wal.stats.as_dict()
        return {f"db.wal.{name}": float(stats[name])
                for name in ("records_appended", "bytes_appended",
                             "fsyncs", "checkpoints")}

    def finish(self) -> Dict[str, object]:
        """Simulate a kill: copy the WAL directory while the log is
        still open — no ``flush()``, no ``close()``, so whatever sits
        in Python-side buffers is lost — recover from the copy, and
        require every acknowledged commit in it."""
        problems = []
        if self.model.state() != verify.table_state(self.db):
            problems.append("final table state differs from the model")
        copy = os.path.join(self.workdir, "wal-killed")
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(self.wal_dir, copy)
        start = time.perf_counter()
        recovered = Database.open(copy, **WAL_OPTIONS)
        recover_s = time.perf_counter() - start
        try:
            backend = resolve_backend("sqlite")

            def reenact(db, xid):
                options = ReenactmentOptions(annotations=True,
                                             include_deleted=True)
                return _relation_effects(Reenactor(
                    db, backend=backend).reenact(xid, options).tables)

            problems += verify.check_recovery(
                self.db, recovered, self.commits, reenact, self.seed)
        finally:
            recovered.wal.close()
            shutil.rmtree(copy, ignore_errors=True)
        return {"problems": problems, "db.wal.recover_s": recover_s}


DRIVERS = {
    "panel_si_memory": PanelDriver,
    "oneshot_si_sqlite": OneshotDriver,
    "oneshot_rc_sqlite": OneshotDriver,
    "session_warm": SessionDriver,
    "service_mixed": ServiceDriver,
    "record_write": WriteDriver,
}


def driver(spec: Spec, seed: int, workdir: str) -> Driver:
    return DRIVERS[spec.name](spec, seed, workdir)
