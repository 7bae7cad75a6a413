"""Per-layer timing from outside the program.

One table of *seams* — public callables of the program, resolved from
package roots (or from the class of the live backend session), never
from deep module paths, so moving code between modules does not break
them.  For the traced run only, :class:`Tracer` replaces each seam by a
wrapper that records a span (seam, start, end, parent through a
per-thread stack, op id) in memory.  A span's **self time** is its
duration minus the time its child spans cover; a layer's
``*_ms_per_op`` is the summed self time of its seams over the ops run.

A seam that no longer resolves is reported (``Tracer.missing``) and its
metrics read as unresolved; nothing end-to-end depends on a seam.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

SESSION = "@session"      #: class of the workload's live backend session
PIPELINE = "@pipeline"    #: class of that session's snapshot pipeline


@dataclass(frozen=True)
class Seam:
    group: str                #: layer metric prefix
    roots: Tuple[str, ...]    #: where to look the owner up, in order
    owner: Optional[str]      #: exported class, or None for a function
    attr: str
    #: blocked on another thread rather than busy; left out of busy
    #: self-time sums
    wait: bool = False
    #: keep the return value on the span (compiled plans, for the
    #: off-path plan-size probe)
    keep: bool = False
    #: binds the calling thread to the op that submitted ``args[0]``
    job: bool = False


def _seams() -> Tuple[Seam, ...]:
    core, db, service = ("repro.core",), ("repro.db",), ("repro.service",)
    out = [
        Seam("sql.parse", core, "Reenactor", "parsed_statements"),
        Seam("core.build_chains", core, "Reenactor", "build_chains"),
        Seam("core.optimize", core, "ProvenanceOptimizer", "optimize"),
        Seam("core.compile", core, "Reenactor", "compile", keep=True),
        Seam("core.execute", core, "Reenactor", "execute"),
        Seam("core.whatif", core + ("repro.core.whatif",),
             "WhatIfFleet", "run"),
        Seam("core.equivalence", core, None,
             "check_transaction_equivalence"),
        Seam("algebra.evaluate", ("repro.algebra",), "Evaluator",
             "evaluate"),
        Seam("backends.prime", (), SESSION, "prime_snapshots"),
        Seam("backends.prime", (), PIPELINE, "prime"),
        Seam("backends.execute_plan", (), SESSION, "execute_plan"),
        Seam("backends.window_scan", (), SESSION, "window_scan"),
        Seam("db.snapshot_read", db, "DatabaseContext", "scan_table"),
        Seam("db.statement", db, "Session", "execute"),
        Seam("db.commit", db, "Database", "commit_transaction"),
        Seam("db.wal.checkpoint", db, "WriteAheadLog", "checkpoint"),
        Seam("service.handle_wait", service, "JobHandle", "result",
             wait=True),
        Seam("debugger.panel", ("repro.debugger",),
             "TransactionInspector", "columns"),
        Seam("debugger.timeline",
             ("repro.debugger", "repro.debugger.timeline"), None,
             "timeline_states"),
    ]
    out += [Seam("db.snapshot_read", db, "Database", attr) for attr in
            ("table_snapshot", "table_delta", "table_delta_chain")]
    out += [Seam("db.wal.append_flush", db, "WriteAheadLog", attr)
            for attr in ("log_create_table", "log_begin", "log_statement",
                         "log_commit", "log_abort", "flush")]
    out += [Seam("service.job_run", service, owner, "run", job=True)
            for owner in ("ReenactJob", "WhatIfFleetJob",
                          "EquivalenceJob", "TimelineScanJob")]
    out += [Seam("service.store.put", service, "SnapshotStore", "put")]
    out += [Seam("service.store.get", service, "SnapshotStore", attr)
            for attr in ("get", "fetch_many")]
    return tuple(out)


SEAMS = _seams()


class Span:
    __slots__ = ("seam", "op", "parent", "thread", "start", "end",
                 "child", "size", "result")

    def __init__(self, seam: Seam, op, parent: Optional["Span"]):
        self.seam = seam
        self.op = op
        self.parent = parent
        self.thread = threading.get_ident()
        self.start = 0.0
        self.end = 0.0
        self.child = 0.0      #: time covered by child spans
        self.size = 0         #: rows (or items) the call returned
        self.result = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child

    def outermost(self) -> bool:
        """Not nested inside another span of the same layer."""
        return self.parent is None \
            or self.parent.seam.group != self.seam.group

    def as_record(self, ids: Dict[int, int]) -> Dict:
        return {"seam": f"{self.seam.group}:{self.seam.attr}",
                "op": self.op, "thread": self.thread,
                "start": self.start, "end": self.end,
                "parent": ids.get(id(self.parent))}


def _size(result) -> int:
    if isinstance(result, (list, tuple)):
        if result and isinstance(result[0], list):
            return sum(len(part) for part in result)
        return len(result)
    return 0


#: the harness's own consumption of a result inside the op timer.
DIGEST = Seam("harness.digest", (), None, "digest")


class Tracer:
    """Installs span-recording wrappers over :data:`SEAMS`."""

    def __init__(self, keep: range = range(0)):
        self.spans: List[Span] = []
        self.missing: List[str] = []
        #: ops whose ``keep=True`` seams keep their results
        self.keep = keep
        self._local = threading.local()
        self._job_ops: Dict[int, int] = {}
        self._patched: List[Tuple[object, str, bool, object]] = []

    # -- per-thread state ---------------------------------------------------

    def _state(self):
        state = self._local
        if not hasattr(state, "stack"):
            state.stack = []
            state.op = None
        return state

    def begin_op(self, op_index: int) -> None:
        self._state().op = op_index

    def end_op(self) -> None:
        self._state().op = None

    def bind_job(self, job, op_index: int) -> None:
        """Spans of ``job.run`` (on a worker thread) belong to the op
        that submitted it."""
        self._job_ops[id(job)] = op_index

    def wrap(self, seam: Seam, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = tracer._state()
            outer_op = state.op
            if seam.job:
                state.op = tracer._job_ops.get(id(args[0]))
            stack = state.stack
            span = Span(seam, state.op, stack[-1] if stack else None)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child += span.end - span.start
                tracer.spans.append(span)
                state.op = outer_op
            span.size = _size(result)
            if seam.keep and span.op in tracer.keep:
                span.result = result
            return result

        return wrapper

    # -- install / uninstall ------------------------------------------------

    def install(self, live: Dict[str, type]) -> None:
        """Patch every seam.  ``live`` maps :data:`SESSION` and
        :data:`PIPELINE` to the workload's live classes (absent when
        the workload opens no backend session: those seams then do not
        apply and are not reported missing)."""
        for seam in SEAMS:
            label = f"{seam.group}:{seam.owner or ''}.{seam.attr}"
            if seam.owner in (SESSION, PIPELINE):
                owner = live.get(seam.owner)
                if owner is None:
                    continue
            else:
                owner = _resolve(seam)
            target = getattr(owner, seam.attr, None) \
                if owner is not None else None
            if not callable(target):
                if label not in self.missing:
                    self.missing.append(label)
                continue
            if seam.owner is None:
                # a module-level function: every program module that
                # imported it by name holds its own reference
                wrapper = self.wrap(seam, target)
                for module in list(sys.modules.values()):
                    name = getattr(module, "__name__", "")
                    if name.split(".")[0] == "repro" and \
                            getattr(module, seam.attr, None) is target:
                        self._patch(module, seam.attr, wrapper)
            else:
                self._patch(owner, seam.attr, self.wrap(seam, target))

    def _patch(self, owner, attr: str, wrapper) -> None:
        own = attr in vars(owner)
        self._patched.append((owner, attr, own,
                              vars(owner).get(attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, own, original in reversed(self._patched):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patched.clear()

    def records(self) -> List[Dict]:
        ids = {id(span): index for index, span in enumerate(self.spans)}
        return [span.as_record(ids) for span in self.spans]


def _resolve(seam: Seam):
    """The object that holds ``seam.attr``: an exported class, or the
    module itself for a function seam."""
    for root in seam.roots:
        try:
            module = importlib.import_module(root)
        except ImportError:
            continue
        if seam.owner is None:
            if hasattr(module, seam.attr):
                return module
        elif hasattr(module, seam.owner):
            return getattr(module, seam.owner)
    return None


# -- metrics ---------------------------------------------------------------

@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: repeats exactly on a single-client workload at a fixed seed
    exact: bool = False
    #: the (end-to-end metric, workload) this layer metric should move
    moves: str = ""


def _ms(name: str, moves: str) -> Metric:
    return Metric(name, "ms", "lower", moves=moves)


def _count(name: str, moves: str, better: str = "lower",
           exact: bool = True, unit: str = "count") -> Metric:
    return Metric(name, unit, better, exact=exact, moves=moves)


_COMPILE = "op_p50_ms, ops_per_s on oneshot_rc_sqlite, panel_si_memory"
_SNAPSHOTS = "ops_per_s, peak_rss_mb on session_warm, service_mixed"
_READS = "op_p50_ms on oneshot_si_sqlite; watch setup_s, record_write"
_WRITES = "op_p50_ms, setup_s on record_write"
_WAL = "op_p95_ms on record_write"
_SERVICE = "op_p95_ms, ops_per_s on service_mixed"

KINDS = ("panel", "reenact", "whatif", "equivalence",
         "timeline_sparkline", "timeline_full", "commit")

SESSION_COUNTS = ("full_materializations", "delta_materializations",
                  "patched_in_place", "snapshots_reused",
                  "snapshots_evicted", "snapshots_spilled",
                  "snapshots_rehydrated", "window_scans",
                  "plans_executed")

PER_LAYER: Tuple[Metric, ...] = (
    _ms("sql.parse.self_ms_per_op", "op_p50_ms on panel_si_memory"),
    _count("sql.parse.statements_per_op", "op_p50_ms on panel_si_memory"),
    _ms("core.build_chains.self_ms_per_op", _COMPILE),
    _ms("core.optimize.self_ms_per_op", _COMPILE),
    _ms("core.compile.self_ms_per_op", _COMPILE),
    _count("core.compile.calls_per_op", _COMPILE),
    _count("core.plan_nodes_per_op", "op_p95_ms on oneshot_rc_sqlite"),
    _count("algebra.sql_chars_per_op", "op_p95_ms on oneshot_rc_sqlite"),
    _ms("algebra.sqlgen.probe_ms_per_op",
        "op_p95_ms on oneshot_rc_sqlite"),
    _ms("algebra.evaluate.self_ms_per_op",
        "op_p50_ms, cpu_ms_per_op on panel_si_memory"),
    _ms("core.execute.self_ms_per_op",
        "op_p95_ms on session_warm, service_mixed"),
    _ms("core.whatif.self_ms_per_op",
        "op_p95_ms on session_warm, service_mixed"),
    _ms("core.equivalence.self_ms_per_op", "op_p95_ms on service_mixed"),
    _ms("backends.prime.self_ms_per_op",
        "ops_per_s, op_p50_ms on session_warm, oneshot_si_sqlite"),
    _ms("backends.execute_plan.self_ms_per_op",
        "ops_per_s, op_p50_ms on session_warm, oneshot_*_sqlite"),
    _ms("backends.window_scan.self_ms_per_op",
        "op_p95_ms on session_warm"),
) + tuple(
    _count(f"backends.{name}", _SNAPSHOTS,
           better="higher" if name == "snapshots_reused" else "lower")
    for name in SESSION_COUNTS
) + (
    _count("backends.snapshot_reuse_ratio", _SNAPSHOTS, better="higher",
           unit="ratio"),
    _ms("db.snapshot_read.self_ms_per_op", _READS),
    _count("db.snapshot_read.calls_per_op", _READS),
    _count("db.snapshot_read.rows_per_op", _READS),
    _ms("db.statement.self_ms_per_op", _WRITES),
    _ms("db.commit.self_ms_per_op", _WRITES),
    _ms("db.wal.append_flush.self_ms_per_op", _WAL),
    _ms("db.wal.commit_p95_ms", _WAL),
    _ms("db.wal.checkpoint_ms_total", _WAL),
    _count("db.wal.checkpoints", _WAL),
    _count("db.wal.bytes_per_commit", _WAL, unit="B"),
    _count("db.wal.records_per_commit", _WAL),
    _count("db.wal.fsyncs_per_commit", _WAL),
    Metric("db.wal.recover_s", "s", "lower", moves=_WAL),
    _ms("service.queue_wait.ms_per_op", _SERVICE),
    _ms("service.queue_wait.p95_ms", _SERVICE),
    _ms("service.job_run.self_ms_per_op", _SERVICE),
    _ms("service.store.put_ms_per_op", _SERVICE),
    _ms("service.store.get_ms_per_op", _SERVICE),
    _count("service.store.spills", _SERVICE, exact=False),
    _count("service.store.rehydrations", _SERVICE, exact=False),
    _count("service.result_cache_hit_ratio",
           "set by the workload, must stay within 0.20-0.30",
           better="higher", exact=False, unit="ratio"),
    _count("service.jobs_deduplicated", _SERVICE, better="higher",
           exact=False),
    _ms("debugger.panel.self_ms_per_op", "op_p50_ms on panel_si_memory"),
    _ms("debugger.timeline.self_ms_per_op", "op_p50_ms on session_warm"),
) + tuple(
    _ms(f"kind.{kind}.p50_ms", "breaks op_p95_ms of mixed workloads "
        "down by op kind") for kind in KINDS
) + (
    _ms("harness.digest.self_ms_per_op", "the benchmark's own share"),
    Metric("harness.trace_overhead_pct", "%", "lower"),
    Metric("harness.unattributed_pct", "%", "lower"),
    _count("harness.missing_seams", "a seam the program retired",
           exact=False),
)


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def op_self_times(spans: List[Span]) -> Dict[int, float]:
    """Busy self time per op (wait spans left out)."""
    out: Dict[int, float] = {}
    for span in spans:
        if span.op is not None and not span.seam.wait:
            out[span.op] = out.get(span.op, 0.0) + span.self_time
    return out


def span_metrics(tracer: Tracer, op_walls: Dict[int, Tuple[float, int]],
                 window: range) -> Dict[str, Optional[float]]:
    """Span-derived per-layer metrics.  ``op_walls`` maps each traced
    op index to ``(wall seconds, client thread id)``; times are over
    all of them, counts over the ops in ``window`` (one round) only,
    so that they repeat exactly however many rounds the machine got
    through."""
    spans = [s for s in tracer.spans if s.op in op_walls]
    n_ops = max(1, len(op_walls))
    n_rounds = max(1.0, len(op_walls) / max(1, len(window)))
    self_ms: Dict[str, float] = {}
    for span in spans:
        group = span.seam.group
        self_ms[group] = self_ms.get(group, 0.0) + span.self_time * 1e3
    missing_groups = {label.split(":")[0] for label in tracer.missing}

    def per_op(group: str) -> Optional[float]:
        if group in missing_groups and group not in self_ms:
            return None
        return self_ms.get(group, 0.0) / n_ops

    def outer(group: str) -> List[Span]:
        return [s for s in spans if s.seam.group == group
                and s.outermost() and s.op in window]

    out: Dict[str, Optional[float]] = {}
    for metric in PER_LAYER:
        if metric.name.endswith(".self_ms_per_op"):
            out[metric.name] = per_op(
                metric.name[:-len(".self_ms_per_op")])
    counted = max(1, len(window))
    out["sql.parse.statements_per_op"] = \
        sum(s.size for s in outer("sql.parse")) / counted
    out["core.compile.calls_per_op"] = \
        len(outer("core.compile")) / counted
    reads = outer("db.snapshot_read")
    out["db.snapshot_read.calls_per_op"] = len(reads) / counted
    out["db.snapshot_read.rows_per_op"] = \
        sum(s.size for s in reads) / counted
    commits = [s.duration * 1e3 for s in spans
               if s.seam.attr == "log_commit"]
    out["db.wal.commit_p95_ms"] = percentile(commits, 95) \
        if commits else 0.0
    out["db.wal.checkpoint_ms_total"] = sum(
        (s.duration * 1e3 for s in spans
         if s.seam.group == "db.wal.checkpoint"), 0.0) / n_rounds
    # store traffic includes the background publisher (no op id)
    for name, group in (("put", "service.store.put"),
                        ("get", "service.store.get")):
        out[f"service.store.{name}_ms_per_op"] = sum(
            s.duration * 1e3 for s in tracer.spans
            if s.seam.group == group and s.outermost()) / n_ops
    runs = {s.op: s.duration for s in spans if s.seam.job}
    waits = [(s.duration - runs[s.op]) * 1e3 for s in spans
             if s.seam.wait and s.op in runs]
    out["service.queue_wait.ms_per_op"] = \
        statistics.fmean(waits) if waits else 0.0
    out["service.queue_wait.p95_ms"] = \
        percentile(waits, 95) if waits else 0.0

    covered: Dict[int, float] = {}
    for span in spans:
        if span.parent is None and span.thread == op_walls[span.op][1]:
            covered[span.op] = covered.get(span.op, 0.0) + span.duration
    total = sum(wall for wall, _ in op_walls.values())
    bare = sum(max(0.0, wall - covered.get(op, 0.0))
               for op, (wall, _) in op_walls.items())
    out["harness.unattributed_pct"] = 100.0 * bare / total if total else 0.0
    return out


def plan_probe(tracer: Tracer, n_ops: int) -> Dict[str, Optional[float]]:
    """Size of the compiled plans the tracer kept (one round's:
    ``n_ops`` ops), measured off the timed path: operator nodes, SQL text length in the native
    dialect, and the time SQL generation took."""
    names = ("core.plan_nodes_per_op", "algebra.sql_chars_per_op",
             "algebra.sqlgen.probe_ms_per_op")
    probes = []
    for attr in ("walk_plan", "generate_sql"):
        module = _resolve(Seam("algebra.sqlgen", ("repro.algebra",),
                               None, attr))
        if module is None:
            tracer.missing.append(f"algebra.sqlgen:.{attr}")
            return dict.fromkeys(names)
        probes.append(getattr(module, attr))
    walk_plan, generate_sql = probes
    nodes = chars = 0
    spent = 0.0
    for span in tracer.spans:
        if span.result is None:
            continue
        for plan in span.result.plans.values():
            nodes += sum(1 for _ in walk_plan(plan))
            start = time.perf_counter()
            chars += len(generate_sql(plan))
            spent += time.perf_counter() - start
        span.result = None
    n_ops = max(1, n_ops)
    return dict(zip(names, (nodes / n_ops, chars / n_ops,
                            spent * 1e3 / n_ops)))
