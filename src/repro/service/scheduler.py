"""The reenactment service: a job scheduler over a worker pool.

This is the serving layer the paper's deployment story implies:
reenactment-as-a-service over an unmodified DBMS, with *many* analysts
concurrently issuing provenance, what-if, equivalence and timeline
queries against the same transaction history.  Per-session machinery
(compile/execute split, snapshot caching, delta patching) already makes
one client fast; the service makes a *population* of clients fast by
sharing work across them:

* a **priority queue** feeds a bounded pool of worker threads, each
  holding one long-lived backend session — so every job scheduled onto
  a worker inherits the snapshots all previous jobs on that worker
  materialized;
* a shared :class:`~repro.service.store.SnapshotStore` sits behind
  every worker's snapshot cache — eviction demotes snapshots to disk
  instead of destroying them, and *any* worker rehydrates them back,
  so snapshot work crosses worker boundaries;
* a :class:`~repro.service.cache.ResultCache` plus an in-flight table
  deduplicate identical jobs: a repeat of a finished job is answered
  from cache, and two identical jobs in flight at once run once and
  share one handle.

Admission is checked against the backend's declared capability flags
(:attr:`~repro.backends.base.ExecutionBackend.capabilities`) at
construction time — a backend that cannot spill is refused a store up
front rather than failing on first eviction.

Threading model: Python threads.  The engine's storage is read-only
during service operation (reenactment never writes; the service is for
probing a recorded history), and each worker owns its backend session
and SQLite connection outright, so the shared mutable surfaces are
exactly the store, the result cache and the scheduler bookkeeping —
each guarded by its own lock.  The service assumes the database is
quiescent while serving; results are fingerprinted against the
history version at submission, so a history that *does* grow simply
stops matching old cache entries.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.backends import BackendSpec, resolve_backend
from repro.backends.cache import check_capacity
from repro.backends.base import SessionStats
from repro.core.reenactor import ReenactmentOptions, Reenactor
from repro.errors import (ExecutionError, HandleTimeout, JobTimeout,
                          ServiceError, WorkerCrashed)
from repro.faults.inject import fault_point
from repro.faults.retry import RetryPolicy
from repro.obs.explain import ExplainCollector
from repro.obs.metrics import (MetricsRegistry, StatsView,
                               publish_stats)
from repro.obs.trace import span, span_from
from repro.service.cache import ResultCache
from repro.service.jobs import (PRIORITY_HIGH, PRIORITY_NORMAL,
                                EquivalenceJob, Job, ReenactJob,
                                TimelineScanJob, WarmJob,
                                WhatIfFleetJob)
from repro.service.resilience import SPILL_RETRYABLE, ResilientStore
from repro.service.store import SnapshotStore

#: queue sentinel telling a worker to exit; scheduled *after* every
#: real priority band so queued work drains before shutdown.
_STOP_PRIORITY = 1 << 31


class JobHandle:
    """A future for one submitted job.

    ``source`` records how the result was produced: ``"executed"`` (a
    worker ran it), ``"result-cache"`` (answered from the completed-job
    cache without queueing), or ``"deduplicated"`` (this submission was
    coalesced onto an identical in-flight job's handle — several
    submitters then share one handle object and ``dedup_count`` counts
    the extras).
    """

    def __init__(self, job: Job, priority: int,
                 key: Optional[Any] = None):
        self.job = job
        self.priority = priority
        self.key = key
        self.source = "pending"
        self.dedup_count = 0
        #: trace id of the submitting span (None when tracing is off);
        #: the worker adopts ``_trace_parent`` so the whole execution
        #: lands in the submitter's trace.
        self.trace_id: Optional[str] = None
        self._trace_parent = None
        self._enqueued_at = time.perf_counter()
        self._explain: List[Dict[str, Any]] = []
        self._event = threading.Event()
        self._result: Any = None
        self._error: Optional[BaseException] = None
        #: set once a worker takes the job — duplicate queue entries
        #: (priority escalation re-enqueues a handle) run it only once.
        self._claimed = False
        #: absolute monotonic deadline (None = no deadline); enforced
        #: by the worker at claim time, not while the job runs.
        self._deadline: Optional[float] = None
        #: worker crashes survived so far — caps requeue-after-crash
        #: at one attempt so a job that *causes* crashes cannot cycle.
        self._crashes = 0

    def done(self) -> bool:
        return self._event.is_set()

    def _wait(self, timeout: Optional[float]) -> None:
        if not self._event.wait(timeout):
            raise HandleTimeout(
                f"timed out waiting for {self.job.describe()}",
                trace_id=self.trace_id, kind=self.job.kind)

    def result(self, timeout: Optional[float] = None) -> Any:
        """Block until the job finishes and return its result (or
        re-raise its error).  ``timeout`` in seconds raises
        :class:`~repro.errors.HandleTimeout` (a :class:`ServiceError`)
        on expiry, carrying the handle's trace id and job kind."""
        self._wait(timeout)
        if self._error is not None:
            raise self._error
        return self._result

    def exception(self,
                  timeout: Optional[float] = None
                  ) -> Optional[BaseException]:
        self._wait(timeout)
        return self._error

    def explain(self, timeout: Optional[float] = None
                ) -> List[Dict[str, Any]]:
        """Block like :meth:`result`, then return the explain events
        the job's execution recorded (snapshot-plan step reasons).  A
        handle answered straight from the result cache ran nothing and
        returns ``[]``; a deduplicated handle shares the executing
        submission's events."""
        self._wait(timeout)
        return list(self._explain)

    def _resolve(self, value: Any, source: str = "executed") -> None:
        self._result = value
        if self.source == "pending":
            self.source = source
        self._event.set()

    def _reject(self, error: BaseException) -> None:
        self._error = error
        if self.source == "pending":
            self.source = "executed"
        self._event.set()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = self.source if self.done() else "pending"
        return f"<JobHandle {self.job.describe()} {state}>"


@dataclass
class ServiceStats(StatsView):
    """Point-in-time snapshot of everything the service observed."""

    workers: int = 0
    jobs_submitted: int = 0
    jobs_executed: int = 0
    jobs_failed: int = 0
    #: submissions coalesced onto an identical in-flight job.
    jobs_deduplicated: int = 0
    #: submissions answered from the completed-result cache.
    jobs_from_cache: int = 0
    #: jobs rejected at claim time because their deadline had passed.
    jobs_deadline_expired: int = 0
    #: jobs re-enqueued after the worker running them crashed.
    jobs_requeued: int = 0
    #: worker threads restarted after an uncaught crash.
    workers_restarted: int = 0
    queue_depth: int = 0
    result_cache: Dict[str, int] = field(default_factory=dict)
    #: ``None`` when the service runs without a spill store.
    store: Optional[Dict[str, int]] = None
    #: spill-tier degradation counters (retries, breaker state) —
    #: ``None`` when the service runs without a spill store.
    resilience: Optional[Dict[str, int]] = None
    #: every worker session's counters, merged (see
    #: :meth:`SessionStats.as_dict`).
    sessions: Dict[str, int] = field(default_factory=dict)


class _WorkerContext:
    """What a job sees while running: the worker's backend resources."""

    def __init__(self, db, backend, session):
        self.db = db
        self.backend = backend
        self.session = session
        self.reenactor = Reenactor(db, backend=backend)


class ReenactmentService:
    """Concurrent reenactment over one recorded transaction history.

    ::

        with ReenactmentService(db, backend="sqlite", workers=4) as svc:
            h1 = svc.reenact(xid)
            h2 = svc.timeline_scan("account", timestamps)
            reports = svc.equivalence_sweep()        # xid -> handle
            result = h1.result()

    ``backend`` is anything :func:`repro.backends.resolve_backend`
    accepts; ``cache_capacity`` overrides the snapshot-cache bound of
    a backend the service constructs from a name.  ``store`` selects
    the spill tier: ``"auto"`` (default) attaches a private on-disk
    :class:`SnapshotStore` when the backend's capability flags say it
    can spill, ``True`` requires spill support (:class:`ServiceError`
    otherwise), a path string creates the store at that path, an
    existing :class:`SnapshotStore` is shared (and not closed with the
    service), and ``None``/``False`` disables spilling.  A spill is
    written and committed by the evicting worker before eviction
    returns, so it is readable by every worker — and by any other
    connection to the store file — from then on.  A store the service
    constructs is unbounded; a caller who wants an LRU bound passes
    their own ``SnapshotStore(capacity=...)``.

    Whatever store is attached is wrapped in a
    :class:`~repro.service.resilience.ResilientStore`: transient
    spill/rehydrate failures are retried with backoff, persistent
    failure trips a circuit breaker and the service degrades to
    cache-only operation instead of failing jobs — the spill tier is
    an optimization, so losing it costs speed, never answers.
    """

    def __init__(self, db, backend: BackendSpec = "sqlite",
                 workers: int = 4,
                 store="auto",
                 cache_capacity: Optional[int] = None,
                 result_cache_capacity: Optional[int] = 256):
        if workers < 1:
            raise ServiceError(f"need at least 1 worker, got {workers}")
        self.db = db
        from repro.backends import ExecutionBackend
        caller_owned = isinstance(backend, ExecutionBackend)
        self.backend = resolve_backend(backend)
        caps = dict(self.backend.capabilities)
        # the cache bound is applied via an admission check — a
        # backend without a session cache is refused it instead of
        # silently ignoring it — and only to a backend the service
        # constructed itself: mutating a caller-owned instance would
        # leak the setting into every session the caller opens
        # directly, beyond the service's lifetime.
        if cache_capacity is not None:
            if caller_owned:
                raise ServiceError(
                    "cache_capacity only applies to a backend the "
                    "service constructs from a name; configure your "
                    "backend instance directly instead")
            if not caps.get("sessions"):
                raise ServiceError(
                    f"backend {self.backend.name!r} has no session "
                    f"snapshot cache to tune (capabilities: {caps})")
            try:
                self.backend.cache_capacity = check_capacity(
                    cache_capacity)
            except ExecutionError as exc:
                raise ServiceError(str(exc)) from exc
        self._store, self._owns_store = self._admit_store(store, caps)
        self.workers = workers
        self._queue: "queue.PriorityQueue[Tuple[int, int, Optional[Job], Optional[JobHandle]]]" = \
            queue.PriorityQueue()
        self._seq = itertools.count()
        self._lock = threading.Lock()
        self._inflight: Dict[Any, JobHandle] = {}
        self._result_cache = ResultCache(capacity=result_cache_capacity)
        self._stats = ServiceStats(workers=workers)
        self._metrics = MetricsRegistry()
        self._hist_duration = self._metrics.histogram(
            "reenact_job_duration_seconds",
            "wall-clock job execution time on a worker, by job kind")
        self._hist_queue_wait = self._metrics.histogram(
            "reenact_job_queue_wait_seconds",
            "time between submission and a worker claiming the job")
        self._ctr_retries = self._metrics.counter(
            "reenact_retries_total",
            "transient-failure retries absorbed, by fault site")
        self._open_retry = RetryPolicy(
            attempts=3, base_delay=0.01, max_delay=0.1,
            on_retry=lambda site: self._ctr_retries.inc(1, site=site))
        #: degradation wrapper around the spill tier: retries
        #: transients, trips a circuit breaker on persistent failure
        #: and falls back to cache-only operation — a broken spill
        #: disk slows the service down instead of taking it down.
        if self._store is not None:
            self._store = ResilientStore(
                self._store,
                retry=RetryPolicy(
                    retryable=SPILL_RETRYABLE,
                    on_retry=lambda site:
                    self._ctr_retries.inc(1, site=site)))
        self._session_totals = SessionStats()
        self._live_sessions: List = []
        self._closed = False
        #: handle currently running on each worker, by worker index —
        #: what the supervisor recovers when that worker crashes.
        #: Each slot is written only by its own worker/supervisor
        #: thread, so no lock is needed.
        self._dispatching: Dict[int, JobHandle] = {}
        #: WAL retry count already bridged into the retries counter
        #: (Counters only increment, so :meth:`metrics` feeds deltas).
        self._wal_retries_seen = 0
        self._threads = [
            threading.Thread(target=self._supervise, args=(i,),
                             name=f"reenact-worker-{i}", daemon=True)
            for i in range(workers)]
        for thread in self._threads:
            thread.start()

    def _admit_store(self, store, caps: Dict[str, bool]):
        """Resolve the ``store`` spec against the backend's spill
        capability.  Returns ``(store_or_None, service_owns_it)``."""
        if store in (None, False):
            return None, False
        if store == "auto":
            if not caps.get("spill"):
                return None, False
            return SnapshotStore(), True
        if not caps.get("spill"):
            raise ServiceError(
                f"backend {self.backend.name!r} cannot spill snapshots "
                f"(capabilities: {caps}); run with store=None")
        if store is True:
            return SnapshotStore(), True
        if isinstance(store, str):
            return SnapshotStore(path=store), True
        return store, False  # caller-owned SnapshotStore (or lookalike)

    # -- submission --------------------------------------------------------

    def submit(self, job: Job,
               priority: int = PRIORITY_NORMAL,
               deadline: Optional[float] = None) -> JobHandle:
        """Schedule ``job``; returns a :class:`JobHandle` immediately.

        Identical jobs (same :meth:`~repro.service.jobs.Job.cache_key`)
        are served from the result cache when already finished, or
        coalesced onto the in-flight handle when currently running or
        queued.

        ``deadline`` (seconds from now) bounds how long the job may
        wait in the queue: a worker that claims it past the deadline
        rejects the handle with :class:`~repro.errors.JobTimeout`
        instead of running stale work.  A submission coalesced onto an
        in-flight duplicate shares that handle's original deadline."""
        if deadline is not None and deadline <= 0:
            raise ServiceError(
                f"deadline must be positive, got {deadline!r}")
        key = job.cache_key(self.db)
        with span("service.submit", kind=job.kind,
                  priority=priority) as sub:
            with self._lock:
                if self._closed:
                    raise ServiceError("service is closed")
                self._stats.jobs_submitted += 1
                if key is not None:
                    hit, value = self._result_cache.get(key)
                    if hit:
                        self._stats.jobs_from_cache += 1
                        handle = JobHandle(job, priority, key=key)
                        handle.trace_id = sub.trace_id or None
                        sub.set("source", "result-cache")
                        handle._resolve(value, source="result-cache")
                        return handle
                    existing = self._inflight.get(key)
                    if existing is not None:
                        self._stats.jobs_deduplicated += 1
                        existing.dedup_count += 1
                        sub.set("source", "deduplicated")
                        if priority < existing.priority \
                                and not existing._claimed:
                            # priority escalation: a more urgent
                            # duplicate must not wait behind the
                            # original's queue position — re-enqueue
                            # the same handle at the higher band (the
                            # claimed flag makes the stale entry a
                            # no-op when a worker reaches it)
                            existing.priority = priority
                            self._queue.put((priority, next(self._seq),
                                             existing.job, existing))
                        return existing
                handle = JobHandle(job, priority, key=key)
                handle.trace_id = sub.trace_id or None
                handle._trace_parent = sub.context
                handle._enqueued_at = time.perf_counter()
                if deadline is not None:
                    handle._deadline = time.monotonic() + deadline
                if key is not None:
                    self._inflight[key] = handle
                self._queue.put((priority, next(self._seq), job,
                                 handle))
        return handle

    # convenience entry points, one per job kind ---------------------------

    def reenact(self, xid: int,
                options: Optional[ReenactmentOptions] = None,
                priority: int = PRIORITY_NORMAL) -> JobHandle:
        return self.submit(ReenactJob(xid=xid, options=options),
                           priority=priority)

    def whatif_fleet(self, xid: int,
                     variants: Sequence[Tuple[str, Any]] = (),
                     options: Optional[ReenactmentOptions] = None,
                     priority: int = PRIORITY_NORMAL) -> JobHandle:
        return self.submit(
            WhatIfFleetJob(xid=xid, variants=variants, options=options),
            priority=priority)

    def equivalence(self, xid: int, optimize: bool = True,
                    priority: int = PRIORITY_NORMAL) -> JobHandle:
        return self.submit(EquivalenceJob(xid=xid, optimize=optimize),
                           priority=priority)

    def equivalence_sweep(self, xids: Optional[Sequence[int]] = None,
                          optimize: bool = True,
                          priority: int = PRIORITY_NORMAL
                          ) -> Dict[int, JobHandle]:
        """One :class:`EquivalenceJob` per committed transaction
        (default: every committed, non-empty transaction in the audit
        log), fanned out across the worker pool."""
        if xids is None:
            xids = self.db.audit_log.committed_xids()
        return {xid: self.equivalence(xid, optimize=optimize,
                                      priority=priority)
                for xid in xids}

    def timeline_scan(self, table: str, timestamps: Sequence[int],
                      priority: int = PRIORITY_NORMAL,
                      mode: str = "full") -> JobHandle:
        return self.submit(
            TimelineScanJob(table=table, timestamps=list(timestamps),
                            mode=mode),
            priority=priority)

    def warm(self, table: str, timestamps: Sequence[int]) -> JobHandle:
        """Pre-warm the spill tier: materialize the given committed
        states of ``table`` on one worker and publish every one of
        them to the store, ahead of traffic — every worker's first
        touch of them then rehydrates from the store instead of
        rescanning storage.  Runs as one high-priority
        :class:`~repro.service.jobs.WarmJob`; call ``.result()`` on
        the handle to block until the store is warm."""
        return self.submit(WarmJob(table=table,
                                   timestamps=list(timestamps)),
                           priority=PRIORITY_HIGH)

    def rewarm(self, tables: Optional[Sequence[str]] = None
               ) -> Dict[str, JobHandle]:
        """Warm restart: prime the workers from the spill store's
        inventory for this database's history.

        A service restarted over a recovered database
        (``Database.open``) keeps its durable ``history_id``, so every
        snapshot a previous incarnation spilled to a persistent store
        is still addressed to this history.  ``rewarm`` lists the
        store's ``(table, ts)`` holdings and submits one :meth:`warm`
        job per table over exactly those timestamps — the first state
        is a store read, the rest delta hops off it, never a full
        rebuild — and afterwards real traffic finds warm session
        caches.  Returns table -> handle (block on ``.result()`` to
        wait); ``tables`` restricts the set.  Tables the recovered
        catalog no longer knows are skipped."""
        if self._store is None:
            raise ServiceError(
                "rewarm requires a spill store (store=...)")
        grouped: Dict[str, List[int]] = {}
        for table, ts in self._store.inventory(self.db.history_id):
            if tables is not None and table not in tables:
                continue
            if not self.db.catalog.has(table):
                continue
            grouped.setdefault(table, []).append(ts)
        return {table: self.warm(table, stamps)
                for table, stamps in sorted(grouped.items())}

    # -- the worker loop ---------------------------------------------------

    def _supervise(self, index: int) -> None:
        """Worker supervision: run the worker loop, and when an
        uncaught error (an injected ``worker.dispatch`` crash, or any
        bug in the scheduler bookkeeping itself) unwinds it, recover
        the in-flight job and restart the loop on this same thread.

        The crashed job is re-enqueued once when its kind declares
        itself idempotent (every shipped kind is a pure read over
        recorded history); otherwise — or on a second crash — its
        handle is rejected with a structured
        :class:`~repro.errors.WorkerCrashed` so waiters fail fast
        instead of hanging on a worker that no longer exists."""
        while True:
            try:
                self._worker_loop(index)
                return  # clean exit via the stop sentinel
            except BaseException as exc:
                handle = self._dispatching.pop(index, None)
                with self._lock:
                    self._stats.workers_restarted += 1
                if handle is None or handle.done():
                    continue
                if handle.job.idempotent and handle._crashes < 1:
                    handle._crashes += 1
                    with self._lock:
                        self._stats.jobs_requeued += 1
                        handle._claimed = False
                    self._queue.put((handle.priority, next(self._seq),
                                     handle.job, handle))
                else:
                    with self._lock:
                        self._stats.jobs_failed += 1
                        if handle.key is not None:
                            self._inflight.pop(handle.key, None)
                    handle._reject(WorkerCrashed(
                        f"worker {index} crashed running "
                        f"{handle.job.describe()}: {exc!r}",
                        kind=handle.job.kind, worker=index))

    def _worker_loop(self, index: int) -> None:
        try:
            session = self._open_retry.call(self.backend.open_session,
                                            site="session.open")
            if self._store is not None:
                session.attach_spill_store(self._store)
        except BaseException as exc:
            # a worker that cannot get a session even after retries
            # must not vanish silently — submitted jobs would hang
            # forever.  It stays on the queue rejecting everything it
            # receives instead.
            self._reject_loop(ServiceError(
                f"worker {index} failed to open a backend session: "
                f"{exc!r}"))
            return
        with self._lock:
            self._live_sessions.append(session)
        worker = _WorkerContext(self.db, self.backend, session)
        stopping = False
        try:
            while True:
                _, _, job, handle = self._queue.get()
                if job is None:  # stop sentinel
                    stopping = True
                    break
                expired = False
                with self._lock:
                    if handle._claimed:
                        continue  # stale duplicate queue entry
                    handle._claimed = True
                    if handle._deadline is not None \
                            and time.monotonic() > handle._deadline:
                        expired = True
                        self._stats.jobs_failed += 1
                        self._stats.jobs_deadline_expired += 1
                        if handle.key is not None:
                            self._inflight.pop(handle.key, None)
                if expired:
                    handle._reject(JobTimeout(
                        f"{job.describe()} expired in queue before a "
                        f"worker could run it",
                        trace_id=handle.trace_id, kind=job.kind))
                    continue
                # record what this worker is about to run *before* the
                # crash fault point: a crash between here and handle
                # resolution leaves the entry for the supervisor.
                self._dispatching[index] = handle
                fault_point("worker.dispatch", kind=job.kind,
                            worker=index)
                self._hist_queue_wait.observe(
                    time.perf_counter() - handle._enqueued_at,
                    kind=job.kind)
                collector = ExplainCollector()
                started = time.perf_counter()
                with span_from(handle._trace_parent,
                               "service.schedule", kind=job.kind,
                               worker=index) as sched:
                    try:
                        with collector:
                            result = job.run(worker)
                    except BaseException as exc:
                        # BaseException included: a KeyboardInterrupt
                        # in a worker must reject the handle, not
                        # strand every waiter (concurrent.futures does
                        # the same)
                        handle._explain = collector.events
                        sched.set("outcome", "error")
                        with self._lock:
                            self._stats.jobs_failed += 1
                            if handle.key is not None:
                                self._inflight.pop(handle.key, None)
                        with span("service.result", outcome="error"):
                            handle._reject(exc)
                    else:
                        self._hist_duration.observe(
                            time.perf_counter() - started,
                            kind=job.kind)
                        handle._explain = collector.events
                        with self._lock:
                            self._stats.jobs_executed += 1
                            if handle.key is not None:
                                self._inflight.pop(handle.key, None)
                                self._result_cache.put(handle.key,
                                                       result)
                        with span("service.result", outcome="ok"):
                            handle._resolve(result)
                self._dispatching.pop(index, None)
        finally:
            with self._lock:
                if session in self._live_sessions:
                    self._live_sessions.remove(session)
                self._session_totals.merge(session.stats)
            try:
                session.close()
            except Exception:
                # the stop sentinel is consumed: a restart by the
                # supervisor would park on a queue nothing feeds, and
                # close() would join it forever
                if not stopping:
                    raise

    def _reject_loop(self, error: ServiceError) -> None:
        """Fallback loop for a worker whose session never opened:
        fail each received job fast instead of letting it hang."""
        while True:
            _, _, job, handle = self._queue.get()
            if job is None:
                return
            with self._lock:
                if handle._claimed:
                    continue
                handle._claimed = True
                self._stats.jobs_failed += 1
                if handle.key is not None:
                    self._inflight.pop(handle.key, None)
            handle._reject(error)

    # -- observability -----------------------------------------------------

    @property
    def store(self) -> Optional[SnapshotStore]:
        return self._store

    @property
    def result_cache(self) -> ResultCache:
        return self._result_cache

    def stats(self) -> ServiceStats:
        """A merged snapshot: scheduler counters, result-cache and
        store counters, and every worker session's
        :class:`SessionStats` (live and retired) folded together."""
        with self._lock:
            merged = SessionStats()
            merged.merge(self._session_totals)
            for session in self._live_sessions:
                merged.merge(session.stats)
            store = self._store
            return replace(
                self._stats,
                queue_depth=self._queue.qsize(),
                result_cache=self._result_cache.stats.as_dict(),
                store=store.stats.as_dict()
                if store is not None else None,
                resilience=store.resilience_stats()
                if store is not None else None,
                sessions=merged.as_dict())

    def metrics(self,
                registry: Optional[MetricsRegistry] = None
                ) -> MetricsRegistry:
        """Publish the current :meth:`stats` snapshot into a metrics
        registry as gauges and return it.  The default registry is the
        service's own, which also carries the live job-duration and
        queue-wait histograms the worker loop maintains; when the
        database has a write-ahead log attached its counters are
        published too."""
        if registry is None:
            registry = self._metrics
        publish_stats(registry, "reenact_service",
                      self.stats().as_dict())
        wal = getattr(self.db, "wal", None)
        wal_stats = getattr(wal, "stats", None)
        if wal_stats is not None:
            publish_stats(registry, "reenact_wal",
                          wal_stats.as_dict())
            # bridge WAL retry counts into the shared retries counter
            # (Counters only move forward, so feed the delta since the
            # last publish).
            wal_retried = (wal_stats.appends_retried
                           + wal_stats.fsyncs_retried)
            delta = wal_retried - self._wal_retries_seen
            if delta > 0:
                self._wal_retries_seen = wal_retried
                self._ctr_retries.inc(delta, site="wal")
        return registry

    def prometheus(self) -> str:
        """Prometheus-style text exposition of :meth:`metrics`."""
        return self.metrics().render()

    # -- lifecycle ---------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Drain queued jobs, stop the workers, close the sessions and
        (when owned) the spill store.  Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for _ in self._threads:
                self._queue.put((_STOP_PRIORITY, next(self._seq),
                                 None, None))
        for thread in self._threads:
            thread.join()
        if self._owns_store and self._store is not None:
            self._store.close()

    def __enter__(self) -> "ReenactmentService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "closed" if self._closed else "open"
        return (f"<ReenactmentService {self.backend.name!r} "
                f"workers={self.workers} {state}>")
