"""Pluggable execution backends for reenactment plans.

The paper's central systems claim is that reenactment is *ordinary SQL*
— a reenactment query runs on a stock DBMS over time-traveled snapshots
with no engine modification.  An :class:`ExecutionBackend` is where that
claim becomes testable: it takes a finished algebra plan plus the
evaluation context (time travel, bind parameters)
and produces a :class:`~repro.algebra.evaluator.Relation`, by whatever
means the backend chooses — interpreting the plan directly
(:class:`~repro.backends.memory.InMemoryBackend`) or printing it as SQL
and shipping it to a real engine
(:class:`~repro.backends.sqlite.SQLiteBackend`).

Backends are interchangeable by construction; the differential-testing
harness (``tests/backends/``) holds them to that by reenacting seeded
random histories on every backend and requiring multiset-identical
results.

A backend runs plans on a :class:`BackendSession` (context manager,
from :meth:`ExecutionBackend.open_session`) that keeps backend
resources alive across a *batch* of plan executions.  The SQLite
session holds one connection for its lifetime and memoizes snapshot
materialization per ``(table, ts)`` key, so a fleet of plans over the
same transaction (what-if fleets, debugger prefix columns,
whole-history equivalence sweeps) materializes each AS-OF snapshot
exactly once.  :meth:`ExecutionBackend.execute_plan` is the same on a
throwaway session.

The explicit snapshot key a session caches on is the architectural seam
later incremental-delta and server backends plug into.
"""

from __future__ import annotations

import abc
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional

from repro.algebra import operators as op
from repro.algebra.evaluator import EvalContext, Relation
from repro.errors import ExecutionError
from repro.obs.metrics import StatsView


@dataclass
class SessionStats(StatsView):
    """Observable work a :class:`BackendSession` performed.

    ``materializations`` counts CREATE-and-fill events per snapshot key
    — the session-reuse tests assert every key stays at exactly 1 no
    matter how many plans scanned it.  ``snapshots_materialized`` is the
    total of both materialization strategies:
    ``full_materializations`` (rebuilt from a storage scan) plus
    ``delta_materializations`` (cloned from a nearby cached snapshot and
    patched with the version-history delta; ``delta_rows_applied`` sums
    the patch sizes).  ``snapshots_evicted`` counts cache entries
    dropped to honor the snapshot cache's capacity bound."""

    plans_executed: int = 0
    snapshots_materialized: int = 0
    snapshots_reused: int = 0
    #: snapshot key -> number of times it was (re)materialized.
    materializations: Counter = field(default_factory=Counter)
    #: snapshots built by scanning storage (the pre-delta baseline).
    full_materializations: int = 0
    #: snapshots built by cloning a cached neighbor + applying a delta.
    delta_materializations: int = 0
    #: total delta rows applied across all delta materializations.
    delta_rows_applied: int = 0
    #: cache entries dropped to enforce the capacity bound.
    snapshots_evicted: int = 0
    #: evicted snapshots saved to an attached spill store instead of
    #: being destroyed outright.
    snapshots_spilled: int = 0
    #: cache misses answered by rehydrating a spilled snapshot from the
    #: store (counted *inside* ``snapshots_materialized``, like the
    #: full/delta strategies).
    snapshots_rehydrated: int = 0
    #: union-primed snapshot requests answered by a snapshot an
    #: earlier compile in the same pipeline already materialized.
    primes_shared: int = 0

    def as_dict(self) -> Dict[str, int]:
        """All scalar counters plus the number of distinct snapshot
        keys (in place of the per-key counter itself), as a plain
        JSON-serializable dict — the payload benchmark reports and
        service stats embed."""
        payload = super().as_dict()
        payload["distinct_snapshot_keys"] = \
            len(payload.pop("materializations"))
        return payload

    def merge(self, other: "SessionStats") -> None:
        """Fold another session's counters into this one (service-level
        aggregation across a worker pool)."""
        for spec in fields(self):
            mine = getattr(self, spec.name)
            theirs = getattr(other, spec.name)
            if isinstance(mine, Counter):
                mine.update(theirs)
            else:
                setattr(self, spec.name, mine + theirs)


#: operation kinds a :class:`SnapshotPlan` step may carry, in the order
#: the planner prefers them (cheapest first for the common case):
#: ``reuse-cached``    — the snapshot is already resident, nothing to do;
#: ``clone-delta``     — clone a cached neighbor and patch the delta;
#: ``rehydrate-batch`` — refill from the spill store; all such steps of
#:                       one plan are fetched in a single store read;
#: ``partial-build``   — a storage scan, copying only the rows the
#:                       batch's row keys match; the entry is completed
#:                       before any other use;
#: ``full-build``      — rebuild from a storage scan.
PLAN_OPS = ("reuse-cached", "clone-delta", "rehydrate-batch",
            "partial-build", "full-build")


@dataclass(frozen=True)
class SnapshotPlanStep:
    """One planned materialization: produce ``(table, ts)`` via ``op``
    (``source_ts`` names the cached version a clone starts from).
    ``reason`` is the planner's own account of why this op won — the
    explain surface; it is excluded from equality so plans compare on
    what they *do*, not how they were justified."""

    op: str
    table: str
    ts: int
    source_ts: Optional[int] = None
    reason: Optional[str] = field(default=None, compare=False)

    def as_dict(self) -> Dict[str, object]:
        return {"op": self.op, "table": self.table, "ts": self.ts,
                "source_ts": self.source_ts, "reason": self.reason}


@dataclass
class SnapshotPlan:
    """A planned snapshot-set materialization: per table, the chain of
    operations a session will run — decided against the cache and
    store inventory *before* touching the engine, so batched work
    (one store read for every rehydrate step) is known up front.  No
    step consumes its source."""

    steps: List[SnapshotPlanStep] = field(default_factory=list)

    def counts(self) -> Dict[str, int]:
        """``{op: step count}`` over the whole plan (observability /
        test pinning)."""
        out = Counter(step.op for step in self.steps)
        return {op: out[op] for op in PLAN_OPS if out[op]}

    def __len__(self) -> int:
        return len(self.steps)


class BackendSession(abc.ABC):
    """One execution session: backend resources shared across plans.

    Sessions are context managers; the one-shot
    :meth:`ExecutionBackend.execute_plan` is defined in terms of a
    throwaway session.  A session is single-threaded and must not be
    used after :meth:`close`.
    """

    def __init__(self, backend: "ExecutionBackend"):
        self.backend = backend
        self.stats = SessionStats()
        #: optional shared spill tier (see :meth:`attach_spill_store`).
        self.spill_store = None
        self._closed = False

    @abc.abstractmethod
    def execute_plan(self, plan: op.Operator,
                     ctx: EvalContext) -> Relation:
        """Evaluate ``plan`` under ``ctx``, reusing session resources."""

    def attach_spill_store(self, store) -> None:
        """Attach a shared snapshot spill store (see
        :class:`repro.service.store.SnapshotStore`): snapshots this
        session evicts are saved there instead of destroyed, and cache
        misses consult the store before rebuilding from storage.  Only
        meaningful for backends whose ``capabilities['spill']`` is true;
        the default refuses, so the service's admission check and the
        backend contract agree."""
        raise ExecutionError(
            f"backend {self.backend.name!r} does not support snapshot "
            f"spill (capabilities: {self.backend.capabilities})")

    def prime_snapshots(self, snapshots, ctx: EvalContext) -> None:
        """Materialize the given ``(table, ts)`` snapshot states ahead
        of the plans that scan them: a :meth:`snapshot_pipeline` of
        this one set.  A stateful backend builds them sorted by
        ``(table, ts)``, each one small delta hop from its predecessor
        instead of an unordered full rebuild; a stateless one has
        nothing to build."""
        with self.snapshot_pipeline([snapshots], ctx) as pipe:
            pipe.prime(0)

    def snapshot_pipeline(self, snapshot_sets,
                          ctx: EvalContext) -> "SnapshotPipeline":
        """Cross-compile priming: ``snapshot_sets`` is the *ordered*
        list of ``(table, ts)`` sets of N compiles that will execute
        on this session, one after another.  The returned pipeline's
        :meth:`SnapshotPipeline.prime` must be called with each index,
        in order, immediately before that compile's plans run.

        Handing the whole series over up front lets a planning backend
        materialize shared ``(table, ts)`` pairs once for all N
        compiles and chain deltas across compile boundaries.  A set
        may map each pair to the row keys its compile reads it through
        (:attr:`~repro.core.reenactor.CompiledReenactment.row_keys`,
        ``None`` for a whole read): a planning backend may then build
        a state from the rows the series' keys match, for the series'
        plans alone.  The default pipeline is for stateless backends:
        it checks the protocol and builds nothing."""
        return SnapshotPipeline(self, snapshot_sets, ctx)

    def publish_snapshots(self, snapshots, ctx: EvalContext) -> None:
        """Save every given ``(table, ts)`` committed state that is
        resident in this session to the attached spill store, unless
        the store already holds it — with :meth:`prime_snapshots`, how
        a warm-up pass seeds the store for a whole worker pool.
        Stateless backends have nothing to publish (default no-op)."""

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._teardown()

    def _teardown(self) -> None:
        """Release backend resources (connection, temp tables)."""

    def _check_open(self) -> None:
        if self._closed:
            raise ExecutionError(
                f"backend session for {self.backend.name!r} is closed")

    def __enter__(self) -> "BackendSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "closed" if self._closed else "open"
        return f"<{type(self).__name__} {self.backend.name!r} {state}>"


class SnapshotPipeline:
    """Default cross-compile priming pipeline, for a stateless backend:
    nothing to materialize, only the protocol.

    Subclasses (see :class:`repro.backends.sqlite.SQLPipeline`)
    override :meth:`prime` to plan the union.  ``prime(i)`` may be
    called with each index at most once and indices must not decrease —
    priming set ``i`` tells the pipeline every set before ``i`` has
    finished reading its snapshots, so a pair an earlier set built is
    a shared prime.  Pipelines are context managers; :meth:`close` is
    idempotent and releases any pipeline-only bookkeeping."""

    def __init__(self, session: "BackendSession", snapshot_sets,
                 ctx: EvalContext):
        self.session = session
        self.snapshot_sets = [list(snapshots)
                              for snapshots in snapshot_sets]
        self.ctx = ctx
        self._next_index = 0
        self._closed = False

    def prime(self, index: int) -> None:
        """Materialize set ``index``'s snapshots ahead of its plans
        (here: only move the cursor — nothing to materialize)."""
        if self._closed:
            raise ExecutionError("snapshot pipeline is closed")
        if index < self._next_index:
            raise ExecutionError(
                f"snapshot pipeline primed out of order: set {index} "
                f"after set {self._next_index - 1}")
        if index >= len(self.snapshot_sets):
            raise ExecutionError(
                f"snapshot pipeline has {len(self.snapshot_sets)} "
                f"sets; cannot prime set {index}")
        self._next_index = index + 1

    def close(self) -> None:
        self._closed = True

    def __enter__(self) -> "SnapshotPipeline":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ExecutionBackend(abc.ABC):
    """One way of executing a relational algebra plan.

    Implementations must be pure with respect to the database: executing
    a plan never mutates engine state, so the same plan can be run on
    several backends and the results compared.
    """

    #: display name (``resolve_backend`` knows the shipped ones by it).
    name: str = "abstract"

    #: capability flags for admission checks (the reenactment service
    #: consults these instead of try/except probing):
    #: ``sessions`` — sessions carry reusable state (snapshot cache);
    #: ``spill``    — evicted snapshots can spill to a shared store.
    capabilities: Dict[str, bool] = {"sessions": False, "spill": False}

    def open_session(self) -> BackendSession:
        """A session over this backend.  The default delegates each plan
        to :meth:`execute_plan`; stateful backends override this to
        share resources (see
        :class:`repro.backends.sqlite.SQLiteSession`)."""
        return _DelegatingSession(self)

    def execute_plan(self, plan: op.Operator,
                     ctx: EvalContext) -> Relation:
        """One-shot convenience: evaluate ``plan`` against the
        snapshots and params that ``ctx`` resolves on a throwaway
        session and return the materialized result."""
        with self.open_session() as session:
            return session.execute_plan(plan, ctx)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r}>"


class _DelegatingSession(BackendSession):
    """Default session for stateless backends: per-plan delegation."""

    def execute_plan(self, plan: op.Operator,
                     ctx: EvalContext) -> Relation:
        self._check_open()
        if type(self.backend).execute_plan is ExecutionBackend.execute_plan:
            raise ExecutionError(
                f"backend {self.backend.name!r} implements neither "
                f"execute_plan nor open_session")
        self.stats.plans_executed += 1
        return self.backend.execute_plan(plan, ctx)
