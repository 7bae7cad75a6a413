"""The in-memory execution backend: the algebra interpreter, wrapped.

This is the evaluator the reproduction has always used, extracted behind
the :class:`~repro.backends.base.ExecutionBackend` interface so it is
one backend among several rather than the only execution path.  It is
the reference implementation the differential harness judges every
other backend against.
"""

from __future__ import annotations

from typing import Optional

from repro.algebra import operators as op
from repro.algebra.evaluator import EvalContext, Evaluator, Relation
from repro.backends.base import (BackendSession, ExecutionBackend,
                                 SnapshotPipeline)
from repro.obs.trace import span


class InMemoryBackend(ExecutionBackend):
    """Interpret the plan directly with the pull-based evaluator.

    The interpreter scans storage afresh for every evaluation and caches
    no snapshot, so callers get the uniform ``open_session()`` /
    ``SessionStats`` / ``prime_snapshots`` surface (the what-if fleet
    and the differential harness's session modes run unmodified on this
    backend) without this backend pretending to cache anything —
    snapshot priming builds nothing.  What a session does keep is one
    evaluator per batch: every plan run under one snapshot pipeline's
    context — one :meth:`~repro.core.reenactor.Reenactor.execute_all` —
    runs on one :class:`~repro.algebra.evaluator.Evaluator`, which
    computes a node the batch's plans share once."""

    name = "memory"

    #: stateless: no session cache, nothing to spill (the
    #: admission-check flags the service reads; see base class).
    capabilities = {"sessions": False, "spill": False}

    def open_session(self) -> "_MemorySession":
        return _MemorySession(self)

    def execute_plan(self, plan: op.Operator,
                     ctx: EvalContext) -> Relation:
        with span("backend.execute_plan", engine="memory"):
            return Evaluator(ctx).evaluate(plan)


class _MemorySession(BackendSession):
    """A session of the in-memory backend: the evaluator of the open
    batch, if any, runs every plan under that batch's context."""

    def __init__(self, backend: InMemoryBackend):
        super().__init__(backend)
        self._batch: Optional[Evaluator] = None

    def snapshot_pipeline(self, snapshot_sets,
                          ctx: EvalContext) -> SnapshotPipeline:
        return _Batch(self, snapshot_sets, ctx)

    def execute_plan(self, plan: op.Operator,
                     ctx: EvalContext) -> Relation:
        self._check_open()
        self.stats.plans_executed += 1
        evaluator = self._batch
        if evaluator is None or evaluator.ctx is not ctx:
            evaluator = Evaluator(ctx)
        with span("backend.execute_plan", engine="memory"):
            return evaluator.evaluate(plan)


class _Batch(SnapshotPipeline):
    """The pipeline of one batch: nothing to materialize; opening it
    gives its session the batch's evaluator, closing it lets go of the
    evaluator and every row it kept."""

    def __init__(self, session: _MemorySession, snapshot_sets,
                 ctx: EvalContext):
        super().__init__(session, snapshot_sets, ctx)
        self._evaluator = session._batch = Evaluator(ctx)

    def close(self) -> None:
        if self.session._batch is self._evaluator:
            self.session._batch = None
        super().close()
