"""The in-memory execution backend: the algebra interpreter, wrapped.

This is the evaluator the reproduction has always used, extracted behind
the :class:`~repro.backends.base.ExecutionBackend` interface so it is
one backend among several rather than the only execution path.  It is
the reference implementation the differential harness judges every
other backend against.
"""

from __future__ import annotations

from repro.algebra import operators as op
from repro.algebra.evaluator import EvalContext, Evaluator, Relation
from repro.backends.base import ExecutionBackend
from repro.obs.trace import span


class InMemoryBackend(ExecutionBackend):
    """Interpret the plan directly with the pull-based evaluator.

    The interpreter is stateless — it scans storage afresh on every
    evaluation — so the inherited delegating session is the right
    session implementation: callers get the uniform
    ``open_session()`` / ``SessionStats`` / ``prime_snapshots`` surface
    (the what-if fleet and the differential harness's session modes run
    unmodified on this backend) without this backend pretending to
    cache anything — snapshot priming is the base class's no-op, since
    there is no materialized state to build incrementally."""

    name = "memory"

    #: stateless: no session cache, nothing to spill (the
    #: admission-check flags the service reads; see base class).
    capabilities = {"sessions": False, "spill": False}

    def execute_plan(self, plan: op.Operator,
                     ctx: EvalContext) -> Relation:
        with span("backend.execute_plan", engine="memory"):
            return Evaluator(ctx).evaluate(plan)
