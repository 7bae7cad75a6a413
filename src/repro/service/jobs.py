"""Job types the reenactment service schedules.

A job is one unit of client work: it knows how to *run* itself on a
worker (which supplies the long-lived backend session, a reenactor and
the database) and how to *fingerprint* itself for result caching and
in-flight deduplication.  The four kinds mirror the workloads the demo
paper describes analysts issuing concurrently:

* :class:`ReenactJob` — reenact one past transaction (provenance,
  debug-panel, plain audit queries);
* :class:`WhatIfFleetJob` — a batch of what-if variants of one
  transaction (§2's exploratory probing), executed fleet-style on the
  worker's session;
* :class:`EquivalenceJob` — certify one transaction's reenactment
  against storage ground truth (the E3 oracle, as a service call);
* :class:`TimelineScanJob` — a table's state at a series of
  timestamps (the debugger timeline's data fetch, read from storage).

:class:`WarmJob` is the operator's fifth kind: prime a table's states
and publish them to the spill store ahead of traffic.

Fingerprints embed the database's logical-clock reading at submission
(the *history version*): reenactment output is a pure function of
``(inputs, history)``, so keying on the version makes cached results
immortal-but-unreachable once the history grows, instead of stale.
Jobs that carry arbitrary callables (what-if scenario editors) return
``None`` and are never cached or deduplicated.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import (Any, Callable, Dict, Hashable, List, Optional,
                    Sequence, Tuple)

from repro.algebra.evaluator import Relation
from repro.core.reenactor import ReenactmentOptions
from repro.errors import ServiceError
from repro.obs.trace import span

#: priority bands (smaller runs first; ties run in submission order).
PRIORITY_HIGH = 0
PRIORITY_NORMAL = 10
PRIORITY_LOW = 20


def options_fingerprint(options: Optional[ReenactmentOptions]
                        ) -> Tuple:
    """A hashable identity for a :class:`ReenactmentOptions`: every
    field, in declaration order (all are hashable scalars)."""
    options = options or ReenactmentOptions()
    return tuple(getattr(options, spec.name) for spec in fields(options))


def history_version(db) -> int:
    """The database's logical clock reading — advances on every commit,
    so it versions the transaction history a fingerprint was minted
    against."""
    return db.clock.now()


class Job:
    """One schedulable unit of service work."""

    kind: str = "abstract"

    #: safe to requeue after a worker crash: re-running produces the
    #: same result with no duplicated side effects.  Every shipped
    #: kind is a pure read over recorded history, so the default is
    #: True; jobs wrapping caller-held mutable state opt out.
    idempotent: bool = True

    def cache_key(self, db) -> Optional[Hashable]:
        """Identity for result caching / in-flight dedup, or ``None``
        when the job is not a pure function of hashable inputs."""
        return None

    def run(self, worker) -> Any:
        """Execute on a worker (``worker.db`` / ``worker.reenactor`` /
        ``worker.session`` / ``worker.backend``)."""
        raise NotImplementedError

    def describe(self) -> str:
        return self.kind


@dataclass
class ReenactJob(Job):
    """Reenact transaction ``xid`` under ``options``."""

    xid: int
    options: Optional[ReenactmentOptions] = None

    kind = "reenact"

    def cache_key(self, db) -> Hashable:
        return ("reenact", self.xid, options_fingerprint(self.options),
                history_version(db))

    def run(self, worker):
        with span("job.reenact", xid=self.xid):
            return worker.reenactor.reenact(self.xid, self.options,
                                            session=worker.session)

    def describe(self) -> str:
        return f"reenact(xid={self.xid})"


def apply_variant_spec(scenario, spec) -> None:
    """Apply one declarative scenario edit: ``("replace", index, sql)``,
    ``("insert", index, sql)``, ``("delete", index)`` or
    ``("edit_table", table, rows)`` — the serializable job-description
    form of the :class:`~repro.core.whatif.WhatIfScenario` editing API,
    which is what lets identical what-if jobs be fingerprinted and
    deduplicated like any other service request."""
    op_name = spec[0]
    if op_name == "replace":
        scenario.replace_statement(spec[1], spec[2])
    elif op_name == "insert":
        scenario.insert_statement(spec[1], spec[2])
    elif op_name == "delete":
        scenario.delete_statement(spec[1])
    elif op_name == "edit_table":
        scenario.edit_table(spec[1], [tuple(row) for row in spec[2]])
    else:
        raise ServiceError(
            f"unknown what-if variant spec {spec!r}; expected "
            f"replace/insert/delete/edit_table")


def _freeze_spec(spec) -> Tuple:
    return tuple(tuple(map(tuple, part)) if isinstance(part, list)
                 else part for part in spec)


@dataclass
class WhatIfFleetJob(Job):
    """Run a what-if fleet — from declarative variant specs or from
    ``(name, edit-callable)`` pairs — on the worker's session.

    Declarative variants (see :func:`apply_variant_spec`) make the job
    a pure function of hashable inputs, so identical fleets — the
    "several analysts probe the same fix" pattern — are deduplicated
    and result-cached like reenact jobs.  Callable edits stay
    uncacheable but still share every snapshot the worker's session
    (and the spill store) already holds.
    """

    xid: int
    #: ``(name, edit)`` pairs; each ``edit`` is a declarative spec
    #: tuple or a callable receiving a fresh scenario to mutate.
    variants: Sequence[Tuple[str, Any]] = ()
    options: Optional[ReenactmentOptions] = None

    kind = "whatif_fleet"

    def cache_key(self, db) -> Optional[Hashable]:
        if not self.variants \
                or any(callable(edit) for _, edit in self.variants):
            return None
        frozen = tuple((name, _freeze_spec(edit))
                       for name, edit in self.variants)
        return ("whatif_fleet", self.xid, frozen,
                options_fingerprint(self.options), history_version(db))

    def run(self, worker):
        from repro.core.whatif import WhatIfFleet
        if not self.variants:
            raise ServiceError("what-if fleet job needs variants")
        fleet = WhatIfFleet(worker.db, self.xid, backend=worker.backend)
        for name, edit in self.variants:
            scenario = fleet.scenario(name)
            if callable(edit):
                edit(scenario)
            else:
                apply_variant_spec(scenario, edit)
        with span("job.whatif_fleet", xid=self.xid,
                  variants=len(fleet)):
            return fleet.run(self.options, session=worker.session)

    def describe(self) -> str:
        return (f"whatif_fleet(xid={self.xid}, "
                f"variants={len(self.variants)})")


@dataclass
class EquivalenceJob(Job):
    """Check one transaction's reenactment against ground truth."""

    xid: int
    optimize: bool = True

    kind = "equivalence"

    def cache_key(self, db) -> Hashable:
        return ("equivalence", self.xid, self.optimize,
                history_version(db))

    def run(self, worker):
        from repro.core.equivalence import check_transaction_equivalence
        with span("job.equivalence", xid=self.xid):
            return check_transaction_equivalence(
                worker.db, self.xid, optimize=self.optimize,
                backend=worker.backend, session=worker.session)

    def describe(self) -> str:
        return f"equivalence(xid={self.xid})"


@dataclass
class TimelineScanJob(Job):
    """The committed state of ``table`` at each timestamp — the
    debugger timeline's data fetch — read from storage by
    :func:`repro.debugger.timeline.timeline_states`: one AS-OF read
    and the commit log's delta chain.  The worker's backend session is
    not used.  ``mode="full"`` returns ``{ts: Relation}`` of full
    table states; ``mode="sparkline"`` one-row ``n_rows`` relations
    per tick (the cardinality strip).
    """

    table: str
    timestamps: Sequence[int] = field(default_factory=list)
    mode: str = "full"

    kind = "timeline_scan"

    def cache_key(self, db) -> Hashable:
        return ("timeline", self.table, tuple(self.timestamps),
                self.mode, history_version(db))

    def run(self, worker) -> Dict[int, Relation]:
        from repro.debugger.timeline import timeline_states
        with span("job.timeline_scan", table=self.table,
                  ticks=len(self.timestamps), mode=self.mode):
            return timeline_states(worker.db, self.table,
                                   list(self.timestamps),
                                   mode=self.mode)

    def describe(self) -> str:
        return (f"timeline_scan(table={self.table!r}, "
                f"states={len(self.timestamps)}, mode={self.mode})")


@dataclass
class WarmJob(Job):
    """Prime-and-publish: materialize the committed states of
    ``table`` at ``timestamps`` on the worker's session (one sorted
    delta chain — see
    :meth:`~repro.backends.base.BackendSession.prime_snapshots`) and
    save every one of them to the spill store.  Returns the sorted,
    deduplicated timestamps it covered.  Run for its side effect, so
    never result-cached or deduplicated."""

    table: str
    timestamps: Sequence[int] = field(default_factory=list)

    kind = "warm"

    def run(self, worker) -> List[int]:
        ticks = sorted({int(ts) for ts in self.timestamps})
        pairs = [(self.table, ts) for ts in ticks]
        ctx = worker.db.context(params={})
        with span("job.warm", table=self.table, ticks=len(ticks)):
            worker.session.prime_snapshots(pairs, ctx)
            worker.session.publish_snapshots(pairs, ctx)
        return ticks

    def describe(self) -> str:
        return (f"warm(table={self.table!r}, "
                f"states={len(self.timestamps)})")
