"""Seeded, deterministic fault injection.

Every hardened layer of the system threads named **fault sites**
(:data:`FAULT_SITES`) through its hot path by calling
:func:`fault_point` at the spot where the real I/O (or dispatch)
happens.  When no plan is armed the call is the same compiled-in
near-no-op as a disabled :func:`repro.obs.trace.span`: one
module-global read and a branch, no allocation, no locking, no clock
read.

When a :class:`FaultPlan` *is* armed (:func:`arm` / the :func:`armed`
context manager), each hit consults the plan: per-site schedules
control the probability of firing, a maximum fire count, a number of
initial hits to skip, an optional injected latency, and the error type
raised.  Randomness is a per-site :class:`random.Random` seeded from
``(plan seed, site name)``, so a plan replays the same decision
sequence per site regardless of how sites interleave across threads —
the substrate of the chaos differential tests, which demand
*correct-or-explicit-error* under any seed.

Injected errors derive from :class:`InjectedFault`
(:class:`~repro.errors.ReproError`), so the chaos oracle can treat
"typed error" uniformly.  :class:`TransientInjectedFault` is the
retryable default — exactly what :class:`repro.faults.retry.RetryPolicy`
absorbs; :class:`WorkerCrash` simulates a worker thread dying and is
what the scheduler's supervision loop recovers from.
"""

from __future__ import annotations

import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Optional

from repro.errors import ReproError

__all__ = [
    "FAULT_SITES",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "TransientInjectedFault",
    "WorkerCrash",
    "arm",
    "armed",
    "disarm",
    "fault_point",
    "faults_enabled",
]


#: every site a :func:`fault_point` call under ``src/repro`` names —
#: the one list plans, benchmarks and docs draw from.
FAULT_SITES = (
    "wal.append", "wal.fsync", "wal.checkpoint",
    "store.spill", "store.write", "store.rehydrate",
    "session.open", "session.execute", "snapshot.complete",
    "worker.dispatch",
)


class InjectedFault(ReproError):
    """An error raised by an armed fault site."""

    def __init__(self, site: str, message: Optional[str] = None):
        self.site = site
        super().__init__(message or f"injected fault at {site!r}")


class TransientInjectedFault(InjectedFault):
    """An injected failure a retry may absorb (the default error kind:
    every hardened layer treats it as retryable)."""


class WorkerCrash(InjectedFault):
    """Simulated death of a service worker thread.  Raised *outside*
    the per-job exception wall, so it unwinds the whole worker loop —
    what the scheduler's supervision must restart from."""


@dataclass
class FaultSpec:
    """Schedule for one fault site.

    ``probability``
        chance each eligible hit fires (per-site seeded RNG).
    ``count``
        maximum number of fires (``None`` = unlimited).
    ``after``
        number of initial hits to skip before firing becomes possible.
    ``latency``
        seconds to sleep on fire, before raising (``error=None`` makes
        the site latency-only).
    ``error``
        exception factory called with the site name; default
        :class:`TransientInjectedFault`.
    """

    probability: float = 1.0
    count: Optional[int] = None
    after: int = 0
    latency: float = 0.0
    error: Optional[Callable[[str], BaseException]] = \
        TransientInjectedFault

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0:
            raise ReproError(
                f"fault probability must be in [0, 1], "
                f"got {self.probability}")
        if self.count is not None and self.count < 0:
            raise ReproError(f"fault count must be >= 0, "
                             f"got {self.count}")
        if self.latency < 0:
            raise ReproError(f"fault latency must be >= 0, "
                             f"got {self.latency}")


class _SiteState:
    __slots__ = ("spec", "rng", "hits", "fired")

    def __init__(self, spec: FaultSpec, rng: random.Random):
        self.spec = spec
        self.rng = rng
        self.hits = 0
        self.fired = 0


class FaultPlan:
    """A seeded set of per-site fault schedules.

    ::

        plan = FaultPlan(seed=7).on("store.spill", probability=0.05) \\
                                .on("worker.dispatch", count=1,
                                    error=WorkerCrash)
        with armed(plan):
            ...  # run the workload

    Thread-safe: decisions are made under one lock; injected latency
    sleeps and raises happen outside it.
    """

    def __init__(self, seed: int = 0,
                 sites: Optional[Dict[str, FaultSpec]] = None):
        self.seed = seed
        self._lock = threading.Lock()
        self._sites: Dict[str, _SiteState] = {}
        for name, spec in (sites or {}).items():
            self.on(name, spec)

    def on(self, site: str, spec: Optional[FaultSpec] = None,
           **kwargs: Any) -> "FaultPlan":
        """Arm ``site`` with ``spec`` (or ``FaultSpec(**kwargs)``);
        returns ``self`` for chaining."""
        if spec is None:
            spec = FaultSpec(**kwargs)
        elif kwargs:
            raise ReproError("pass a FaultSpec or keyword fields, "
                             "not both")
        rng = random.Random(f"{self.seed}:{site}")
        with self._lock:
            self._sites[site] = _SiteState(spec, rng)
        return self

    def sites(self) -> Dict[str, FaultSpec]:
        with self._lock:
            return {name: state.spec
                    for name, state in self._sites.items()}

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-site ``{"hits": ..., "fired": ...}`` observed so far."""
        with self._lock:
            return {name: {"hits": state.hits, "fired": state.fired}
                    for name, state in self._sites.items()}

    def hit(self, site: str, attrs: Dict[str, Any]) -> None:
        """Consult the schedule for one fault-point hit; sleeps and/or
        raises when the site fires."""
        state = self._sites.get(site)
        if state is None:
            return
        with self._lock:
            state.hits += 1
            spec = state.spec
            if state.hits <= spec.after:
                return
            if spec.count is not None and state.fired >= spec.count:
                return
            if spec.probability < 1.0 \
                    and state.rng.random() >= spec.probability:
                return
            state.fired += 1
            latency, error = spec.latency, spec.error
        if latency:
            time.sleep(latency)
        if error is not None:
            raise error(site)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<FaultPlan seed={self.seed} "
                f"sites={sorted(self._sites)}>")


#: the armed plan; ``None`` keeps every fault point a near-no-op.
_active: Optional[FaultPlan] = None


def fault_point(site: str, **attrs: Any) -> None:
    """A named fault site.  Disarmed: one global read and a branch."""
    plan = _active
    if plan is None:
        return
    plan.hit(site, attrs)


def arm(plan: FaultPlan) -> FaultPlan:
    """Arm ``plan`` process-wide (replaces any armed plan)."""
    global _active
    _active = plan
    return plan


def disarm() -> None:
    global _active
    _active = None


def faults_enabled() -> bool:
    return _active is not None


@contextmanager
def armed(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Scoped arming — disarms on exit even when the body raises."""
    arm(plan)
    try:
        yield plan
    finally:
        disarm()
