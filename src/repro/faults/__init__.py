"""Deterministic fault injection and the hardening primitives built
against it.

``inject`` provides the seeded :class:`FaultPlan` and the
:func:`fault_point` call sites threaded through the service's hot
paths; ``retry`` and ``breaker`` are the recovery side — an
exponential-backoff :class:`RetryPolicy` and a :class:`CircuitBreaker`
— used by the WAL append path and the service's spill tier (see
:class:`repro.service.resilience.ResilientStore`).
"""

from repro.faults.breaker import CircuitBreaker
from repro.faults.inject import (FAULT_SITES, FaultPlan, FaultSpec,
                                 InjectedFault, TransientInjectedFault,
                                 WorkerCrash, arm, armed, disarm,
                                 fault_point, faults_enabled)
from repro.faults.retry import RetryPolicy

__all__ = [
    "CircuitBreaker",
    "FAULT_SITES",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "RetryPolicy",
    "TransientInjectedFault",
    "WorkerCrash",
    "arm",
    "armed",
    "disarm",
    "fault_point",
    "faults_enabled",
]
