"""Reenactment-as-a-service: concurrent serving over one history.

The serving layer above the execution backends (see
``docs/service.md``): a :class:`ReenactmentService` schedules jobs
(reenact / what-if fleet / equivalence / timeline scan) from a priority
queue onto a bounded pool of worker sessions, shares snapshot work
across workers through a disk-spilling :class:`SnapshotStore`, and
deduplicates identical jobs through a :class:`ResultCache` plus an
in-flight table.
"""

from repro.errors import (HandleTimeout, JobTimeout, ServiceError,
                          WorkerCrashed)
from repro.service.cache import ResultCache, ResultCacheStats
from repro.service.jobs import (PRIORITY_HIGH, PRIORITY_LOW,
                                PRIORITY_NORMAL, EquivalenceJob, Job,
                                ReenactJob, TimelineScanJob, WarmJob,
                                WhatIfFleetJob, options_fingerprint)
from repro.service.resilience import ResilientStore
from repro.service.scheduler import (JobHandle, ReenactmentService,
                                     ServiceStats)
from repro.service.store import SnapshotStore, StoreStats

__all__ = [
    "EquivalenceJob", "HandleTimeout", "Job", "JobHandle",
    "JobTimeout", "PRIORITY_HIGH", "PRIORITY_LOW", "PRIORITY_NORMAL",
    "ReenactJob", "ReenactmentService", "ResilientStore",
    "ResultCache", "ResultCacheStats", "ServiceError", "ServiceStats",
    "SnapshotStore", "StoreStats", "TimelineScanJob", "WarmJob",
    "WhatIfFleetJob", "WorkerCrashed", "options_fingerprint",
]
