"""Reenactment execution backends: the in-memory interpreter and SQLite.

``resolve_backend(None | "memory" | "sqlite" | instance)`` is the one
entry point the rest of the system uses; the reenactor, the what-if
engine and the equivalence checker all accept a ``backend=`` in that
form.  See :mod:`repro.backends.base` for the contract and
``tests/backends/`` for the differential harness that enforces it.

:mod:`repro.backends.sqlite` is the whole SQL engine.  A custom
backend — anything implementing
:meth:`~repro.backends.base.ExecutionBackend.execute_plan` — is passed
as an instance.
"""

from typing import List, Union

from repro.backends.base import (BackendSession, ExecutionBackend,
                                 SessionStats, SnapshotPipeline,
                                 SnapshotPlan, SnapshotPlanStep)
from repro.backends.memory import InMemoryBackend
from repro.backends.binder import SnapshotBinder
from repro.backends.cache import SnapshotCache
from repro.backends.sqlite import (BoundDialect, SQLiteBackend,
                                   SQLiteSession, SQLPipeline)
from repro.errors import ReproError

#: Anything :func:`resolve_backend` accepts.
BackendSpec = Union[None, str, ExecutionBackend]

_BACKENDS = {"memory": InMemoryBackend, "sqlite": SQLiteBackend}


def available_backends() -> List[str]:
    """The names :func:`resolve_backend` accepts, sorted."""
    return sorted(_BACKENDS)


def resolve_backend(spec: BackendSpec = None) -> ExecutionBackend:
    """Turn a backend spec into an instance.

    ``None`` resolves to the in-memory interpreter (the default
    everywhere), a name (case-insensitive) to a fresh backend of that
    kind, and an existing backend instance passes through unchanged.
    """
    if spec is None:
        return InMemoryBackend()
    if isinstance(spec, ExecutionBackend):
        return spec
    if isinstance(spec, str):
        backend = _BACKENDS.get(spec.lower())
        if backend is None:
            raise ReproError(
                f"unknown execution backend {spec!r}; available: "
                f"{', '.join(available_backends())}")
        return backend()
    raise ReproError(
        f"backend must be a name, an ExecutionBackend instance or "
        f"None, got {spec!r}")


__all__ = [
    "BackendSession", "BackendSpec", "BoundDialect", "ExecutionBackend",
    "InMemoryBackend", "SQLPipeline", "SQLiteBackend", "SQLiteSession",
    "SessionStats", "SnapshotBinder", "SnapshotCache",
    "available_backends", "resolve_backend",
]
