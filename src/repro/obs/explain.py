"""Per-job explain collection.

The snapshot binder knows *why* it chose what it chose — which cached
neighbor was close enough to patch, why a state was rebuilt — but
those reasons used to evaporate at decision time.  An
:class:`ExplainCollector` catches them.

The collector is thread-local and explicitly scoped: the service
worker loop opens one around each job's ``run`` (so the events land
on that job's ``JobHandle``), and the debug-panel inspector opens one
around its column builds.  Recording into no collector is a cheap
no-op — a thread-local read and a branch — so the engine records
unconditionally.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional

__all__ = [
    "ExplainCollector",
    "explain_active",
    "record_explain",
    "render_explain",
]

_local = threading.local()


class ExplainCollector:
    """Collects explain events for one logical job on one thread."""

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []

    def record(self, kind: str, **data: Any) -> None:
        event = {"kind": kind}
        event.update(data)
        self.events.append(event)

    # -- scoping ----------------------------------------------------
    def __enter__(self) -> "ExplainCollector":
        stack = getattr(_local, "stack", None)
        if stack is None:
            stack = []
            _local.stack = stack
        stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        stack = getattr(_local, "stack", None)
        if stack and stack[-1] is self:
            stack.pop()
        return False


def _current() -> Optional[ExplainCollector]:
    stack = getattr(_local, "stack", None)
    return stack[-1] if stack else None


def explain_active() -> bool:
    return _current() is not None


def record_explain(kind: str, **data: Any) -> None:
    """Record an event into this thread's innermost collector."""
    collector = _current()
    if collector is not None:
        collector.record(kind, **data)


def render_explain(events: List[Dict[str, Any]]) -> str:
    """Render explain events as indented text for panels and demos."""
    if not events:
        return "(no explain events)"
    lines: List[str] = []
    for event in events:
        kind = event.get("kind", "?")
        if kind == "snapshot-plan":
            lines.append("snapshot plan (%d step(s)):"
                         % len(event.get("steps", ())))
            for step in event.get("steps", ()):
                target = "%s@%s" % (step.get("table"), step.get("ts"))
                source = step.get("source_ts")
                arrow = (" from @%s" % source) if source is not None else ""
                lines.append("  %-16s %s%s" % (step.get("op"), target,
                                               arrow))
                reason = step.get("reason")
                if reason:
                    lines.append("      because %s" % reason)
        else:
            detail = " ".join("%s=%s" % (k, v)
                              for k, v in sorted(event.items())
                              if k != "kind")
            lines.append("%s: %s" % (kind, detail))
    return "\n".join(lines)
