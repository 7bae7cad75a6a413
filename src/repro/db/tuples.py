"""Tuple versions and version chains.

The storage engine is multi-version: a row (identified by an immutable
``rowid``) is a chain of :class:`Version` objects.  A version records the
transaction that created it, the statement timestamp of the write, and —
once that transaction commits — the commit timestamp as ``begin_ts``.
Superseded versions carry the superseding commit timestamp in ``end_ts``.
Deletes append a *tombstone* version (``values is None``) so that the
deleting transaction remains attributable (the debugger shows which
transaction deleted a tuple).

Visibility rules implemented here:

* committed-at-``ts``: the version with ``begin_ts <= ts`` and
  ``end_ts is None or end_ts > ts`` (tombstones make the row invisible);
* own-writes: a transaction always sees its own uncommitted version.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple


@dataclass(slots=True)
class Version:
    """One version of a row."""

    xid: int                      #: transaction that created this version
    values: Optional[tuple]       #: row values, or ``None`` for a tombstone
    stmt_ts: int                  #: timestamp of the writing statement
    begin_ts: Optional[int] = None  #: commit ts of creator (None = uncommitted)
    end_ts: Optional[int] = None    #: commit ts of superseder (None = current)

    @property
    def is_tombstone(self) -> bool:
        return self.values is None

    @property
    def committed(self) -> bool:
        return self.begin_ts is not None

    def visible_at(self, ts: int) -> bool:
        """Committed-snapshot visibility at logical time ``ts``."""
        if not self.committed:
            return False
        if self.begin_ts > ts:
            return False
        return self.end_ts is None or self.end_ts > ts

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "tombstone" if self.is_tombstone else repr(self.values)
        return (f"Version(xid={self.xid}, {kind}, "
                f"[{self.begin_ts}, {self.end_ts}))")


class VersionChain:
    """All versions of one row, oldest first, plus its write lock."""

    __slots__ = ("rowid", "versions", "lock_xid")

    def __init__(self, rowid: int):
        self.rowid = rowid
        self.versions: List[Version] = []
        #: xid of the active transaction holding the write lock, if any.
        self.lock_xid: Optional[int] = None

    # -- visibility ------------------------------------------------------

    def committed_at(self, ts: int) -> Optional[Version]:
        """The committed version visible at ``ts``; ``None`` if the row
        did not exist (or was deleted) at that time."""
        for version in reversed(self.versions):
            if version.visible_at(ts):
                return None if version.is_tombstone else version
        return None

    def latest_committed(self) -> Optional[Version]:
        """Most recent committed version (tombstones included)."""
        for version in reversed(self.versions):
            if version.committed:
                return version
        return None

    def uncommitted_for(self, xid: int) -> Optional[Version]:
        """The pending version written by transaction ``xid``, if any."""
        for version in reversed(self.versions):
            if version.committed:
                break
            if version.xid == xid:
                return version
        return None

    def visible_to(self, xid: int, snapshot_ts: int) -> Optional[Version]:
        """Own-writes-first visibility: the version transaction ``xid``
        sees when reading with snapshot ``snapshot_ts``."""
        own = self.uncommitted_for(xid)
        if own is not None:
            return None if own.is_tombstone else own
        return self.committed_at(snapshot_ts)

    # -- mutation (called by the MVCC manager) ---------------------------

    def append_uncommitted(self, xid: int, values: Optional[tuple],
                           stmt_ts: int) -> Version:
        """Record a pending write by ``xid``.

        A transaction writing the same row several times keeps a single
        pending version whose values are replaced in place; intermediate
        in-transaction states are reconstructed by reenactment, not
        stored (DESIGN.md §4).
        """
        own = self.uncommitted_for(xid)
        if own is not None:
            own.values = values
            own.stmt_ts = stmt_ts
            return own
        version = Version(xid=xid, values=values, stmt_ts=stmt_ts)
        self.versions.append(version)
        return version

    def commit(self, xid: int, commit_ts: int) -> Optional[Version]:
        """Publish ``xid``'s pending version at ``commit_ts``; returns
        the published version, or ``None`` when ``xid`` had no pending
        write on this row (so callers can keep a commit log of rows
        whose committed state actually changed)."""
        own = self.uncommitted_for(xid)
        if own is None:
            return None
        previous = self.latest_committed()
        if previous is not None and previous.end_ts is None:
            previous.end_ts = commit_ts
        own.begin_ts = commit_ts
        return own

    def abort(self, xid: int) -> None:
        """Discard ``xid``'s pending version."""
        self.versions = [
            v for v in self.versions if v.committed or v.xid != xid
        ]

    def prune_history(self) -> None:
        """Drop superseded versions (used when time travel is disabled to
        measure the overhead of keeping history — experiment E4).  A
        deleted row with no history is no row: when all that survives
        is a committed tombstone the chain empties, and the table
        reclaims it."""
        current = [v for v in self.versions
                   if not v.committed or v.end_ts is None]
        if len(current) == 1 and current[0].committed \
                and current[0].is_tombstone:
            current = []
        self.versions = current

    def creation_events(self) -> List[Tuple[int, Version]]:
        """(commit_ts, version) pairs for committed versions — the raw
        material of provenance graphs over storage."""
        return [(v.begin_ts, v) for v in self.versions if v.committed]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"VersionChain(rowid={self.rowid}, n={len(self.versions)})"
