"""Versioned tables: rowid → version chain, snapshots and time travel.

:class:`VersionedTable` is pure mechanism — visibility and version-chain
bookkeeping.  Policy (conflict detection, isolation levels, commit
protocol) lives in :mod:`repro.db.mvcc`.

Every read is one :meth:`VersionedTable.scan`: the committed state at a
timestamp (:meth:`VersionedTable.state_at`), optionally overlaid with
one transaction's pending writes.  The table keeps a *live map* —
rowid → newest committed, non-tombstone version — current at every
publish, and derives older states from it by rolling back along the
commit log, so a read near the present costs what changed since, not a
walk of every chain (docs/storage.md).

Besides full snapshots the table answers *delta* questions: which rows
differ between the committed states at two timestamps?  The per-table
commit log — an append-only, timestamp-ordered list of
``(commit_ts, rowid)`` events — makes :meth:`VersionedTable.scan_delta`
cost proportional to the number of commits inside the interval (two
bisections plus a chain walk per touched row), never to table
cardinality.  Incremental snapshot materialization in the execution
backends is built on exactly this.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.db.schema import TableSchema
from repro.db.tuples import Version, VersionChain
from repro.errors import ExecutionError, TimeTravelError


#: A scan row: (rowid, values, xid of the creating transaction).
ScanRow = Tuple[int, tuple, int]

#: :meth:`VersionedTable.state_at` rolls the live map back along the
#: commit-log suffix after ``ts`` while that suffix holds at most this
#: share of the table's chains; a longer suffix means most chains would
#: be looked up anyway, and one pass over all of them is cheaper than a
#: copy of the map plus a patch per touched row.
ROLLBACK_MAX_SHARE = 0.5


@dataclass
class DeltaRow:
    """One row whose committed state differs between two timestamps.

    ``old`` is the version visible at ``ts_from``, ``new`` the one
    visible at ``ts_to`` (either may be ``None``: row absent/deleted at
    that endpoint).  A row that reverts to its original *values* inside
    the interval is still reported — the creating transaction
    (``Version.xid``) changed, and reenactment annotations depend on it.
    """

    rowid: int
    old: Optional[Version]
    new: Optional[Version]


def _put(state: Dict[int, Version], rowid: int,
         version: Optional[Version]) -> None:
    """``version`` is what ``state`` shows of ``rowid``: nothing, when
    it is a tombstone or there is none."""
    if version is None or version.values is None:
        state.pop(rowid, None)
    else:
        state[rowid] = version


class VersionedTable:
    """One multi-version table."""

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self.rows: Dict[int, VersionChain] = {}
        self._next_rowid = 1
        #: commit log: parallel arrays of (commit_ts, rowid) events in
        #: timestamp order (commit timestamps are handed out by a
        #: monotone clock, so appends keep the arrays sorted).  The
        #: substrate of :meth:`scan_delta` / :meth:`delta_size_estimate`.
        self._commit_ts_log: List[int] = []
        self._commit_rowid_log: List[int] = []
        #: live map: rowid → newest committed version, deleted rows
        #: absent.  Derived state — maintained wherever a version is
        #: published, rebuilt on recovery, never checkpointed.
        self._live: Dict[int, Version] = {}
        #: latest commit published without a commit-log entry (history
        #: off); states before it cannot be rolled back to.
        self._unlogged_ts = 0

    # -- rowids ----------------------------------------------------------

    def allocate_rowid(self) -> int:
        rowid = self._next_rowid
        self._next_rowid += 1
        return rowid

    def chain(self, rowid: int) -> VersionChain:
        try:
            return self.rows[rowid]
        except KeyError:
            raise ExecutionError(
                f"row {rowid} does not exist in table "
                f"{self.schema.name!r}") from None

    # -- scans -----------------------------------------------------------

    def state_at(self, ts: Optional[int] = None) -> Dict[int, Version]:
        """Committed state at time ``ts`` (``None``: the latest) as
        rowid → visible version; per row exactly
        :meth:`VersionChain.committed_at`.  Read-only — with nothing
        to roll back the result *is* the live map."""
        if ts is None:
            return self._live
        log = self._commit_ts_log
        if ts < self._unlogged_ts:
            # publishes after ts left no log entry to roll back along
            if log:
                return self._walk_chains(ts)
            # history was never kept: pruning leaves a row one
            # committed version, and the live map holds it
            return {rowid: version
                    for rowid, version in self._live.items()
                    if version.begin_ts <= ts}
        start = bisect_right(log, ts)
        suffix = len(log) - start
        if suffix > ROLLBACK_MAX_SHARE * len(self.rows):
            return self._walk_chains(ts)
        if not suffix:
            return self._live
        state = dict(self._live)
        for rowid in set(self._commit_rowid_log[start:]):
            _put(state, rowid, self.rows[rowid].committed_at(ts))
        return state

    def _walk_chains(self, ts: int) -> Dict[int, Version]:
        """:meth:`state_at` from the chains alone:
        :meth:`VersionChain.committed_at` for every row, inlined."""
        state: Dict[int, Version] = {}
        for rowid, chain in self.rows.items():
            for version in reversed(chain.versions):
                begin = version.begin_ts
                if begin is not None and begin <= ts:
                    end = version.end_ts
                    if end is None or end > ts:
                        if version.values is not None:
                            state[rowid] = version
                        break
        return state

    def scan(self, ts: Optional[int] = None, xid: Optional[int] = None,
             written: Iterable[int] = ()) -> List[ScanRow]:
        """Rows of the committed state at ``ts`` (``None``: the latest)
        in rowid order.  With ``xid``, that transaction's pending
        writes overlay it (:meth:`VersionChain.visible_to`);
        ``written`` names the rows it may have written — its write
        set — so no other chain is probed."""
        state = self.state_at(ts)
        if written:
            if state is self._live:
                state = dict(state)
            for rowid in written:
                own = self.rows[rowid].uncommitted_for(xid)
                if own is not None:
                    _put(state, rowid, own)
        out = [(rowid, version.values, version.xid)
               for rowid, version in state.items()]
        out.sort()
        return out

    # -- deltas ----------------------------------------------------------

    def delta_size_estimate(self, ts_from: int, ts_to: int) -> int:
        """Upper bound on the number of rows :meth:`scan_delta` would
        return for the interval, in O(log commits): the count of commit
        events between the two timestamps.  Overcounts rows committed
        several times inside the interval — fine for the cost model
        choosing between delta patching and a full rebuild.  A hop
        reaching below ``_unlogged_ts`` may hold commits the log never
        saw, so it estimates as the whole table."""
        lo, hi = sorted((ts_from, ts_to))
        if lo < self._unlogged_ts:
            return len(self.rows)
        return (bisect_right(self._commit_ts_log, hi)
                - bisect_right(self._commit_ts_log, lo))

    def scan_delta_chain(self, timestamps: List[int]
                         ) -> List[List[DeltaRow]]:
        """Consecutive deltas along a timestamp chain: one entry per
        hop ``timestamps[i] -> timestamps[i+1]`` (either direction),
        each the rows whose committed state at the hop's end differs
        from the one at its start, as :class:`DeltaRow` entries in
        rowid order.

        Cost is proportional to the number of commit events inside the
        hops — the commit log is bisected once per timestamp, and only
        chains with a commit inside a hop are walked.  Rows that both
        appear and disappear strictly inside a hop (insert then delete,
        or writes by transactions that later aborted — aborts never
        reach the commit log) contribute nothing.

        A hop reaching below ``_unlogged_ts`` may hold commits
        published with history off, which left no log entry: it is
        answered from every chain, as :meth:`_walk_chains` answers a
        state.
        """
        bounds = [bisect_right(self._commit_ts_log, ts)
                  for ts in timestamps]
        out: List[List[DeltaRow]] = []
        for i, (ts_from, ts_to) in enumerate(zip(timestamps,
                                                 timestamps[1:])):
            if min(ts_from, ts_to) < self._unlogged_ts:
                rowids = sorted(self.rows)
            else:
                lo, hi = sorted((bounds[i], bounds[i + 1]))
                rowids = sorted(set(self._commit_rowid_log[lo:hi]))
            hop: List[DeltaRow] = []
            for rowid in rowids:
                chain = self.rows.get(rowid)
                if chain is None:
                    continue  # history pruned after logging
                old = chain.committed_at(ts_from)
                new = chain.committed_at(ts_to)
                if old is not new:  # else: same version (or none) at both
                    hop.append(DeltaRow(rowid=rowid, old=old, new=new))
            out.append(hop)
        return out

    def scan_delta(self, ts_from: int, ts_to: int) -> List[DeltaRow]:
        """The one-hop :meth:`scan_delta_chain`."""
        return self.scan_delta_chain([ts_from, ts_to])[0]

    def versions_published_by(self, xid: int, commit_ts: int
                              ) -> Dict[int, Version]:
        """Per row committed transaction ``xid`` published a version of
        at ``commit_ts`` in this table — an insert, an update or a
        tombstone — that version.  Two bisections of the
        commit log plus one chain per row committed at ``commit_ts``.

        Raises :class:`TimeTravelError` when a publish at or after
        ``commit_ts`` left no log entry (history off), or when a row
        logged at ``commit_ts`` no longer holds the versions it had
        then (its history was pruned after logging): the log cannot
        answer then, and an empty result would read as "wrote
        nothing"."""
        if commit_ts <= self._unlogged_ts:
            raise TimeTravelError(
                f"commit {commit_ts} of transaction {xid} predates the "
                f"commit log of table {self.schema.name!r} (history was "
                f"not kept through {self._unlogged_ts})")
        log = self._commit_ts_log
        lo = bisect_left(log, commit_ts)
        hi = bisect_right(log, commit_ts, lo)
        out: Dict[int, Version] = {}
        for rowid in self._commit_rowid_log[lo:hi]:
            chain = self.rows.get(rowid)
            if chain is None or chain.versions[0].begin_ts > commit_ts:
                raise TimeTravelError(
                    f"row {rowid} of table {self.schema.name!r} lost the "
                    f"versions logged at commit {commit_ts} of "
                    f"transaction {xid} (history pruned after logging)")
            for version in reversed(chain.versions):
                if version.begin_ts == commit_ts and version.xid == xid:
                    out[rowid] = version
                    break
        return out

    def rows_published_by(self, xid: int, commit_ts: int) -> Set[int]:
        """Rows committed transaction ``xid`` wrote in this table: those
        of :meth:`versions_published_by` that existed before it (an
        update or a tombstone).  Rows it inserted are left out, as
        reenactment's synthetic ids are."""
        return {rowid for rowid in self.versions_published_by(xid, commit_ts)
                if self.rows[rowid].versions[0].begin_ts < commit_ts}

    # -- writes (mechanism only; callers do conflict checks) -------------

    def insert_row(self, xid: int, values: tuple, stmt_ts: int) -> int:
        rowid = self.allocate_rowid()
        chain = VersionChain(rowid)
        chain.lock_xid = xid
        chain.append_uncommitted(xid, values, stmt_ts)
        self.rows[rowid] = chain
        return rowid

    def write_row(self, xid: int, rowid: int, values: Optional[tuple],
                  stmt_ts: int) -> Version:
        """Append an uncommitted update (or tombstone when ``values`` is
        None) for ``rowid``.  The caller must already hold the lock."""
        chain = self.chain(rowid)
        chain.lock_xid = xid
        return chain.append_uncommitted(xid, values, stmt_ts)

    # -- transaction lifecycle helpers -----------------------------------

    def _publish(self, rowid: int, version: Version, logged: bool) -> None:
        """``version`` just became the newest committed one of
        ``rowid``: bring the live map (and the commit log, while
        history is kept) up to date."""
        _put(self._live, rowid, version)
        if logged:
            self._commit_ts_log.append(version.begin_ts)
            self._commit_rowid_log.append(rowid)
        else:
            self._unlogged_ts = max(self._unlogged_ts, version.begin_ts)

    def commit_rows(self, xid: int, rowids: List[int], commit_ts: int,
                    keep_history: bool = True) -> None:
        for rowid in rowids:
            chain = self.rows.get(rowid)
            if chain is None:
                continue
            published = chain.commit(xid, commit_ts)
            if chain.lock_xid == xid:
                chain.lock_xid = None
            if published is not None:
                self._publish(rowid, published, logged=keep_history)
            if not keep_history:
                chain.prune_history()
                if not chain.versions:
                    del self.rows[rowid]

    def commit_writes(self, xid: int, commit_ts: int,
                      rowids: List[int]) -> List[Tuple]:
        """The rows transaction ``xid`` published at ``commit_ts``, as
        ``(rowid, values, stmt_ts)`` triples in write-set order
        (``values is None`` for tombstones) — the physical payload of a
        WAL commit record, and the exact inverse of
        :meth:`replay_commit`."""
        out: List[Tuple] = []
        for rowid in rowids:
            chain = self.rows.get(rowid)
            if chain is None:
                continue
            for version in reversed(chain.versions):
                if version.xid == xid and version.begin_ts == commit_ts:
                    out.append((rowid, version.values, version.stmt_ts))
                    break
        return out

    def replay_commit(self, xid: int, commit_ts: int,
                      rows: List[Tuple]) -> None:
        """Re-apply one committed transaction's writes during WAL
        recovery: append each write as a pending version, then publish
        them all at ``commit_ts`` — the same two-phase shape the live
        path takes, so the rebuilt chains (including ``end_ts`` links
        and commit-log entries) are identical to the originals."""
        for rowid, values, stmt_ts in rows:
            chain = self.rows.get(rowid)
            if chain is None:
                chain = VersionChain(rowid)
                self.rows[rowid] = chain
            if rowid >= self._next_rowid:
                self._next_rowid = rowid + 1
            chain.append_uncommitted(xid, values, stmt_ts)
        for rowid, _values, _stmt_ts in rows:
            published = self.rows[rowid].commit(xid, commit_ts)
            if published is not None:
                self._publish(rowid, published, logged=True)

    def abort_rows(self, xid: int, rowids: List[int]) -> None:
        for rowid in rowids:
            chain = self.rows.get(rowid)
            if chain is None:
                continue
            chain.abort(xid)
            if chain.lock_xid == xid:
                chain.lock_xid = None
            if not chain.versions:
                del self.rows[rowid]

    # -- durability (WAL checkpoints) -------------------------------------

    def checkpoint_state(self) -> Dict:
        """Everything durable about this table: committed version
        chains, the commit log, the rowid counter and — only once a
        publish left no log entry — ``_unlogged_ts``.  Pending
        (uncommitted) versions are excluded — an in-flight transaction
        re-applies them through its own WAL commit record on replay."""
        chains = []
        for rowid in sorted(self.rows):
            versions = [(v.xid, v.values, v.stmt_ts, v.begin_ts,
                         v.end_ts)
                        for v in self.rows[rowid].versions
                        if v.committed]
            if versions:
                chains.append((rowid, versions))
        state = {
            "next_rowid": self._next_rowid,
            "chains": chains,
            "commit_ts_log": list(self._commit_ts_log),
            "commit_rowid_log": list(self._commit_rowid_log),
        }
        if self._unlogged_ts:
            state["unlogged_ts"] = self._unlogged_ts
        return state

    def restore_checkpoint_state(self, state: Dict) -> None:
        """Load :meth:`checkpoint_state` output into this (empty)
        table; the live map is rebuilt from the chains."""
        self._next_rowid = state["next_rowid"]
        for rowid, versions in state["chains"]:
            chain = VersionChain(rowid)
            chain.versions = [
                Version(xid=xid, values=values, stmt_ts=stmt_ts,
                        begin_ts=begin_ts, end_ts=end_ts)
                for xid, values, stmt_ts, begin_ts, end_ts in versions]
            self.rows[rowid] = chain
            if chain.versions[-1].end_ts is None:
                _put(self._live, rowid, chain.versions[-1])
        self._commit_ts_log = list(state["commit_ts_log"])
        self._commit_rowid_log = list(state["commit_rowid_log"])
        self._unlogged_ts = state.get("unlogged_ts", 0)

    # -- introspection -----------------------------------------------------

    def version_history(self) -> Iterator[Tuple[int, Version]]:
        """All committed versions of all rows (provenance/debugger)."""
        for rowid in sorted(self.rows):
            for version in self.rows[rowid].versions:
                if version.committed:
                    yield rowid, version

    def row_count_committed(self, ts: int) -> int:
        return len(self.state_at(ts))

    def cardinality(self) -> int:
        """Number of version chains — an O(1) upper bound on the row
        count of any committed snapshot (the cost model's stand-in for
        the price of a full materialization)."""
        return len(self.rows)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"VersionedTable({self.schema.name!r}, "
                f"rows={len(self.rows)})")
