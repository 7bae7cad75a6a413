"""The session snapshot cache: which materialized ``(table, ts)``
states are live on an engine connection, under which temp-table names.

The SQLite session (:mod:`repro.backends.sqlite`) owns one; the
planner (:mod:`repro.backends.planner`) reads this inventory, the
binder (:mod:`repro.backends.binder`) fills it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import (Callable, Dict, FrozenSet, Iterable, List, Optional,
                    Set, Tuple)

from repro.backends.base import SessionStats
from repro.errors import ExecutionError


def quote_ident(ident: str) -> str:
    """Standard SQL double-quote identifier quoting."""
    return '"' + ident.replace('"', '""') + '"'


#: What a materialized snapshot is keyed on: ``(table, ts)`` for plain
#: committed AS-OF state; a trigger-history snapshot provider changes
#: what a scan returns, so its identity is folded in.
SnapshotKey = Tuple


def spillable_key(key: SnapshotKey) -> bool:
    """Whether a snapshot key names a plain committed ``(table, ts)``
    state.  Only those are spillable/rehydratable: their contents are a
    pure function of the version history, so a stored copy stays valid
    for as long as the database object lives.  Trigger-history-provider
    snapshots embed object identities and are never written to a shared
    store."""
    return len(key) == 2 and isinstance(key[0], str) \
        and isinstance(key[1], int)


class PartialMark:
    """What a partial entry's table lacks, and who may read it as it
    is.  The table holds the stored rows of ``entry``'s ``(table,
    ts)`` whose value at some position of ``keys`` is one of that
    position's values (:meth:`rowids`); completing it inserts the
    rest, read through ``db``.  ``owner`` is the batch that built it
    (its evaluation context), ``None`` once the batch has ended."""

    __slots__ = ("owner", "entry", "keys", "db")

    def __init__(self, owner, entry: Tuple[int, SnapshotKey],
                 keys: Tuple[Tuple[int, FrozenSet], ...], db):
        self.owner = owner
        self.entry = entry
        self.keys = keys
        self.db = db

    def rowids(self, stored) -> Set[int]:
        """The ids of the stored ``(rowid, values, xid)`` rows the
        keys match — one set-membership pass per key column."""
        out: Set[int] = set()
        for position, wanted in self.keys:
            out.update([rowid for rowid, values, _xid in stored
                        if values[position] in wanted])
        return out


#: Default snapshot-cache capacity: generous enough that the workloads
#: the reuse tests pin down (fleets, debug panels, differential sweeps)
#: never evict, small enough that a history with hundreds of distinct
#: timestamps no longer keeps every temp table alive for the session.
DEFAULT_CACHE_CAPACITY = 64


def check_capacity(capacity: Optional[int]) -> Optional[int]:
    """A snapshot-cache capacity, validated: ``None`` (unbounded) or
    at least 1."""
    if capacity is not None and capacity < 1:
        raise ExecutionError(
            f"snapshot cache capacity must be >= 1, got {capacity}")
    return capacity


class SnapshotCache:
    """Session-lifetime, size-bounded LRU of materialized snapshot
    temp tables.

    The cache owns temp-table *naming* (a monotone counter, so names
    never collide across the plans of one connection) and records one
    entry per snapshot once it has actually been created and filled —
    a fleet of plans over the same transaction materializes each
    ``(table, ts)`` exactly once while it stays resident.

    ``capacity`` bounds the number of live entries (``None`` =
    unbounded).  Recency is updated on every :meth:`lookup` hit;
    :meth:`enforce_capacity` evicts least-recently-used entries via the
    ``on_evict(name, entry)`` callback (which drops the temp table —
    and, with a spill store attached, saves its rows first), skipping
    names the in-flight plan still references.  An evicted snapshot
    that is requested again is re-materialized — as a delta hop off a
    surviving neighbor, by rehydrating it from the spill store, or
    from a full storage scan.

    Entries are namespaced by a *realm*: the identity of the database
    the evaluation context reads from.  Two `Database` instances share
    table names and logical timestamps (every clock starts at the same
    epoch), so without the realm a session reused across databases
    would serve one database's snapshot to the other.  Pinned objects
    (the realm's database, snapshot providers) keep every ``id()`` a
    key embeds unambiguous while any entry embedding it is live; pins
    are refcounted per entry and released on eviction, so the capacity
    bound frees a provider with its temp tables.  The plain snapshot
    key — the ``(table, ts)`` contract the reuse tests assert on —
    still keys ``stats.materializations``.
    """

    def __init__(self, stats: Optional[SessionStats] = None,
                 capacity: Optional[int] = DEFAULT_CACHE_CAPACITY,
                 on_evict: Optional[
                     Callable[[str, Tuple[int, SnapshotKey]],
                              None]] = None):
        self.capacity = check_capacity(capacity)
        self.stats = stats if stats is not None else SessionStats()
        self.on_evict = on_evict
        self._names: "OrderedDict[Tuple[int, SnapshotKey], str]" = \
            OrderedDict()
        #: entry -> the objects its key's ids refer to; one object may
        #: pin several entries, so liveness is the refcount below.
        self._entry_pins: Dict[Tuple[int, SnapshotKey],
                               Tuple[object, ...]] = {}
        #: id(pin) -> [pin, number of live entries embedding it].
        self._pin_refs: Dict[int, List] = {}
        #: temp tables primed but not yet scanned by any plan.
        self._primed: Set[str] = set()
        #: temp-table name -> :class:`PartialMark` of a partial entry.
        self._partial: Dict[str, PartialMark] = {}
        self._counter = 0

    def lookup(self, realm, key: SnapshotKey) -> Optional[str]:
        """Cached temp-table name for a snapshot, refreshing its LRU
        recency."""
        name = self._names.get((realm, key))
        if name is not None:
            self._names.move_to_end((realm, key))
        return name

    def mark_primed(self, names: Iterable[str]) -> None:
        """Mark freshly *primed* snapshots: materialized ahead of the
        plans they were primed for, scanned by none yet."""
        self._primed.update(names)

    def first_scan(self, name: str) -> bool:
        """Whether a plan binding ``name`` is the first scan of a
        primed snapshot — the materialization that plan's own priming
        paid for, not a reuse of an earlier plan's work.  Clears the
        mark."""
        if name in self._primed:
            self._primed.discard(name)
            return True
        return False

    def allocate(self) -> str:
        self._counter += 1
        return f"__snap_{self._counter}__"

    def commit(self, realm, key: SnapshotKey, name: str,
               pins: Tuple[object, ...] = ()) -> None:
        entry = (realm, key)
        if entry in self._names:
            # defensive: re-commit of a live key displaces its old
            # temp table — release its pins and drop the table
            self._release_pins(entry)
            old_name = self._names[entry]
            if old_name != name:
                self._drop(old_name, entry)
        self._names[entry] = name
        live = tuple(pin for pin in pins if pin is not None)
        self._entry_pins[entry] = live
        for pin in live:
            ref = self._pin_refs.setdefault(id(pin), [pin, 0])
            ref[1] += 1
        self.stats.snapshots_materialized += 1
        self.stats.materializations[key] += 1

    def _drop(self, name: str, entry: Tuple[int, SnapshotKey]) -> None:
        self._primed.discard(name)
        try:
            if self.on_evict is not None:
                self.on_evict(name, entry)
        finally:
            self._partial.pop(name, None)

    # .. partial entries ..................................................

    def mark_partial(self, name: str, mark: "PartialMark") -> None:
        """Mark a just-committed entry *partial*: its table holds only
        the stored rows :meth:`PartialMark.rowids` names."""
        self._partial[name] = mark

    def partial(self, name: str, reader=None) -> Optional["PartialMark"]:
        """The mark of a partial entry that ``reader`` (a batch's
        evaluation context; ``None`` for any other use) must complete
        before using it — ``None`` when the entry is complete or the
        reader is the batch that built it."""
        mark = self._partial.get(name)
        if mark is None or (reader is not None and mark.owner is reader):
            return None
        return mark

    def completed(self, name: str) -> None:
        """The partial entry ``name`` now holds its whole state."""
        self._partial.pop(name, None)

    def release(self, owner) -> None:
        """The batch ``owner`` has ended: from now on every use of a
        partial entry it built is another use, and no mark holds its
        context (nor the storage reads the context memoizes)."""
        for mark in self._partial.values():
            if mark.owner is owner:
                mark.owner = None

    def _release_pins(self, entry: Tuple[int, SnapshotKey]) -> None:
        for pin in self._entry_pins.pop(entry, ()):
            ref = self._pin_refs.get(id(pin))
            if ref is None:
                continue
            ref[1] -= 1
            if ref[1] <= 0:
                del self._pin_refs[id(pin)]

    def forget(self, realm, key: SnapshotKey) -> None:
        """Remove a live entry *without* the eviction callback: its
        temp table is known bad (a completion failed half-way), so it
        must be neither spilled nor served again.  The caller drops
        it."""
        entry = (realm, key)
        name = self._names.pop(entry, None)
        if name is None:
            return  # already evicted
        self._primed.discard(name)
        self._partial.pop(name, None)
        self._release_pins(entry)

    def plain_entries(self, realm) -> List[Tuple[str, int, str]]:
        """Every cached committed AS-OF state in ``realm``, as
        ``(table, ts, temp_table_name)`` triples — the inventory the
        planner plans against.  Provider entries are never
        listed (their contents are not a function of the version
        history, so they are no delta source)."""
        return [(key[0], key[1], name)
                for (entry_realm, key), name in self._names.items()
                if entry_realm == realm and spillable_key(key)]

    def enforce_capacity(self, protected: Iterable[str] = ()) -> None:
        """Evict least-recently-used entries until within ``capacity``,
        never touching temp tables in ``protected`` (names the current
        plan's already-generated SQL still references)."""
        if self.capacity is None or len(self._names) <= self.capacity:
            return
        protected = set(protected)
        for entry in list(self._names):
            if len(self._names) <= self.capacity:
                break
            name = self._names[entry]
            if name in protected:
                continue
            del self._names[entry]
            self._release_pins(entry)
            self.stats.snapshots_evicted += 1
            self._drop(name, entry)

    def __len__(self) -> int:
        return len(self._names)
