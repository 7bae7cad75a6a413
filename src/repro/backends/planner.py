"""The snapshot materialization planner: one cost model, no engine.

A stock DBMS has no time travel, so a SQL backend meets the paper's
``AS OF`` requirement by *materializing* committed states into temp
tables.  How a state gets there is the one decision every SQL-backend
operation goes through, and it is made here, by pure functions of
what the caller observed — nothing in this module touches a
connection.  :func:`plan_snapshots` picks, for every snapshot a plan
needs and the session cache does not hold, which of the
:data:`~repro.backends.base.PLAN_OPS` produces it: clone a cached
neighbor and apply the delta, read it back from the spill store, or
scan storage — all of it, or, when the batch reads the state only
through key selections, just the rows those keys match (a *partial*
build, completed on its first other use; see
:mod:`repro.backends.binder`).  No step consumes its source: the
planner reads the cache, the history and the store, and changes
none of them.

The cutover is a number on the engine's frozen
:class:`~repro.algebra.sqlgen.DialectConfig` (``delta_max_ratio``);
there is no mode to set.
"""

from __future__ import annotations

from typing import (Dict, FrozenSet, Hashable, List, Mapping, NamedTuple,
                    Optional, Sequence, Set, Tuple)

from repro.backends.base import SnapshotPlanStep


#: A partial build's row filter, as the reenactor reads it off a
#: batch's plans (:func:`repro.core.reenactor.snapshot_analysis`): the
#: rows in which some listed column holds one of its listed values — a
#: disjunction of ``column IN values`` atoms; empty keeps no row.
RowKeys = Tuple[Tuple[str, FrozenSet], ...]


class SnapshotRequest(NamedTuple):
    """One snapshot a plan scans that the session cache does not
    hold.  ``plain`` marks a committed ``(table, ts)`` state — a pure
    function of the version history; trigger-history provider
    snapshots are not.  ``keys`` are the batch's row keys for the
    state (:func:`batch_row_keys`), if it has any."""

    key: Hashable
    table: str
    ts: Optional[int]
    plain: bool
    keys: Optional[RowKeys] = None


def batch_row_keys(snapshot_sets: Sequence
                   ) -> Dict[Tuple[str, int], RowKeys]:
    """The row keys a series of snapshot sets lets a partial build
    use, per plain ``(table, ts)``: the union of every set's keys for
    it.  A set may map each pair to its keys; a pair a set reads
    without keys, and every state of a table the series reads at more
    than one ``ts`` — one the series will hop from — gets none."""
    merged: Dict[Tuple[str, int], Dict[str, FrozenSet]] = {}
    whole: Set[Tuple[str, int]] = set()
    stamps: Dict[str, Set[int]] = {}
    for snapshots in snapshot_sets:
        keyed = snapshots if isinstance(snapshots, Mapping) else {}
        for table, ts in snapshots:
            if ts is None:
                continue
            pair = (table, int(ts))
            stamps.setdefault(table, set()).add(pair[1])
            keys = keyed.get((table, ts))
            if keys is None:
                whole.add(pair)
                continue
            columns = merged.setdefault(pair, {})
            for column, values in keys:
                columns[column] = columns.get(column, frozenset()) | values
    return {pair: tuple(sorted(columns.items()))
            for pair, columns in merged.items()
            if pair not in whole and len(stamps[pair[0]]) == 1}


def plan_snapshots(requests: Sequence[SnapshotRequest],
                   cached: Mapping[str, Sequence[int]],
                   history, max_ratio: float,
                   store_attached: bool
                   ) -> List[Tuple[Hashable, SnapshotPlanStep]]:
    """One :class:`SnapshotPlanStep` per request, in execution order.

    ``cached`` lists, per table, the committed versions resident in
    the session cache.  ``history`` answers
    ``table_delta_estimate(table, ts_from, ts_to)`` and
    ``table_cardinality(table)`` — the database — or is ``None`` when
    the context has no time-traveling history, and then no delta hop
    is possible.  A hop is affordable when its estimated delta is at
    most ``max_ratio`` of the table's cardinality.

    Plain requests are planned per table in timestamp order, so each
    step is one hop from its predecessor: every step's source is
    either cached or produced by an earlier step of the same plan.  A
    plain request that would be a full build and carries ``keys`` is a
    ``partial-build``: a neighbor to hop from, a store to read from and
    another version of the table in the batch all rule it out
    (:func:`batch_row_keys` gives no keys in the last case).
    Provider requests are always full builds and run last.
    """
    plain: Dict[str, List[SnapshotRequest]] = {}
    rest: List[Tuple[Hashable, SnapshotPlanStep]] = []
    for request in requests:
        if request.plain:
            plain.setdefault(request.table, []).append(request)
        else:
            rest.append((request.key, SnapshotPlanStep(
                op="full-build", table=request.table,
                ts=request.ts if request.ts is not None else -1,
                reason="snapshot provider state: only a fresh full "
                       "build is correct")))
    out: List[Tuple[Hashable, SnapshotPlanStep]] = []
    for table in sorted(plain):
        #: delta sources, extended by this plan's own steps
        sources: List[int] = []
        budget = 0.0
        if history is not None:
            budget = history.table_cardinality(table) * max_ratio
            sources = list(cached.get(table, ()))
        for request in sorted(plain[table], key=lambda r: r.ts):
            step = _hop(table, request.ts, sources, budget, history)
            if step is None and store_attached:
                step = SnapshotPlanStep(
                    op="rehydrate-batch", table=table, ts=request.ts,
                    reason="no affordable cached neighbor; spill store "
                           "attached — batched store read (full build "
                           "on a store miss)")
            elif step is None and request.keys is not None:
                step = SnapshotPlanStep(
                    op="partial-build", table=table, ts=request.ts,
                    reason="no affordable cached neighbor and no "
                           "spill store; the batch reads only rows "
                           "its keys match: storage scan, those rows "
                           "copied, the rest on first other use")
            elif step is None:
                step = SnapshotPlanStep(
                    op="full-build", table=table, ts=request.ts,
                    reason="no affordable cached neighbor and no "
                           "spill store: storage scan")
            out.append((request.key, step))
            if history is not None:
                sources.append(request.ts)
    return out + rest


def _hop(table: str, ts: int, sources: List[int], budget: float,
         history) -> Optional[SnapshotPlanStep]:
    """The cheapest affordable delta hop to ``(table, ts)``, or
    ``None``: the source with the smallest estimated delta, the
    nearest on a tie, then the first listed."""
    if not sources:
        return None
    estimate, _, index = min(
        (history.table_delta_estimate(table, ts0, ts), abs(ts0 - ts),
         index) for index, ts0 in enumerate(sources))
    if estimate > budget:
        return None
    source_ts = sources[index]
    return SnapshotPlanStep(
        op="clone-delta", table=table, ts=ts, source_ts=source_ts,
        reason=f"cheapest cached neighbor @{source_ts}: ~{estimate} "
               f"delta row(s) within budget {budget:g}")
