"""The snapshot materialization planner, against ground truth.

Two layers:

* unit and property tests of the *pure* planner
  (:func:`repro.backends.planner.plan_snapshots`) — no connection, a
  fake history for the cost inputs: every step's source is cached or
  produced by an earlier step of the same plan (no step consumes one),
  one step per requested key, override/provider keys are always full
  builds, a build is partial exactly when its request carries row
  keys;
* a hypothesis sweep over random histories x random cache inventories
  x pipelines x cache capacities, under both the shipped policy
  and the admit-everything policy, asserting that every temp table
  the planner's steps produce equals ``db.table_snapshot(table, ts)``
  row for row — the recorded history itself, not another backend
  sharing the translator.
"""

from collections import Counter
from contextlib import ExitStack, closing

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro import Database, SnapshotStore
from repro.backends.base import SnapshotPlanStep
from repro.backends.binder import context_realm
from repro.backends.planner import SnapshotRequest, plan_snapshots

from planner_policy import FORCE_DELTA, policy_backend


class FakeHistory:
    """Cost inputs without a database: the delta between two versions
    is ``per_tick`` rows per tick of distance."""

    def __init__(self, cardinality=100, per_tick=1):
        self.cardinality = cardinality
        self.per_tick = per_tick

    def table_cardinality(self, table):
        return self.cardinality

    def table_delta_estimate(self, table, ts_from, ts_to):
        return abs(ts_to - ts_from) * self.per_tick


def plain(table, ts):
    return SnapshotRequest((table, ts), table, ts, True)


def plan(requests, cached=None, history=FakeHistory(), max_ratio=0.5,
         store_attached=False):
    return plan_snapshots(requests, cached or {}, history, max_ratio,
                          store_attached)


def ops(steps):
    return [(step.op, step.ts, step.source_ts) for _key, step in steps]


# -- the cost model, by example ------------------------------------------

def test_empty_cache_builds_the_first_and_chains_the_rest():
    steps = plan([plain("t", 30), plain("t", 10), plain("t", 20)])
    assert ops(steps) == [("full-build", 10, None),
                          ("clone-delta", 20, 10),
                          ("clone-delta", 30, 20)]


def test_store_attached_turns_misses_into_batched_store_reads():
    steps = plan([plain("t", 10)], store_attached=True)
    assert ops(steps) == [("rehydrate-batch", 10, None)]


def test_cheapest_cached_neighbor_is_the_clone_source():
    steps = plan([plain("t", 50)], cached={"t": [10, 44, 70]})
    assert ops(steps) == [("clone-delta", 50, 44)]


def test_over_budget_hops_fall_back_to_a_build():
    history = FakeHistory(cardinality=10)      # budget: 5 rows
    steps = plan([plain("t", 16)], cached={"t": [10]},
                 history=history)
    assert ops(steps) == [("full-build", 16, None)]
    steps = plan([plain("t", 15)], cached={"t": [10]},
                 history=history)
    assert ops(steps) == [("clone-delta", 15, 10)]


def test_no_time_traveling_history_means_no_hops():
    steps = plan([plain("t", 10), plain("t", 11)], cached={"t": [9]},
                 history=None)
    assert ops(steps) == [("full-build", 10, None),
                          ("full-build", 11, None)]


def test_override_and_provider_keys_are_full_builds_and_run_last():
    override = SnapshotRequest(("t", ("override", 1)), "t", 7, False)
    latest = SnapshotRequest(("u", None), "u", None, False)
    steps = plan([override, plain("t", 8), latest],
                 cached={"t": [7], "u": [1]}, store_attached=True)
    assert ops(steps) == [("clone-delta", 8, 7),
                          ("full-build", 7, None),
                          ("full-build", -1, None)]


def test_every_step_explains_itself():
    steps = plan([plain("t", 10), plain("t", 11)],
                 cached={"t": [9]})
    assert all(isinstance(step, SnapshotPlanStep) and step.reason
               for _key, step in steps)


# -- the structural invariants, by property ------------------------------

TABLES = ("a", "b")
versions = st.integers(min_value=1, max_value=40)


@st.composite
def planner_inputs(draw):
    cached = {table: sorted(draw(st.sets(versions, max_size=5)))
              for table in TABLES}
    wanted = draw(st.lists(st.tuples(st.sampled_from(TABLES), versions),
                           min_size=1, max_size=8, unique=True))
    requests = [plain(table, ts)._replace(keys=draw(st.sampled_from(
                    [None, (("k", frozenset({1})),)])))
                for table, ts in wanted if ts not in cached[table]]
    for index in range(draw(st.integers(0, 2))):
        table = draw(st.sampled_from(TABLES))
        requests.append(SnapshotRequest(
            (table, ("override", index)), table, draw(versions), False))
    history = draw(st.one_of(st.none(), st.builds(
        FakeHistory, cardinality=st.integers(0, 60),
        per_tick=st.integers(0, 3))))
    ratio = draw(st.sampled_from([0.0, 0.5, FORCE_DELTA[
        "delta_max_ratio"]]))
    return requests, cached, history, ratio, draw(st.booleans())


@given(planner_inputs())
@settings(max_examples=300, deadline=None)
def test_plans_are_executable_and_respect_grants(inputs):
    """Every hop's source is cached or an earlier step's product, and
    stays so for the rest of the plan: no step consumes a source."""
    requests, cached, history, ratio, store_attached = inputs
    steps = plan_snapshots(requests, cached, history, ratio,
                           store_attached)
    # one step per requested key, each producing its own key's state
    assert Counter(key for key, _step in steps) \
        == Counter(request.key for request in requests)
    by_key = {request.key: request for request in requests}
    live = {(table, ts) for table in cached for ts in cached[table]}
    for key, step in steps:
        request = by_key[key]
        assert step.table == request.table
        if not request.plain:
            assert step.op == "full-build" and step.source_ts is None
            continue
        assert step.ts == request.ts
        if step.op == "clone-delta":
            assert history is not None
            # the source is cached or produced by an earlier step
            assert (step.table, step.source_ts) in live
            estimate = history.table_delta_estimate(
                step.table, step.source_ts, step.ts)
            assert estimate <= history.table_cardinality(step.table) \
                * ratio
        else:
            assert step.source_ts is None
            assert step.op == ("rehydrate-batch" if store_attached
                               else "partial-build" if request.keys
                               is not None else "full-build")
        live.add((step.table, step.ts))


# -- ground truth: what the steps build is the recorded history ----------

@st.composite
def histories(draw):
    """A two-table history of single-statement commits; returns the
    database and its commit ticks."""
    db = Database()
    ticks = []
    keys = {table: [] for table in TABLES}
    next_key = 0
    for table in TABLES:
        db.execute(f"CREATE TABLE {table} (k INT, v INT)")
    for _ in range(draw(st.integers(2, 7))):
        table = draw(st.sampled_from(TABLES))
        kind = draw(st.sampled_from(["insert", "insert", "update",
                                     "delete", "rewrite"]))
        if kind == "insert" or not keys[table]:
            rows = draw(st.integers(1, 3))
            sql = f"INSERT INTO {table} VALUES " + ", ".join(
                f"({next_key + i}, {draw(st.integers(0, 9))})"
                for i in range(rows))
            keys[table] += range(next_key, next_key + rows)
            next_key += rows
        elif kind == "update":
            sql = (f"UPDATE {table} SET v = v + 1 "
                   f"WHERE k = {draw(st.sampled_from(keys[table]))}")
        elif kind == "delete":
            victim = draw(st.sampled_from(keys[table]))
            keys[table].remove(victim)
            sql = f"DELETE FROM {table} WHERE k = {victim}"
        else:  # every row changes: the delta is the table
            sql = f"UPDATE {table} SET v = v + 10"
        conn = db.connect()
        conn.begin()
        conn.execute(sql)
        conn.commit()
        ticks.append(db.clock.now())
    return db, ticks


def assert_cache_matches_history(db, session, context):
    """Every plain snapshot resident in the session cache holds exactly
    the recorded committed state it is keyed on."""
    realm = context_realm(db.context(params={}))
    for table, ts, name in session.cache.plain_entries(realm):
        built = Counter(session.conn.execute(
            f'SELECT * FROM "{name}"').fetchall())
        recorded = Counter(tuple(values) + (rowid, xid)
                           for rowid, values, xid
                           in db.table_snapshot(table, ts))
        assert built == recorded, f"{table}@{ts} in {name}: {context}"


@given(data=st.data(), history=histories(),
       capacity=st.sampled_from([1, 2, 3, None]),
       policy=st.sampled_from([{}, FORCE_DELTA]),
       with_store=st.booleans())
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
def test_materialized_snapshots_equal_the_recorded_history(
        data, history, capacity, policy, with_store):
    db, ticks = history
    pair = st.tuples(st.sampled_from(TABLES), st.sampled_from(ticks))
    snapshot_set = st.lists(pair, min_size=1, max_size=4)
    ctx = db.context(params={})
    with ExitStack() as stack:
        # with a store, evictions spill and later misses rehydrate
        store = stack.enter_context(closing(SnapshotStore())) \
            if with_store else None
        session = stack.enter_context(policy_backend(
            policy, cache_capacity=capacity,
            spill_store=store).open_session())
        for round_no in range(data.draw(st.integers(1, 4))):
            if data.draw(st.booleans()):
                # a hint: whatever earlier rounds left cached is the
                # inventory this one plans against
                wanted = data.draw(snapshot_set)
                session.prime_snapshots(wanted, ctx)
                primed = [wanted]
            else:
                # a pipeline: later sets may re-read earlier pairs
                primed = data.draw(st.lists(snapshot_set, min_size=1,
                                            max_size=4))
                with session.snapshot_pipeline(primed, ctx) as pipe:
                    for index in range(len(primed)):
                        pipe.prime(index)
                        assert_cache_matches_history(
                            db, session,
                            f"round {round_no} set {index} of {primed}")
            realm = context_realm(ctx)
            for table, ts in primed[-1]:
                # the last set requested is resident, whatever the
                # capacity (an in-flight set is never evicted)
                assert session.cache.lookup(realm, (table, ts))
            assert_cache_matches_history(db, session,
                                         f"round {round_no}: {primed}")
        stats = session.stats
        assert stats.snapshots_materialized \
            == (stats.full_materializations
                + stats.delta_materializations
                + stats.snapshots_rehydrated)
