"""WhatIfFleet: batched scenario probing on one backend session (§2's
exploratory workload), plus SQLite coverage for ``edit_table`` and
``conflict_analysis`` (previously exercised directly only in memory).
"""

import pytest

from repro import Database, resolve_backend
from repro.core.whatif import WhatIfFleet, WhatIfScenario
from repro.errors import WhatIfError
from repro.workloads import setup_bank, run_write_skew_history

BACKENDS = ["memory", "sqlite"]


@pytest.fixture
def skewed():
    db = Database()
    setup_bank(db)
    t1, t2 = run_write_skew_history(db)
    return db, t1, t2


@pytest.fixture
def probe_db():
    """A multi-statement transaction over a small table, with one
    concurrent writer so conflict analysis has real work."""
    db = Database()
    db.execute("CREATE TABLE t (k INT, v INT)")
    db.execute("INSERT INTO t VALUES "
               "(1, 10), (2, 20), (3, 30), (4, 40), (5, 50)")
    target = db.connect(user="suspect")
    target.begin()
    target.execute("UPDATE t SET v = v + 1 WHERE k <= 3")
    target.execute("INSERT INTO t VALUES (6, 60)")
    other = db.connect(user="other")
    other.begin()
    other.execute("UPDATE t SET v = v - 1 WHERE k = 5")
    other_xid = other.txn.xid
    other.commit()
    xid = target.txn.xid
    target.commit()
    return db, xid, other_xid


def signature(result):
    diffs = {table: (sorted(diff.added), sorted(diff.removed))
             for table, diff in result.diffs.items()}
    conflicts = sorted((c.table, c.rowid, c.other_xid)
                       for c in result.conflicts)
    return diffs, conflicts


def build_variants(db, xid, backend=None, fleet=None):
    """Eight probe variants, applied either to standalone scenarios or
    to a fleet; returns the standalone list or the fleet."""
    out = []
    for k in range(8):
        if fleet is not None:
            scenario = fleet.scenario(f"variant-{k}")
        else:
            scenario = WhatIfScenario(db, xid, backend=backend)
            out.append(scenario)
        if k == 0:
            scenario.replace_statement(
                0, "UPDATE t SET v = v + 100 WHERE k = 1")
        elif k == 1:
            scenario.delete_statement(1)
        elif k == 2:
            scenario.insert_statement(0, "DELETE FROM t WHERE k = 2")
        elif k == 3:
            scenario.edit_table("t", [(1, 11), (2, 22), (3, 33)])
        elif k == 4:
            # collide with the concurrent writer's row
            scenario.insert_statement(
                0, "UPDATE t SET v = 0 WHERE k = 5")
        elif k == 5:
            scenario.replace_statement(
                1, "INSERT INTO t VALUES (7, 70), (8, 80)")
        elif k == 6:
            scenario.insert_statement(
                2, "UPDATE t SET v = v * 2 WHERE k >= 4")
        else:
            scenario.edit_table("t", [(9, 90)])
    return fleet if fleet is not None else out


# -- the acceptance test --------------------------------------------------

def test_fleet_of_eight_materializes_each_snapshot_once(probe_db):
    """A ``WhatIfFleet`` of 8 scenarios on the SQLite backend
    materializes each ``(table, ts)`` snapshot exactly once."""
    db, xid, _ = probe_db
    fleet = build_variants(db, xid,
                           fleet=WhatIfFleet(db, xid, backend="sqlite"))
    assert len(fleet) == 8
    results = fleet.run()
    assert list(results) == [f"variant-{k}" for k in range(8)]
    stats = fleet.last_stats
    assert all(count == 1 for count in stats.materializations.values())
    assert stats.snapshots_reused > 0
    # only committed (table, ts) states are materialized: an edited
    # table is a constant leaf of its variant's plans
    assert all(isinstance(key[1], int) for key in stats.materializations)


@pytest.mark.parametrize("backend", BACKENDS)
def test_fleet_matches_naive_per_scenario_loop(probe_db, backend):
    """Batching must not change any answer: diffs and conflict
    findings agree with standalone ``WhatIfScenario.run`` per probe,
    on both backends."""
    db, xid, _ = probe_db
    naive = [scenario.run()
             for scenario in build_variants(db, xid, backend=backend)]
    fleet = build_variants(db, xid,
                           fleet=WhatIfFleet(db, xid, backend=backend))
    results = fleet.run()
    for naive_result, fleet_result in zip(naive, results.values()):
        assert signature(naive_result) == signature(fleet_result)


def test_fleet_backends_agree(probe_db):
    db, xid, _ = probe_db
    signatures = {}
    for backend in BACKENDS:
        fleet = build_variants(
            db, xid, fleet=WhatIfFleet(db, xid, backend=backend))
        signatures[backend] = [signature(r)
                               for r in fleet.run().values()]
    assert signatures["memory"] == signatures["sqlite"]


def test_fleet_surfaces_conflict_finding(probe_db):
    """Variant 4 writes the concurrent writer's row — the collision
    must be reported, with the writer's xid."""
    db, xid, other_xid = probe_db
    fleet = build_variants(db, xid,
                           fleet=WhatIfFleet(db, xid, backend="sqlite"))
    results = fleet.run()
    conflicts = results["variant-4"].conflicts
    assert any(c.other_xid == other_xid and c.table == "t"
               for c in conflicts)
    # probes that leave row 5 alone see no collision
    assert results["variant-0"].conflicts == []


def test_a_fleet_is_one_compile_per_variant_plus_the_original(
        probe_db, monkeypatch):
    """A 3-variant fleet with a committed concurrent writer and no
    aborted one parses the record once, compiles four times — the
    original and each variant, an edited one included — and executes
    them as one batch.  No write set is reenacted — the variants' come
    with their reenactments, the writer's from the commit log — and
    the collision is still found."""
    from repro.core.reenactor import Reenactor
    db, xid, other_xid = probe_db
    calls = {"compile_all": 0, "parsed_statements": 0, "execute_all": 0}
    for name in calls:
        real = getattr(Reenactor, name)

        def counting(self, *args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(Reenactor, name, counting)
    fleet = WhatIfFleet(db, xid, backend="sqlite")
    fleet.scenario("collide").insert_statement(
        0, "UPDATE t SET v = 0 WHERE k = 5")
    fleet.scenario("drop").delete_statement(1)
    fleet.scenario("edit").edit_table("t", [(1, 11), (5, 55)])
    results = fleet.run()
    assert calls == {"compile_all": 4, "parsed_statements": 1,
                     "execute_all": 1}
    assert [(c.rowid, c.other_xid)
            for c in results["collide"].conflicts] == [(5, other_xid)]
    assert fleet.last_degraded == {}


# -- fleet construction ---------------------------------------------------

def test_empty_fleet_refuses_to_run(probe_db):
    db, xid, _ = probe_db
    with pytest.raises(WhatIfError, match="no scenarios"):
        WhatIfFleet(db, xid).run()


def test_fleet_rejects_foreign_scenario(skewed):
    db, t1, t2 = skewed
    fleet = WhatIfFleet(db, t1)
    with pytest.raises(WhatIfError, match="modifies"):
        fleet.add(WhatIfScenario(db, t2))


def test_fleet_rejects_duplicate_names(probe_db):
    db, xid, _ = probe_db
    fleet = WhatIfFleet(db, xid)
    fleet.scenario("probe")
    with pytest.raises(WhatIfError, match="duplicate"):
        fleet.scenario("probe")


def test_fleet_adopts_external_scenario(probe_db):
    db, xid, _ = probe_db
    scenario = WhatIfScenario(db, xid)
    scenario.delete_statement(0)
    fleet = WhatIfFleet(db, xid, backend="sqlite")
    fleet.add(scenario, name="external")
    results = fleet.run()
    assert signature(results["external"]) \
        == signature(WhatIfScenario(db, xid).delete_statement(0).run())


# -- promotion example through the fleet ---------------------------------

def test_promotion_fleet_on_sqlite(skewed):
    """The paper's §2 probes as one fleet on SQLite: the promotion
    variant predicts T2's abort, the serial-outcome edit reveals the
    overdraft."""
    db, t1, t2 = skewed
    fleet = WhatIfFleet(db, t1, backend="sqlite")
    fleet.scenario("promotion").insert_statement(
        0, "UPDATE account SET bal = bal WHERE cust = 'Alice'")
    fleet.scenario("no-withdrawal").delete_statement(0)
    results = fleet.run()
    assert any(c.other_xid == t2
               for c in results["promotion"].conflicts)
    assert results["no-withdrawal"].diffs["account"].changed


# -- SQLite coverage for edit_table / conflict_analysis (satellite) -------

def test_edit_table_scenario_on_sqlite(skewed):
    db, _, t2 = skewed
    signatures = {}
    for backend in BACKENDS:
        scenario = WhatIfScenario(db, t2, backend=backend)
        scenario.edit_table("account", [("Alice", "Checking", -20),
                                        ("Alice", "Savings", 30)])
        signatures[backend] = signature(scenario.run())
    assert signatures["memory"] == signatures["sqlite"]
    diffs, _ = signatures["sqlite"]
    assert ("Alice", -30) in diffs["overdraft"][0]


def test_conflict_analysis_on_sqlite(skewed):
    db, t1, t2 = skewed
    findings = {}
    for backend in BACKENDS:
        scenario = WhatIfScenario(db, t1, backend=backend)
        scenario.insert_statement(
            0, "UPDATE account SET bal = bal WHERE cust = 'Alice'")
        findings[backend] = sorted(
            (c.table, c.rowid, c.other_xid)
            for c in scenario.conflict_analysis())
    assert findings["memory"] == findings["sqlite"]
    assert any(other == t2 for _, _, other in findings["sqlite"])


def test_conflict_analysis_on_shared_session(skewed, monkeypatch):
    """conflict_analysis routed through an explicit session matches
    the one-shot path, and so does a fleet on the same session — which
    reads each concurrent writer's write set once for all of its
    scenarios."""
    db, t1, t2 = skewed
    promotion = "UPDATE account SET bal = bal WHERE cust = 'Alice'"
    scenario = WhatIfScenario(db, t1, backend="sqlite")
    scenario.insert_statement(0, promotion)
    one_shot = scenario.conflict_analysis()
    reads = []
    real = Database.rows_written_by
    monkeypatch.setattr(
        Database, "rows_written_by",
        lambda self, xid, ts: reads.append(xid) or real(self, xid, ts))
    backend = resolve_backend("sqlite")
    with backend.open_session() as session:
        sessioned = scenario.conflict_analysis(session=session)
        standalone_reads = list(reads)
        fleet = WhatIfFleet(db, t1, backend=backend)
        for name in ("first", "second"):
            fleet.scenario(name).insert_statement(0, promotion)
        results = fleet.run(session=session)
    as_tuples = lambda cs: sorted((c.table, c.rowid, c.other_xid)
                                  for c in cs)
    assert as_tuples(one_shot) == as_tuples(sessioned) \
        == as_tuples(results["first"].conflicts) \
        == as_tuples(results["second"].conflicts)
    assert t2 in standalone_reads
    # the fleet's two scenarios share one read per concurrent writer
    assert reads == standalone_reads * 2
    assert all(count == 1
               for count in session.stats.materializations.values())
