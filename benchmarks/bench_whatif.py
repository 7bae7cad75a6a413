"""E10 — what-if scenarios (§2).

Measures the three what-if interactions on the running example: adding
the promotion statement (with conflict analysis), replacing the
overdraft check, and editing table data.  What-if replay is just
another reenactment, so its cost should be within a small factor of
plain reenactment.

The fleet mode measures the batched workload the compile/execute split
exists for: N scenario variants of one transaction on the SQLite
backend, naive per-scenario loop (each probe re-opens a connection and
re-materializes every snapshot) vs :class:`WhatIfFleet` (one session,
each ``(table, ts)`` snapshot materialized once).  At the largest table
size the fleet must win by ≥2x.

The bar was 3x while conflict analysis reenacted every write set: a
naive probe then ran nine reenactments on cold sessions (original,
variant, the variant again for its write set, six concurrent writers),
and the fleet 2N + 7 on one session.  Write sets are now read off the
variant's result and the commit log, so a naive probe runs two and the
fleet N + 1.  Both sides got faster, the naive loop most.  Single
runs on a 2-vCPU Xeon VM at 40 000 rows: before, naive 5.0 s and fleet
0.88 s (5.7x); now, naive 1.4-1.7 s and fleet 0.54-0.55 s (2.6x and
3.0x in two runs).  What is left is snapshot sharing and the single
original alone, and a 3x bar would fail about every other run.
"""

import time

from conftest import record_result, report

from repro import Database
from repro.core.reenactor import Reenactor
from repro.core.whatif import WhatIfFleet, WhatIfScenario
from repro.workloads import populate_accounts


def test_whatif_promotion(benchmark, skew_db):
    db, t1, t2 = skew_db

    def promotion():
        scenario = WhatIfScenario(db, t1)
        scenario.insert_statement(
            0, "UPDATE account SET bal = bal WHERE cust = 'Alice'")
        return scenario.run()

    result = benchmark(promotion)
    assert any(c.other_xid == t2 for c in result.conflicts)
    report("E10: promotion what-if", [
        f"conflicts detected: {len(result.conflicts)} "
        f"(T2 would abort — §2's prediction)",
    ])


def test_whatif_statement_replacement(benchmark, skew_db):
    db, _, t2 = skew_db

    def replace():
        scenario = WhatIfScenario(db, t2)
        scenario.replace_statement(
            1,
            "INSERT INTO overdraft (SELECT a1.cust, a1.bal + a2.bal "
            "FROM account a1, account a2 WHERE a1.cust = 'Alice' AND "
            "a1.cust = a2.cust AND a1.typ != a2.typ "
            "AND a1.bal + a2.bal < 50)")
        return scenario.run()

    result = benchmark(replace)
    assert result.diffs["overdraft"].added


def test_whatif_table_edit(benchmark, skew_db):
    db, _, t2 = skew_db

    def edit():
        scenario = WhatIfScenario(db, t2)
        scenario.edit_table("account", [("Alice", "Checking", -20),
                                        ("Alice", "Savings", 30)])
        return scenario.run()

    result = benchmark(edit)
    assert ("Alice", -30) in result.diffs["overdraft"].added


def test_whatif_vs_plain_reenactment_cost(benchmark, skew_db):
    """What-if ≈ 2x reenactment (original + modified) plus diffing."""
    db, t1, _ = skew_db

    def compare():
        reenactor = Reenactor(db)
        started = time.perf_counter()
        reenactor.reenact(t1)
        plain = time.perf_counter() - started

        scenario = WhatIfScenario(db, t1)
        scenario.replace_statement(
            0, "UPDATE account SET bal = bal - 10 "
               "WHERE cust = 'Alice' AND typ = 'Checking'")
        started = time.perf_counter()
        scenario.run()
        whatif = time.perf_counter() - started
        return plain, whatif

    plain, whatif = benchmark.pedantic(compare, rounds=3, iterations=1)
    benchmark.extra_info["plain_ms"] = round(plain * 1000, 2)
    benchmark.extra_info["whatif_ms"] = round(whatif * 1000, 2)


# -- fleet mode: batched scenario probing on one session ------------------

FLEET_TABLE_SIZES = [2000, 10000, 40000]
N_FLEET_SCENARIOS = 8


def make_fleet_history(n_rows):
    """A populated table, a 10-statement suspect transaction, and six
    transactions concurrent with it — the exploratory-debugging
    workload: probing variants of one suspect transaction inside a
    concurrent history, where conflict analysis checks every variant
    against every concurrent transaction's write set (read off the
    commit log: they all committed)."""
    db = Database()
    db.execute("CREATE TABLE bench_account "
               "(id INT, owner TEXT, branch INT, bal INT)")
    populate_accounts(db, n_rows, seed=11)
    target = db.connect(user="suspect")
    target.begin()
    for k in range(10):
        target.execute("UPDATE bench_account SET bal = bal + 1 "
                       f"WHERE id = {k + 1}")
    # concurrent writers on rows the suspect does not touch (so the
    # recorded history commits cleanly under first-updater-wins)
    for i, row in enumerate((2000, 3000, 4000, 5000, 6000, 7000)):
        other = db.connect(user=f"other{i}")
        other.begin()
        other.execute("UPDATE bench_account SET bal = bal + 5 "
                      f"WHERE id = {row}")
        other.commit()
    xid = target.txn.xid
    target.commit()
    return db, xid


def apply_variant(scenario, k):
    """Deterministic k-th probe: statement replace / insert / delete.
    Probe 1 writes row 2000 — colliding with a concurrent writer, so
    conflict analysis has a finding to surface."""
    if k == 1:
        scenario.insert_statement(
            0, "UPDATE bench_account SET bal = bal - 1 "
               "WHERE id = 2000")
    elif k % 3 == 0:
        scenario.replace_statement(
            0, f"UPDATE bench_account SET bal = bal + {100 + k} "
               f"WHERE id = {k + 1}")
    elif k % 3 == 1:
        scenario.insert_statement(
            0, f"UPDATE bench_account SET bal = bal - {k} "
               f"WHERE id = {2 * k + 1}")
    else:
        scenario.delete_statement(0)


def result_signature(result):
    diffs = {table: (sorted(diff.added), sorted(diff.removed))
             for table, diff in result.diffs.items()}
    conflicts = sorted((c.table, c.rowid, c.other_xid)
                       for c in result.conflicts)
    return diffs, conflicts


def test_whatif_fleet_vs_naive_loop(benchmark):
    """The acceptance claim: a fleet of N scenarios on SQLite beats the
    naive per-scenario loop by ≥2x at the largest size (see the
    module docstring for why not 3x), with identical diffs and each
    ``(table, ts)`` snapshot materialized exactly once."""

    def sweep():
        out = {}
        for n_rows in FLEET_TABLE_SIZES:
            db, xid = make_fleet_history(n_rows)

            # both sides are timed on execution only: scenarios are
            # constructed and edited before their timer starts
            standalone = []
            for k in range(N_FLEET_SCENARIOS):
                scenario = WhatIfScenario(db, xid, backend="sqlite")
                apply_variant(scenario, k)
                standalone.append(scenario)
            started = time.perf_counter()
            naive = [scenario.run() for scenario in standalone]
            naive_s = time.perf_counter() - started

            fleet = WhatIfFleet(db, xid, backend="sqlite")
            for k in range(N_FLEET_SCENARIOS):
                apply_variant(fleet.scenario(f"variant-{k}"), k)
            started = time.perf_counter()
            results = fleet.run()
            fleet_s = time.perf_counter() - started

            # same answers, radically less work
            for naive_result, fleet_result in zip(naive,
                                                  results.values()):
                assert result_signature(naive_result) \
                    == result_signature(fleet_result)
            assert any(r.conflicts for r in results.values()), \
                "probe of row 2000 should collide with a concurrent " \
                "writer"
            assert all(
                count == 1
                for count in fleet.last_stats.materializations.values())
            out[n_rows] = (naive_s, fleet_s)
        return out

    out = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = []
    for n_rows, (naive_s, fleet_s) in out.items():
        speedup = naive_s / max(fleet_s, 1e-9)
        lines.append(
            f"{n_rows:>6} rows, {N_FLEET_SCENARIOS} scenarios: "
            f"naive {naive_s * 1000:8.1f} ms  "
            f"fleet {fleet_s * 1000:8.1f} ms  "
            f"(speedup {speedup:4.1f}x)")
        record_result("whatif", f"fleet_{n_rows}",
                      n_rows=n_rows, scenarios=N_FLEET_SCENARIOS,
                      naive_ms=round(naive_s * 1000, 1),
                      fleet_ms=round(fleet_s * 1000, 1),
                      speedup=round(speedup, 2))
    report("E10: what-if fleet vs naive per-scenario loop (sqlite)",
           lines)
    largest = FLEET_TABLE_SIZES[-1]
    naive_s, fleet_s = out[largest]
    assert naive_s / max(fleet_s, 1e-9) >= 2.0, \
        f"fleet speedup below 2x at {largest} rows"
