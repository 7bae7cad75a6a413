"""The paper's running example, end to end (Fig. 1 → Fig. 4).

Bob's withdrawal transaction misses an overdraft because of a
write-skew under snapshot isolation.  This script replays the paper's
§ 1–2 narrative:

1. execute T1 and T2 with the Fig. 1 interleaving;
2. show the Fig. 2 states (via time travel);
3. open the debugger: timeline (Fig. 3), then the debug panel for T2
   (Fig. 4) and find the outdated balance;
4. click the savings tuple: its provenance graph;
5. fix the bug with the promotion what-if — and see that T2 would
   have aborted.

Run:  python examples/bank_write_skew.py
"""

from repro import Database
from repro.core.whatif import WhatIfScenario
from repro.debugger import (TransactionInspector, TransactionTimeline,
                            render_debug_panel, render_detail_panel,
                            render_graph, render_timeline)
from repro.workloads import (fig2_states, run_write_skew_history,
                             setup_bank)


def main() -> None:
    db = Database()
    setup_bank(db)
    t1, t2 = run_write_skew_history(db)

    print("=" * 70)
    print("1. Fig. 2 — database states (reconstructed via time travel)")
    print("=" * 70)
    states = fig2_states(db, t1, t2)
    for label, rows in states.items():
        print(f"  {label:<16}: {rows}")
    print("  -> combined balance is -30, but overdraft is EMPTY: "
          "the write-skew anomaly")

    print()
    print("=" * 70)
    print("2. Fig. 3 — the timeline panel")
    print("=" * 70)
    timeline = TransactionTimeline.from_database(db)
    print(render_timeline(timeline))
    print()
    print(render_detail_panel(timeline.row(t2)))

    print()
    print("=" * 70)
    print(f"3. Fig. 4 — debugging T{t2} (showing unaffected rows)")
    print("=" * 70)
    inspector = TransactionInspector(db, t2, show_unaffected=True)
    print(render_debug_panel(inspector))
    checking = [r for r in
                inspector.column(0).states["account"].rows
                if r.values[1] == "Checking"][0]
    print(f"\n  -> T{t2}'s insert saw checking balance "
          f"{checking.values[2]} (outdated; the committed value was "
          f"-20): Bob has found the write-skew.")

    print()
    print("=" * 70)
    print("4. provenance graph of the savings tuple (click action)")
    print("=" * 70)
    savings = [r for r in inspector.column(0).states["account"].rows
               if r.values[1] == "Savings"][0]
    graph = inspector.provenance_graph("account", savings.rowid)
    print(render_graph(graph))

    print()
    print("=" * 70)
    print("5. what-if — the promotion fix (§2)")
    print("=" * 70)
    scenario = WhatIfScenario(db, t1)
    scenario.insert_statement(
        0, "UPDATE account SET bal = bal WHERE cust = :name",
        {"name": "Alice"})
    result = scenario.run()
    print(result.summary())
    print("\n  -> with promotion, T1 write-locks both of Alice's "
          "accounts; T2's update would hit the lock and abort, "
          "then a retry of T2 would see T1's debit and report the "
          "overdraft.")


if __name__ == "__main__":
    main()
