"""Reenactment without native audit logging or time travel.

§3 footnote 3: "For systems that do not support these features, it is
possible to use triggers to implement them."  This script runs on a
database with both features *disabled*, installs the trigger-based
fallback, and shows that the debugger's core operations still work.

Run:  python examples/trigger_fallback.py
"""

from repro import Database, DatabaseConfig
from repro.core import Reenactor, TriggerHistory
from repro.core.reenactor import ReenactmentOptions


def main() -> None:
    print("=" * 70)
    print("database with NO native audit log / time travel")
    print("=" * 70)
    db = Database(DatabaseConfig(audit_enabled=False,
                                 timetravel_enabled=False))
    db.execute("CREATE TABLE account (cust TEXT, typ TEXT, bal INT)")
    db.execute("INSERT INTO account VALUES "
               "('Alice', 'Checking', 50), ('Alice', 'Savings', 30)")

    history = TriggerHistory(db)
    history.install(["account"])
    print("installed: __hist_account, __audit, __commits + triggers")

    session = db.connect(user="bob")
    session.begin()
    session.execute("UPDATE account SET bal = bal - 70 "
                    "WHERE cust = 'Alice' AND typ = 'Checking'")
    session.execute("DELETE FROM account WHERE bal < -100")
    xid = session.txn.xid
    session.commit()

    print(f"\nnative audit log entries: {len(db.audit_log)} "
          f"(disabled)")
    print("trigger-maintained audit table:")
    print(db.execute(
        "SELECT xid, kind, ts, sql FROM __audit ORDER BY ts").pretty())

    print("\nreenactment from trigger history alone:")
    reenactor = Reenactor(db, audit_log=history.audit_log(),
                          snapshot_provider=history.snapshot)
    result = reenactor.reenact(xid)
    print(result.tables["account"].pretty())

    prefix = reenactor.reenact(
        xid, ReenactmentOptions(upto=1, table="account"))
    print("after statement 0 only (prefix reenactment):")
    print(prefix.tables["account"].pretty())


if __name__ == "__main__":
    main()
