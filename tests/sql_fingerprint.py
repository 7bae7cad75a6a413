"""Fingerprint the SQL reenactment produces, to show a refactor left it
byte-identical.

For every committed transaction of the seeded harness histories
(``tests/backends/conftest.build_history``, each seed at both isolation
levels) it captures

* every statement a fresh :class:`~repro.backends.sqlite.SQLiteSession`
  sends while reenacting the transaction (``set_trace_callback``, one
  session per transaction): snapshot DDL, fills and the query itself;
* the native-dialect ``reenactment_sql`` of the transaction, per table
  of the catalog it updates;

and prints, for each stream, the number of texts and the sha256 of
every text followed by a NUL byte.  Run it before and after a change
and compare the two outputs::

    PYTHONPATH=src python tests/sql_fingerprint.py [--seeds N]

The session indexes a plan's snapshots in set iteration order, so the
statement digest is only comparable under one hash seed: the script
re-executes itself with ``PYTHONHASHSEED=0`` when run under any
other.
"""

import argparse
import hashlib
import importlib.util
import os
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
ISOLATION_LEVELS = ("SERIALIZABLE", "READ COMMITTED")


def fingerprint(seeds):
    """``{stream: (count, sha256 hex)}`` over the histories of
    ``seeds``, streams ``statements`` and ``native``."""
    spec = importlib.util.spec_from_file_location(
        "harness_histories", HERE / "backends" / "conftest.py")
    harness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(harness)
    from repro.backends.sqlite import SQLiteBackend
    from repro.core.reenactor import Reenactor
    from repro.errors import ReenactmentError

    digests = {"statements": [0, hashlib.sha256()],
               "native": [0, hashlib.sha256()]}

    def add(stream, text):
        digests[stream][0] += 1
        digests[stream][1].update(text.encode() + b"\0")

    for seed in seeds:
        for isolation in ISOLATION_LEVELS:
            db = harness.build_history(seed, isolation)
            backend = SQLiteBackend()
            reenactor = Reenactor(db, backend=backend)
            native = Reenactor(db)
            tables = sorted(db.catalog.table_names())
            for xid in harness.committed_xids(db):
                with backend.open_session() as session:
                    session.conn.set_trace_callback(
                        lambda text: add("statements", text))
                    reenactor.reenact(xid, session=session)
                for table in tables:
                    try:
                        text = native.reenactment_sql(xid, table=table)
                    except ReenactmentError:
                        continue  # the transaction does not update it
                    add("native", text)
    return {stream: (count, digest.hexdigest())
            for stream, (count, digest) in digests.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=50,
                        help="histories per isolation level: seeds "
                             "0..N-1 (default 50)")
    args = parser.parse_args(argv)
    for stream, (count, digest) in fingerprint(range(args.seeds)).items():
        print(f"{stream} {count} sha256 {digest}")


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED="0"))
    sys.path.insert(0, str(HERE.parent / "src"))
    main()
