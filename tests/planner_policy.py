"""Test-only snapshot-planner policy overrides, and a pipelined walk.

The planner's cutover is a number on the engine's frozen
``DialectConfig``, not a constructor argument; nothing outside the test
suite sets it.  The differential harness and the materialization tests
still need to *force* each path (every hop a delta, never a delta), and
do it with a backend subclass whose ``dialect_config`` is a
``dataclasses.replace`` of the stock one.

:func:`pipeline_states` is the snapshot traffic the move, spill and
rehydrate tests drive: one table's states, tick by tick, through a
session's snapshot pipeline.

(A unique module name, importable from every test directory — see
``tests/service/service_helpers.py`` for why not ``conftest``.)
"""

import dataclasses
import sys

from repro.algebra import operators as op
from repro.algebra.expressions import Literal
from repro.backends import resolve_backend

#: every delta hop is affordable — a huge *finite* ratio: ``0 * inf``
#: is NaN, which would refuse the hops of an empty table.
FORCE_DELTA = {"delta_max_ratio": float(sys.maxsize)}
#: no delta hop is affordable: every miss is a store read or a scan.
NO_DELTA = {"delta_max_ratio": -1.0}


def policy_backend(policy, engine="sqlite", **kwargs):
    """A backend of ``engine`` (a SQL engine — the names
    in ``tests/backends/conftest.py``'s ``SQL_ENGINES``) planning under
    ``policy`` (a dict of ``DialectConfig`` fields — combine the
    constants above with ``{**A, **B}``); ``kwargs`` go to the backend
    constructor."""
    base = type(resolve_backend(engine))

    class PolicyBackend(base):
        dialect_config = dataclasses.replace(base.dialect_config,
                                             **policy)

    return PolicyBackend(**kwargs)


def pipeline_states(session, db, table, ticks):
    """``{tick: Relation}``: the committed state of ``table`` at each of
    ``ticks``, run on ``session`` as one snapshot pipeline — a
    single-state set per distinct tick in timestamp order, each primed
    just before its AS-OF scan executes.  No set reads a state again,
    so every state after the first may be a move of its predecessor."""
    ordered = sorted(set(ticks))
    ctx = db.context(params={})
    columns = list(db.catalog.get(table).column_names)
    states = {}
    with session.snapshot_pipeline([[(table, ts)] for ts in ordered],
                                   ctx) as pipe:
        for index, ts in enumerate(ordered):
            pipe.prime(index)
            states[ts] = session.execute_plan(
                op.TableScan(table=table, columns=columns, binding=table,
                             as_of=Literal(ts)), ctx)
    return {ts: states[ts] for ts in ticks}
