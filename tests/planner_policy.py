"""Test-only snapshot-planner policy overrides.

The planner's two cutovers are numbers on the engine's frozen
``DialectConfig``, not constructor arguments; nothing outside the test
suite sets them.  The differential harness and the materialization
tests still need to *force* each path (every hop a delta, never a
delta, a window pass for any tick count, never a window pass), and do
it the way a new engine would declare its own policy: a backend
subclass whose ``dialect_config`` is a ``dataclasses.replace`` of the
stock one.

(A unique module name, importable from every test directory — see
``tests/service/service_helpers.py`` for why not ``conftest``.)
"""

import dataclasses
import sys

from repro.backends import resolve_backend

#: every delta hop is affordable — a huge *finite* ratio: ``0 * inf``
#: is NaN, which would refuse the hops of an empty table.
FORCE_DELTA = {"delta_max_ratio": float(sys.maxsize)}
#: no delta hop is affordable: every miss is a store read or a scan.
NO_DELTA = {"delta_max_ratio": -1.0}
#: a sparkline scan takes the window pass whatever its tick count.
FORCE_WINDOW = {"window_min_ticks": 1}
#: no tick count reaches the window pass: always per-probe.
NO_WINDOW = {"window_min_ticks": sys.maxsize}


def policy_backend(policy, engine="sqlite", **kwargs):
    """A backend of ``engine`` (any registered SQL engine — the names
    in ``tests/backends/conftest.py``'s ``SQL_ENGINES``) planning under
    ``policy`` (a dict of ``DialectConfig`` fields — combine the
    constants above with ``{**A, **B}``); ``kwargs`` go to the backend
    constructor."""
    base = type(resolve_backend(engine))

    class PolicyBackend(base):
        dialect_config = dataclasses.replace(base.dialect_config,
                                             **policy)

    return PolicyBackend(**kwargs)
