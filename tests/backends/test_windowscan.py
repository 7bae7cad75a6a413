"""Window-compiled sparkline timeline scans.

Pins the single-pass window compilation's observable contract:

* a dense sparkline scan on a window-capable session is answered by
  **one** SQL pass — ``window_scans`` goes up once, ``plans_executed``
  stays at zero — and the answers are identical to the per-probe
  pipeline and the in-memory interpreter, cell for cell;
* the planner's admission rule: the window path is taken at the
  dialect config's ``window_min_ticks`` distinct ticks and above,
  never for full-state scans; the forced paths here are test-only
  policy overrides (``tests/planner_policy.py``);
* admission: what-if overrides, snapshot providers and contexts
  without native time travel all fall back to the per-probe pipeline
  (``window_scan`` returns ``None``) instead of answering wrong;
* results are keyed by the caller's *original* timestamps even when
  the request arrives unsorted and with duplicates;
* the ``window_scans`` / ``window_scan_ticks`` counters ride
  ``SessionStats.as_dict`` and ``merge``.
"""

import dataclasses

import pytest

from repro import Database, ReenactmentService
from repro.algebra.evaluator import Relation
from repro.algebra.sqlgen import Dialect
from repro.backends import SQLiteBackend, resolve_backend
from repro.backends.base import SessionStats
from repro.db.auditlog import AuditEventKind
from repro.debugger.timeline import timeline_states
from repro.errors import ExecutionError, ReenactmentError

from conftest import assert_relations_match, build_history
from planner_policy import FORCE_WINDOW, NO_WINDOW, policy_backend

MIN_TICKS = SQLiteBackend.dialect_config.window_min_ticks


def history(n_rows=30, n_commits=8):
    """One table, a seed commit, then single-row update/insert/delete
    commits — a distinct committed state at each returned timestamp,
    with churn in both directions so counts actually move."""
    db = Database()
    db.execute("CREATE TABLE acct (id INT, bal INT)")
    conn = db.connect()
    conn.begin()
    for i in range(n_rows):
        conn.execute(f"INSERT INTO acct VALUES ({i}, 100)")
    conn.commit()
    timestamps = [db.clock.now()]
    for k in range(n_commits - 1):
        conn.begin()
        if k % 3 == 0:
            conn.execute(f"DELETE FROM acct WHERE id = {k}")
        elif k % 3 == 1:
            conn.execute(f"INSERT INTO acct VALUES ({n_rows + k}, 7)")
        else:
            conn.execute(f"UPDATE acct SET bal = bal + 1 "
                         f"WHERE id = {n_rows // 2}")
        conn.commit()
        timestamps.append(db.clock.now())
    return db, timestamps


def _no_window_backend(**kwargs):
    """A SQLite backend whose dialect config has the window-function
    hooks stripped — the shape of any future SQL engine that cannot
    express the single-pass timeline scan."""
    class NoWindowBackend(SQLiteBackend):
        dialect_config = dataclasses.replace(
            SQLiteBackend.dialect_config, name="sqlite-nowindow",
            window_functions=False)
    return NoWindowBackend(**kwargs)


def scan(db, timestamps, mode, policy):
    """One timeline scan on a fresh session planning under ``policy``
    (``{}`` = the shipped defaults); returns (states, stats)."""
    with policy_backend(policy).open_session() as session:
        states = timeline_states(db, "acct", timestamps,
                                 session=session, mode=mode)
        return states, session.stats


class TestEquivalence:
    def test_window_matches_per_probe_and_memory(self):
        db, timestamps = history()
        win, win_stats = scan(db, timestamps, "sparkline", FORCE_WINDOW)
        probe, probe_stats = scan(db, timestamps, "sparkline",
                                  NO_WINDOW)
        mem = timeline_states(db, "acct", timestamps,
                              backend="memory", mode="sparkline")
        for ts in timestamps:
            assert_relations_match(win[ts], probe[ts],
                                   context=f"ts={ts}")
            assert_relations_match(win[ts], mem[ts],
                                   context=f"ts={ts}")
        # the whole scan was ONE window pass: no per-probe plans at all
        assert win_stats.window_scans == 1
        assert win_stats.window_scan_ticks == len(timestamps)
        assert win_stats.plans_executed == 0
        assert probe_stats.window_scans == 0
        assert probe_stats.plans_executed == len(timestamps)

    @pytest.mark.parametrize("isolation",
                             ["SERIALIZABLE", "READ COMMITTED"])
    @pytest.mark.parametrize("seed", range(3))
    def test_sparkline_cells_match_per_probe_counts(self, seed,
                                                    isolation):
        """Satellite 3: every sparkline cell of a window-compiled scan
        equals the per-probe ``COUNT(*)`` at that tick, checked cell
        for cell across seeded concurrent histories at both isolation
        levels."""
        db = build_history(seed, isolation)
        ticks = sorted({e.ts for e in db.audit_log.entries
                        if e.kind is AuditEventKind.COMMIT})
        assert ticks
        for table in sorted(db.catalog.table_names()):
            win = timeline_states(
                db, table, ticks, mode="sparkline",
                session=None, backend=policy_backend(FORCE_WINDOW))
            probe = timeline_states(
                db, table, ticks, mode="sparkline",
                session=None, backend=policy_backend(NO_WINDOW))
            win_cells = {ts: win[ts].rows[0][0] for ts in ticks}
            probe_cells = {ts: probe[ts].rows[0][0] for ts in ticks}
            assert win_cells == probe_cells, \
                f"seed={seed} isolation={isolation} table={table}"

    def test_results_keyed_by_callers_original_timestamps(self):
        db, timestamps = history()
        request = [timestamps[4], timestamps[0], timestamps[4],
                   timestamps[2], timestamps[6]]
        with policy_backend(FORCE_WINDOW).open_session() as session:
            states = timeline_states(db, "acct", request,
                                     session=session, mode="sparkline")
            assert session.stats.window_scans == 1
            # deduped before the backend saw it
            assert session.stats.window_scan_ticks == 4
        assert set(states) == set(request)
        reference, _ = scan(db, request, "sparkline", NO_WINDOW)
        for ts in request:
            assert_relations_match(states[ts], reference[ts],
                                   context=f"ts={ts}")


class TestCutover:
    def test_below_min_ticks_stays_per_probe(self):
        db, timestamps = history()
        few = timestamps[:MIN_TICKS - 1]
        states, stats = scan(db, few, "sparkline", {})
        assert stats.window_scans == 0
        assert stats.plans_executed == len(few)
        assert len(states) == len(few)

    def test_at_min_ticks_window_compiles(self):
        db, timestamps = history()
        _, stats = scan(db, timestamps[:MIN_TICKS], "sparkline", {})
        assert stats.window_scans == 1
        assert stats.plans_executed == 0

    def test_min_ticks_counts_distinct_ticks(self):
        db, timestamps = history()
        repeated = [timestamps[0]] * MIN_TICKS
        _, stats = scan(db, repeated, "sparkline", {})
        assert stats.window_scans == 0

    @pytest.mark.parametrize("policy", [{}, FORCE_WINDOW])
    def test_full_mode_stays_per_probe(self, policy):
        """The admission rule is mode-aware: full reconstruction ships
        every row of every tick on either path, and measured slower
        through a window sort than the per-probe moves it would save
        — so no policy window-compiles a full-state scan."""
        db, timestamps = history()
        _, stats = scan(db, timestamps, "full", policy)
        assert stats.window_scans == 0
        assert stats.plans_executed == len(timestamps)

    def test_forced_policy_engages_even_for_one_tick(self):
        db, timestamps = history()
        _, stats = scan(db, [timestamps[0]], "sparkline", FORCE_WINDOW)
        assert stats.window_scans == 1
        assert stats.plans_executed == 0

    def test_no_window_policy_never_window_scans(self):
        db, timestamps = history()
        _, stats = scan(db, timestamps, "sparkline", NO_WINDOW)
        assert stats.window_scans == 0
        assert stats.window_scan_ticks == 0

    def test_empty_timestamp_list(self):
        db, _ = history(n_commits=2)
        assert timeline_states(db, "acct", [],
                               backend=SQLiteBackend()) == {}
        ctx = db.context(params={})
        with SQLiteBackend().open_session() as session:
            assert session.window_scan("acct", [], ctx) == {}


class TestAdmission:
    """Contexts the window compiler must *refuse* (returning ``None``
    so the caller falls back) rather than answer incorrectly."""

    def test_whatif_override_refused(self):
        db, timestamps = history(n_commits=4)
        override = Relation(["acct.id", "acct.bal"], [(1, 999)])
        ctx = db.context(params={}, overrides={"acct": override})
        with policy_backend(FORCE_WINDOW).open_session() as session:
            assert session.window_scan("acct", timestamps, ctx,
                                       mode="sparkline") is None

    def test_snapshot_provider_refused(self):
        db, timestamps = history(n_commits=4)
        ctx = db.context(params={},
                         snapshot_provider=lambda table, ts: [])
        with policy_backend(FORCE_WINDOW).open_session() as session:
            assert session.window_scan("acct", timestamps, ctx,
                                       mode="sparkline") is None

    def test_context_without_database_refused(self):
        from repro.algebra.evaluator import StaticContext
        db, timestamps = history(n_commits=4)
        ctx = StaticContext(
            {"acct": Relation(["acct.id", "acct.bal"], [(1, 1)])})
        with policy_backend(FORCE_WINDOW).open_session() as session:
            assert session.window_scan("acct", timestamps, ctx,
                                       mode="sparkline") is None

    def test_timetravel_disabled_refused(self):
        from repro.db.engine import DatabaseConfig
        db, timestamps = history(n_commits=4)
        ctx = db.context(params={})
        db.config = DatabaseConfig(timetravel_enabled=False)
        with policy_backend(FORCE_WINDOW).open_session() as session:
            assert session.window_scan("acct", timestamps, ctx,
                                       mode="sparkline") is None

    def test_window_working_names_never_meet_user_columns(self):
        """The sparkline pass loads only (timestamp, +1/-1) events —
        no user column reaches its SQL — so a table whose column
        shadows one of the pass's working names is still answered
        by it, correctly."""
        db = Database()
        db.execute("CREATE TABLE odd (__wts__ INT, __delta__ INT)")
        conn = db.connect()
        ticks = []
        for k in range(5):
            conn.begin()
            conn.execute(f"INSERT INTO odd VALUES ({k}, {k})")
            if k == 3:
                conn.execute("DELETE FROM odd WHERE __wts__ = 0")
            conn.commit()
            ticks.append(db.clock.now())
        with SQLiteBackend().open_session() as session:
            states = timeline_states(db, "odd", ticks, session=session,
                                     mode="sparkline")
            assert session.stats.window_scans == 1
        assert [states[ts].rows[0][0] for ts in ticks] \
            == [1, 2, 3, 3, 4]

    def test_none_timestamp_refused(self):
        db, timestamps = history(n_commits=4)
        ctx = db.context(params={})
        with policy_backend(FORCE_WINDOW).open_session() as session:
            assert session.window_scan("acct", [timestamps[0], None],
                                       ctx, mode="sparkline") is None


class TestValidation:
    def test_session_rejects_unknown_scan_mode(self):
        db, timestamps = history(n_commits=2)
        ctx = db.context(params={})
        with SQLiteBackend().open_session() as session:
            with pytest.raises(ExecutionError, match="mode"):
                session.window_scan("acct", timestamps, ctx,
                                    mode="everything")

    def test_base_dialect_hook_is_unexpressible(self):
        with pytest.raises(ReenactmentError):
            Dialect().gen_window_counts("e", "t")

    def test_memory_session_has_no_window_path(self):
        db, timestamps = history(n_commits=4)
        ctx = db.context(params={})
        with resolve_backend("memory").open_session() as session:
            assert session.window_scan("acct", timestamps, ctx,
                                       mode="sparkline") is None

    def test_dialect_without_hooks_falls_back_cleanly(self):
        """A dialect without window functions is a clean per-probe
        fallback — identical answers, zero window scans."""
        db, timestamps = history(n_commits=4)
        reference = timeline_states(db, "acct", timestamps,
                                    mode="sparkline")
        with _no_window_backend().open_session() as session:
            ctx = db.context(params={})
            assert session.window_scan("acct", timestamps, ctx,
                                       mode="sparkline") is None
            states = timeline_states(db, "acct", timestamps,
                                     session=session, mode="sparkline")
            assert session.stats.window_scans == 0
            assert session.stats.plans_executed > 0
        for ts in timestamps:
            assert_relations_match(states[ts], reference[ts],
                                   context=f"ts={ts}")


class TestStats:
    def test_session_stats_carry_window_counters(self):
        stats = SessionStats(window_scans=2, window_scan_ticks=17)
        payload = stats.as_dict()
        assert payload["window_scans"] == 2
        assert payload["window_scan_ticks"] == 17
        other = SessionStats(window_scans=1, window_scan_ticks=3)
        other.merge(stats)
        assert other.window_scans == 3
        assert other.window_scan_ticks == 20


class TestService:
    def test_service_window_scans_dense_sparklines(self):
        db, timestamps = history()
        reference, _ = scan(db, timestamps, "sparkline", NO_WINDOW)
        with ReenactmentService(db, backend="sqlite",
                                workers=2) as service:
            result = service.timeline_scan(
                "acct", timestamps, mode="sparkline").result(timeout=60)
            sessions = service.stats().sessions
        assert sessions["window_scans"] == 1
        for ts in timestamps:
            assert_relations_match(result[ts], reference[ts],
                                   context=f"service ts={ts}")
