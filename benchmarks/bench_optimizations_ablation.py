"""E6 — the provenance-aware optimizations of [5], ablated.

The paper attributes interactive reenactment to provenance-specific
optimizations.  We reenact a U25 update chain over 5k rows with the
optimizer fully on, fully off, and with each rule family disabled in
turn, reporting the slowdown each ablation causes.  Expected shape:
optimizer-on is substantially faster than optimizer-off, with
projection merging (CASE composition) and dead-column pruning carrying
most of the win.
"""

import time

import pytest
from conftest import report

from repro import Database
from repro.core.optimizer import OptimizerConfig, ProvenanceOptimizer
from repro.core.reenactor import ReenactmentOptions, Reenactor
from repro.workloads import populate_accounts, uN_transaction

N_ROWS = 3000
N_STMTS = 20


@pytest.fixture(scope="module")
def ablation_db():
    db = Database()
    db.execute("CREATE TABLE bench_account "
               "(id INT, owner TEXT, branch INT, bal INT)")
    populate_accounts(db, N_ROWS, seed=5)
    xid = uN_transaction(db, N_STMTS, spread=N_STMTS)
    return db, xid


VARIANTS = {
    "full": OptimizerConfig(),
    "off": OptimizerConfig.disabled(),
    "no-merge": OptimizerConfig(merge_projections=False),
    "no-prune": OptimizerConfig(prune_columns=False),
    "no-push": OptimizerConfig(push_selections=False),
    "no-fold": OptimizerConfig(fold_constants=False),
}


def reenact_with(db, xid, config_name):
    reenactor = Reenactor(db)
    record = reenactor.transaction_record(xid)
    options = ReenactmentOptions(optimize=False)
    plans = reenactor.build_plans(record, options)
    config = VARIANTS[config_name]
    plan = plans["bench_account"]
    if config_name != "off":
        plan = ProvenanceOptimizer(config).optimize(plan)
    from repro.algebra.evaluator import Evaluator
    return Evaluator(db.context()).evaluate(plan)


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_ablation_variant(benchmark, ablation_db, variant):
    db, xid = ablation_db
    relation = benchmark.pedantic(
        lambda: reenact_with(db, xid, variant), rounds=1, iterations=1)
    assert len(relation.rows) == N_ROWS
    benchmark.extra_info["variant"] = variant


def test_ablation_summary(benchmark, ablation_db):
    db, xid = ablation_db

    def sweep():
        timings = {}
        baseline_rows = None
        for variant in VARIANTS:
            started = time.perf_counter()
            relation = reenact_with(db, xid, variant)
            timings[variant] = time.perf_counter() - started
            rows = sorted(relation.rows)
            if baseline_rows is None:
                baseline_rows = rows
            # every variant must compute the same relation
            assert rows == baseline_rows
        return timings

    timings = benchmark.pedantic(sweep, rounds=1, iterations=1)
    full = timings["full"]
    lines = [f"{variant:<10}: {seconds * 1000:8.1f} ms "
             f"({seconds / full:4.1f}x vs full)"
             for variant, seconds in timings.items()]
    report(f"E6: optimizer ablation (U{N_STMTS} over {N_ROWS} rows)",
           lines)
    for variant, seconds in timings.items():
        benchmark.extra_info[variant + "_ms"] = round(seconds * 1000, 1)
    # the optimizer must win, and merging must matter
    assert timings["off"] > timings["full"]
