"""Smoke test of the benchmark: every workload at about 2% scale,
measured and traced, through the code path ``perf/run.py`` takes.

It checks the benchmark, not the program's speed: declared names match
emitted names, every op verifies, per-op self times fit inside the op.
It does not require every seam to resolve — a later refactor may
retire one, and ``perf/compare.py`` reports that.
"""

import itertools
import json
import os
import re

import pytest

from perf import compare, layers, run, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
SCALE = 0.02

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)


def _declared(key):
    return {m["name"]: m["unit"] for m in BENCHMARK[key]}


def test_declared_names_match_the_code():
    # the driver gates a subset (longer runs of fewer workloads); the
    # full command runs them all
    gated = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
    assert gated == {name: spec.why for name, spec
                     in workloads.SPECS.items() if name in gated}
    assert _declared("end_to_end") == dict(run.END_TO_END)
    assert _declared("per_layer") == \
        {m.name: m.unit for m in layers.PER_LAYER}
    better = {m["name"]: m["better"] for m in BENCHMARK["per_layer"]}
    assert better == {m.name: m.better for m in layers.PER_LAYER}
    names = list(_declared("end_to_end")) + list(_declared("per_layer")) \
        + list(workloads.SPECS)
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert BENCHMARK["run_seconds"] == run.DEFAULT_SECONDS


@pytest.mark.parametrize("name", list(workloads.SPECS))
def test_workload_runs_clean(name):
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        report = run.run_workload(name, seed=1, seconds=0.0, trace=trace,
                                  scale=SCALE)
        result, detail = report["result"], report["detail"]
        assert detail["problems"] == [] and detail["failures"] == []
        assert detail["selfcheck"] == "passed"
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {n: m["unit"] for n, m in result["metrics"].items()} \
            == _declared(key)
        for metric in result["metrics"].values():
            assert isinstance(metric["value"], float)
    # self times of an op's spans never add up to more than the op took
    # (traced_run reports an overrun as a problem, asserted above)


def test_service_generator_hits_its_duplicate_share():
    spec = workloads.SPECS["service_mixed"]
    hist = workloads.history(spec, seed=3)
    n = 4 * len(workloads.SERVICE_BLOCK)
    ops = list(itertools.islice(workloads.ops(spec, 3, hist), n))
    assert len(ops) == n
    repeats = [op for op in ops if op.repeat_of is not None]
    assert len(repeats) / n == workloads.SERVICE_REPEAT_SHARE
    assert all(op == ops[op.repeat_of] for op in repeats)
    fresh = [op for op in ops if op.repeat_of is None]
    assert len(set(fresh)) == len(fresh)


def test_compare_fails_a_run_that_was_not_correct(tmp_path, capsys):
    """No op failed, but recovery lost a commit: ``failed`` stays 0
    and only ``correct`` says so.  The gate must not pass it."""
    base = os.path.join(ROOT, "perf", "results", "baseline-a.json")
    assert compare.main([base, base]) == 0
    with open(base) as handle:
        bad = json.load(handle)
    run_ = bad["workloads"]["record_write"]["end_to_end_run"]
    assert run_["failed"] == 0
    run_["correct"] = False
    run_["problems"] = ["commit of transaction 7 lost by recovery"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert compare.main([base, str(path)]) == 1
    assert "record_write: commit of transaction 7" in capsys.readouterr().out
