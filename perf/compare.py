#!/usr/bin/env python3
"""Compare two results files of ``perf/run.py``.

``python3 perf/compare.py A.json B.json`` prints one row per (metric,
workload) with the ratio B/A **and its base** (A's value), and a
verdict:

* end-to-end metrics are judged against the bound ``BENCHMARK.json``
  declares for them: ``regressed`` when B is worse than A by more than
  the bound, ``improved`` when better by more than it, else
  ``unchanged``;
* ``failed_share`` (ops failed ÷ ops attempted, measured and traced
  run together) is ``regressed`` on any rise, and ``correct`` is
  ``regressed`` whenever either run of B was not correct — a lost
  commit after recovery, a failed negative self-check and self times
  that overrun their op fail no single op but make the run incorrect
  — or did not finish;
* per-layer metrics marked ``exact`` in ``perf/layers.py`` must be
  equal on single-client workloads when both runs used one seed
  (``mismatch`` otherwise); other per-layer metrics have no bound and
  are listed for attribution (verdict ``-``);
* a metric present on one side only, or ``null`` because its seam no
  longer resolves, is ``unresolved`` — never ``unchanged``.

Exits 1 on any regression or exact-count mismatch.  A verdict from one
pair of runs is a screen, not a claim: a gain is claimed from ten
alternating pairs (see ``perf/README.md``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perf.layers import PER_LAYER  # noqa: E402
from perf.workloads import SPECS  # noqa: E402

FAILING = ("regressed", "mismatch")


def _declared() -> Dict[str, Dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    return {m["name"]: m for m in benchmark["end_to_end"]}


def _verdict(base: Optional[float], value: Optional[float],
             better: str, bound: Optional[float], exact: bool) -> str:
    if base is None or value is None:
        return "unresolved"
    if exact:
        return "unchanged" if base == value else "mismatch"
    if bound is None:
        return "-"
    if base == 0:
        return "unchanged" if value == 0 else "unresolved"
    worse = (value - base) / base
    if better == "higher":
        worse = -worse
    if worse > bound:
        return "regressed"
    return "improved" if worse < -bound else "unchanged"


def compare(a: Dict, b: Dict) -> List[Tuple[str, str, object, object,
                                            str]]:
    """Rows ``(workload, metric, base, value, verdict)``."""
    bounds = _declared()
    # exact counts are a property of (program, seed): runs at
    # different seeds generate different inputs
    same_inputs = a.get("seed") == b.get("seed")
    layer = {m.name: m for m in PER_LAYER}
    rows = []
    for name in sorted(set(a["workloads"]) | set(b["workloads"])):
        left = a["workloads"].get(name, {})
        right = b["workloads"].get(name, {})
        single = name in SPECS and SPECS[name].clients == 1
        for key in ("end_to_end", "per_layer"):
            lv, rv = left.get(key, {}), right.get(key, {})
            for metric in list(lv) + [m for m in rv if m not in lv]:
                spec = layer.get(metric)
                declared = bounds.get(metric, {})
                rows.append((name, metric, lv.get(metric), rv.get(metric),
                             _verdict(lv.get(metric), rv.get(metric),
                                      declared.get("better")
                                      or (spec.better if spec else "lower"),
                                      declared.get("bound"),
                                      bool(spec and spec.exact and single
                                           and same_inputs))))
        (a_share, a_ok), (b_share, b_ok) = _health(left), _health(right)
        rows.append((name, "failed_share", a_share, b_share,
                     "unresolved" if None in (a_share, b_share) else
                     "regressed" if b_share > a_share else "unchanged"))
        # a run of B that was not correct, or started and did not
        # finish, fails whatever its failed share
        rows.append((name, "correct", a_ok, b_ok,
                     "unresolved" if name not in b["workloads"] else
                     "unchanged" if b_ok else "regressed"))
    return rows


def _health(side: Dict) -> Tuple[Optional[float], Optional[float]]:
    """``(failed share, 1.0 if correct else 0.0)`` over the measured
    and the traced run of one workload; ``None``s if either is
    missing."""
    runs = [side.get("end_to_end_run"), side.get("per_layer_run")]
    if None in runs:
        return None, None
    return (sum(run["failed"] for run in runs)
            / sum(run["attempted"] for run in runs),
            float(all(run["correct"] for run in runs)))


def _problems(side: Dict) -> List[str]:
    return [line for key in ("end_to_end_run", "per_layer_run")
            for line in side.get(key, {}).get("problems", [])
            + side.get(key, {}).get("failures", [])]


def _format(value) -> str:
    return "null" if value is None else f"{value:.4f}"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args(argv)
    with open(args.a) as handle:
        a = json.load(handle)
    with open(args.b) as handle:
        b = json.load(handle)
    rows = compare(a, b)
    print(f"A = {a.get('run_id')} (seed {a.get('seed')}),  "
          f"B = {b.get('run_id')} (seed {b.get('seed')})")
    print(f"{'workload':<18} {'metric':<40} {'base (A)':>14} "
          f"{'B':>14} {'B/A':>8}  verdict")
    for workload, metric, base, value, verdict in rows:
        ratio = f"{value / base:.3f}" if base and value is not None \
            else "-"
        print(f"{workload:<18} {metric:<40} {_format(base):>14} "
              f"{_format(value):>14} {ratio:>8}  {verdict}")
    for name, side in sorted(b["workloads"].items()):
        for line in _problems(side):
            print(f"!! B {name}: {line}")
    counts: Dict[str, int] = {}
    for row in rows:
        counts[row[4]] = counts.get(row[4], 0) + 1
    print("  ".join(f"{verdict}: {n}" for verdict, n
                    in sorted(counts.items())))
    return 1 if any(counts.get(v) for v in FAILING) else 0


if __name__ == "__main__":
    sys.exit(main())
