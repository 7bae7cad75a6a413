#!/usr/bin/env python3
"""The repository benchmark.

Two ways in:

``python3 perf/run.py --workload W --seed N --seconds S --trace 0|1``
    One run of one workload: as many **rounds** as end within ``S``
    seconds (at least three).  A round is a timed set-up, five untimed
    warm-up ops and the workload's fixed, seeded op list; every round
    of a run does the same work, so each op of the list is run once
    per round, and its latency is the fastest of those replicas (the
    median, on a workload with several clients).
    ``--trace 0`` is the **measured run**: nothing installed — the
    end-to-end metrics.  ``--trace 1`` alternates untraced rounds
    (always-on counters, per-kind medians, reference op time) with
    **traced** rounds under the ``perf/layers.py`` wrappers — the
    per-layer metrics.
    The last line of standard output is one JSON object with
    ``correct``, ``attempted``, ``failed`` and ``metrics``.

``python3 perf/run.py [--seed N] [--workload W ...]``
    Every workload (or those named), measured then traced (for half as
    long: per-layer numbers carry no bound), each in its own
    subprocess; prints every metric by name with its unit and
    writes ``perf/results/<run-id>.json``.

Every op is verified against recorded history (``perf/verify.py``)
outside its timer; an op that raises, exceeds 60 s or fails
verification counts in ``failed``.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perf import drivers, layers  # noqa: E402
from perf.workloads import SPECS, WARMUP_OPS, Spec  # noqa: E402

#: name and unit of every end-to-end metric (bounds: BENCHMARK.json).
END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_p95_ms", "ms"), ("cpu_ms_per_op", "ms"),
              ("peak_rss_mb", "MiB"))
#: a measured run makes at least this many rounds
MIN_ROUNDS = 3
DEFAULT_SECONDS = 30


@dataclass
class OpRecord:
    index: int
    kind: str
    wall: float
    thread: int
    error: Optional[str]


@dataclass
class Round:
    """One pass over the workload's fixed op list, on a freshly
    recorded history."""

    setup_s: float
    records: List[OpRecord] = field(default_factory=list)
    cpu_s: float = 0.0
    #: counter deltas over the pass
    counts: Dict[str, float] = field(default_factory=dict)
    selfcheck: str = "not run"
    #: what ``Driver.finish`` returned
    extras: Dict[str, object] = field(default_factory=dict)


def run_ops(drv: drivers.Driver, stream: Iterator, done: Round,
            tracer: Optional[layers.Tracer] = None) -> None:
    """Closed loop over the next ``spec.n_ops`` ops of ``stream``: each
    of ``spec.clients`` clients takes the next op when its previous one
    has returned."""
    spec = drv.spec
    ops = itertools.islice(stream, spec.n_ops)
    lock = threading.Lock()
    harness_cpu = [0.0]
    unsettled: List[Tuple] = []
    digest = drv.digest if tracer is None \
        else tracer.wrap(layers.DIGEST, drv.digest)
    drv.tracer = tracer
    base = drv.counters()

    def client() -> None:
        while True:
            with lock:
                index, op = next(ops, (None, None))
            if op is None:
                return
            if tracer is not None:
                tracer.begin_op(index)
            error = result = None
            start = time.perf_counter()
            try:
                result = digest(op, drv.run(op, index))
            except Exception as exc:  # the run goes on; the op failed
                error = f"raised {exc!r}"
            wall = time.perf_counter() - start
            if tracer is not None:
                tracer.end_op()
            if error is None and wall > drivers.OP_TIMEOUT_S:
                error = f"took {wall:.1f} s"
            record = OpRecord(index, op.kind, wall,
                              threading.get_ident(), error)
            if spec.clients == 1:
                settle(record, op, result)
            with lock:
                done.records.append(record)
                if spec.clients > 1:
                    unsettled.append((record, op, result))

    def settle(record: OpRecord, op, result) -> None:
        """Verify outside the op timer — at once with one client;
        with several, after the pass, so that verifying one client's
        result does not take the interpreter from the other's op."""
        cpu = time.thread_time()
        if record.error is None:
            record.error = _verify(drv, op, result, done)
        harness_cpu[0] += time.thread_time() - cpu

    cpu_began = time.process_time()
    if spec.clients == 1:
        client()
    else:
        threads = [threading.Thread(target=client, name=f"client-{i}")
                   for i in range(spec.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    done.cpu_s = time.process_time() - cpu_began - harness_cpu[0]
    now = drv.counters()
    done.counts = {k: now[k] - base.get(k, 0.0) for k in now}
    unsettled.sort(key=lambda item: item[0].index)
    for item in unsettled:
        settle(*item)
    done.records.sort(key=lambda r: r.index)


def _verify(drv, op, digest, done: Round) -> Optional[str]:
    """Ground truth, then — once per round — the negative self-check:
    damaged copies of a good result must be rejected."""
    try:
        problem = drv.verify(op, digest)
        if problem is None and done.selfcheck == "not run":
            damaged = drv.corrupted(digest)
            if damaged:
                passed = [d for d in damaged
                          if drv.verify(op, d) is None]
                done.selfcheck = "failed" if passed else "passed"
        return problem
    except Exception as exc:
        return f"verification raised {exc!r}"


def _warm_up(drv: drivers.Driver, stream: Iterator) -> None:
    for _ in range(WARMUP_OPS):
        index, op = next(stream)
        problem = drv.verify(op, drv.digest(op, drv.run(op, index)))
        if problem is not None:
            raise RuntimeError(f"warm-up op {index} failed: {problem}")


def _stride(spec: Spec) -> int:
    """Ops one round draws from the stream."""
    return WARMUP_OPS + spec.n_ops


def run_round(drv: drivers.Driver, number: int,
              tracer: Optional[layers.Tracer] = None) -> Round:
    """Timed set-up, untimed warm-up, the op list (under ``tracer``'s
    wrappers if given), the end-of-round checks."""
    gc.collect()
    began = time.perf_counter()
    drv.setup()
    done = Round(setup_s=time.perf_counter() - began)
    try:
        # op ids are unique over the run, so that the spans of two
        # rounds stay apart
        stream = enumerate(drv.stream(), start=number * _stride(drv.spec))
        _warm_up(drv, stream)
        if tracer is not None:
            tracer.install(drv.live_classes())
        # The recorded history is long-lived.  Left alone, the cyclic
        # collector re-scans all of it every few thousand allocations:
        # a 12-15 ms pause on whichever op crosses the threshold, which
        # op being a matter of the seed.  Frozen, it is left out of the
        # scans; what the ops allocate is collected as ever.
        gc.collect()
        gc.freeze()
        try:
            run_ops(drv, stream, done, tracer)
        finally:
            gc.unfreeze()
            if tracer is not None:
                tracer.uninstall()
        done.extras = drv.finish()
    finally:
        drv.close()
    return done


def run_rounds(drv: drivers.Driver, seconds: float, least: int,
               tracer: Optional[layers.Tracer] = None) -> List[Round]:
    """As many rounds as end within ``seconds``, ``least`` at the
    least.  Every round does the same work — same history, same op
    list — so a faster program is timed on more replicas of it, never
    on later, different ops.  With a ``tracer``, odd rounds run
    traced."""
    rounds: List[Round] = []
    began = time.perf_counter()
    while True:
        number = len(rounds)
        rounds.append(run_round(drv, number,
                                tracer if number % 2 else None))
        spent = time.perf_counter() - began
        if len(rounds) >= least and \
                spent + spent / len(rounds) > seconds:
            return rounds


def _records(rounds: List[Round]) -> List[OpRecord]:
    return [record for done in rounds for record in done.records]


def typical(spec: Spec):
    """How a run's replicas of one thing — an op, a set-up, a round's
    CPU time — become one number.  With one client the replicas are the
    same work, the shared host only ever adds to their time — a
    neighbour's burst, a slow fsync — and rarely to all of them, so the
    fastest is the closest to what the program costs.  With several
    clients they are not the same work: which jobs share a snapshot or
    coalesce depends on how the threads interleave, the fastest is a
    lucky interleaving, and the median is taken."""
    return min if spec.clients == 1 else statistics.median


def op_latencies_ms(spec: Spec, rounds: List[Round],
                    kind: Optional[str] = None) -> List[float]:
    """One latency per op of the list (of ``kind``, if given), from its
    replicas: every round ran that same op at that same place.  What
    the program itself does there (a checkpoint every 150 commits, an
    eviction) it does in every round, and that stays in."""
    pick = typical(spec)
    return [pick(r.wall for r in replicas) * 1e3
            for replicas in zip(*(done.records for done in rounds))
            if kind is None or replicas[0].kind == kind]


def measured_run(spec: Spec, seed: int, seconds: float, workdir: str
                 ) -> Dict:
    rounds = run_rounds(drivers.driver(spec, seed, workdir), seconds,
                        MIN_ROUNDS)
    records = _records(rounds)
    walls = op_latencies_ms(spec, rounds)
    ok = sum(1 for r in records if r.error is None) / len(records)
    setups = [done.setup_s for done in rounds]
    values = {
        "setup_s": typical(spec)(setups),
        "ops_per_s": ok * len(walls) * spec.clients / (sum(walls) / 1e3),
        "op_p50_ms": statistics.median(walls),
        "op_p95_ms": layers.percentile(walls, 95),
        "cpu_ms_per_op": typical(spec)(
            done.cpu_s for done in rounds) * 1e3 / len(walls),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return _report(rounds, values, END_TO_END, {
        "setup_samples_s": setups,
        "p95_ops_beyond": len(walls) - int(len(walls) * 0.95),
    })


def traced_run(spec: Spec, seed: int, seconds: float, workdir: str,
               spans_path: Optional[str] = None) -> Dict:
    # the exact counts and the kept plans come from the first traced
    # round: round 1
    first = range(_stride(spec) + WARMUP_OPS, 2 * _stride(spec))
    tracer = layers.Tracer(keep=first)
    rounds = run_rounds(drivers.driver(spec, seed, workdir), seconds, 2,
                        tracer)
    # even rounds ran untraced: counters, per-kind medians, reference
    # op time
    traced = _records(rounds[1::2])

    op_walls = {r.index: (r.wall, r.thread) for r in traced}
    values = layers.span_metrics(tracer, op_walls, first)
    values.update(layers.plan_probe(tracer, spec.n_ops))
    values["harness.missing_seams"] = float(len(tracer.missing))
    values.update(_count_metrics(rounds[0].counts, spec.n_ops))
    values["db.wal.recover_s"] = statistics.median(
        done.extras.get("db.wal.recover_s", 0.0) for done in rounds)
    for kind in layers.KINDS:
        walls = op_latencies_ms(spec, rounds[0::2], kind)
        values[f"kind.{kind}.p50_ms"] = \
            statistics.median(walls) if walls else 0.0
    values["harness.trace_overhead_pct"] = 100.0 * (
        sum(op_latencies_ms(spec, rounds[1::2]))
        / sum(op_latencies_ms(spec, rounds[0::2])) - 1.0)

    problems = []
    self_times = layers.op_self_times(tracer.spans)
    overrun = [index for index, (wall, _) in op_walls.items()
               if self_times.get(index, 0.0) > wall * 1.001 + 1e-6]
    if overrun:
        problems.append(
            f"self times exceed op wall time on ops {overrun[:5]}")
    if spans_path is not None:
        with open(spans_path, "w") as out:
            for record in tracer.records():
                out.write(json.dumps(record) + "\n")
    return _report(
        rounds, values,
        tuple((m.name, m.unit) for m in layers.PER_LAYER),
        {"missing_seams": tracer.missing, "spans": len(tracer.spans),
         "traced_ops": len(traced), "counts_over_ops": spec.n_ops},
        problems)


def _count_metrics(counts: Dict[str, float], n_ops: int
                   ) -> Dict[str, float]:
    """Per-layer counts from the always-on stats, over one untraced
    round of ``n_ops`` timed ops."""
    get = lambda name: counts.get(name, 0.0)  # noqa: E731
    out = {f"backends.{name}": get(f"backends.{name}")
           for name in layers.SESSION_COUNTS}
    reused = get("backends.snapshots_reused")
    built = get("backends.snapshots_materialized")
    out["backends.snapshot_reuse_ratio"] = \
        reused / (reused + built) if reused + built else 0.0
    commits = float(n_ops)
    out["db.wal.checkpoints"] = get("db.wal.checkpoints")
    out["db.wal.bytes_per_commit"] = get("db.wal.bytes_appended") / commits
    out["db.wal.records_per_commit"] = \
        get("db.wal.records_appended") / commits
    out["db.wal.fsyncs_per_commit"] = get("db.wal.fsyncs") / commits
    for name in ("service.store.spills", "service.store.rehydrations",
                 "service.jobs_deduplicated"):
        out[name] = get(name)
    submitted = get("service.jobs_submitted")
    out["service.result_cache_hit_ratio"] = \
        get("service.jobs_from_cache") / submitted if submitted else 0.0
    return out


def _report(rounds: List[Round], values: Dict, declared, detail: Dict,
            problems: Optional[List[str]] = None) -> Dict:
    problems = list(problems or [])
    for done in rounds:
        problems += done.extras["problems"]
    order = ("failed", "not run", "passed")
    selfcheck = min((done.selfcheck for done in rounds), key=order.index)
    if selfcheck != "passed":
        problems.append(f"negative self-check {selfcheck}")
    records = _records(rounds)
    failed = [r for r in records if r.error is not None]
    # a seam that no longer resolves reads 0.0 on the result line
    # (``harness.missing_seams`` says so); the detail keeps the null
    metrics = {name: {"value": values[name]
                      if values.get(name) is not None else 0.0,
                      "unit": unit}
               for name, unit in declared}
    return {
        "result": {"correct": not failed and not problems,
                   "attempted": len(records),
                   "failed": len(failed), "metrics": metrics},
        "detail": dict(detail, rounds=len(rounds), problems=problems,
                       unresolved=[name for name, _ in declared
                                   if values.get(name) is None],
                       failures=[f"op {r.index} ({r.kind}): {r.error}"
                                 for r in failed[:10]],
                       selfcheck=selfcheck),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: float = 1.0, spans_path: Optional[str] = None
                 ) -> Dict:
    """One run, in this process.  Returns ``{"result", "detail"}``."""
    spec = SPECS[name].scaled(scale)
    os.makedirs(os.path.join(ROOT, "perf", ".work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(
        ROOT, "perf", ".work"))
    # the program's own temporary files (spill store, SQLite temp
    # tables) stay inside the checkout too
    saved = os.environ.get("TMPDIR"), tempfile.tempdir
    os.environ["TMPDIR"] = tempfile.tempdir = workdir
    try:
        if trace:
            return traced_run(spec, seed, seconds, workdir, spans_path)
        return measured_run(spec, seed, seconds, workdir)
    finally:
        tempfile.tempdir = saved[1]
        if saved[0] is None:
            del os.environ["TMPDIR"]
        else:
            os.environ["TMPDIR"] = saved[0]
        shutil.rmtree(workdir, ignore_errors=True)


# -- command line -------------------------------------------------------------

def _print_metrics(title: str, report: Dict) -> None:
    result, detail = report["result"], report["detail"]
    print(f"== {title}: attempted {result['attempted']}, failed "
          f"{result['failed']}, correct {result['correct']}, "
          f"self-check {detail['selfcheck']}")
    for name, entry in result["metrics"].items():
        note = "  (unresolved seam)" if name in detail["unresolved"] else ""
        print(f"  {name:<42} {entry['value']:>14.4f} {entry['unit']}{note}")
    for line in detail["problems"] + detail["failures"]:
        print(f"  !! {line}")
    if detail.get("missing_seams"):
        print(f"  missing seams: {', '.join(detail['missing_seams'])}")


def _single(args) -> int:
    report = run_workload(args.workload[0], args.seed, args.seconds,
                          bool(args.trace), spans_path=args.spans)
    _print_metrics(f"{args.workload[0]} seed {args.seed} "
                   f"trace {args.trace}", report)
    if args.detail:
        with open(args.detail, "w") as out:
            json.dump(report["detail"], out, indent=1)
    print(json.dumps(report["result"]))
    return 0


def _full(args) -> int:
    names = args.workload or list(SPECS)
    run_id = args.run_id or time.strftime(f"run-%Y%m%dT%H%M%S-seed{args.seed}")
    results_dir = os.path.join(ROOT, "perf", "results")
    spans_dir = os.path.join(results_dir, f"{run_id}.spans")
    os.makedirs(spans_dir, exist_ok=True)
    out = {"run_id": run_id, "seed": args.seed, "seconds": args.seconds,
           "workloads": {}}
    status = 0
    began = time.perf_counter()
    for name in names:
        entry = out["workloads"][name] = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = None
            detail_path = os.path.join(spans_dir, f"{name}.{key}.json")
            command = [sys.executable, os.path.abspath(__file__),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds / (1 + trace)),
                       "--trace", str(trace), "--detail", detail_path]
            if trace:
                command += ["--spans", os.path.join(
                    spans_dir, f"{name}.jsonl")]
            try:
                done = subprocess.run(command, capture_output=True,
                                      text=True, timeout=600)
                failure = f"exited {done.returncode}" \
                    if done.returncode else None
            except subprocess.TimeoutExpired:
                failure = "hung for 600 s"
            if failure is not None:
                # a lost workload does not lose the others' numbers
                if done is not None:
                    sys.stdout.write(done.stdout)
                    sys.stderr.write(done.stderr)
                print(f"!! {name} --trace {trace} {failure}")
                status = 1
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            with open(detail_path) as handle:
                detail = json.load(handle)
            os.remove(detail_path)
            _print_metrics(f"{name} ({key})",
                           {"result": result, "detail": detail})
            for metric in detail["unresolved"]:
                result["metrics"][metric]["value"] = None
            entry[key] = {n: m["value"]
                          for n, m in result["metrics"].items()}
            entry[f"{key}_run"] = {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"], **detail}
            if not result["correct"]:
                status = 1
    out["wall_s"] = time.perf_counter() - began
    path = os.path.join(results_dir, f"{run_id}.json")
    with open(path, "w") as handle:
        json.dump(out, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {os.path.relpath(path, ROOT)} "
          f"({out['wall_s']:.0f} s, spans in "
          f"{os.path.relpath(spans_dir, ROOT)})")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=list(SPECS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="with one --workload: 0 measured run, "
                             "1 traced run")
    parser.add_argument("--detail", help="write run detail (JSON) here")
    parser.add_argument("--spans", help="write the traced spans here")
    parser.add_argument("--run-id", help="name of the results file")
    args = parser.parse_args(argv)
    if args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            parser.error("--trace takes exactly one --workload")
        return _single(args)
    return _full(args)


if __name__ == "__main__":
    sys.exit(main())
