"""Seeded inputs for the benchmark: recorded histories and op streams.

Nothing here imports the program.  A workload is a :class:`Spec` (its
fixed sizes and the reason it exists); :func:`history` turns a spec and
a seed into the SQL that records a transaction history, and
:func:`ops` into the stream of debugger operations (or, for
``record_write``, transactions) that the run times.  ``perf/drivers.py``
feeds both to the program.

Steadiness across seeds is by construction, not by luck.  What a
workload *does* belongs to the workload and is drawn from generators
seeded by its name: the shapes of its transactions (how many
statements each has, of which kinds, in which order — :func:`_shapes`)
and its op stream (which ops, on which transactions, the analyst's
walk, the what-if edits).  An op's cost follows these — a panel of
eight statements costs five times one of three, a ``DELETE`` more than
an ``INSERT``, a what-if fleet several reenactments — so percentiles over
a hundred ops would otherwise move by a fifth with the seed's luck of
the draw.  So is how the recording clients interleave: it sets how
many snapshots there are to cache.  The seed writes the *data* all
this runs on: the initial rows, which rows each statement touches, its
amounts and bounds.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Tuple

TABLE = "bench_account"
DDL = f"CREATE TABLE {TABLE} (id INT, owner TEXT, branch INT, bal INT)"
COLUMNS = ("id", "owner", "branch", "bal")
BRANCHES = 12
#: concurrent clients of the *recorded* history.  Each writes only the
#: branches congruent to its lane, so interleaved transactions never
#: conflict and every generated transaction commits.
LANES = 3
LOAD_BATCH = 500

#: the ``write_only`` statement mix of ``repro.workloads`` (60% update
#: of which 30% range over a branch, 25% insert, 15% delete) as a deck.
STATEMENT_DECK = ("upd",) * 8 + ("updb",) * 4 + ("ins",) * 5 + ("del",) * 3

#: the first ops of every stream are warm-up: run and verified, not
#: timed.  They are dealt apart from the timed ops, so that a timed
#: list of ``k`` decks (or ``k`` passes over the history) is exactly
#: that at every seed.
WARMUP_OPS = 5

SPARKLINE_TICKS = 24
FULL_TICKS = 4
WHATIF_VARIANTS = 3


@dataclass(frozen=True)
class Spec:
    """One workload: sizes, load shape and why it was chosen."""

    name: str
    why: str
    n_rows: int
    n_txns: int
    stmts: Tuple[int, int]
    #: isolation level of the recorded transactions; ``"alternate"``
    #: switches between the two per transaction.
    isolation: str = "SERIALIZABLE"
    #: length of the fixed op list one round times.  Latencies and
    #: counts are taken over whole rounds, so a faster program is
    #: measured on the same ops as a slower one.  A whole number of
    #: passes over the history, or of op-kind decks, so that every
    #: seed does the same amount of each kind of work.
    n_ops: int = 96
    clients: int = 1

    def scaled(self, scale: float) -> "Spec":
        """The same workload shrunk (the smoke test runs at 2%)."""
        if scale >= 1.0:
            return self
        rows = max(2 * BRANCHES, round(self.n_rows * scale))
        return replace(
            self, n_rows=rows - rows % BRANCHES,
            n_txns=max(2 * LANES, round(self.n_txns * scale))
            if self.n_txns else 0,
            n_ops=max(4, round(self.n_ops * scale)))


SPECS: Dict[str, Spec] = {spec.name: spec for spec in (
    Spec("panel_si_memory",
         "debug panel on the default in-memory backend: N+1 prefix "
         "compiles, so parse, plan build, optimizer and interpreter "
         "dominate and snapshots do almost nothing",
         n_rows=300, n_txns=72, stmts=(3, 8), n_ops=72),
    Spec("oneshot_si_sqlite",
         "cold one-shot reenactment on a large table: AS-OF snapshot "
         "read and full materialization dominate; bypasses every "
         "cache, delta and planner path",
         n_rows=4800, n_txns=48, stmts=(1, 4), n_ops=96),
    Spec("oneshot_rc_sqlite",
         "READ COMMITTED chains double the plan per statement: plan "
         "construction, optimizer, SQL generation and deep SQL "
         "dominate, storage reads do not",
         n_rows=600, n_txns=48, stmts=(2, 6),
         isolation="READ COMMITTED", n_ops=96),
    Spec("session_warm",
         "one long-lived SQLite session, cache of 8 against about 120 "
         "snapshot keys, random walk of reenact, what-if and timeline "
         "ops: stresses snapshot planning (reuse, delta, move, evict, "
         "window scan)",
         n_rows=1800, n_txns=60, stmts=(1, 4), n_ops=200),
    Spec("service_mixed",
         "two closed-loop clients on a two-worker service, 25% verbatim "
         "repeats: queue wait, result cache, dedup, spill and rehydrate "
         "under caches smaller than the working set; the memory "
         "workload",
         n_rows=1200, n_txns=96, stmts=(1, 4), n_ops=320, clients=2),
    Spec("record_write",
         "the recorded OLTP workload itself on a WAL with fsync on "
         "commit and a checkpoint every 150 commits: statement "
         "execution, MVCC commit, audit log and WAL dominate, "
         "reenactment does nothing",
         n_rows=1200, n_txns=0, stmts=(1, 4), isolation="alternate",
         n_ops=480),
)}


@dataclass(frozen=True)
class Stmt:
    """One generated DML statement, structured (for the write-path
    model in ``perf/verify.py``) and as the SQL the program sees."""

    kind: str          #: upd | updb | ins | del
    a: int             #: id (upd, del, ins) or branch (updb)
    b: int             #: delta (upd, updb), bal (ins) or bound (del)
    sql: str
    branch: int = 0    #: branch of an inserted row


@dataclass(frozen=True)
class Txn:
    name: str
    lane: int
    isolation: str
    statements: Tuple[Stmt, ...]


@dataclass
class History:
    load: List[str]
    txns: List[Txn]
    #: statement-level interleaving for ``HistorySimulator``.
    schedule: List[str]


@dataclass(frozen=True)
class Op:
    """One timed operation.  ``target`` indexes ``History.txns``;
    ``ticks`` index the history's commit timestamps in commit order."""

    kind: str
    target: Optional[int] = None
    options: Tuple[Tuple[str, bool], ...] = ()
    variants: Tuple[Tuple, ...] = ()
    ticks: Tuple[int, ...] = ()
    optimize: bool = True
    txn: Optional[Txn] = None
    repeat_of: Optional[int] = field(default=None, compare=False)


class _Deck:
    """Deals items in fixed proportions, reshuffling when empty."""

    def __init__(self, rng: random.Random, cards):
        self._rng = rng
        self._cards = tuple(cards)
        self._hand: List = []

    def deal(self):
        if not self._hand:
            self._hand = list(self._cards)
            self._rng.shuffle(self._hand)
        return self._hand.pop()


def _shapes(spec: Spec) -> Iterator[Tuple[str, ...]]:
    """The statement kinds of the workload's transactions, one tuple
    per transaction: lengths dealt from ``spec.stmts``, kinds from
    :data:`STATEMENT_DECK`.  Seeded by the workload's name, so every
    seed records the same shapes in the same order."""
    rng = random.Random(f"{spec.name}/shapes")
    lengths = _Deck(rng, range(spec.stmts[0], spec.stmts[1] + 1))
    kinds = _Deck(rng, STATEMENT_DECK)
    while True:
        yield tuple(kinds.deal() for _ in range(lengths.deal()))


class _Statements:
    """Statement generator over the initial ``1..n_rows`` ids."""

    def __init__(self, rng: random.Random, n_rows: int):
        self._rng = rng
        self._per_branch = n_rows // BRANCHES
        self._next_id = n_rows + 1

    def statement(self, kind: str, lane: Optional[int]) -> Stmt:
        rng = self._rng
        if lane is None:
            branch = rng.randrange(BRANCHES)
        else:
            branch = rng.randrange(BRANCHES // LANES) * LANES + lane
        rid = rng.randrange(self._per_branch) * BRANCHES + branch + 1
        if kind == "upd":
            delta = rng.randint(-100, 100)
            return Stmt(kind, rid, delta,
                        f"UPDATE {TABLE} SET bal = bal + {delta} "
                        f"WHERE id = {rid}")
        if kind == "updb":
            delta = rng.randint(-50, 50)
            return Stmt(kind, branch, delta,
                        f"UPDATE {TABLE} SET bal = bal + {delta} "
                        f"WHERE branch = {branch}")
        if kind == "ins":
            new_id = self._next_id
            self._next_id += 1
            bal = rng.randint(0, 1000)
            return Stmt(kind, new_id, bal,
                        f"INSERT INTO {TABLE} VALUES ({new_id}, "
                        f"'acct-{new_id}', {branch}, {bal})",
                        branch=branch)
        bound = rng.randint(0, 1000)
        return Stmt(kind, rid, bound,
                    f"DELETE FROM {TABLE} WHERE id = {rid} "
                    f"AND bal < {bound}")


def initial_rows(spec: Spec, seed: int) -> List[Tuple[int, str, int, int]]:
    rng = random.Random(f"{seed}/rows")
    return [(i, f"acct-{i}", (i - 1) % BRANCHES, rng.randint(0, 1000))
            for i in range(1, spec.n_rows + 1)]


def _isolation(spec: Spec, index: int) -> str:
    if spec.isolation == "alternate":
        return ("SERIALIZABLE", "READ COMMITTED")[index % 2]
    return spec.isolation


def history(spec: Spec, seed: int) -> History:
    """The recorded history: DDL, bulk load, ``n_txns`` transactions on
    ``LANES`` interleaved clients."""
    rows = initial_rows(spec, seed)
    load = [DDL]
    for start in range(0, len(rows), LOAD_BATCH):
        values = ", ".join(f"({i}, '{owner}', {branch}, {bal})"
                           for i, owner, branch, bal
                           in rows[start:start + LOAD_BATCH])
        load.append(f"INSERT INTO {TABLE} VALUES {values}")

    rng = random.Random(f"{seed}/history")
    statements = _Statements(rng, spec.n_rows)
    txns = []
    for index, shape in enumerate(itertools.islice(_shapes(spec),
                                                   spec.n_txns)):
        lane = index % LANES
        txns.append(Txn(f"T{index}", lane, _isolation(spec, index),
                        tuple(statements.statement(kind, lane)
                              for kind in shape)))

    # each lane runs its transactions back to back; lanes interleave
    # statement by statement (a slot per statement plus one to commit).
    # Who overlaps whom sets how many snapshots there are to cache and
    # how far apart: the workload's, like the shapes.
    turns = random.Random(f"{spec.name}/schedule")
    queues = [[t for t in txns if t.lane == lane] for lane in range(LANES)]
    current: List[Optional[Txn]] = [None] * LANES
    slots = [0] * LANES
    schedule: List[str] = []
    while True:
        live = [lane for lane in range(LANES)
                if current[lane] is not None or queues[lane]]
        if not live:
            break
        lane = turns.choice(live)
        if current[lane] is None:
            current[lane] = queues[lane].pop(0)
            slots[lane] = len(current[lane].statements) + 1
        schedule.append(current[lane].name)
        slots[lane] -= 1
        if slots[lane] == 0:
            current[lane] = None
    return History(load, txns, schedule)


# -- op streams -------------------------------------------------------------

#: every ``ReenactmentOptions`` combination a service reenact job may
#: carry (annotations stay on so the result can be verified).
_REENACT_OPTIONS = tuple(
    (("include_deleted", d), ("only_affected", a), ("optimize", o))
    for d in (True, False) for a in (False, True) for o in (True, False))
STRICT = _REENACT_OPTIONS[0]

#: session_warm op mix: 60% reenact, 15% what-if fleet, 15% sparkline,
#: 10% full timeline.
_SESSION_DECK = (("reenact",) * 12 + ("whatif",) * 3
                 + ("timeline_sparkline",) * 3 + ("timeline_full",) * 2)

#: service_mixed: 60 fresh jobs (50% reenact, 15% what-if, 20%
#: equivalence, 10% sparkline, 5% full) and 20 verbatim repeats per
#: block of 80, so exactly a quarter of the jobs repeat an earlier one.
SERVICE_BLOCK = (("reenact",) * 30 + ("whatif",) * 9
                 + ("equivalence",) * 12 + ("timeline_sparkline",) * 6
                 + ("timeline_full",) * 3 + ("repeat",) * 20)
SERVICE_REPEAT_SHARE = SERVICE_BLOCK.count("repeat") / len(SERVICE_BLOCK)
SERVICE_REPEAT_WINDOW = 128


def _variants(rng: random.Random, txn: Txn) -> Tuple[Tuple, ...]:
    """Declarative what-if edits of ``txn``, one of each form."""
    n = len(txn.statements)
    branch = rng.randrange(BRANCHES)
    out = [("v-insert", ("insert", rng.randrange(n + 1),
                         f"UPDATE {TABLE} SET bal = bal + "
                         f"{rng.randint(1, 99)} WHERE branch = {branch}")),
           ("v-replace", ("replace", rng.randrange(n),
                          f"UPDATE {TABLE} SET bal = bal - "
                          f"{rng.randint(1, 99)} WHERE id = "
                          f"{rng.randint(1, BRANCHES)}"))]
    if n > 1:
        out.append(("v-delete", ("delete", rng.randrange(n))))
    else:
        out.append(("v-append", ("insert", n,
                                 f"DELETE FROM {TABLE} WHERE id = "
                                 f"{rng.randint(1, BRANCHES)}")))
    return tuple(out[:WHATIF_VARIANTS])


def _window(rng: random.Random, n_txns: int, width: int) -> Tuple[int, ...]:
    width = min(width, n_txns)
    start = rng.randrange(n_txns - width + 1)
    return tuple(range(start, start + width))


def _targets(rng: random.Random, n: int) -> Iterator[int]:
    """Warm-up targets, then every transaction once per pass, each
    pass freshly shuffled."""
    for _ in range(WARMUP_OPS):
        yield rng.randrange(n)
    while True:
        order = list(range(n))
        rng.shuffle(order)
        yield from order


def _session_ops(rng: random.Random, hist: History) -> Iterator[Op]:
    n = len(hist.txns)
    kinds = _Deck(rng, _SESSION_DECK)
    position = rng.randrange(n)
    for count in itertools.count():
        if count == WARMUP_OPS:
            kinds = _Deck(rng, _SESSION_DECK)   # timed ops: whole decks
        position = min(n - 1, max(0, position + rng.randint(-3, 3)))
        kind = kinds.deal()
        if kind == "reenact":
            yield Op(kind, position, options=STRICT)
        elif kind == "whatif":
            yield Op(kind, position, options=STRICT,
                     variants=_variants(rng, hist.txns[position]))
        else:
            width = SPARKLINE_TICKS if kind == "timeline_sparkline" \
                else FULL_TICKS
            width = min(width, n)
            start = min(max(0, position - width // 2), n - width)
            yield Op(kind, ticks=tuple(range(start, start + width)))


def _service_ops(rng: random.Random, hist: History) -> Iterator[Op]:
    """Finite: stops when a pool of distinct (kind, target) jobs runs
    dry, so fresh jobs are drawn without replacement and the
    result-cache hit ratio is the declared repeat share."""
    n = len(hist.txns)
    reenacts = [(t, o) for t in range(n) for o in _REENACT_OPTIONS]
    equivalences = [(t, o) for t in range(n) for o in (True, False)]
    rng.shuffle(reenacts)
    rng.shuffle(equivalences)
    windows = set()
    issued: List[Op] = []
    while True:
        block = deque(SERVICE_BLOCK)
        rng.shuffle(block)
        while block:
            kind = block.popleft()
            if kind == "repeat" and not issued:
                block.append(kind)      # a repeat needs a past
                continue
            if kind == "repeat":
                # analysts re-issue *recent* requests: recent enough
                # to still be in the service's result cache
                source = len(issued) - 1 - rng.randrange(
                    min(len(issued), SERVICE_REPEAT_WINDOW))
                op = replace(issued[source], repeat_of=source)
            elif kind == "reenact":
                if not reenacts:
                    return
                target, options = reenacts.pop()
                op = Op(kind, target, options=options)
            elif kind == "equivalence":
                if not equivalences:
                    return
                target, optimize = equivalences.pop()
                op = Op(kind, target, optimize=optimize)
            elif kind == "whatif":
                target = rng.randrange(n)
                op = Op(kind, target, options=STRICT,
                        variants=_variants(rng, hist.txns[target]))
            else:
                width = SPARKLINE_TICKS if kind == "timeline_sparkline" \
                    else FULL_TICKS
                for _ in range(64):
                    ticks = _window(rng, n, width)
                    if (kind, ticks) not in windows:
                        break
                else:
                    return
                windows.add((kind, ticks))
                op = Op(kind, ticks=ticks)
            issued.append(op)
            yield op


def _write_ops(rng: random.Random, spec: Spec) -> Iterator[Op]:
    statements = _Statements(rng, spec.n_rows)
    for index, shape in enumerate(_shapes(spec)):
        txn = Txn(f"W{index}", 0, _isolation(spec, index),
                  tuple(statements.statement(kind, None)
                        for kind in shape))
        yield Op("commit", txn=txn)


def ops(spec: Spec, seed: int, hist: History) -> Iterator[Op]:
    """The op stream of a workload.  Only ``record_write``'s ops carry
    data, so only they depend on ``seed``."""
    if spec.name == "record_write":
        return _write_ops(random.Random(f"{seed}/ops"), spec)
    rng = random.Random(f"{spec.name}/ops")
    if spec.name == "session_warm":
        return _session_ops(rng, hist)
    if spec.name == "service_mixed":
        return _service_ops(rng, hist)
    kind = "panel" if spec.name == "panel_si_memory" else "reenact"
    return (Op(kind, target, options=STRICT)
            for target in _targets(rng, len(hist.txns)))
