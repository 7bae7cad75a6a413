"""ASCII rendering of the debugger panels.

The demo's GUI is a graphical view over the models in
:mod:`repro.debugger.timeline` and :mod:`repro.debugger.inspector`;
these renderers produce the same panels as text, so every figure of the
paper's §2 has a runnable equivalent (see ``examples/``).
"""

from __future__ import annotations

from typing import List

from repro.debugger.graph import NodeKey, ProvenanceGraph
from repro.debugger.inspector import TransactionInspector
from repro.debugger.timeline import TimelineRow, TransactionTimeline
from repro.obs.explain import render_explain


def render_timeline(timeline: TransactionTimeline,
                    width: int = 72) -> str:
    """Fig. 3: one row per transaction, statements as intervals."""
    if not timeline.rows:
        return "(empty timeline)"
    t0 = timeline.start_ts
    t1 = max(timeline.end_ts, t0 + 1)
    span = t1 - t0

    def x(ts: int) -> int:
        ts = min(max(ts, t0), t1)
        return round((ts - t0) * (width - 1) / span)

    lines = [f"time {t0} .. {t1}",
             "     " + "-" * width]
    for row in timeline.rows:
        canvas = [" "] * width
        begin = x(row.begin_ts)
        end = x(row.end_ts if row.end_ts is not None else t1)
        for i in range(begin, min(end + 1, width)):
            canvas[i] = "."
        for stmt in row.statements:
            # an open interval (still-active transaction's last
            # statement) runs to the view's right edge, like the row bar
            s = x(stmt.start)
            e = x(stmt.end) if stmt.end is not None else x(t1)
            for i in range(s, min(max(e, s + 1), width)):
                canvas[i] = "="
            if 0 <= s < width:
                canvas[s] = "|"
        marker = {"committed": "C", "aborted": "X", "active": "?"}
        if 0 <= end < width:
            canvas[end] = marker[row.status]
        label = f"T{row.xid:<3}"
        lines.append(f"{label} [" + "".join(canvas) + "]")
    lines.append("     " + "-" * width)
    lines.append("     | statement start   = statement running   "
                 "C commit   X abort")
    return "\n".join(lines)


def render_detail_panel(row: TimelineRow) -> str:
    """Fig. 3, marker 3: the transaction detail panel."""
    return row.detail()


def render_table_state(state, show_unaffected: bool,
                       max_rows: int = 30) -> str:
    headers = list(state.columns) + ["created by", ""]
    rows = []
    for view in state.visible_rows(show_unaffected)[:max_rows]:
        flags = []
        if view.deleted:
            flags.append("DELETED")
        elif view.affected:
            flags.append("*")
        rows.append([("NULL" if v is None else str(v))
                     for v in view.values]
                    + [f"T{view.creator_xid}", " ".join(flags)])
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "+" + "+".join("-" * (w + 2) for w in widths) + "+"
    lines = [sep, "|" + "|".join(
        f" {h.ljust(w)} " for h, w in zip(headers, widths)) + "|", sep]
    for row in rows:
        lines.append("|" + "|".join(
            f" {c.ljust(w)} " for c, w in zip(row, widths)) + "|")
    lines.append(sep)
    return "\n".join(lines)


def render_debug_panel(inspector: TransactionInspector,
                       max_rows: int = 30) -> str:
    """Fig. 4: one section per column (initial state + per statement),
    each showing the selected tables' states."""
    lines: List[str] = [
        f"=== Debug panel for transaction T{inspector.xid} "
        f"({inspector.record.isolation.value}) ===",
        f"affected-row filter: "
        f"{'off' if inspector.show_unaffected else 'on'}",
    ]
    for column in inspector.columns():
        if column.index < 0:
            lines.append("")
            lines.append("--- initial state "
                         "(as seen by the transaction) ---")
        else:
            lines.append("")
            lines.append(f"--- after statement [{column.index}] "
                         f"on {column.target} ---")
            lines.append(f"SQL: {column.sql}")
        for table in inspector.selected_tables:
            state = column.states[table]
            lines.append(f"{table}:")
            lines.append(render_table_state(
                state, inspector.show_unaffected, max_rows=max_rows))
    if inspector.last_explain:
        lines.append("")
        lines.append("--- snapshot planning "
                     "(why each materialization action was chosen) ---")
        lines.append(render_explain(inspector.last_explain))
    lines.append("")
    lines.append("(* = row version created by this transaction; click a "
                 "tuple for its provenance graph: render_graph("
                 "inspector.provenance_graph(table, rowid))")
    return "\n".join(lines)


def _version_label(graph: ProvenanceGraph, key: NodeKey) -> str:
    table, rowid, column = key
    view = graph.nodes[key]
    body = "DELETED" if view.deleted else \
        "(" + ", ".join(map(str, view.values)) + ")"
    when = "initial" if column < 0 else f"stmt {column}"
    return f"{table}[{rowid}] @{when}: {body}"


def render_graph(graph: ProvenanceGraph, indent: str = "") -> str:
    """Fig. 4, marker 6: one line per tuple version, the edges into it
    as arrows beneath."""
    lines: List[str] = []
    for key in sorted(graph.nodes):
        lines.append(f"{indent}{_version_label(graph, key)}  "
                     f"[created by T{graph.nodes[key].creator_xid}]")
        for pred in sorted(graph.predecessors(key)):
            kind, _statement = graph.edges[pred, key]
            lines.append(f"{indent}    <-[{kind}]- "
                         f"{_version_label(graph, pred)}")
    return "\n".join(lines)
