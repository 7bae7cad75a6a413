"""The transaction debugger: timeline (Fig. 3), debug panel (Fig. 4),
provenance-graph click action, and what-if entry points."""

from repro.debugger.graph import ProvenanceGraph
from repro.debugger.inspector import (DebugColumn, TableState,
                                      TransactionInspector,
                                      TupleVersionView)
from repro.debugger.render import (render_debug_panel,
                                   render_detail_panel, render_graph,
                                   render_table_state, render_timeline)
from repro.debugger.timeline import (StatementInterval, TimelineRow,
                                     TransactionTimeline)

__all__ = [
    "DebugColumn", "ProvenanceGraph", "TableState",
    "TransactionInspector", "TupleVersionView", "render_debug_panel",
    "render_detail_panel", "render_graph", "render_table_state",
    "render_timeline", "StatementInterval", "TimelineRow",
    "TransactionTimeline",
]
