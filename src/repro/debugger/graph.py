"""Tuple-version provenance graphs (Fig. 4, marker 6).

Clicking a tuple version in the debug panel shows "all past tuple
versions involved in the creation of this tuple (e.g., the previous
versions of a tuple modified by an update).  Each node in such a graph
represents a tuple version and edges denote derivation."

Nodes are ``(table, rowid, column)`` where column ``-1`` is the initial
state and column ``k ≥ 0`` is the state after statement ``k``; each
carries the panel's row for that state.  Edges map to ``(kind,
statement)``:

* ``update`` — the statement rewrote the row (previous version → new
  version);
* ``delete`` — the statement tombstoned the row;
* ``insert-source`` — for ``INSERT ... SELECT``, from the source tuple
  versions the inserted values were computed from;
* (unchanged rows produce no edge — the same node carries forward).

A graph is a value: :meth:`TransactionInspector.transaction_graph
<repro.debugger.inspector.TransactionInspector.transaction_graph>`
builds it once from the panel's prefix states, and a click
(:meth:`ProvenanceGraph.provenance_of`) is an ancestors walk over it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import ReenactmentError

if TYPE_CHECKING:
    from repro.debugger.inspector import TupleVersionView

#: node key type: (table, rowid, column_index)
NodeKey = Tuple[str, int, int]


@dataclass(frozen=True)
class ProvenanceGraph:
    """The derivation graph of one transaction, or a click's part of
    it."""

    #: node → the panel's row for that version
    nodes: Dict[NodeKey, TupleVersionView]
    #: ``(source, target)`` → ``(kind, statement index)``
    edges: Dict[Tuple[NodeKey, NodeKey], Tuple[str, int]]
    _predecessors: Dict[NodeKey, List[NodeKey]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        predecessors: Dict[NodeKey, List[NodeKey]] = {}
        for source, target in self.edges:
            predecessors.setdefault(target, []).append(source)
        object.__setattr__(self, "_predecessors", predecessors)

    def __contains__(self, key: NodeKey) -> bool:
        return key in self.nodes

    def predecessors(self, key: NodeKey) -> List[NodeKey]:
        return list(self._predecessors.get(key, ()))

    def provenance_of(self, table: str, rowid: int,
                      column: Optional[int] = None) -> "ProvenanceGraph":
        """The click action: the subgraph of everything the given tuple
        version was derived from (ancestors + the node itself).  Without
        ``column``, the row's latest version."""
        keep = {self._find(table, rowid, column)}
        frontier = list(keep)
        while frontier:
            for source in self._predecessors.get(frontier.pop(), ()):
                if source not in keep:
                    keep.add(source)
                    frontier.append(source)
        return ProvenanceGraph(
            {key: self.nodes[key] for key in self.nodes if key in keep},
            {edge: label for edge, label in self.edges.items()
             if edge[1] in keep})

    def _find(self, table: str, rowid: int,
              column: Optional[int]) -> NodeKey:
        if column is not None:
            key = (table, rowid, column)
            if key not in self.nodes:
                raise ReenactmentError(
                    f"no tuple version {table}[{rowid}] at column "
                    f"{column} in the provenance graph")
            return key
        columns = [key[2] for key in self.nodes
                   if key[0] == table and key[1] == rowid]
        if not columns:
            raise ReenactmentError(
                f"tuple {table}[{rowid}] does not appear in the "
                f"provenance graph")
        return (table, rowid, max(columns))
