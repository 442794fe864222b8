"""A minimal property-graph store backing the simulated Neo4j dialect."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple


@dataclass
class GraphNode:
    """A labelled node with arbitrary properties."""

    node_id: int
    labels: Set[str] = field(default_factory=set)
    properties: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Relationship:
    """A directed, typed relationship between two nodes."""

    rel_id: int
    rel_type: str
    start: int
    end: int
    properties: Dict[str, Any] = field(default_factory=dict)


class GraphStore:
    """Nodes, relationships, and label/property indexes."""

    def __init__(self) -> None:
        self._nodes: Dict[int, GraphNode] = {}
        self._relationships: Dict[int, Relationship] = {}
        self._next_node_id = 1
        self._next_rel_id = 1
        #: (label, property) pairs that have an index.
        self.indexes: Set[Tuple[str, str]] = set()

    # -- mutation --------------------------------------------------------------

    def create_node(self, labels: Iterable[str], properties: Optional[Dict[str, Any]] = None) -> GraphNode:
        node = GraphNode(self._next_node_id, set(labels), dict(properties or {}))
        self._nodes[node.node_id] = node
        self._next_node_id += 1
        return node

    def create_relationship(
        self,
        start: int,
        rel_type: str,
        end: int,
        properties: Optional[Dict[str, Any]] = None,
    ) -> Relationship:
        relationship = Relationship(
            self._next_rel_id, rel_type, start, end, dict(properties or {})
        )
        self._relationships[relationship.rel_id] = relationship
        self._next_rel_id += 1
        return relationship

    def create_index(self, label: str, property_name: str) -> None:
        self.indexes.add((label, property_name))

    # -- access ------------------------------------------------------------------

    def nodes(self, label: Optional[str] = None) -> List[GraphNode]:
        if label is None:
            return list(self._nodes.values())
        return [node for node in self._nodes.values() if label in node.labels]

    def node(self, node_id: int) -> GraphNode:
        return self._nodes[node_id]

    def relationships(self, rel_type: Optional[str] = None) -> List[Relationship]:
        if rel_type is None:
            return list(self._relationships.values())
        return [rel for rel in self._relationships.values() if rel.rel_type == rel_type]

    def has_index(self, label: str, property_name: str) -> bool:
        return (label, property_name) in self.indexes

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def relationship_count(self) -> int:
        return len(self._relationships)
