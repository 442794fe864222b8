"""Simulated Neo4j dialect.

Neo4j exposes execution plans for Cypher queries; the plan is a table of
operators (Figure 1 of the paper) with plan-level properties such as the
planner, runtime version, and total database accesses.  The supported Cypher
subset covers the workloads the paper uses (WDBench basic graph patterns and
the TPC-H rewrites): ``MATCH`` of a node pattern or a single relationship
pattern, ``WHERE`` property comparisons, ``RETURN`` items with ``count``/
``sum`` aggregation, ``ORDER BY`` and ``LIMIT``.

The operator vocabulary maps onto the paper's categories: node/relationship
scans are Producers or Joins (relationship scans recombine the two endpoint
tuples), ``Expand(All)`` is a Join, ``EagerAggregation`` is a Folder,
``Projection``/``ProduceResults`` are Projectors, and ``Filter``/``Sort`` are
Executors/Combinators.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.formats.json_emit import dumps_indented
from repro.dialects.base import ExplainOutput, SimulatedDBMS
from repro.errors import DialectError
from repro.storage.graph_store import GraphStore


@dataclass
class CypherQuery:
    """A parsed Cypher query (the supported subset)."""

    node_variable: Optional[str] = None
    node_label: Optional[str] = None
    rel_variable: Optional[str] = None
    rel_type: Optional[str] = None
    end_variable: Optional[str] = None
    end_label: Optional[str] = None
    directed: bool = True
    has_relationship: bool = False
    predicates: List[Tuple[str, str, str, Any]] = field(default_factory=list)
    return_items: List[str] = field(default_factory=list)
    aggregations: List[Tuple[str, str]] = field(default_factory=list)
    order_by: Optional[str] = None
    descending: bool = False
    limit: Optional[int] = None
    raw: str = ""


_MATCH_PATTERN = re.compile(
    r"MATCH\s*\((?P<v1>\w*)(?::(?P<l1>\w+))?\)"
    r"(?:\s*(?P<left><)?-\[(?P<rv>\w*)(?::(?P<rt>\w+))?\]-(?P<right>>)?\s*"
    r"\((?P<v2>\w*)(?::(?P<l2>\w+))?\))?",
    re.IGNORECASE,
)
_WHERE_PATTERN = re.compile(r"WHERE\s+(?P<where>.*?)(?:\s+RETURN\s)", re.IGNORECASE | re.DOTALL)
_RETURN_PATTERN = re.compile(
    r"RETURN\s+(?P<items>.*?)(?:\s+ORDER\s+BY\s+(?P<order>[\w.()]+)(?P<desc>\s+DESC)?)?"
    r"(?:\s+LIMIT\s+(?P<limit>\d+))?\s*$",
    re.IGNORECASE | re.DOTALL,
)
_PREDICATE_PATTERN = re.compile(
    r"(?P<var>\w+)\.(?P<prop>\w+)\s*(?P<op>=|<>|<=|>=|<|>|ENDS WITH|STARTS WITH|CONTAINS)\s*"
    r"(?P<value>'[^']*'|[-\d.]+)",
    re.IGNORECASE,
)
_AGG_PATTERN = re.compile(r"(?P<fn>count|sum|avg|min|max)\s*\(\s*(?P<arg>[\w.*]+)\s*\)", re.IGNORECASE)


def parse_cypher(query: str) -> CypherQuery:
    """Parse the supported Cypher subset into a :class:`CypherQuery`."""
    parsed = CypherQuery(raw=query)
    text = " ".join(query.strip().split())
    match = _MATCH_PATTERN.search(text)
    if not match:
        raise DialectError("neo4j", f"unsupported Cypher query: {query!r}")
    parsed.node_variable = match.group("v1") or None
    parsed.node_label = match.group("l1")
    if match.group("rv") is not None or match.group("rt") is not None or match.group("v2"):
        parsed.has_relationship = match.group("v2") is not None or bool(match.group("rv"))
    if match.group("v2") is not None:
        parsed.has_relationship = True
        parsed.rel_variable = match.group("rv") or None
        parsed.rel_type = match.group("rt")
        parsed.end_variable = match.group("v2") or None
        parsed.end_label = match.group("l2")
        parsed.directed = bool(match.group("right")) or bool(match.group("left"))
    where_match = _WHERE_PATTERN.search(text)
    if where_match:
        for predicate in _PREDICATE_PATTERN.finditer(where_match.group("where")):
            value_text = predicate.group("value")
            value: Any
            if value_text.startswith("'"):
                value = value_text.strip("'")
            else:
                value = float(value_text) if "." in value_text else int(value_text)
            parsed.predicates.append(
                (
                    predicate.group("var"),
                    predicate.group("prop"),
                    predicate.group("op").upper(),
                    value,
                )
            )
    return_match = _RETURN_PATTERN.search(text)
    if return_match:
        items = return_match.group("items")
        for aggregation in _AGG_PATTERN.finditer(items):
            parsed.aggregations.append(
                (aggregation.group("fn").lower(), aggregation.group("arg"))
            )
        parsed.return_items = [item.strip() for item in items.split(",")]
        if return_match.group("order"):
            parsed.order_by = return_match.group("order")
            parsed.descending = bool(return_match.group("desc"))
        if return_match.group("limit"):
            parsed.limit = int(return_match.group("limit"))
    return parsed


class Neo4jDialect(SimulatedDBMS):
    """The simulated Neo4j 5.6.0 instance."""

    name = "neo4j"
    version = "5.6.0"
    data_model = "graph"
    plan_formats = ("text", "json", "graph")
    default_format = "text"

    def __init__(self) -> None:
        self.store = GraphStore()

    # ------------------------------------------------------------------ execution

    def execute(self, statement: str) -> List[Dict[str, Any]]:
        """Execute a Cypher query and return result records."""
        query = parse_cypher(statement)
        bindings = self._match(query)
        bindings = [b for b in bindings if self._satisfies(b, query.predicates)]
        if query.aggregations:
            record: Dict[str, Any] = {}
            for function, argument in query.aggregations:
                values = [self._value(binding, argument) for binding in bindings]
                non_null = [value for value in values if value is not None]
                if function == "count":
                    record[f"{function}({argument})"] = len(bindings if argument == "*" else non_null)
                elif function == "sum":
                    record[f"{function}({argument})"] = sum(non_null) if non_null else 0
                elif function == "avg":
                    record[f"{function}({argument})"] = (
                        sum(non_null) / len(non_null) if non_null else None
                    )
                elif function == "min":
                    record[f"{function}({argument})"] = min(non_null) if non_null else None
                elif function == "max":
                    record[f"{function}({argument})"] = max(non_null) if non_null else None
            return [record]
        records = []
        for binding in bindings:
            record = {}
            for item in query.return_items:
                record[item] = self._value(binding, item)
            records.append(record)
        if query.order_by:
            records.sort(
                key=lambda r: (r.get(query.order_by) is None, r.get(query.order_by)),
                reverse=query.descending,
            )
        if query.limit is not None:
            records = records[: query.limit]
        return records

    def _match(self, query: CypherQuery) -> List[Dict[str, Any]]:
        bindings: List[Dict[str, Any]] = []
        if not query.has_relationship:
            for node in self.store.nodes(query.node_label):
                bindings.append({query.node_variable or "n": node})
            return bindings
        relationships = self.store.relationships(query.rel_type)
        for relationship in relationships:
            start = self.store.node(relationship.start)
            end = self.store.node(relationship.end)
            if query.node_label and query.node_label not in start.labels:
                continue
            if query.end_label and query.end_label not in end.labels:
                continue
            binding = {}
            if query.node_variable:
                binding[query.node_variable] = start
            if query.end_variable:
                binding[query.end_variable] = end
            if query.rel_variable:
                binding[query.rel_variable] = relationship
            bindings.append(binding)
        return bindings

    def _value(self, binding: Dict[str, Any], expression: str) -> Any:
        if expression == "*":
            return 1
        if "." in expression:
            variable, prop = expression.split(".", 1)
            entity = binding.get(variable)
            if entity is None:
                return None
            return entity.properties.get(prop)
        entity = binding.get(expression)
        if entity is None:
            return None
        return getattr(entity, "properties", None)

    def _satisfies(
        self, binding: Dict[str, Any], predicates: List[Tuple[str, str, str, Any]]
    ) -> bool:
        for variable, prop, operator, expected in predicates:
            entity = binding.get(variable)
            actual = entity.properties.get(prop) if entity is not None else None
            if actual is None:
                return False
            if operator == "=" and actual != expected:
                return False
            if operator == "<>" and actual == expected:
                return False
            if operator == "<" and not actual < expected:
                return False
            if operator == "<=" and not actual <= expected:
                return False
            if operator == ">" and not actual > expected:
                return False
            if operator == ">=" and not actual >= expected:
                return False
            if operator == "ENDS WITH" and not str(actual).endswith(str(expected)):
                return False
            if operator == "STARTS WITH" and not str(actual).startswith(str(expected)):
                return False
            if operator == "CONTAINS" and str(expected) not in str(actual):
                return False
        return True

    # ------------------------------------------------------------------ planning

    def build_plan(self, statement: str) -> List[Dict[str, Any]]:
        """Build the operator list (root first) for a Cypher query."""
        query = parse_cypher(statement)
        operators: List[Dict[str, Any]] = []

        # Leaf: how the pattern is located.
        predicate_vars = {variable for variable, _, _, _ in query.predicates}
        if query.has_relationship:
            if query.rel_variable in predicate_vars and any(
                op in {"ENDS WITH", "STARTS WITH", "CONTAINS"}
                for _, _, op, _ in query.predicates
            ):
                leaf = "UndirectedRelationshipIndexContainsScan"
            elif query.rel_type:
                leaf = (
                    "DirectedRelationshipTypeScan"
                    if query.directed
                    else "UndirectedRelationshipTypeScan"
                )
            else:
                leaf = "DirectedAllRelationshipsScan"
            operators.append({"Operator": leaf, "Details": query.rel_type or "[r]"})
            operators.append({"Operator": "Expand(All)", "Details": "(a)-->(b)"})
        else:
            indexed = query.node_label is not None and any(
                self.store.has_index(query.node_label, prop)
                for variable, prop, _, _ in query.predicates
                if variable == query.node_variable
            )
            if indexed:
                leaf = "NodeIndexSeek"
            elif query.node_label:
                leaf = "NodeByLabelScan"
            else:
                leaf = "AllNodesScan"
            operators.append({"Operator": leaf, "Details": query.node_label or "(n)"})
        if query.predicates:
            operators.append(
                {
                    "Operator": "Filter",
                    "Details": " AND ".join(
                        f"{variable}.{prop} {operator} {value!r}"
                        for variable, prop, operator, value in query.predicates
                    ),
                }
            )
        if query.aggregations:
            operators.append(
                {
                    "Operator": "EagerAggregation",
                    "Details": ", ".join(f"{fn}({arg})" for fn, arg in query.aggregations),
                }
            )
        else:
            operators.append(
                {"Operator": "Projection", "Details": ", ".join(query.return_items)}
            )
        if query.order_by:
            operators.append({"Operator": "Sort", "Details": query.order_by})
        if query.limit is not None:
            operators.append({"Operator": "Limit", "Details": str(query.limit)})
        operators.append({"Operator": "ProduceResults", "Details": ", ".join(query.return_items)})
        operators.reverse()  # Root (ProduceResults) first, as Neo4j prints it.
        estimated = max(self.store.node_count, self.store.relationship_count, 1)
        for position, operator in enumerate(operators):
            operator["EstimatedRows"] = max(estimated // (position + 1), 1)
        return operators

    # ------------------------------------------------------------------ explain

    def explain(
        self, statement: str, format: Optional[str] = None, analyze: bool = False
    ) -> ExplainOutput:
        chosen = self._check_format(format)
        operators = self.build_plan(statement)
        plan_properties = {
            "Planner": "COST",
            "Runtime": "PIPELINED",
            "Runtime version": self.version.rsplit(".", 1)[0],
            "Total database accesses": self.store.node_count + self.store.relationship_count,
            "Total allocated memory": 184,
        }
        if chosen == "json":
            text = dumps_indented({"plan": operators, "summary": plan_properties})
        elif chosen == "text":
            text = self._render_table(operators, plan_properties)
        else:
            text = self._render_graph(operators)
        return ExplainOutput(dbms=self.name, format=chosen, text=text, query=statement)

    def _render_table(
        self, operators: List[Dict[str, Any]], plan_properties: Dict[str, Any]
    ) -> str:
        lines = [f"Planner {plan_properties['Planner']}"]
        lines.append(f"Runtime version {plan_properties['Runtime version']}")
        header = f"| {'Operator':<45} | {'Details':<40} | {'Estimated Rows':>14} |"
        separator = "+" + "-" * (len(header) - 2) + "+"
        lines.extend([separator, header, separator])
        for operator in operators:
            lines.append(
                f"| +{operator['Operator']:<44} | {str(operator['Details'])[:40]:<40} | "
                f"{operator['EstimatedRows']:>14} |"
            )
        lines.append(separator)
        lines.append(
            f"Total database accesses: {plan_properties['Total database accesses']}, "
            f"total allocated memory: {plan_properties['Total allocated memory']}"
        )
        return "\n".join(lines)

    def _render_graph(self, operators: List[Dict[str, Any]]) -> str:
        lines = ["digraph neo4j_plan {", "  node [shape=box];"]
        for index, operator in enumerate(operators):
            lines.append(f'  n{index} [label="{operator["Operator"]}"];')
            if index > 0:
                lines.append(f"  n{index} -> n{index - 1};")
        lines.append("}")
        return "\n".join(lines)
