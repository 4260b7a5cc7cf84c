"""Loop-free multigraph duals of diverse partitions and DOT export."""
from __future__ import annotations

import re

import pytest

from mideriv.errors import DomainError
from mideriv.graphs import (
    LabeledMultigraph,
    export_dot,
    graph_to_partition,
    partition_to_graph,
)
from mideriv.partitions import Partition, enumerate_diverse


def _parse_dot(text: str):
    # tiny reader for the exported dialect: vertex lines and edge lines
    vertices = set()
    edges = []
    for line in text.splitlines():
        line = line.strip().rstrip(";")
        m = re.fullmatch(r"v(\d+) -- v(\d+) \[label=\"(\d+)\"\]", line)
        if m:
            edges.append((int(m.group(1)), int(m.group(2)), int(m.group(3))))
            continue
        m = re.fullmatch(r"v(\d+)", line)
        if m:
            vertices.add(int(m.group(1)))
    return vertices, edges


def test_round_trip_over_all_small_partitions():
    for n in range(1, 5):
        for part in enumerate_diverse(n):
            graph = partition_to_graph(part)
            assert graph_to_partition(graph) == part


def test_graphs_are_loop_free_with_one_edge_per_index():
    for part in enumerate_diverse(4):
        graph = partition_to_graph(part)
        labels = [e[2] for e in graph.edges]
        assert labels == [1, 2, 3, 4]
        assert all(u < v for u, v, _ in graph.edges)
        assert graph.vertex_count == len(part.blocks)


def test_dot_export_exact_text():
    part = Partition(((1, 2), (1, 2)))
    dot = export_dot(partition_to_graph(part), name="pair")
    assert dot == (
        'graph pair {\n'
        "  v0;\n"
        "  v1;\n"
        '  v0 -- v1 [label="1"];\n'
        '  v0 -- v1 [label="2"];\n'
        "}\n"
    )


def test_dot_export_parses_back_to_the_same_graph():
    for part in enumerate_diverse(3):
        graph = partition_to_graph(part)
        vertices, edges = _parse_dot(export_dot(graph))
        assert vertices == set(range(graph.vertex_count))
        assert sorted(edges, key=lambda e: e[2]) == sorted(
            [(u, v, lab) for u, v, lab in graph.edges], key=lambda e: e[2]
        )


def test_multigraph_validation():
    with pytest.raises(DomainError):
        LabeledMultigraph(2, ((0, 0, 1),))  # loop
    with pytest.raises(DomainError):
        LabeledMultigraph(2, ((0, 2, 1),))  # endpoint out of range
    with pytest.raises(DomainError):
        LabeledMultigraph(2, ((0, 1, 1), (0, 1, 1)))  # label reused
    with pytest.raises(DomainError):
        LabeledMultigraph(2, ((1, 0, 1),))  # endpoints swapped
    with pytest.raises(DomainError):
        LabeledMultigraph(3, ((0, 1, 2), (1, 2, 1)))  # labels out of order
    with pytest.raises(DomainError):
        LabeledMultigraph(2, ((0, 1.0, 1),))  # float endpoint would print as v1.0
    for count, edges, message in [
        (0, (), r"^vertex_count=0: need an integer >= 1"),
        (2, [(0, 1, 1)], "^edges: expected a tuple, got list"),
        (2, ((0, 1),), r"^edge \(0, 1\): expected a \(u, v, label\) tuple"),
        (2, ([0, 1, 1],), r"^edge \[0, 1, 1\]: expected a \(u, v, label\) tuple"),
    ]:
        with pytest.raises(DomainError, match=message):
            LabeledMultigraph(count, edges)


def test_graph_to_partition_rejects_isolated_vertex():
    graph = LabeledMultigraph(3, ((0, 1, 1), (0, 1, 2)))
    with pytest.raises(DomainError):
        graph_to_partition(graph)


def test_partition_to_graph_requires_diverse():
    lumped = Partition(((1, 1), (2, 2)))
    assert any(len(set(b)) < len(b) for b in lumped.blocks)
    with pytest.raises(DomainError, match="loop"):
        partition_to_graph(lumped)


def test_dot_export_takes_only_identifier_names():
    # "a b" once wrote `graph a b {` and "graph" wrote `graph graph {`,
    # neither of them DOT
    graph = partition_to_graph(Partition(((1, 2), (1, 2))))
    for name in ("partition", "p0", "p17", "_x", "Graph2", "edges", "strictly"):
        assert export_dot(graph, name=name).startswith(f"graph {name} {{\n")
    for name in ("a b", "", "0p", "p-1", "p{", 'a"b', "é", "graph", "Digraph", "SUBGRAPH", "node", "edge", "strict", None, 1):
        with pytest.raises(DomainError, match=rf"^name: expected a DOT identifier that is not a keyword, got {re.escape(repr(name))}$"):
            export_dot(graph, name=name)
