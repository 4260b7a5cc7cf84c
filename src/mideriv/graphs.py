"""Loop-free labeled multigraphs dual to diverse partitions.

A diverse partition of {1, 1, ..., n, n} places each index in exactly
two distinct blocks, so drawing one vertex per block and one edge per
index (joining the two blocks that contain it) yields a loop-free
multigraph with labeled edges.  The correspondence is a bijection; both
directions live here, along with a DOT serializer.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .partitions import Partition


@dataclass(frozen=True)
class LabeledMultigraph:
    """Multigraph with vertices 0..vertex_count-1 and one edge per label.

    Edges are stored as (u, v, label) with u < v, ordered by label.
    Labels must be exactly 1..n with no repeats; loops are rejected.
    """

    vertex_count: int
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        edges = []
        for e in self.edges:
            u, v, lab = (int(x) for x in e)
            if u == v:
                raise DomainError(f"edge with label {lab} is a loop at vertex {u}")
            edges.append((min(u, v), max(u, v), lab))
        edges.sort(key=lambda e: e[2])
        object.__setattr__(self, "edges", tuple(edges))
        if self.vertex_count < 1:
            raise DomainError(f"vertex_count={self.vertex_count}: need at least one vertex")
        labels = [lab for _, _, lab in self.edges]
        if labels != list(range(1, len(labels) + 1)):
            raise DomainError(
                f"edge labels {sorted(labels)} are not exactly 1..{len(labels)}"
            )
        for u, v, lab in self.edges:
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise DomainError(f"edge ({u}, {v}, {lab}) leaves vertices 0..{self.vertex_count - 1}")

    @property
    def n(self) -> int:
        """Number of edge labels."""
        return len(self.edges)


def partition_to_graph(partition: Partition) -> LabeledMultigraph:
    """Dual multigraph of a diverse partition.

    Vertex i is the i-th block of the canonical block order; the edge
    labeled j joins the two blocks containing index j.
    """
    if not partition.is_diverse:
        raise DomainError("partition is not diverse: some block repeats an index")
    where: dict[int, list[int]] = {}
    for vi, block in enumerate(partition.blocks):
        for idx in block:
            where.setdefault(idx, []).append(vi)
    edges = tuple((pair[0], pair[1], idx) for idx, pair in sorted(where.items()))
    return LabeledMultigraph(len(partition.blocks), edges)


def graph_to_partition(graph: LabeledMultigraph) -> Partition:
    """Inverse of :func:`partition_to_graph`.

    Each vertex becomes the block of labels incident to it.  Round trips
    are the identity on canonical forms.
    """
    blocks: list[list[int]] = [[] for _ in range(graph.vertex_count)]
    for u, v, lab in graph.edges:
        blocks[u].append(lab)
        blocks[v].append(lab)
    empty = [i for i, b in enumerate(blocks) if not b]
    if empty:
        raise DomainError(f"vertex {empty[0]} is isolated; every block must be nonempty")
    return Partition(tuple(tuple(b) for b in blocks))


def export_dot(graph: LabeledMultigraph, name: str = "partition") -> str:
    """DOT text for the multigraph: stable numbering, one edge per line."""
    lines = [f"graph {name} {{"]
    for v in range(graph.vertex_count):
        lines.append(f"  v{v};")
    for u, v, lab in graph.edges:
        lines.append(f'  v{u} -- v{v} [label="{lab}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
