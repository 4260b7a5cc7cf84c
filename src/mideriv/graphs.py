"""Loop-free labeled multigraphs dual to diverse partitions.

A diverse partition of {1, 1, ..., n, n} places each index in exactly
two distinct blocks, so drawing one vertex per block and one edge per
index (joining the two blocks that contain it) yields a loop-free
multigraph with labeled edges.  The correspondence is a bijection; both
directions live here, along with a DOT serializer.  A partition that
repeats an index inside a block would give that edge a loop, which the
multigraph constructor rejects.
"""
from __future__ import annotations

from functools import lru_cache

from .errors import DomainError, Frozen
from .partitions import Partition


class LabeledMultigraph(Frozen):
    """Multigraph with vertices 0..vertex_count-1 and one edge per label.

    Edges are taken exactly as stored: a tuple of (u, v, label) tuples of
    ints with 0 <= u < v < vertex_count, the i-th edge labeled i, so the
    labels run 1..n in order.  The constructor checks this and raises
    DomainError; it does not convert, swap or reorder anything.
    """

    vertex_count: int
    edges: tuple[tuple[int, int, int], ...]

    def __init__(self, vertex_count: int, edges: tuple[tuple[int, int, int], ...]) -> None:
        if type(vertex_count) is not int or vertex_count < 1:
            raise DomainError(f"vertex_count={vertex_count!r}: need an integer >= 1")
        if type(edges) is not tuple:
            raise DomainError(f"edges: expected a tuple, got {type(edges).__name__}")
        for label, edge in enumerate(edges, start=1):
            if type(edge) is not tuple or len(edge) != 3:
                raise DomainError(f"edge {edge!r}: expected a (u, v, label) tuple")
            u, v, lab = edge
            if not (type(u) is type(v) is type(lab) is int):
                raise DomainError(f"edge {edge!r}: entries must be ints")
            if u == v:
                raise DomainError(f"edge with label {lab} is a loop at vertex {u}")
            if lab != label:
                raise DomainError(f"edge {edge}: expected label {label}, labels run 1..n in order")
            if not 0 <= u < v < vertex_count:
                raise DomainError(f"edge {edge}: need 0 <= u < v < {vertex_count}")
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", edges)


def partition_to_graph(partition: Partition) -> LabeledMultigraph:
    """Dual multigraph of a diverse partition.

    Vertex i is the i-th block of the canonical block order; the edge
    labeled j joins the two blocks containing index j.  Blocks are
    visited in order, so each edge comes out as (u, v, j) with u <= v,
    and u == v (a repeated index, so not diverse) is rejected as a loop.
    """
    blocks = partition.blocks
    # coverage puts each index 1..n in exactly two places
    n = sum(map(len, blocks)) // 2
    first: list[int | None] = [None] * (n + 1)  # by label: the block it first sits in
    edges: list = [None] * n
    for vi, block in enumerate(blocks):
        for idx in block:
            u = first[idx]
            if u is None:
                first[idx] = vi
            else:
                edges[idx - 1] = (u, vi, idx)
    return LabeledMultigraph(len(blocks), tuple(edges))


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
    """DOT text for the multigraph: stable numbering, one edge per line.
    name must be a DOT identifier other than a keyword, else DomainError."""
    # an ASCII Python identifier is exactly [A-Za-z_][A-Za-z0-9_]*; DOT keywords match in any case
    ok = isinstance(name, str) and name.isascii() and name.isidentifier()
    if not ok or name.lower() in ("strict", "graph", "digraph", "subgraph", "node", "edge"):
        raise DomainError(f"name: expected a DOT identifier that is not a keyword, got {name!r}")
    edges = "".join(map(_edge_line, graph.edges))
    return f"graph {name} {{\n{_vertex_lines(graph.vertex_count)}{edges}}}\n"


# The graphs of one enumeration share their few vertex counts and edges,
# so each line is formatted once.
@lru_cache(maxsize=64)
def _vertex_lines(count: int) -> str:
    return "".join([f"  v{v};\n" for v in range(count)])


@lru_cache(maxsize=4096)
def _edge_line(edge: tuple[int, int, int]) -> str:
    u, v, lab = edge
    return f'  v{u} -- v{v} [label="{lab}"];\n'
