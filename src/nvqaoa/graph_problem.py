"""MAX-CUT problem instances on small weighted graphs.

A candidate partition is a bit string over the vertices (vertex 0 first). The
cut value is the total weight of edges crossing the partition; the cost is its
negation, so lower is better and the best cost is ``-maxcut``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from ._bitstrings import BitString, as_bit_array, index_to_bits, iter_edges

# Dense enumeration and state vectors grow as 2**n; past this the library is
# the wrong tool anyway.
MAX_VERTICES = 24


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected weighted graph as a symmetric adjacency matrix with zero diagonal and a finite total weight."""

    num_vertices: int
    adjacency: np.ndarray

    def __post_init__(self):
        n = self.num_vertices
        if not isinstance(n, int) or n < 1:
            raise ValueError("graph needs at least one vertex")
        adj = np.array(self.adjacency, dtype=float)
        if adj.shape != (n, n):
            raise ValueError(f"adjacency must have shape ({n}, {n}), got {adj.shape}")
        if not np.all(np.isfinite(adj)):
            raise ValueError("edge weights must be finite")
        if np.any(adj < 0):
            raise ValueError("edge weights must be nonnegative")
        if np.any(np.diagonal(adj) != 0):
            raise ValueError("self loops are not allowed (diagonal must be zero)")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency matrix must be symmetric")
        adj.setflags(write=False)
        object.__setattr__(self, "adjacency", adj)
        if not math.isfinite(self.total_weight()):
            raise ValueError("total edge weight must be finite")

    @classmethod
    def from_edges(cls, num_vertices: int, edges: Iterable[Sequence[float]]) -> "Graph":
        """Build a graph from (u, v) or (u, v, weight) triples; weight defaults to 1.

        More than ``MAX_VERTICES`` vertices are refused before the adjacency
        matrix is made, so a graph file or manifest cannot ask for n^2 floats.
        """
        if num_vertices > MAX_VERTICES:
            raise ValueError(f"graph has {num_vertices} vertices; graphs are capped at {MAX_VERTICES}")
        adj = np.zeros((num_vertices, num_vertices))
        seen: set[tuple[int, int]] = set()
        for edge in edges:
            if len(edge) == 2:
                u, v = edge
                w = 1.0
            elif len(edge) == 3:
                u, v, w = edge
            else:
                raise ValueError(f"edge must be (u, v) or (u, v, w), got {tuple(edge)!r}")
            kinds = (Integral, Integral, Real)  # bool is an Integral, and True would pass for vertex or weight 1
            if not all(isinstance(x, kind) and not isinstance(x, bool) for x, kind in zip(edge, kinds)):
                raise ValueError(f"edge {tuple(edge)!r} needs integer vertices and a real weight")
            u, v = int(u), int(v)
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise ValueError(f"edge ({u}, {v}) references a vertex outside 0..{num_vertices - 1}")
            if u == v:
                raise ValueError(f"self loop on vertex {u} is not allowed")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add(key)
            adj[u, v] = adj[v, u] = float(w)
        return cls(num_vertices, adj)

    @classmethod
    def complete(cls, num_vertices: int, weight: float = 1.0) -> "Graph":
        adj = np.full((num_vertices, num_vertices), float(weight))
        np.fill_diagonal(adj, 0.0)
        return cls(num_vertices, adj)

    def total_weight(self) -> float:
        """Sum of the edge weights, the largest cut value any partition can reach."""
        return sum((w for _, _, w in self.edges()), 0.0)

    def edges(self) -> list[tuple[int, int, float]]:
        """Edges as (i, j, weight) with i < j, ascending."""
        return list(iter_edges(self.adjacency))


@dataclass(frozen=True)
class CutReport:
    """Brute-force search result: every optimal string plus the full cost table."""

    best_strings: tuple[str, ...]
    best_cost: float
    cost_table: dict[str, float]


def cut_value(graph: Graph, bits: BitString) -> float:
    """Total weight of edges whose endpoints land on opposite sides of the partition."""
    x = as_bit_array(bits, graph.num_vertices).astype(float)
    iu, ju = np.triu_indices(graph.num_vertices, k=1)
    xi, xj = x[iu], x[ju]
    return float(np.sum(graph.adjacency[iu, ju] * (xi + xj - 2.0 * xi * xj)))


def cost(graph: Graph, bits: BitString) -> float:
    """Negated cut value: the quantity the variational search minimizes; an uncut partition costs +0."""
    return 0.0 - cut_value(graph, bits)


def brute_force(graph: Graph) -> CutReport:
    """Enumerate every partition, independently of the vectorized cost table."""
    n = graph.num_vertices
    if n > MAX_VERTICES:
        raise ValueError(f"brute force capped at {MAX_VERTICES} vertices, got {n}")
    table = {index_to_bits(k, n): cost(graph, index_to_bits(k, n)) for k in range(1 << n)}
    best_cost = min(table.values())
    best = tuple(sorted(s for s, c in table.items() if c == best_cost))
    return CutReport(best_strings=best, best_cost=best_cost, cost_table=table)


def diagonal_costs(graph: Graph) -> np.ndarray:
    """Cost of every basis state as a length-2**n vector (the diagonal cost operator).

    Vertex 0 is the most significant bit of the basis index, matching the
    state-vector convention. Moving every vertex to the other side cuts the
    same edges, and it maps index z to 2^n - 1 - z, so the table equals its
    reverse: the half with vertex 0 on side 0 is summed, and the other half is
    its mirror, each entry the same edge-order sum.
    """
    n = graph.num_vertices
    if n > MAX_VERTICES:
        raise ValueError(f"diagonal cost table capped at {MAX_VERTICES} vertices, got {n}")
    idx = np.arange(1 << (n - 1), dtype=np.int64)
    # w times a 0 or 1 of any integer type is the same double, so uint8 bits keep every sum bit for bit
    bits = [((idx >> (n - 1 - v)) & 1).astype(np.uint8) for v in range(n)]
    half = np.zeros(idx.size)
    for i, j, w in graph.edges():
        half -= w * (bits[i] ^ bits[j])
    return np.concatenate((half, half[::-1]))


def parse_graph(text: str) -> Graph:
    """Parse the plain-text graph format.

    First non-comment line is ``n <num_vertices>``; each following line is
    ``u v [weight]`` with 0-based vertex indices. ``#`` starts a comment.
    """
    num_vertices: int | None = None
    edges: list[tuple[int, int, float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if num_vertices is None:
            if len(fields) != 2 or fields[0] != "n":
                raise ValueError(f"line {lineno}: expected header 'n <num_vertices>', got {line!r}")
            try:
                num_vertices = int(fields[1])
            except ValueError:
                raise ValueError(f"line {lineno}: vertex count must be an integer, got {fields[1]!r}") from None
            continue
        if len(fields) not in (2, 3):
            raise ValueError(f"line {lineno}: expected 'u v [weight]', got {line!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
            w = float(fields[2]) if len(fields) == 3 else 1.0
        except ValueError:
            raise ValueError(f"line {lineno}: malformed edge {line!r}") from None
        edges.append((u, v, w))
    if num_vertices is None:
        raise ValueError("graph file has no 'n <num_vertices>' header")
    try:
        return Graph.from_edges(num_vertices, edges)
    except ValueError as exc:
        raise ValueError(f"invalid graph: {exc}") from None


def load_graph(path) -> Graph:
    return parse_graph(Path(path).read_text())
