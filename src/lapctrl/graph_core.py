"""Undirected simple graphs, degree-sequence algebra, and Laplacian assembly.

Vertices are 1-indexed everywhere, including the JSON and DOT formats.
Generators return vertices in a fixed, meaningful order: antiregular graphs
are listed by nonincreasing degree, so vertex 1 is the dominating vertex and
vertex k the terminal one. Downstream index conventions (the degree-repeating
pair, composite vertices, chain junctions) rely on that ordering, so it is a
contract of this module, not an accident of construction.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Graph",
    "DegreeSequence",
    "gen_path",
    "gen_antiregular",
    "gen_threshold",
    "gen_complete",
    "random_connected_graph",
    "degree_sequence",
    "conjugate",
    "trace_of",
    "is_graphical",
    "laplacian",
    "is_connected",
    "graph_to_json",
    "graph_from_json",
    "graph_to_dot",
]


def _integer(x, what: str = "vertex labels") -> int:
    """A vertex label, order or count as a Python int; bool, float and str
    are a ValueError that names what x is."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise ValueError(f"{what} must be integers, got {x!r}")
    return int(x)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 1..n with canonical (u < v) edges."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _integer(self.n, "vertex counts"))
        if self.n < 1:
            raise ValueError(f"vertex count must be a positive integer, got {self.n!r}")
        if not isinstance(self.edges, frozenset):
            object.__setattr__(self, "edges", frozenset(self.edges))
        for u, v in self.edges:
            if not (type(u) is int and type(v) is int and 1 <= u < v <= self.n):
                raise ValueError(f"edge {(u, v)!r} is not canonical for n={self.n}")

    @classmethod
    def from_edges(cls, n: int, pairs: Iterable[Sequence[int]]) -> "Graph":
        """Build a graph from arbitrary vertex pairs, canonicalizing to u < v.

        Duplicate pairs collapse; self-loops are rejected.
        """
        canon = set()
        for u, v in pairs:
            if type(u) is not int or type(v) is not int:
                u, v = _integer(u), _integer(v)
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            canon.add((v, u) if u > v else (u, v))
        return cls(n, frozenset(canon))

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def degrees(self) -> list[int]:
        """Degree of every vertex, in vertex order."""
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u - 1] += 1
            deg[v - 1] += 1
        return deg


class DegreeSequence(tuple):
    """Nonincreasing sequence of nonnegative vertex degrees."""

    __slots__ = ()

    def __new__(cls, d):
        self = super().__new__(cls, (int(x) for x in d))
        if not self:
            raise ValueError("degree sequence must be nonempty")
        if any(x < 0 for x in self):
            raise ValueError("degrees must be nonnegative")
        if any(self[i] < self[i + 1] for i in range(len(self) - 1)):
            raise ValueError("degree sequence must be nonincreasing")
        return self


def _as_degseq(d) -> DegreeSequence:
    return d if isinstance(d, DegreeSequence) else DegreeSequence(tuple(d))


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def gen_path(k: int) -> Graph:
    """Path on k >= 1 vertices with edges {i, i+1}."""
    k = _integer(k, "orders")
    if k < 1:
        raise ValueError("path needs at least one vertex")
    return Graph(k, frozenset((i, i + 1) for i in range(1, k)))


def gen_antiregular(k: int) -> Graph:
    """Antiregular graph on k >= 2 vertices, in nonincreasing degree order.

    Vertices i < j are adjacent exactly when i + j <= k + 1, which fills the
    upper-left anti-triangle of the adjacency matrix. Vertex 1 is dominating
    (degree k-1), vertex k is terminal (degree 1), and the single repeated
    degree value floor(k/2) sits at positions ceil(k/2) and ceil(k/2) + 1.
    """
    k = _integer(k, "orders")
    if k < 2:
        raise ValueError("antiregular graphs need at least two vertices")
    edges = [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1) if i + j <= k + 1]
    return Graph(k, frozenset(edges))


def gen_threshold(creation) -> Graph:
    """Threshold graph built from a creation word over {Join, Union}.

    Starts from a single vertex; each step adds one vertex, connected to every
    existing vertex on a Join and to none on a Union. ``creation`` may be a
    string like ``"UJUJ"`` or any iterable of step names; only the first
    letter of each step matters (``"J"``/``"join"``, ``"U"``/``"union"``,
    case-insensitive). The result has 1 + len(creation) vertices and is
    connected exactly when the final step is a Join.
    """
    steps = []
    for raw in creation:
        tag = str(raw)[:1].upper()
        if tag not in ("J", "U"):
            raise ValueError(f"creation steps must be Join or Union, got {raw!r}")
        steps.append(tag)
    if not steps:
        raise ValueError("creation word must be nonempty")
    edges = []
    for t, tag in enumerate(steps, start=1):
        if tag == "J":
            edges.extend((u, t + 1) for u in range(1, t + 1))
    return Graph(len(steps) + 1, frozenset(edges))


def gen_complete(k: int) -> Graph:
    """Complete graph on k >= 1 vertices."""
    k = _integer(k, "orders")
    if k < 1:
        raise ValueError("complete graph needs at least one vertex")
    return Graph(k, frozenset((i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)))


def random_connected_graph(k: int, rng: random.Random) -> Graph:
    """Random connected graph: a random attachment tree plus Bernoulli(0.3) extras."""
    k = _integer(k, "orders")
    if k < 1:
        raise ValueError("graph needs at least one vertex")
    edges = set()
    for v in range(2, k + 1):
        edges.add((rng.randint(1, v - 1), v))
    for u in range(1, k + 1):
        for v in range(u + 1, k + 1):
            if (u, v) not in edges and rng.random() < 0.3:
                edges.add((u, v))
    return Graph(k, frozenset(edges))


# ---------------------------------------------------------------------------
# degree-sequence algebra
# ---------------------------------------------------------------------------

def degree_sequence(g: Graph) -> DegreeSequence:
    """Vertex degrees of g, sorted nonincreasing."""
    return DegreeSequence(tuple(sorted(g.degrees(), reverse=True)))


def conjugate(d) -> DegreeSequence:
    """Conjugate sequence: entry i counts the degrees that are >= i."""
    d = _as_degseq(d)
    k = len(d)
    return DegreeSequence(tuple(sum(1 for x in d if x >= i) for i in range(1, k + 1)))


def trace_of(d) -> int:
    """Number of positions j with d_j >= j."""
    d = _as_degseq(d)
    return sum(1 for j, x in enumerate(d, start=1) if x >= j)


def is_graphical(d) -> bool:
    """Whether d is realizable as the degree sequence of a simple graph.

    Checks an even degree sum together with the partial-sum inequalities
    sum_{i<=j}(d_i + 1) <= sum_{i<=j} d*_i for every j up to the trace of d.
    Threshold graphs are exactly the sequences meeting every inequality with
    equality. The all-zero sequence is graphical (isolated vertices).
    """
    d = _as_degseq(d)
    if sum(d) % 2:
        return False
    dstar = conjugate(d)
    lhs = rhs = 0
    for j in range(trace_of(d)):
        lhs += d[j] + 1
        rhs += dstar[j]
        if lhs > rhs:
            return False
    return True


# ---------------------------------------------------------------------------
# matrices and connectivity
# ---------------------------------------------------------------------------

def laplacian(g: Graph) -> np.ndarray:
    """Laplacian L = D - A as an exact integer array."""
    ends = np.fromiter(itertools.chain.from_iterable(g.edges), dtype=np.intp,
                       count=2 * len(g.edges)) - 1
    L = np.zeros(g.n * g.n, dtype=np.int64)  # row-major, written by flat index
    L[ends[::2] * g.n + ends[1::2]] = L[ends[1::2] * g.n + ends[::2]] = -1
    L[::g.n + 1] = np.bincount(ends, minlength=g.n)
    return L.reshape(g.n, g.n)


def is_connected(g: Graph) -> bool:
    """True iff g has a single connected component."""
    adj: dict[int, list[int]] = {v: [] for v in range(1, g.n + 1)}
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {1}
    stack = [1]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def graph_to_json(g: Graph) -> str:
    """Canonical one-line JSON: {"n": ..., "edges": [[u, v], ...]} sorted."""
    payload = {"n": g.n, "edges": [[u, v] for u, v in g.sorted_edges()]}
    return json.dumps(payload)


def graph_from_json(text: str) -> Graph:
    """Parse the JSON graph format, canonicalizing the edge list."""
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"invalid graph JSON: {exc}") from exc
    if not isinstance(payload, dict) or "n" not in payload or "edges" not in payload:
        raise ValueError('graph JSON must be an object with "n" and "edges"')
    n, edges = payload["n"], payload["edges"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError('"n" must be an integer')
    if not isinstance(edges, list):
        raise ValueError('"edges" must be a list of [u, v] pairs')
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2):
            raise ValueError(f"malformed edge entry {e!r}")
    return Graph.from_edges(n, edges)


def graph_to_dot(g: Graph) -> str:
    """Single-line undirected DOT with sorted edges: graph { 1 -- 2; ... }.

    Isolated vertices are emitted as bare node statements so the vertex count
    survives the export.
    """
    covered = set()
    for u, v in g.edges:
        covered.add(u)
        covered.add(v)
    parts = [f"{v};" for v in range(1, g.n + 1) if v not in covered]
    parts.extend(f"{u} -- {v};" for u, v in g.sorted_edges())
    body = " ".join(parts)
    return f"graph {{ {body} }}" if body else "graph { }"
