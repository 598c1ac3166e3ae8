"""Interconnection schemes that preserve single-input controllability.

Three constructions live here, each with a theorem-backed predicate that the
test suite cross-checks against the exact Kalman oracle:

* composite graphs: k1 copies of a cell graph wired through one designated
  cell vertex s, so that those vertices alone form the structure graph; at
  the Laplacian level this is I (x) L2 + L1 (x) e_s e_s^T in the copy-major
  vertex order used throughout,
* antiregular chains: blocks in antiregular order, each linked from its
  dominating or terminal vertex into the next block's degree-repeating
  vertex,
* path appending: a path attached to any vertex of any graph.

Also here: the path-split predicate that tells where a path may be driven
from, and the block-1 input predicate for chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph_core import Graph, _integer, gen_antiregular, is_connected, laplacian
from .controllability import Verdict, _as_control, exact_verdicts, input_vector
from .spectral import default_gtol, eig_sym

__all__ = [
    "HypothesisNotMet",
    "OutOfSupport",
    "CompositeSpec",
    "ChainSpec",
    "composite",
    "predict_composite",
    "path_split_controllable",
    "chain_antiregular",
    "valid_chain_input",
    "append_path",
]


class HypothesisNotMet(ValueError):
    """A theorem-based prediction was asked where the theorem's premises fail."""


class OutOfSupport(ValueError):
    """The chain input theorem says nothing about this control vector."""


# ---------------------------------------------------------------------------
# composite graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompositeSpec:
    """Structure graph, cell graph, and the composite vertex s of the cell."""

    structure: Graph
    cell: Graph
    s: int

    def __post_init__(self) -> None:
        if not 1 <= _integer(self.s) <= self.cell.n:
            raise ValueError(f"composite vertex {self.s} out of range 1..{self.cell.n}")
        if not is_connected(self.structure) or not is_connected(self.cell):
            raise ValueError("structure and cell must both be connected")


def composite(spec: CompositeSpec) -> Graph:
    """Composite graph on k1*k2 vertices in copy-major order.

    Copy i of the cell occupies indices (i-1)k2+1 .. i*k2; every structure
    edge {i, j} becomes an edge between the composite vertices of copies i
    and j. The Laplacian of the result equals
    I (x) L_cell + L_structure (x) e_s e_s^T exactly.
    """
    k1, k2 = spec.structure.n, spec.cell.n
    edges = []
    for i in range(k1):
        off = i * k2
        edges.extend((off + u, off + v) for u, v in spec.cell.edges)
    edges.extend(((i - 1) * k2 + spec.s, (j - 1) * k2 + spec.s)
                 for i, j in spec.structure.edges)
    return Graph.from_edges(k1 * k2, edges)


def predict_composite(spec: CompositeSpec, w: int) -> Verdict:
    """Theorem-based verdict for the composite driven at copy w's vertex s.

    Requires the cell to be single-input controllable at s (checked with the
    exact oracle; HypothesisNotMet otherwise). Given that, the composite is
    controllable at input index (w-1)k2+s exactly when the structure is
    controllable at w, so the verdict is the structure's own, relabeled.
    Both premises, the cell at s and the structure at w, are decided in one
    exact_verdicts call.
    """
    k1, k2 = spec.structure.n, spec.cell.n
    if not 1 <= _integer(w) <= k1:
        raise ValueError(f"structure vertex {w} out of range 1..{k1}")
    cell, structure = exact_verdicts((laplacian(g), input_vector(g.n, [v]))
                                     for g, v in ((spec.cell, spec.s), (spec.structure, w)))
    if not cell.controllable:
        raise HypothesisNotMet(
            f"cell is not single-input controllable at vertex {spec.s} "
            f"(Kalman rank {cell.rank} of {k2})")
    return Verdict(controllable=structure.controllable, method="exact",
                   input_vertex=(w - 1) * k2 + spec.s)


# ---------------------------------------------------------------------------
# path splits
# ---------------------------------------------------------------------------

def path_split_controllable(k11: int, k12: int) -> bool:
    """Whether an input splitting a path into sides of k11 and k12 vertices
    controls it: true iff no class C_j = {j, j+(2j+1), j+2(2j+1), ...}
    (j >= 1) contains both side lengths. Since m is in C_j exactly when
    2j+1 divides 2m+1, that is gcd(2 k11 + 1, 2 k12 + 1) == 1."""
    if k11 < 0 or k12 < 0:
        raise ValueError("side lengths must be nonnegative")
    return math.gcd(2 * k11 + 1, 2 * k12 + 1) == 1


# ---------------------------------------------------------------------------
# antiregular chains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainSpec:
    """c antiregular blocks of order k2, one link choice per junction.

    links[i] says which vertex of block i+1 feeds junction i+1: "D" for the
    dominating vertex, "T" for the terminal one. The junction always lands
    on the next block's degree-repeating vertex ceil(k2/2).
    """

    c: int
    k2: int
    links: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "c", _integer(self.c, "block counts"))
        object.__setattr__(self, "k2", _integer(self.k2, "block orders"))
        if self.c < 1:
            raise ValueError("chain needs at least one block")
        if self.k2 < 2:
            raise ValueError("blocks need at least two vertices")
        normalized = []
        for raw in self.links:
            tag = str(raw)[:1].upper()
            if tag not in ("D", "T"):
                raise ValueError(f"links must be Dominating or Terminal, got {raw!r}")
            normalized.append(tag)
        object.__setattr__(self, "links", tuple(normalized))
        if len(self.links) != self.c - 1:
            raise ValueError(f"need {self.c - 1} links for {self.c} blocks, got {len(self.links)}")

    @property
    def kappa(self) -> int:
        """Index of the first degree-repeating vertex of a block: ceil(k2/2)."""
        return (self.k2 + 1) // 2


def chain_antiregular(spec: ChainSpec) -> Graph:
    """Chain of c antiregular blocks.

    Block i occupies indices (i-1)k2+1 .. i*k2 in antiregular vertex order.
    Junction i contributes one edge into block (i+1)'s degree-repeating
    vertex (global index i*k2 + kappa), leaving from block i's dominating
    vertex ((i-1)k2 + 1) on a "D" link or its terminal vertex (i*k2) on a
    "T" link. Each junction edge is exactly the rank-one Laplacian update
    z z^T with z the difference of the two endpoint indicators, so the
    Laplacian of the chain is I (x) L_block + sum_i z_i z_i^T.
    """
    block = gen_antiregular(spec.k2)
    edges = []
    for i in range(spec.c):
        off = i * spec.k2
        edges.extend((off + u, off + v) for u, v in block.edges)
    for i, link in enumerate(spec.links, start=1):
        into = i * spec.k2 + spec.kappa
        out = (i - 1) * spec.k2 + 1 if link == "D" else i * spec.k2
        edges.append((out, into))
    return Graph.from_edges(spec.c * spec.k2, edges)


def valid_chain_input(spec: ChainSpec, b) -> bool:
    """Input predicate for a single binary input into block 1 of a chain.

    The vector must vanish outside block 1 of the c*k2-vertex chain; the
    predicate is silent about other inputs, so those raise OutOfSupport.
    When the first junction leaves from the terminal vertex, the predicate
    also restricts block 1's k2-th entry to zero, and a 1 there is likewise
    out of reach. Within its domain, the base condition is that entries
    kappa and kappa+1 of the block-1 part sum to exactly 1 (an index past
    the restricted support counts as 0).

    The base condition alone over-predicts in one situation. Chain
    eigenvectors whose eigenvalue is not a block eigenvalue carry the
    block-1 pattern [(1-m)c, c, ..., c] (up to the k2-th entry, which the
    terminal variant keeps out of the input's support); such a vector
    annihilates an input with a set first entry exactly when the eigenvalue
    equals the input's popcount. With small blocks the chain spectrum can
    actually contain that integer: a 6-vertex path arises as a two-vertex
    chain with mixed junctions and has eigenvalues 1 and 2. The block
    spectrum is 0..k2 without kappa, so the predicate also requires, only
    when b_1 = 1 and popcount(b) = kappa, that kappa is no chain eigenvalue.
    The one exception is a two-vertex block whose first junction leaves
    from the terminal vertex: there the pattern above degenerates (its first
    two entries need not be proportional to (1-m) and 1), the screen would
    misfire, and the base condition alone is the correct test.
    """
    as_int = _as_control(b, spec.c * spec.k2)
    if as_int[spec.k2:].any():
        raise OutOfSupport("input reaches outside block 1; the theorem does not cover it")
    block1 = as_int[:spec.k2]
    if spec.links and spec.links[0] == "T" and block1[spec.k2 - 1]:
        raise OutOfSupport(
            "terminal-linked chain: the theorem covers only inputs with a "
            "zero k2-th entry in block 1")
    kap = spec.kappa
    if int(block1[kap - 1]) + int(block1[kap]) != 1:
        return False
    screened = spec.c > 1 and not (spec.k2 == 2 and spec.links[0] == "T")
    if screened and block1[0] and block1.sum() == kap:
        dec = eig_sym(laplacian(chain_antiregular(spec)))
        if np.any(np.abs(dec.values - kap) <= default_gtol(dec.values)):
            return False
    return True


def append_path(g: Graph, v: int, m: int) -> Graph:
    """Attach a dangling m-vertex path at vertex v.

    Path vertices take indices |g|+1 .. |g|+m, nearest first, so the far end
    of the path is the last vertex. m = 0 returns g unchanged.
    """
    if not 1 <= _integer(v) <= g.n:
        raise ValueError(f"vertex {v} out of range 1..{g.n}")
    m = _integer(m, "path lengths")
    if m < 0:
        raise ValueError("path length must be nonnegative")
    if m == 0:
        return g
    edges = list(g.edges)
    edges.append((v, g.n + 1))
    edges.extend((g.n + i, g.n + i + 1) for i in range(1, m))
    return Graph.from_edges(g.n + m, edges)

