"""Single-input Laplacian controllability decided three independent ways.

The exact Kalman oracle is the ground truth: fraction-free integer
elimination over the Krylov space of (L, B), immune to floating-point rank
decisions. The PBH eigenspace test produces certificates (a witness
eigenvector orthogonal to the inputs whenever it says "uncontrollable"),
and the finite-horizon Gramian gives a numeric energy reading. The test
suite holds all three to agreement.

Controllability here always means controllability of the consensus pair
(-L, B) for dx/dt = -L x + B u, which by the eigenvector criterion is the
same as for (L, B).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .graph_core import Graph, is_connected, laplacian
from .spectral import _check_square, _fix_signs, eig_sym, eigenspaces

__all__ = [
    "Verdict",
    "input_vector",
    "pbh_verdict",
    "kalman_rank_exact",
    "controllable_vertices",
    "gramian_check",
    "GRAMIAN_EIG_FLOOR",
]

GRAMIAN_EIG_FLOOR = 1e-24  # positivity threshold, times trace(W)/n
_PBH_TOL = 1e-8  # smallest singular value of Q^T B that covers an eigenspace


@dataclass(frozen=True)
class Verdict:
    """Controllability decision with its method tag.

    witness is only present on an uncontrollable PBH verdict: a unit
    eigenvector orthogonal to every input column. rank is only present on
    exact-oracle verdicts, min_eigenvalue only on Gramian ones. input_vertex
    records which single-input attachment the verdict refers to, when the
    caller supplied one.
    """

    controllable: bool
    method: str
    witness: np.ndarray | None = None
    rank: int | None = None
    witness_value: float | None = None
    min_eigenvalue: float | None = None
    input_vertex: int | None = None


def input_vector(n: int, vertices: Iterable[int]) -> np.ndarray:
    """Binary n-by-1 control matrix for one input wired to the given vertices."""
    b = np.zeros((n, 1), dtype=np.int64)
    hit = False
    for v in vertices:
        if not 1 <= v <= n:
            raise ValueError(f"input vertex {v} out of range 1..{n}")
        b[v - 1, 0] = 1
        hit = True
    if not hit:
        raise ValueError("an input must attach to at least one vertex")
    return b


def _as_control(b, n: int) -> np.ndarray:
    mat = np.asarray(b)
    if mat.ndim == 1:
        mat = mat.reshape(-1, 1)
    if mat.ndim != 2 or mat.shape[0] != n:
        raise ValueError(f"control matrix must have {n} rows, got shape {mat.shape}")
    as_int = mat.astype(np.int64)
    if not (np.asarray(mat, dtype=float) == as_int).all() or not np.isin(as_int, (0, 1)).all():
        raise ValueError("control matrix entries must be 0 or 1")
    if not as_int.any():
        raise ValueError("control matrix must have at least one nonzero entry")
    return as_int


# ---------------------------------------------------------------------------
# PBH eigenspace test
# ---------------------------------------------------------------------------

def pbh_verdict(L, B) -> Verdict:
    """Eigenvector test: controllable iff no eigenspace of L is orthogonal to
    the column space of B.

    L is decomposed once. For each eigenspace with orthonormal basis Q, the
    SVD of the projections C = Q^T B decides it: the space is covered iff C
    has as many singular values as Q has columns and the smallest exceeds
    1e-8. C C^T is never formed, so the dynamic range is never squared. A
    single input can never cover an eigenspace of dimension >= 2, since C
    then has one singular value. The returned witness is a unit eigenvector
    w = Q u (u the last left singular vector of C), with ||L w - lambda w||_inf
    and |w^T b| both below 1e-8.
    """
    Lmat = _check_square(L)
    n = Lmat.shape[0]
    Bf = _as_control(B, n).astype(float)

    for space in eigenspaces(eig_sym(Lmat)):
        Q = space.basis
        u, s, _ = np.linalg.svd(Q.T @ Bf)
        if len(s) == Q.shape[1] and s[-1] > _PBH_TOL:
            continue
        witness = Q @ u[:, -1:]
        witness = _fix_signs(witness / np.linalg.norm(witness))[:, 0]
        return Verdict(controllable=False, method="pbh",
                       witness=witness, witness_value=space.value)
    return Verdict(controllable=True, method="pbh")


# ---------------------------------------------------------------------------
# exact Kalman rank
# ---------------------------------------------------------------------------

def kalman_rank_exact(L, B) -> int:
    """Rank of the Kalman matrix [B, LB, ..., L^{n-1}B] over the rationals.

    All arithmetic is exact. Candidate columns are reduced against stored
    pivot vectors by integer cross-multiplication, then normalized by their
    gcd to keep the entries small; the Krylov generation is incremental and
    stops as soon as one full round adds no new direction, because the span
    is then L-invariant and higher powers cannot enlarge it.
    """
    Lmat = _check_square(L)
    n = Lmat.shape[0]
    as_int = Lmat.astype(np.int64)
    if not (np.asarray(Lmat, dtype=float) == as_int).all():
        raise ValueError("exact rank needs an integer matrix")
    Bmat = _as_control(B, n)

    rows = [[int(x) for x in row] for row in as_int]
    pivots: list[tuple[int, list[int]]] = []

    def reduce_against_pivots(vec: list[int]) -> list[int] | None:
        v = vec
        for pos, pivot in pivots:
            if v[pos]:
                a, b = pivot[pos], v[pos]
                v = [a * x - b * y for x, y in zip(v, pivot)]
        if not any(v):
            return None
        g = 0
        for x in v:
            g = math.gcd(g, x)
        v = [x // g for x in v]
        pos = next(i for i, x in enumerate(v) if x)
        if v[pos] < 0:
            v = [-x for x in v]
        pivots.append((pos, v))
        return v

    frontier: list[list[int]] = []
    for col in range(Bmat.shape[1]):
        reduced = reduce_against_pivots([int(x) for x in Bmat[:, col]])
        if reduced is not None:
            frontier.append(reduced)
    while frontier and len(pivots) < n:
        next_frontier = []
        for vec in frontier:
            image = [sum(r * x for r, x in zip(row, vec)) for row in rows]
            reduced = reduce_against_pivots(image)
            if reduced is not None:
                next_frontier.append(reduced)
        frontier = next_frontier
    return len(pivots)


def controllable_vertices(g: Graph) -> set[int]:
    """Vertices v of a connected graph where a single input at v controls it."""
    if not is_connected(g):
        raise ValueError("controllable_vertices needs a connected graph")
    L = laplacian(g)
    return {v for v in range(1, g.n + 1)
            if kalman_rank_exact(L, input_vector(g.n, [v])) == g.n}


# ---------------------------------------------------------------------------
# finite-horizon Gramian
# ---------------------------------------------------------------------------

def gramian_check(L, B, horizon: float = 1.0) -> Verdict:
    """Controllability Gramian W = int_0^T exp(-Lt) B B^T exp(-Lt) dt.

    Composite Simpson quadrature writes W as an exact outer product C C^T
    of sampled impulse responses sqrt(w_k) exp(-L t_k) B, and the smallest
    Gramian eigenvalue is recovered as the squared smallest singular value
    of the factor C (LAPACK SVD, numpy.linalg.svd); the verdict carries it
    as min_eigenvalue. C C^T is never formed, so the dynamic range is never
    squared: directions that are truly unreachable stay at squared roundoff
    (about 1e-32 of the trace scale) instead of plain roundoff, so the
    positivity floor 1e-24 * trace(W) / n cleanly separates them from
    barely controllable pairs whose smallest eigenvalue is genuinely tiny.

    The quadrature takes 200 steps. A full-rank verdict needs 201 * inputs
    >= n samples; below that the quadrature Gramian is structurally rank
    deficient and the pair reports uncontrollable.
    """
    if not 0 < horizon < math.inf:
        raise ValueError("horizon must be a positive finite number")
    steps = 200  # Simpson intervals over [0, horizon]; must be even

    Lmat = _check_square(L)
    n = Lmat.shape[0]
    Bf = _as_control(B, n).astype(float)
    m = Bf.shape[1]

    dec = eig_sym(Lmat)
    proj = dec.modal.T @ Bf  # input columns in the eigenbasis
    ts = np.linspace(0.0, horizon, steps + 1)
    weights = np.full(steps + 1, 2.0)
    weights[1::2] = 4.0
    weights[0] = weights[-1] = 1.0
    weights *= horizon / steps / 3.0

    decay = np.exp(-np.outer(dec.values, ts))  # n x (steps+1)
    factor = decay[:, :, None] * proj[:, None, :]
    factor = factor.reshape(n, (steps + 1) * m)
    factor *= np.repeat(np.sqrt(weights), m)[None, :]

    if factor.shape[1] < n:
        return Verdict(controllable=False, method="gramian", min_eigenvalue=0.0)
    sig = np.linalg.svd(factor, compute_uv=False)
    min_eig = float(sig[-1] ** 2)
    trace = float(np.sum(sig ** 2))
    floor = GRAMIAN_EIG_FLOOR * trace / n
    return Verdict(controllable=min_eig > floor, method="gramian", min_eigenvalue=min_eig)
