"""Single-input Laplacian controllability decided three independent ways.

The exact Kalman oracle is the ground truth: the rank of the Krylov space
of (L, b) over the rationals, computed modulo small primes and certified
by a lower and an upper bound, immune to floating-point rank decisions.
The PBH eigenspace test produces certificates (a witness eigenvector
orthogonal to the input whenever it says "uncontrollable"), and the
Gramian over [0, 1] gives a numeric energy reading. The test
suite holds all three to agreement.

Controllability here always means controllability of the consensus pair
(-L, b) for dx/dt = -L x + b u, which by the eigenvector criterion is the
same as for (L, b). Every decider takes the one input b as a flat length-n
vector or an n-by-1 column; any other shape is a ValueError.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .graph_core import Graph, _label, is_connected, laplacian
from .spectral import (_REAL_KINDS, _check_square, _check_symmetric, _fix_signs, eig_sym,
                       eigenspaces)

__all__ = [
    "Verdict",
    "input_vector",
    "pbh_verdict",
    "kalman_rank_exact",
    "exact_verdict",
    "controllable_vertices",
    "gramian_check",
    "GRAMIAN_EIG_FLOOR",
]

GRAMIAN_EIG_FLOOR = 1e-24  # positivity threshold, times trace(W)/n
_PBH_TOL = 1e-8  # smallest |q^T b| that covers a simple eigenvalue's unit eigenvector q


@dataclass(frozen=True)
class Verdict:
    """Controllability decision with its method tag.

    witness is only present on an uncontrollable PBH verdict: a unit
    eigenvector orthogonal to the input. rank is only present on
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
    """Binary n-by-1 input column for one input wired to the given vertices."""
    b = np.zeros((n, 1), dtype=np.int64)
    for v in map(_label, vertices):
        if not 1 <= v <= n:
            raise ValueError(f"input vertex {v} out of range 1..{n}")
        b[v - 1, 0] = 1
    if not b.any():
        raise ValueError("an input must attach to at least one vertex")
    return b


def _as_control(b, n: int) -> np.ndarray:
    """The one input as a flat binary int64 vector; b is flat or n-by-1."""
    mat = np.asarray(b)
    if mat.shape not in ((n,), (n, 1)):
        raise ValueError(f"input must be a length-{n} vector or an {n}x1 column, "
                         f"got shape {mat.shape}")
    mat = mat.reshape(n)
    if mat.dtype.kind not in _REAL_KINDS or not ((mat == 0) | (mat == 1)).all():
        raise ValueError("input entries must be 0 or 1")
    if not mat.any():
        raise ValueError("input must have at least one nonzero entry")
    return mat.astype(np.int64)


# ---------------------------------------------------------------------------
# PBH eigenspace test
# ---------------------------------------------------------------------------

def pbh_verdict(L, B) -> Verdict:
    """Eigenvector test: controllable iff every eigenvalue of L is simple and
    no eigenvector is orthogonal to the input b.

    L is decomposed once. An eigenspace is covered iff it is one-dimensional
    and its unit eigenvector q has |q^T b| > 1e-8; one input can never cover
    an eigenspace of dimension >= 2. The first uncovered space, with
    orthonormal basis Q, yields the witness w = Q u, u a unit vector
    orthogonal to Q^T b (the last left singular vector of that d-by-1
    matrix): a unit eigenvector with ||L w - lambda w||_inf and |w^T b|
    both below 1e-8.
    """
    Lmat = _check_square(L)
    bf = _as_control(B, Lmat.shape[0]).astype(float)

    for space in eigenspaces(eig_sym(Lmat)):
        Q = space.basis
        proj = Q.T @ bf
        if len(proj) == 1 and abs(proj[0]) > _PBH_TOL:
            continue
        witness = Q @ np.linalg.svd(proj[:, None])[0][:, -1:]
        witness = _fix_signs(witness / np.linalg.norm(witness))[:, 0]
        return Verdict(controllable=False, method="pbh",
                       witness=witness, witness_value=space.value)
    return Verdict(controllable=True, method="pbh")


# ---------------------------------------------------------------------------
# exact Kalman rank
# ---------------------------------------------------------------------------

@functools.cache
def _prime(i: int) -> int:
    """The (i+1)-th largest prime below 2^21, found on first use.

    Residues below 2^21 keep every int64 dot product of length n under
    n * 2^42, far from overflow at any order a dense matrix can have.
    """
    p = (_prime(i - 1) if i else 1 << 21) - 1
    while p > 2 and any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        p -= 1
    if p <= 2:
        raise RuntimeError("the exact oracle ran out of primes below 2^21")
    return p


def _krylov_mod(L: np.ndarray, b: np.ndarray, p: int) -> tuple[int, list[int] | None]:
    """Krylov rank r of (L, b) over GF(p), for L with entries in [0, p).

    The pivot rows are one reduced-echelon matrix, so a new vector is
    reduced by one vector-matrix product and a new pivot clears its column
    by one rank-1 update. Each row carries n more columns, the coefficients
    of the polynomial f with row = f(L) b. When r < n, the vector that
    reduces to zero yields the monic q_p of degree r with q_p(L) b = 0 mod p,
    returned as its coefficients, constant first; at r = n that is None.
    """
    n = len(b)
    rows = np.zeros((n, 2 * n), dtype=np.int64)
    pivots = np.zeros(n, dtype=np.intp)
    v = np.zeros(2 * n, dtype=np.int64)
    v[:n], v[n] = b, 1
    for r in range(n):
        v -= v[pivots[:r]] @ rows[:r]
        v %= p
        nonzero = v[:n].nonzero()[0]
        if not len(nonzero):
            return r, (v[n:n + r + 1] * pow(int(v[n + r]), -1, p) % p).tolist()
        pos = pivots[r] = nonzero[0]
        v *= pow(int(v[pos]), -1, p)
        v %= p
        rows[:r] -= rows[:r, pos, None] * v
        rows[:r] %= p
        rows[r] = v
        v = np.concatenate([L @ v[:n] % p, [0], v[n:-1]])
    return n, None


def kalman_rank_exact(L, B) -> int:
    """Rank of the Kalman matrix [b, Lb, ..., L^{n-1}b] over the rationals.

    The Krylov chain runs modulo descending primes below 2^21, and the
    answer is certified by two bounds, so no outcome rests on probability.
    Lower bound: a rank mod p never exceeds the rank over the rationals,
    so a rank of n mod any prime returns n at once. Upper bound: the
    primes that reach the largest residue rank r each give the monic q_p
    of degree r with q_p(L) b = 0 mod p; their product M combines them by
    CRT into one q with symmetric residues, and q(L) b = 0 mod M. With R
    the largest absolute row sum of L, every entry of q(L) b is at most
    sum_k |q_k| R^k in size, so once M exceeds twice that bound q(L) b = 0
    over the integers and the rank is at most r. Until then another prime
    joins; a prime with a higher rank restarts the combination.
    """
    Lmat = _check_square(L)
    n = Lmat.shape[0]
    as_int = Lmat.astype(np.int64)
    if not (np.asarray(Lmat, dtype=float) == as_int).all():
        raise ValueError("exact rank needs an integer matrix")
    b = _as_control(B, n)

    best, coeffs, modulus, row_sum = 0, [], 1, None
    for i in itertools.count():
        p = _prime(i)
        rank, q = _krylov_mod(as_int % p, b, p)
        if rank == n:
            return n
        if rank < best:
            continue
        if rank > best:
            best, coeffs, modulus = rank, [0] * (rank + 1), 1
        step = pow(modulus, -1, p)
        coeffs = [c + modulus * ((x - c) * step % p) for c, x in zip(coeffs, q)]
        modulus *= p
        if row_sum is None:
            row_sum = int(abs(as_int.astype(object)).sum(axis=1).max())
        bound = 0
        for c in reversed(coeffs):
            bound = bound * row_sum + min(c, modulus - c)
        if modulus > 2 * bound:
            return rank


def exact_verdict(L, B) -> Verdict:
    """The exact oracle's verdict: (L, b) is controllable iff its Kalman
    rank over the rationals is n. The verdict carries that rank."""
    rank = kalman_rank_exact(L, B)
    return Verdict(controllable=rank == len(L), method="exact", rank=rank)


def controllable_vertices(g: Graph) -> set[int]:
    """Vertices v of a connected graph where a single input at v controls it."""
    if not is_connected(g):
        raise ValueError("controllable_vertices needs a connected graph")
    L = laplacian(g)
    return {v for v in range(1, g.n + 1)
            if exact_verdict(L, input_vector(g.n, [v])).controllable}


# ---------------------------------------------------------------------------
# finite-horizon Gramian
# ---------------------------------------------------------------------------

def gramian_check(L, B) -> Verdict:
    """Controllability Gramian W = int_0^1 exp(-Lt) b b^T exp(-Lt) dt.

    Composite Simpson quadrature writes W as an exact outer product C C^T
    of sampled impulse responses sqrt(w_k) exp(-L t_k) b, and the smallest
    Gramian eigenvalue is recovered as the squared smallest singular value
    of the factor C (LAPACK SVD, numpy.linalg.svd); the verdict carries it
    as min_eigenvalue. C C^T is never formed, so the dynamic range is never
    squared: directions that are truly unreachable stay at squared roundoff
    (about 1e-32 of the trace scale) instead of plain roundoff, so the
    positivity floor 1e-24 * trace(W) / n cleanly separates them from
    barely controllable pairs whose smallest eigenvalue is genuinely tiny.

    The horizon is 1 and the quadrature takes 200 steps. A full-rank verdict
    needs 201 >= n samples; above that order the quadrature Gramian is
    structurally rank deficient and the pair reports uncontrollable without
    an eigensolve.
    """
    steps = 200  # Simpson intervals over [0, 1]; must be even

    Lmat = _check_square(L)
    n = Lmat.shape[0]
    bf = _as_control(B, n).astype(float)
    if n > steps + 1:
        _check_symmetric(Lmat)
        return Verdict(controllable=False, method="gramian", min_eigenvalue=0.0)

    dec = eig_sym(Lmat)
    proj = dec.modal.T @ bf  # the input in the eigenbasis
    ts = np.linspace(0.0, 1.0, steps + 1)
    weights = np.full(steps + 1, 2.0)
    weights[1::2] = 4.0
    weights[0] = weights[-1] = 1.0
    weights *= 1.0 / steps / 3.0

    factor = np.exp(-np.outer(dec.values, ts)) * proj[:, None]  # n x (steps+1)
    factor *= np.sqrt(weights)

    sig = np.linalg.svd(factor, compute_uv=False)
    min_eig = float(sig[-1] ** 2)
    trace = float(np.sum(sig ** 2))
    floor = GRAMIAN_EIG_FLOOR * trace / n
    return Verdict(controllable=min_eig > floor, method="gramian", min_eigenvalue=min_eig)
