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

from .graph_core import Graph, _integer, is_connected, laplacian
from .spectral import (_REAL_KINDS, _check_square, _check_symmetric, _fix_signs, eig_sym,
                       eigenspaces)

__all__ = [
    "Verdict",
    "input_vector",
    "pbh_verdict",
    "kalman_rank_exact",
    "exact_verdict",
    "exact_verdicts",
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
    for v in map(_integer, vertices):
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


_FIRST_BLOCK = 16  # Krylov rows built before the first elimination step
_STACK_BYTES = 1 << 18  # Krylov rows of one stack of pairs that exact_verdicts decides together


def _krylov_mod(L: np.ndarray, b: np.ndarray, p: int) -> tuple[int, list[int] | None]:
    """Krylov rank r of (L, b) over GF(p), for L with entries in [0, p).

    The rows L^k b are built one mat-vec at a time, in blocks that double
    in size from _FIRST_BLOCK, so a pair of rank r builds O(r) rows. Each
    row carries n more columns, the coefficients of the polynomial f with
    row = f(L) b, starting as the unit vector e_k. Elimination is eager
    Gauss-Jordan: a new pivot clears its column from every other built row
    by one rank-1 update, and a new block is reduced by all earlier pivot
    rows in one product. Only the pivot row and the multiplier column are
    reduced mod p at each step (delayed reduction, as in FFLAS), so every
    other entry stays below n * 2^42 + p in int64. When r < n, the row that
    reduces to zero is q_p(L) b for the monic q_p of degree r with
    q_p(L) b = 0 mod p, returned as its coefficients, constant first; at
    r = n that is None.
    """
    n = len(b)
    rows = np.zeros((n, 2 * n), dtype=np.int64)
    pivots = np.zeros(n, dtype=np.intp)
    inverses = np.zeros(n, dtype=np.int64)
    v = b
    start, end = 0, min(n, _FIRST_BLOCK)
    while True:
        for k in range(start, end):
            rows[k, :n] = v
            rows[k, n + k] = 1
            v = L @ v % p
        if start:
            rows[:start] %= p
            block = rows[start:end]
            block -= (block[:, pivots[:start]] * inverses[:start] % p) @ rows[:start]
        for r in range(start, end):
            row = rows[r]
            row %= p
            pos = pivots[r] = row[:n].argmax()
            if not row[pos]:
                return r, row[n:n + r + 1].tolist()
            inv = inverses[r] = pow(int(row[pos]), -1, p)
            multipliers = rows[:end, pos] % p * inv % p
            multipliers[r] = 0
            rows[:end] -= np.multiply.outer(multipliers, row)
        if end == n:
            return n, None
        start, end = end, min(n, 2 * end)


def _krylov_mod_stack(Ls: np.ndarray, bs: np.ndarray,
                      p: int) -> list[tuple[int, list[int] | None]]:
    """_krylov_mod on m pairs of one order at once: Ls is m-by-n-by-n with
    entries in [0, p), bs is m-by-n.

    Every member takes the same steps as in _krylov_mod, with a leading
    stack axis on each array: the same doubling blocks, the same delayed
    reduction and the same Gauss-Jordan updates. A member leaves the stack
    when its row reduces to zero, so each gets exactly the (rank, q) that
    _krylov_mod gives it. Returned in stack order.
    """
    m, n = bs.shape
    out: list = [None] * m
    live = each = np.arange(m)  # live[i]: the stack position of the member in rows[i]
    rows = np.zeros((m, n, 2 * n), dtype=np.int64)
    pivots = np.zeros((m, n), dtype=np.intp)
    inverses = np.zeros((m, n), dtype=np.int64)
    v = bs
    start, end = 0, min(n, _FIRST_BLOCK)
    while True:
        for k in range(start, end):
            rows[:, k, :n] = v
            rows[:, k, n + k] = 1
            v = (Ls @ v[:, :, None])[:, :, 0] % p
        if start:
            rows[:, :start] %= p
            block = rows[:, start:end]
            at_pivots = np.take_along_axis(block, pivots[:, None, :start], axis=2)
            block -= (at_pivots * inverses[:, None, :start] % p) @ rows[:, :start]
        for r in range(start, end):
            rows[:, r] %= p
            pos = pivots[:, r] = rows[:, r, :n].argmax(axis=1)
            values = rows[each, r, pos]
            done = values == 0
            if done.any():
                for i in done.nonzero()[0]:
                    out[live[i]] = r, rows[i, r, n:n + r + 1].tolist()
                if done.all():
                    return out
                keep = ~done
                live, Ls, rows, pivots, inverses, v, pos, values = (
                    a[keep] for a in (live, Ls, rows, pivots, inverses, v, pos, values))
                each = np.arange(len(live))
            inverses[:, r] = [pow(x, -1, p) for x in values.tolist()]
            multipliers = rows[each, :end, pos] % p * inverses[:, r, None] % p
            multipliers[:, r] = 0
            rows[:, :end] -= multipliers[:, :, None] * rows[:, r, None, :]
        if end == n:
            for i in live:
                out[i] = n, None
            return out
        start, end = end, min(n, 2 * end)


def _exact_input(L, B) -> tuple[np.ndarray, np.ndarray]:
    """(L, b) as int64 arrays, refused unless L is integer within int64."""
    Lmat = _check_square(L)
    if Lmat.dtype.kind == "f" and not (Lmat == np.trunc(Lmat)).all():
        raise ValueError("exact rank needs an integer matrix")
    if not -2**63 <= int(Lmat.min()) <= int(Lmat.max()) < 2**63:
        raise ValueError("exact rank needs an integer matrix with entries in the int64 range")
    return Lmat.astype(np.int64, copy=False), _as_control(B, Lmat.shape[0])


def _certified_rank(as_int: np.ndarray, b: np.ndarray, first: tuple[int, list[int] | None]) -> int:
    """The rank over the rationals, given the first prime's (rank, q) mod
    _prime(0); the bounds and the further primes are kalman_rank_exact's."""
    n = len(b)
    best, coeffs, modulus, row_sum = 0, [], 1, None
    for i in itertools.count():
        p = _prime(i)
        rank, q = _krylov_mod(as_int % p, b, p) if i else first
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
            # int64 sums are exact while no row can reach 2^63
            wide = n * max(-int(as_int.min()), int(as_int.max())) >= 2**63
            row_sum = int(abs(as_int.astype(object) if wide else as_int).sum(axis=1).max())
        lifted = [c if 2 * c < modulus else c - modulus for c in coeffs]
        bound = 0
        for c in reversed(lifted):
            bound = bound * row_sum + abs(c)
        if modulus > 2 * bound:
            return rank
        if bound < 2**62:
            v = b  # Horner's rule; every partial sum is at most bound in size
            for c in reversed(lifted[:-1]):
                v = as_int @ v + c * b
            if not v.any():
                return rank


def kalman_rank_exact(L, B) -> int:
    """Rank of the Kalman matrix [b, Lb, ..., L^{n-1}b] over the rationals.

    The Krylov chain runs modulo descending primes below 2^21, and the
    answer is certified by two bounds, so no outcome rests on probability.
    Lower bound: a rank mod p never exceeds the rank over the rationals,
    so a rank of n mod any prime returns n at once. Upper bound: the
    primes that reach the largest residue rank r each give the monic q_p
    of degree r with q_p(L) b = 0 mod p; their product M combines them by
    CRT into one q with symmetric residues, and q(L) b = 0 mod M. Any monic
    integer q of degree r with q(L) b = 0 over the integers shows that the
    rank is at most r. With R the largest absolute row sum of L, every
    entry of q(L) b is at most bound = sum_k |q_k| R^k in size, so once M
    exceeds twice that bound q(L) b = 0 over the integers. Below that,
    while the bound is under 2^62, q(L) b is computed exactly by Horner's
    rule in int64, so one prime suffices whenever q's coefficients are
    below half of it. Otherwise another prime joins; a prime with a higher
    rank restarts the combination.
    """
    as_int, b = _exact_input(L, B)
    p = _prime(0)
    return _certified_rank(as_int, b, _krylov_mod(as_int % p, b, p))


def exact_verdict(L, B) -> Verdict:
    """The exact oracle's verdict: (L, b) is controllable iff its Kalman
    rank over the rationals is n. The verdict carries that rank."""
    rank = kalman_rank_exact(L, B)
    return Verdict(controllable=rank == len(L), method="exact", rank=rank)


def exact_verdicts(pairs: Iterable[tuple]) -> list[Verdict]:
    """exact_verdict for each (L, b) pair, in input order, decided together.

    Every pair is checked as kalman_rank_exact checks it, and each distinct
    pair (the same int64 L and b) is decided once. Pairs of one order n are
    stacked, at most _STACK_BYTES of Krylov rows (16 n^2 bytes a member) to
    a stack, and the first prime runs on the whole stack in one
    _krylov_mod_stack call; a stack of one runs _krylov_mod itself, which is
    faster for a single pair. Each member below rank n is then certified as
    in kalman_rank_exact, with further primes as it needs them.
    """
    matrices: dict[bytes, bytes] = {}  # one copy of each distinct matrix's bytes
    index: dict[tuple[bytes, bytes], int] = {}
    members: list[tuple[np.ndarray, np.ndarray]] = []
    by_order: dict[int, list[int]] = {}
    order = []
    for L, B in pairs:
        as_int, b = _exact_input(L, B)
        data = as_int.tobytes()
        key = matrices.setdefault(data, data), b.tobytes()
        if key not in index:
            index[key] = len(members)
            by_order.setdefault(len(b), []).append(len(members))
            members.append((np.frombuffer(key[0], dtype=np.int64).reshape(as_int.shape), b))
        order.append(index[key])
    p = _prime(0)
    verdicts: list[Verdict] = [None] * len(members)
    for n, group in by_order.items():
        size = max(1, _STACK_BYTES // (16 * n * n))
        for chunk in (group[i:i + size] for i in range(0, len(group), size)):
            stack = [members[i] for i in chunk]
            if len(stack) == 1:
                firsts = [_krylov_mod(stack[0][0] % p, stack[0][1], p)]
            else:
                Ls = np.stack([a for a, _ in stack])
                Ls %= p
                firsts = _krylov_mod_stack(Ls, np.stack([b for _, b in stack]), p)
            for i, (as_int, b), first in zip(chunk, stack, firsts):
                rank = _certified_rank(as_int, b, first)
                verdicts[i] = Verdict(controllable=rank == n, method="exact", rank=rank)
    return [verdicts[i] for i in order]


def controllable_vertices(g: Graph) -> set[int]:
    """Vertices v of a connected graph where a single input at v controls it."""
    if not is_connected(g):
        raise ValueError("controllable_vertices needs a connected graph")
    L = laplacian(g)
    verdicts = exact_verdicts((L, input_vector(g.n, [v])) for v in range(1, g.n + 1))
    return {v for v, verdict in enumerate(verdicts, 1) if verdict.controllable}


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
