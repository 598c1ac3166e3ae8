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
same as for (L, b). Every decider takes a symmetric L, as every Laplacian
of an undirected graph is, the exact oracle one with integer entries, and
the one input b as a flat length-n vector or an n-by-1 column; any other
L or shape is a ValueError.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .graph_core import Graph, _integer, is_connected, laplacian
from .spectral import (_REAL_KINDS, _check_square, _check_symmetric, _cluster_cuts, _fix_signs,
                       eig_sym)

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
    v = None
    for v in vertices:
        v = v if type(v) is int else _integer(v)
        if not 1 <= v <= n:
            raise ValueError(f"input vertex {v} out of range 1..{n}")
        b[v - 1, 0] = 1
    if v is None:
        raise ValueError("an input must attach to at least one vertex")
    return b


def _as_control(b, n: int) -> np.ndarray:
    """The one input as a flat binary int64 vector; b is flat or n-by-1."""
    mat = np.asarray(b)
    if mat.shape not in ((n,), (n, 1)):
        raise ValueError(f"input must be a length-{n} vector or an {n}x1 column, "
                         f"got shape {mat.shape}")
    mat = mat.reshape(n)
    # the entries are 0 or 1 iff each nonzero one equals 1; NaN is nonzero
    real = mat.dtype.kind in _REAL_KINDS
    if not real or (ones := np.count_nonzero(mat == 1)) != np.count_nonzero(mat):
        raise ValueError("input entries must be 0 or 1")
    if not ones:
        raise ValueError("input must have at least one nonzero entry")
    return mat.astype(np.int64)


# ---------------------------------------------------------------------------
# PBH eigenspace test
# ---------------------------------------------------------------------------

def pbh_verdict(L, B) -> Verdict:
    """Eigenvector test: controllable iff every eigenvalue of L is simple and
    no eigenvector is orthogonal to the input b.

    L is decomposed once, and every eigenspace is decided in one pass over
    the projections q^T b of all unit eigenvectors q. An eigenspace is
    covered iff it is one-dimensional and its |q^T b| > 1e-8; one input can
    never cover an eigenspace of dimension >= 2. The first uncovered space,
    with orthonormal basis Q, yields the witness w = Q u, u a unit vector
    orthogonal to Q^T b (the last left singular vector of that d-by-1
    matrix): a unit eigenvector with ||L w - lambda w||_inf and |w^T b|
    both below 1e-8.
    """
    Lmat = _check_square(L)
    bf = _as_control(B, Lmat.shape[0]).astype(float)

    dec = eig_sym(Lmat)
    cuts = _cluster_cuts(dec.values)
    covered = (cuts[1:] - cuts[:-1] == 1) & (np.abs(dec.modal.T @ bf)[cuts[:-1]] > _PBH_TOL)
    if covered.all():
        return Verdict(controllable=True, method="pbh")
    first = int(np.argmin(covered))
    lo, hi = cuts[first], cuts[first + 1]
    Q = dec.modal[:, lo:hi]
    witness = Q @ np.linalg.svd((Q.T @ bf)[:, None])[0][:, -1:]
    witness = _fix_signs(witness / np.linalg.norm(witness))[:, 0]
    return Verdict(controllable=False, method="pbh", witness=witness,
                   witness_value=float(np.mean(dec.values[lo:hi])))


# ---------------------------------------------------------------------------
# exact Kalman rank
# ---------------------------------------------------------------------------

_PRIMES: list[int] = []  # the primes _prime has found, largest first


def _prime(i: int) -> int:
    """The (i+1)-th largest prime below 2^21, found on first use.

    Residues below 2^21 keep every int64 dot product of length n under
    n * 2^42, far from overflow at any order a dense matrix can have. Odd
    p = d 2^s + 1, d odd, is tested by Miller-Rabin to the bases 2, 3 and
    5, exact below 25,326,001 (Pomerance, Selfridge & Wagstaff, 1980).
    """
    p = _PRIMES[-1] if _PRIMES else (1 << 21) + 1
    while len(_PRIMES) <= i:
        p -= 2
        if p <= 5:
            raise RuntimeError("the exact oracle ran out of primes below 2^21")
        s = ((p - 1) & (1 - p)).bit_length() - 1
        if all(pow(a, p >> s, p) == 1 or any(pow(a, p >> s << k, p) == p - 1 for k in range(s))
               for a in (2, 3, 5)):
            _PRIMES.append(p)
    return _PRIMES[i]


_STACK_BYTES = 1 << 21  # powers x_k of a stack of pairs, the one cut _certify makes in a round


def _krylov_mod(L: np.ndarray, b: np.ndarray, p: int) -> tuple[int, list[int] | None] | None:
    """Krylov rank r of (L, b) over GF(p), for L = L^T with entries in [0,
    p), and the monic q_p of degree r with q_p(L) b = 0 mod p, coefficients
    constant first (None at r = n); None after a breakdown.

    The unnormalized Lanczos recurrence over GF(p) (Lanczos 1950; LaMacchia
    & Odlyzko, CRYPTO '90): v_0 = b, v_k+1 = L v_k - a_k v_k - c_k v_k-1 with
    d_k = v_k . v_k, a_k = v_k . L v_k / d_k and c_k = d_k / d_k-1. A step is
    one mat-vec, float64 while n (p - 1)^2 < 2^53 and int64 above, and two
    int64 dot products on residues in [0, p), each exact below n (p - 1)^2,
    so below order 2^21. While every d_j is nonzero the v_j are pairwise
    orthogonal with nonzero self-products, hence independent, and v_k =
    P_k(L) b with P_k+1 = (x - a_k) P_k - c_k P_k-1 monic of degree k. So n
    vectors give rank n, and v_r = 0 gives rank r and q_p = P_r. A breakdown
    (d_k = 0 while v_k != 0) belongs to the prime: over the rationals the
    self-products of a real symmetric pair are positive, so only finitely
    many primes break it, and the pair waits for the next one.
    """
    n = len(b)
    Lw = L.astype(np.float64 if n * (p - 1) ** 2 < 2**53 else np.int64, copy=False)
    v, prev = b.astype(np.int64), 0
    steps, inverse = [], 0  # (a_k, c_k) of each step; 1 / d_k-1
    for k in range(n):
        d = int(v.dot(v)) % p
        if not d:
            return None if v.any() else (k, _lanczos_q(steps, p))
        if k == n - 1:
            break
        c, inverse = d * inverse % p, pow(d, -1, p)
        w = Lw.dot(v).astype(np.int64)
        w %= p
        a = int(v.dot(w)) * inverse % p
        steps.append((a, c))
        w -= a * v
        prev *= c
        w -= prev
        w %= p
        prev, v = v, w
    return n, None


def _lanczos_q(steps: list[tuple[int, int]], p: int) -> list[int]:
    """P_r mod p from the recurrence's (a_k, c_k), coefficients constant first."""
    # P_k sits in q[1:], so q[:-1] is x P_k
    prev, q = np.zeros(len(steps) + 2, dtype=np.int64), np.zeros(len(steps) + 2, dtype=np.int64)
    q[1] = 1
    for a, c in steps:
        prev *= -c
        prev[1:] += q[:-1]
        prev[1:] -= a * q[1:]
        prev %= p
        prev, q = q, prev
    return q[1:].tolist()


def _balance(x: np.ndarray, p: int) -> np.ndarray:
    """x in place, integer float64 below 2^52 in size, as residues mod p within p/2 + 1 of 0."""
    t = x * (1 / p)
    x -= np.rint(t, out=t) * p
    return x


def _minpoly_mod(Ls: list[np.ndarray], members: list[tuple[int, np.ndarray]],
                 p: int) -> list[tuple[int, list[int] | None] | None]:
    """_krylov_mod(Ls[m] % p, b, p) for each member (m, b), every Ls[m]
    symmetric, found together from the sequences b^T L^k b mod p, as
    exact_verdicts describes, or None where that run would break down. The
    members of one L are the rows of one product x_k+1^T = x_k^T L."""
    out: list = [None] * len(members)
    by_order: dict[int, dict[int, list[int]]] = {}
    for i, (m, b) in enumerate(members):
        by_order.setdefault(len(b), {}).setdefault(m, []).append(i)
    # Berlekamp-Massey without inverses, a column per member, shortest order
    # first. C holds its coefficients highest degree first in rows up to
    # top, so C . s is a dot product with a window of s; B is kept times x
    # by a moving window
    orders = np.sort([len(b) for _, b in members])
    top = int(orders[-1])
    seqs, C, B = (np.zeros((rows, len(orders))) for rows in (2 * top, 2 * top + 1, 3 * top))
    C[top] = B[top - 1] = 1
    beta, length = np.ones(len(orders)), np.zeros(len(orders), dtype=np.intp)
    runs = []  # (columns, n, members, x_0 ... x_n by row, each member's row) per order
    for n, groups in sorted(by_order.items()):
        slots = [(g, c, i) for g, cols in enumerate(groups.values()) for c, i in enumerate(cols)]
        g, c, i = np.array(slots).T
        x = np.zeros((n + 1, g[-1] + 1, c.max() + 1, n))
        x[0, g, c] = np.stack([members[j][1] for j in i])
        mats = _balance((np.stack([Ls[m] for m in groups]) % p).astype(np.float64), p)
        # lag products take a reduced x_k to at most (p/2 + 1) R^lag, R the largest
        # absolute column sum of mats: each block of lag powers is reduced once
        R = int(np.abs(mats).sum(axis=1).max())
        lag = next((j for j in range(1, n) if (p + 2) * R ** (j + 1) >= 2**53), n)
        for k in range(1, n + 1):
            np.matmul(x[k - 1], mats, out=x[k])
            if k % lag == 0 or k == n:
                _balance(x[k - (k - 1) % lag:k + 1], p)
        rows, x = g * x.shape[2] + c, x.reshape(n + 1, -1, n)
        cols = np.searchsorted(orders, n) + np.arange(len(i))
        seqs[:2 * n:2, cols] = np.einsum("kij,kij->ki", x[:n], x[:n])[:, rows]
        seqs[1:2 * n:2, cols] = np.einsum("kij,kij->ki", x[:n], x[1:])[:, rows]
        runs.append((cols, n, i, x, rows))
    _balance(seqs, p)
    span = 0  # the largest length among live members
    for k, a in enumerate(np.searchsorted(orders, np.arange(2 * top) // 2, side="right").tolist()):
        Cv, Bv, Lv = C[:top + 1, a:], B[k:k + top + 1, a:], length[a:]
        d = np.remainder(np.einsum("ij,ij->j", Cv[top - span:], seqs[k - span:k + 1, a:]), p)
        grow = np.logical_and(d, Lv <= k // 2)
        np.subtract(k + 1, Lv, out=Lv, where=grow)
        span = int(Lv.max(initial=0))
        dB = Bv[top - span:] * d
        np.copyto(Bv, Cv, where=grow)
        Cv[top - span:] *= beta[a:]
        Cv[top - span:] -= dB
        _balance(Cv[top - span:], p)
        np.copyto(beta[a:], d, where=grow)

    for cols, n, i, x, rows in runs:
        low = length[cols] < n
        for j in i[~low].tolist():
            out[j] = n, None
        if not low.any():
            continue
        cols, i, rows = cols[low], i[low], rows[low]
        degree = length[cols]
        f = np.take_along_axis(C[:, cols], top - degree + np.arange(n + 1)[:, None], axis=0)
        coeffs = np.zeros(x.shape[:2])
        coeffs[:, rows] = f  # f_j = C_{L-j}; x is not copied per member
        zero = ~_balance(np.einsum("kij,ki->ij", x, coeffs), p)[rows].any(axis=1)
        inverses = np.array([pow(int(v), -1, p) for v in C[top, cols].tolist()], dtype=np.int64)
        q = f.T.astype(np.int64) * inverses[:, None] % p
        for j, r, ok, qj in zip(i.tolist(), degree.tolist(), zero.tolist(), q.tolist()):
            out[j] = (r, qj[:r + 1]) if ok else None
    return out


def _exact_matrix(L) -> np.ndarray:
    """L as int64, refused unless L is a symmetric integer matrix within int64."""
    Lmat = _check_square(L)
    if Lmat.dtype.kind == "f" and not (Lmat == np.trunc(Lmat)).all():
        raise ValueError("exact rank needs an integer matrix")
    # only uint64 and float entries can leave the int64 range
    if Lmat.dtype.kind in "uf" and not -2**63 <= int(Lmat.min()) <= int(Lmat.max()) < 2**63:
        raise ValueError("exact rank needs an integer matrix with entries in the int64 range")
    Lmat = Lmat.astype(np.int64, copy=False)
    _check_symmetric(Lmat)
    return Lmat


def _row_sum(as_int: np.ndarray) -> int:
    """R, the largest absolute row sum of an int64 matrix, as a Python int."""
    # int64 sums are exact while no row can reach 2^63
    wide = len(as_int) * max(-int(as_int.min()), int(as_int.max())) >= 2**63
    return int(abs(as_int.astype(object) if wide else as_int).sum(axis=1).max())


def _horner_zero(L: np.ndarray, b: np.ndarray, q: list[int]) -> bool:
    """Whether q(L) b = 0 mod 2^64, for an int64 matrix L and q's lifted
    coefficients (constant first, monic, any size): the powers L^k b,
    k <= deg q, one product a step on a uint64 view of L, contracted with
    the coefficients mod 2^64 in one product. Unsigned products and sums
    wrap, which is exact arithmetic mod 2^64, so no step is checked."""
    Lu, powers = L.view(np.uint64), np.empty((len(q), len(b)), dtype=np.uint64)
    powers[0] = b
    for k in range(1, len(q)):
        Lu.dot(powers[k - 1], out=powers[k])
    return not np.array([c % 2**64 for c in q], dtype=np.uint64).dot(powers).any()


def _zero_mod_2_64(Ls: list[np.ndarray], checks: list[tuple]) -> list[bool]:
    """_horner_zero(Ls[m], b, q) of each check (m, b, q), sorted by order; see exact_verdicts."""
    if len(checks) == 1:  # each check and kalman_rank_exact call
        return _group_zero(Ls, checks)
    held = itertools.accumulate(8 * len(b) * (len(b) + 1) for _, b, _ in checks)
    groups = itertools.groupby(zip(held, checks),
                               lambda item: (len(item[1][1]), item[0] // _STACK_BYTES))
    return [zero for _, group in groups for zero in _group_zero(Ls, [check for _, check in group])]


def _group_zero(Ls: list[np.ndarray], group: list[tuple]) -> list[bool]:
    """_zero_mod_2_64 of one group, all of one order."""
    if len(group) == 1:
        return [_horner_zero(Ls[group[0][0]], *group[0][1:])]
    ms, bs, qs = zip(*group)
    top = max(map(len, qs))
    x = np.empty((top, len(bs), len(bs[0]), 1), dtype=np.uint64)
    x[0, ..., 0] = bs
    mats = (np.stack([Ls[m] for m in ms]) if len(set(ms)) > 1 else Ls[ms[0]][None]).view(np.uint64)
    for k in range(1, top):
        np.matmul(mats, x[k - 1], out=x[k])
    coeffs = np.array([[c % 2**64 for c in q] + [0] * (top - len(q)) for q in qs], dtype=np.uint64)
    return (~np.einsum("mk,kmi->mi", coeffs, x[..., 0]).any(axis=1)).tolist()


def _certify(pairs: Iterable[tuple]) -> tuple[list[tuple[int, int]], list[int]]:
    """(rank over the rationals, order) of each distinct (L, b) pair, and
    each given pair's index among them; see exact_verdicts."""
    matrices: dict[tuple, int] = {}  # (dtype, shape, bytes) of L -> index in validated
    validated: list[np.ndarray] = []  # int64 L of each distinct matrix
    row_sums: dict[int, int] = {}  # R of each distinct matrix, once a pair needs it
    columns: dict[tuple, tuple] = {}  # (order, dtype, shape, bytes) of b -> flat int64 b, its bytes
    index: dict[tuple[int, bytes], int] = {}
    members: list[tuple[int, np.ndarray]] = []  # (matrix index, b)
    order = []
    last = None  # the previous pair's key; pairs that ask about one L tend to come in runs
    for L, B in pairs:
        mat = np.asarray(L)
        key = mat.dtype, mat.shape, mat.tobytes()
        if key != last:
            last, m = key, matrices.get(key)
        if m is None:
            if mat.dtype.kind in _REAL_KINDS:
                # decide on the key's bytes: the caller's array may change later
                mat = np.frombuffer(key[2], dtype=mat.dtype).reshape(mat.shape)
            validated.append(_exact_matrix(mat))
            m = matrices[key] = len(validated) - 1
        col, n = np.asarray(B), len(validated[m])
        column = n, col.dtype, col.shape, col.tobytes()
        if (known := columns.get(column)) is None:
            b = _as_control(col, n)
            known = columns[column] = b, b.tobytes()
        b, member = known[0], (m, known[1])
        if member not in index:
            index[member] = len(members)
            members.append((m, b))
        order.append(index[member])

    ranks: list[int | None] = [None] * len(members)
    crt = [(0, [], 1)] * len(members)  # (top residue rank, CRT coefficients, modulus)
    pending = sorted(range(len(members)), key=lambda j: len(members[j][1]))
    for i in itertools.count():
        p = _prime(i)
        held = itertools.accumulate(8 * n * (n + 1) for n in (len(members[j][1]) for j in pending))
        residues, checks = [], {}  # the pairs' checks mod 2^64
        for _, group in itertools.groupby(zip(held, pending), lambda item: item[0] // _STACK_BYTES):
            stack = [members[j] for _, j in group]
            residues += (_minpoly_mod(validated, stack, p) if len(stack) > 1
                         else [_krylov_mod(validated[stack[0][0]] % p, stack[0][1], p)])
        for j, residue in zip(pending, residues):
            if residue is None:  # a breakdown, alone or in a stack: it waits for the next prime
                continue
            (rank, q), (m, b) = residue, members[j]
            if rank == len(b):
                ranks[j] = rank
                continue
            best, coeffs, modulus = crt[j]
            if rank < best:
                continue
            if rank > best:
                best, coeffs, modulus = rank, q, p
            else:
                step = pow(modulus, -1, p)
                coeffs = [c + modulus * ((x - c) * step % p) for c, x in zip(coeffs, q)]
                modulus *= p
            crt[j] = best, coeffs, modulus
            lifted = [c if 2 * c < modulus else c - modulus for c in coeffs]
            if m not in row_sums:
                row_sums[m] = _row_sum(validated[m])
            bound = 0
            for c in reversed(lifted):
                bound = bound * row_sums[m] + abs(c)
            if modulus > 2 * bound:
                ranks[j] = rank
            elif modulus << 64 > 2 * bound:
                checks[j] = m, b, lifted
        for j, zero in zip(checks, _zero_mod_2_64(validated, [*checks.values()]) if checks else ()):
            ranks[j] = crt[j][0] if zero else None
        pending = [j for j in pending if ranks[j] is None]
        if not pending:
            return [(rank, len(b)) for rank, (_, b) in zip(ranks, members)], order


def kalman_rank_exact(L, B) -> int:
    """Rank of the Kalman matrix [b, Lb, ..., L^{n-1}b] over the rationals.

    The Krylov chain runs modulo descending primes below 2^21, and the
    answer is certified by two bounds, so no outcome rests on probability.
    L must be a symmetric integer matrix within int64, as every Laplacian
    is; any other L is a ValueError. Modulo each prime, _krylov_mod runs
    the Lanczos recurrence, its mat-vec float64 while n (p - 1)^2 < 2^53
    and int64 above, and q_p comes from its recorded coefficients; a
    breakdown decides nothing, and the pair waits for the next prime.
    Lower bound: a rank mod p never exceeds the rank over the rationals, so
    a rank of n mod any prime returns n at once. Upper bound: the primes
    that reach the largest residue rank r each give the monic q_p of degree
    r with q_p(L) b = 0 mod p; their product M combines them by CRT into
    one q with symmetric residues, and q(L) b = 0 mod M. Any monic integer
    q of degree r with q(L) b = 0 over the integers shows that the rank is
    at most r. With R the largest absolute row sum of L, every entry of
    q(L) b is at most bound = sum_k |q_k| R^k in size, and 2^64 is coprime
    to M, so q(L) b = 0 over the integers once M 2^64 > 2 bound and q(L) b
    = 0 mod 2^64. _horner_zero checks the latter by one uint64 power run on
    a view of L, skipped when M > 2 bound already decides. Otherwise another
    prime joins; a higher rank restarts the combination. This is
    exact_verdicts of the one pair, which also tells how stacks and checks run.
    """
    (rank, _), = _certify([(L, B)])[0]
    return rank


def exact_verdict(L, B) -> Verdict:
    """The exact oracle's verdict: (L, b) is controllable iff its Kalman
    rank over the rationals is n. The verdict carries that rank."""
    rank = kalman_rank_exact(L, B)
    return Verdict(controllable=rank == len(L), method="exact", rank=rank)


def exact_verdicts(pairs: Iterable[tuple]) -> list[Verdict]:
    """exact_verdict for each (L, b) pair, in input order, decided together.

    Every pair is checked as kalman_rank_exact checks it, with the same
    errors in the same order, and each distinct pair is decided once. Each
    distinct L (by dtype, shape and bytes) is validated and converted to
    int64 once, and a pair whose L has the previous pair's key takes its
    index after one comparison; its row sum R is taken once, when a pair
    first needs it. Each distinct b (by order, dtype, shape and bytes) is
    validated once. The certificate runs in rounds: round i takes p =
    _prime(i) to the pairs still undecided, sorted by order and cut into
    stacks where their running total of powers, 8 n (n + 1) bytes a pair,
    passes a multiple of _STACK_BYTES. A stack of one runs _krylov_mod, the
    Lanczos recurrence over GF(p), certified by its pairwise orthogonal
    vectors, with q_p from its coefficients. A larger one, always below
    order 512, builds x_k = L^k b, k <= n, by one float64 product a step
    for the pairs of one L. With R the largest absolute column sum of L mod
    p in residues of least size, the powers are reduced to such residues
    once every lag products, lag the largest with (p/2 + 1) R^lag < 2^52,
    so every product is exact. As L = L^T, s_2k = x_k . x_k and s_2k+1 =
    x_k . x_k+1 are b^T L^k b mod p, and one Berlekamp-Massey run over the
    stack (Wiedemann 1986) finds the minimal polynomial f of each pair's 2n
    terms. f divides q_p: degree n is rank n at once, and only a lower
    degree forms f(L) b, taken as q_p when f(L) b = 0 mod p, as q_p then
    divides f; any other pair's Lanczos run would break down, so it gives
    nothing. Residues join the CRT combinations as in kalman_rank_exact;
    the round's checks mod 2^64 (M <= 2 bound < M 2^64) go to one
    _zero_mod_2_64 call, cut like the stacks (_STACK_BYTES, 2 MiB) and by
    order. A group of one runs _horner_zero on a view of L; a larger one
    takes one uint64 mat-vec a step for all its members up to its longest
    q, on a stack of their L, or on a view of L when one L serves it. A
    pair left undecided waits for the next round's prime. Pairs of one
    (rank, n) share one Verdict.
    """
    certified, order = _certify(pairs)
    shared = {(rank, n): Verdict(controllable=rank == n, method="exact", rank=rank)
              for rank, n in set(certified)}
    return [shared[certified[i]] for i in order]


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

# composite Simpson over [0, 1] in 200 steps: sample times and root weight column, read-only
_SIMPSON_TIMES = np.linspace(0.0, 1.0, 201)
_SIMPSON_ROOT_WEIGHTS = np.sqrt(np.r_[1.0, [4.0, 2.0] * 99, 4.0, 1.0] * (1.0 / 200 / 3.0))[:, None]
_SIMPSON_TIMES.setflags(write=False)
_SIMPSON_ROOT_WEIGHTS.setflags(write=False)


def gramian_check(L, B) -> Verdict:
    """Controllability Gramian W = int_0^1 exp(-Lt) b b^T exp(-Lt) dt.

    Composite Simpson quadrature writes W as an exact outer product C C^T
    of sampled impulse responses sqrt(w_k) exp(-L t_k) b, and the smallest
    Gramian eigenvalue is recovered as the squared smallest singular value
    of the factor C (LAPACK SVD, numpy.linalg.svd); the verdict carries it
    as min_eigenvalue. C^T is built in the eigenbasis as a tall 201 x n
    array, one sample time per row, whose SVD takes LAPACK's QR-first path.
    C C^T is never formed, so the dynamic range is never squared: directions
    that are truly unreachable stay at squared roundoff (about 1e-32 of the
    trace scale) instead of plain roundoff, so the positivity floor
    1e-24 * trace(W) / n cleanly separates them from barely controllable
    pairs whose smallest eigenvalue is genuinely tiny.

    The horizon is 1 and the quadrature takes 200 steps. A full-rank verdict
    needs 201 >= n samples; above that order the quadrature Gramian is
    structurally rank deficient and the pair reports uncontrollable without
    an eigensolve.
    """
    Lmat = _check_square(L)
    n = Lmat.shape[0]
    bf = _as_control(B, n).astype(float)
    if n > len(_SIMPSON_TIMES):
        _check_symmetric(Lmat)
        return Verdict(controllable=False, method="gramian", min_eigenvalue=0.0)

    dec = eig_sym(Lmat)
    proj = dec.modal.T @ bf  # the input in the eigenbasis
    factor = np.exp(np.multiply.outer(_SIMPSON_TIMES, -dec.values))  # 201 x n
    factor *= proj
    factor *= _SIMPSON_ROOT_WEIGHTS

    sig = np.linalg.svd(factor, compute_uv=False)
    min_eig = float(sig[-1] ** 2)
    trace = float(np.sum(sig ** 2))
    floor = GRAMIAN_EIG_FLOOR * trace / n
    return Verdict(controllable=min_eig > floor, method="gramian", min_eigenvalue=min_eig)
