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


_STACK_BYTES = 1 << 21  # 8 n (n + 1) bytes a pair: where _certify cuts a round's stacks and checks


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
            return None if v.any() else (k, _lanczos_q(steps, p).tolist())
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


def _lanczos_q(steps: list[tuple[int, int]] | np.ndarray, p: int) -> np.ndarray:
    """P_r mod p from the recurrence's (a_k, c_k), coefficients constant
    first: from (int, int) pairs for one pair, or from an int64 array (r, 2,
    columns) for a column of coefficients per polynomial."""
    # P_k sits in q[1:], so q[:-1] is x P_k
    prev, q = np.zeros((2, len(steps) + 2, *np.shape(steps[0])[1:]), dtype=np.int64)
    q[1] = 1
    for a, c in steps:
        prev *= -c
        prev[1:] += q[:-1]
        prev[1:] -= a * q[1:]
        prev %= p
        prev, q = q, prev
    return q[1:]


def _balance(x: np.ndarray, p: int) -> np.ndarray:
    """x in place, integer float64 below 2^52 in size, as residues mod p within p/2 + 1 of 0."""
    t = x * (1 / p)
    x -= np.multiply(np.rint(t, out=t), p, out=t)
    return x


def _blocks(ms: list[int], key=None) -> tuple[list[int], np.ndarray, np.ndarray]:
    """The distinct matrices of ms, sorted by key, and each member's block (its
    matrix's place among them) and slot (its place among its matrix's members)."""
    distinct = sorted(set(ms), key=key)
    block, slots = {m: i for i, m in enumerate(distinct)}, {m: itertools.count() for m in distinct}
    return distinct, np.array([block[m] for m in ms]), np.array([next(slots[m]) for m in ms])


def _minpoly_mod(Ls: list[np.ndarray], members: list[tuple[int, np.ndarray]],
                 p: int) -> list[tuple[int, list[int] | None] | None]:
    """_krylov_mod(Ls[m] % p, b, p) for each member (m, b), every Ls[m]
    symmetric, by one division-free Lanczos recurrence over the stack, as
    exact_verdicts describes: the members of one L are the rows of one
    block U, and a step is one product U L for every block."""
    ms, g, s = _blocks([m for m, _ in members], key=lambda m: -len(Ls[m]))
    orders = np.array([len(Ls[m]) for m in ms])[:, None]
    top = int(orders[0, 0])
    mats, U = np.zeros((len(ms), top, top)), np.zeros((len(ms), s.max() + 1, top))
    for j, m in enumerate(ms):
        mats[j, :len(Ls[m]), :len(Ls[m])] = Ls[m] % p
    for j, slot, (_, b) in zip(g.tolist(), s.tolist(), members):
        U[j, slot, :len(b)] = b
    # residues of least size and their largest absolute row sum R, made with no
    # float temporary the size of mats: the stack's peak memory is mats, not copies
    np.subtract(mats, p, out=mats, where=mats > p // 2)
    R = np.add.reduce(mats, axis=2, where=mats > 0) - np.add.reduce(mats, axis=2, where=mats < 0)
    # n R (p/2 + 1)^2 bounds u . L u and the update's terms while L u is not reduced
    reduce = top * int(R.max()) * (p // 2 + 1) ** 2 >= 2**52
    reach = (orders > np.arange(1, top + 1)).sum(axis=0).tolist()  # blocks of order > k + 1
    live, rank = U.any(axis=2), np.repeat(orders, U.shape[1], axis=1)  # rank -1: a breakdown
    coeffs = np.zeros((top, 3, *live.shape))  # (d d', e d', f d) of each step
    prev, dprev = np.zeros_like(U), np.ones(live.shape)
    for k in range(top):
        W, step = np.matmul(U, mats[:len(U)]), coeffs[k, :, :len(U)]
        if reduce:
            _balance(W, p)
        for row, (x, y) in enumerate(((U, U), (U, W), (prev, W))):
            np.einsum("gci,gci->gc", x, y, out=step[row])
        d = _balance(step, p)[0].copy()
        if (stop := live[:len(U)] & (d == 0)).any():
            rank[:len(U)][stop] = np.where(U[stop].any(axis=1), -1, k)
            live[:len(U)] &= ~stop
        if not (running := np.flatnonzero(live[:reach[k]].any(axis=1))).size:
            break
        G = running[-1] + 1
        U, prev, W, d, step = U[:G], prev[:G], W[:G], d[:G], step[:, :G]
        step[:2] *= dprev[:G]
        step[2] *= d
        A, B, C = _balance(step, p)[..., None]
        W *= A
        W -= B * U
        W -= C * prev
        prev, U, dprev = U, _balance(W, p), d

    rank = rank[g, s]
    out = [None if r < 0 else (r, None) for r in rank.tolist()]
    if (low := np.flatnonzero((0 <= rank) & (rank < orders[g, 0]))).size:
        # past its rank a member takes P_k+1 = x P_k, and members alike in every
        # step, as automorphic vertices are, share one column of the q build
        r, top = rank[low], int(rank[low].max())
        steps = coeffs[:top, :, g[low], s[low]].astype(np.int64) % p
        steps = np.where(np.arange(top)[:, None, None] >= r, [[1], [0], [0]], steps)
        _, back, _ = _blocks([column.tobytes() for column in steps.transpose(2, 0, 1)])
        A, B, C = steps[..., np.unique(back, return_index=True)[1]].transpose(1, 0, 2)
        inverse = np.ones_like(A)  # 1 / A = A^(p - 2) mod p (Fermat)
        for bit in bin(p - 2)[2:]:
            inverse = (inverse * inverse % p * A if bit == "1" else inverse * inverse) % p
        # monic: a_k = B_k / A_k and c_k = C_k / (A_k A_k-1)
        c = C * inverse % p * np.roll(inverse, 1, axis=0)
        q = _lanczos_q(np.stack((B * inverse, c), axis=1) % p, p).T.tolist()
        for j, i, rj in zip(low.tolist(), back.tolist(), r.tolist()):
            out[j] = rj, q[i][top - rj:]
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
    """_zero_mod_2_64 of one group, all of one order, by Horner's rule on
    the members of one L as the columns of one block."""
    if len(group) == 1:
        return [_horner_zero(Ls[group[0][0]], *group[0][1:])]
    ms, g, s = _blocks([m for m, _, _ in group])
    top = max(len(q) for *_, q in group)
    b = np.zeros((len(ms), len(group[0][1]), s.max() + 1), dtype=np.uint64)
    b[g, :, s] = [column for _, column, _ in group]
    coeffs = np.zeros((top, len(ms), 1, b.shape[2]), dtype=np.uint64)
    coeffs[:, g, 0, s] = np.array([[c % 2**64 for c in q] + [0] * (top - len(q))
                                   for *_, q in group], dtype=np.uint64).T
    mats = (np.stack([Ls[m] for m in ms]) if len(ms) > 1 else Ls[ms[0]][None]).view(np.uint64)
    y = coeffs[-1] * b
    for c in coeffs[-2::-1]:
        y = np.matmul(mats, y) + c * b
    return (~y[g, :, s].any(axis=1)).tolist()


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
    stacks where their running total of 8 n (n + 1) bytes a pair passes a
    multiple of _STACK_BYTES. A stack of one runs _krylov_mod; a larger one,
    always below order 512, runs the same recurrence for all its pairs at
    once and free of division, u_k+1 = d_k d_k-1 L u_k - e_k d_k-1 u_k - f_k
    d_k u_k-1 with d_k = u_k . u_k, e_k = u_k . L u_k and f_k = u_k-1 . L
    u_k, on float64 residues of least size: one product a step for the
    pairs of one L, each distinct L stacked once, and L u reduced only where
    n R (p/2 + 1)^2 >= 2^52, R the largest absolute row sum of L in such
    residues. Each u_k is a nonzero multiple of _krylov_mod's v_k, so a pair
    stops where its lone run stops and takes its q_p, made monic from the
    recorded coefficients: stacks and lone pairs give identical residues at
    every prime. Residues join the CRT combinations as in kalman_rank_exact;
    the round's checks mod 2^64 (M <= 2 bound < M 2^64) go to one
    _zero_mod_2_64 call, cut like the stacks (_STACK_BYTES, 2 MiB) and by
    order. A group of one runs _horner_zero on a view of L; a larger one
    runs Horner's rule with the members of one L as the columns of one
    block, each distinct L stacked once, or viewed when one L serves it. A
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
