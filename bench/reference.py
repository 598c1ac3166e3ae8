"""Benchmark-side inputs and references that do not depend on lapctrl.

Graphs are edge lists on vertices 1..n, so the benchmark can hand lapctrl
JSON text or a Laplacian it built itself. The reference rank is the Krylov
rank of (L, b) modulo two large primes: full rank modulo a prime certifies
full rank over the rationals, and a deficiency modulo both primes that is
not real has probability about n / 2^31 for each.
"""

from __future__ import annotations

import json
import random

import numpy as np

PRIMES = (2_147_483_647, 2_147_483_629)
REPEAT_GAP = 1e-6  # relative gap under which two eigenvalues count as one


def random_connected(n: int, rng: random.Random, extra: float = 0.3) -> list[tuple[int, int]]:
    """Random attachment tree plus each other pair with probability extra."""
    edges = {(rng.randint(1, v - 1), v) for v in range(2, n + 1)}
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if (u, v) not in edges and rng.random() < extra:
                edges.add((u, v))
    return sorted(edges)


def laplacian(n: int, edges) -> np.ndarray:
    L = np.zeros((n, n), dtype=np.int64)
    for u, v in edges:
        L[u - 1, v - 1] = L[v - 1, u - 1] = -1
        L[u - 1, u - 1] += 1
        L[v - 1, v - 1] += 1
    return L


def input_column(n: int, vertices) -> np.ndarray:
    b = np.zeros((n, 1), dtype=np.int64)
    for v in vertices:
        b[v - 1, 0] = 1
    return b


def graph_json(n: int, edges) -> str:
    return json.dumps({"n": n, "edges": [list(e) for e in sorted(edges)]})


def _rank_mod(L: np.ndarray, b: np.ndarray, p: int) -> int:
    """Krylov rank of (L, b) over GF(p), p < 2^31, with small integer L.

    Entries stay below 2^31, so L @ v for |L| <= n <= 2^16 and every
    multiply-subtract step fit in int64.
    """
    n = L.shape[0]
    pivots: list[tuple[int, np.ndarray]] = []
    v = b[:, 0].astype(np.int64) % p
    while len(pivots) < n:
        for pos, row in pivots:
            if v[pos]:
                v = (v - v[pos] * row) % p
        nz = np.flatnonzero(v)
        if not len(nz):
            break
        pos = int(nz[0])
        row = (v * pow(int(v[pos]), -1, p)) % p
        pivots.append((pos, row))
        v = (L @ row) % p
    return len(pivots)


def krylov_rank(L: np.ndarray, b: np.ndarray) -> int:
    return max(_rank_mod(L, b, p) for p in PRIMES)


def has_repeated_eigenvalue(L: np.ndarray) -> bool:
    values = np.linalg.eigvalsh(L.astype(float))
    gaps = np.diff(values)
    return bool(len(gaps) and gaps.min() <= REPEAT_GAP * max(1.0, float(values[-1])))
