"""Symmetric eigendecomposition and closed-form spectra of special graphs.

The solver is LAPACK's symmetric eigensolver (numpy.linalg.eigh) behind a
symmetry check, a fixed sign convention and a residual check. Its output is
deterministic on one numpy/LAPACK build; across builds it may differ at
rounding level, and the basis chosen inside a repeated eigenspace is
LAPACK's. Verdicts depend only on eigenspaces, never on that basis.
eig_sym remembers the last matrix it decomposed, by content, so PBH and the
Gramian in one `check --method all` share one eigh; EigDecomp arrays are
read-only because callers share them. PBH decides every eigenspace cluster
in one pass over the modal matrix.
Alongside it live the closed forms this package leans on: the integer
antiregular spectrum and an all-integer antiregular eigenvector
construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph_core import _as_degseq

__all__ = [
    "ConvergenceError",
    "EigDecomp",
    "Eigenspace",
    "eig_sym",
    "eigenspaces",
    "default_gtol",
    "antiregular_spectrum",
    "antiregular_modal",
    "check_majorization",
]

_MAJORIZATION_TOL = 1e-8  # times the sequence length
_RESIDUAL_TOL = 1e-8  # eigen-residual bound, times the max row sum of |m|
_REAL_KINDS = "biuf"  # numpy dtype kinds of bool, int, uint and float arrays


class ConvergenceError(RuntimeError):
    """The eigensolver failed or its result missed the residual check."""


@dataclass(frozen=True)
class EigDecomp:
    """Eigenvalues in ascending order; column j of modal pairs with values[j]."""

    values: np.ndarray
    modal: np.ndarray


@dataclass(frozen=True)
class Eigenspace:
    """One eigenvalue cluster with an orthonormal basis of its eigenspace."""

    value: float
    basis: np.ndarray


def _fix_signs(v: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry (lowest index on ties)
    is positive; every zero entry comes back as +0.0."""
    lead = np.argmax(np.abs(v), axis=0)
    flip = v[lead, np.arange(v.shape[1])] < 0
    return np.where(flip, -v, v) + 0.0


def _check_square(m) -> np.ndarray:
    mat = np.asarray(m)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or not mat.size:
        raise ValueError(f"expected a nonempty square matrix, got shape {mat.shape}")
    if mat.dtype.kind not in _REAL_KINDS:
        raise ValueError("matrix must be real")
    if mat.dtype.kind == "f" and not np.isfinite(mat).all():
        raise ValueError("matrix has non-finite entries")
    return mat


def _check_symmetric(mat: np.ndarray) -> None:
    if not (mat == mat.T).all():
        raise ValueError("matrix is not symmetric")


_last: tuple = ((), None)  # eig_sym's most recent (key, result)


def eig_sym(m) -> EigDecomp:
    """Eigendecomposition of a symmetric matrix by LAPACK (numpy.linalg.eigh).

    The input must be finite and exactly symmetric. Values come back
    ascending; each modal column is flipped so its largest-magnitude entry
    (lowest index on ties) is positive. A LAPACK failure raises ConvergenceError, as does a
    residual above 1e-8 * the max row sum of |m|. A matrix with the same
    dtype, shape and bytes as the previous call's gets that call's result
    back, the same object; its values and modal arrays are read-only.
    """
    global _last
    raw = _check_square(m)
    key = raw.dtype.str, raw.shape, raw.tobytes()
    last_key, last_dec = _last
    if last_key == key:
        return last_dec
    _check_symmetric(raw)

    a = raw.astype(float)
    try:
        values, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver failed: {exc}") from exc
    modal = _fix_signs(v)

    scale = float(np.max(np.sum(np.abs(a), axis=1)))
    residual = float(np.max(np.abs(a @ modal - modal * values)))
    if residual > _RESIDUAL_TOL * max(scale, 1e-300):
        raise ConvergenceError(f"eigen-residual {residual:.3e} above 1e-8 * scale")
    values.setflags(write=False)
    modal.setflags(write=False)
    dec = EigDecomp(values=values, modal=modal)
    _last = key, dec
    return dec


def default_gtol(values: np.ndarray) -> float:
    """Eigenvalue grouping tolerance: 1e-7 * max(1, largest |value|)."""
    peak = float(np.abs(values).max()) if len(values) else 0.0
    return 1e-7 * max(1.0, peak)


def _cluster_cuts(values: np.ndarray) -> np.ndarray:
    """Bounds of the eigenspaces' clusters: cluster i is values[cuts[i]:cuts[i+1]]."""
    cut = np.ones(len(values) + 1, dtype=bool)
    cut[1:-1] = values[1:] - values[:-1] > default_gtol(values)
    return np.flatnonzero(cut)


def eigenspaces(dec: EigDecomp) -> list[Eigenspace]:
    """Cluster a decomposition into eigenspaces by adjacent-gap grouping.

    Values whose consecutive gaps are <= default_gtol share a cluster; the
    ends count as infinite gaps. Each cluster's basis is its slice of the
    modal matrix, whose columns LAPACK already returns orthonormal.
    """
    values = dec.values
    cuts = _cluster_cuts(values)
    return [Eigenspace(value=float(np.mean(values[lo:hi])), basis=dec.modal[:, lo:hi])
            for lo, hi in zip(cuts, cuts[1:])]


def antiregular_spectrum(k: int) -> list[int]:
    """Laplacian eigenvalues of the antiregular graph on k vertices.

    The spectrum is {0, 1, ..., k} with ceil(k/2) removed: k integers.
    """
    if k < 2:
        raise ValueError("antiregular graphs need at least two vertices")
    gap = (k + 1) // 2
    return [x for x in range(k + 1) if x != gap]


def antiregular_modal(k: int) -> np.ndarray:
    """Integer eigenvector matrix of the antiregular graph on k vertices.

    Column j pairs with antiregular_spectrum(k)[j], so columns run from the
    all-ones kernel vector up to the eigenvector for eigenvalue k. The table
    is written from its closed form (vertices 1-indexed): column 0 is all
    ones; for j = 1 .. ceil(k/2)-1, column j (eigenvalue j) is -1 on
    vertices j+1 .. k-j and k-2j at vertex k+1-j; for j = 1 .. floor(k/2),
    column k-j (eigenvalue k+1-j) is k-2j+1 at vertex j and -1 on vertices
    j+1 .. k+1-j. Every other entry is 0.
    """
    if k < 2:
        raise ValueError("antiregular graphs need at least two vertices")
    modal = np.zeros((k, k), dtype=np.int64)
    modal[:, 0] = 1
    for j in range(1, (k + 1) // 2):
        modal[j:k - j, j] = -1
        modal[k - j, j] = k - 2 * j
    for j in range(1, k // 2 + 1):
        modal[j - 1, k - j] = k - 2 * j + 1
        modal[j:k + 1 - j, k - j] = -1
    return modal


def check_majorization(values, dstar) -> bool:
    """Spectrum majorization: partial sums of the eigenvalues, largest first,
    never exceed the partial sums of the conjugate degree sequence.

    Comparisons allow slack 1e-8 times the length; a genuine violation on an
    actual graph would mean a solver bug, not a property failure.
    """
    values = np.asarray(values, dtype=float)
    dstar = _as_degseq(dstar)
    if values.ndim != 1 or len(values) != len(dstar):
        raise ValueError("spectrum and conjugate sequence lengths differ")
    k = len(dstar)
    lhs = np.cumsum(np.sort(values)[::-1])
    rhs = np.cumsum(np.fromiter(dstar, dtype=float, count=k))
    return bool(np.all(lhs <= rhs + _MAJORIZATION_TOL * k))
