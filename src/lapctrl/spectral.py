"""Symmetric eigendecomposition and closed-form spectra of special graphs.

The solver is LAPACK's symmetric eigensolver (numpy.linalg.eigh) behind a
symmetry check, a fixed sign convention and a residual check. Its output is
deterministic on one numpy/LAPACK build; across builds it may differ at
rounding level, and the basis chosen inside a repeated eigenspace is
LAPACK's. Verdicts depend only on eigenspaces, never on that basis.
Alongside it live the closed forms this package leans on: the integer
antiregular spectrum and an all-integer antiregular eigenvector
construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph_core import _as_degseq, gen_antiregular, laplacian

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
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if mat.size == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {mat.shape}")
    if mat.dtype.kind in "fc" and not np.isfinite(mat).all():
        raise ValueError("matrix has non-finite entries")
    return mat


def _check_symmetric(mat: np.ndarray) -> None:
    if not (mat == mat.T).all():
        raise ValueError("matrix is not symmetric")


def eig_sym(m) -> EigDecomp:
    """Eigendecomposition of a symmetric matrix by LAPACK (numpy.linalg.eigh).

    The input must be finite and exactly symmetric. Values come back
    ascending; each modal column is flipped so its largest-magnitude entry
    (lowest index on ties) is positive. A LAPACK failure raises ConvergenceError, as does a
    residual above 1e-8 * the max row sum of |m|.
    """
    raw = _check_square(m)
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
    return EigDecomp(values=values, modal=modal)


def default_gtol(values: np.ndarray) -> float:
    """Eigenvalue grouping tolerance: 1e-7 * max(1, largest |value|)."""
    peak = float(np.max(np.abs(values))) if len(values) else 0.0
    return 1e-7 * max(1.0, peak)


def eigenspaces(dec: EigDecomp) -> list[Eigenspace]:
    """Cluster a decomposition into eigenspaces by adjacent-gap grouping.

    Values whose consecutive gaps are <= default_gtol share a cluster; each
    cluster's basis is its slice of the modal matrix, whose columns LAPACK
    already returns orthonormal, so no re-orthonormalization is done.
    """
    gtol = default_gtol(dec.values)
    spaces: list[Eigenspace] = []
    k = len(dec.values)
    lo = 0
    while lo < k:
        hi = lo + 1
        while hi < k and dec.values[hi] - dec.values[hi - 1] <= gtol:
            hi += 1
        spaces.append(Eigenspace(value=float(np.mean(dec.values[lo:hi])),
                                 basis=dec.modal[:, lo:hi]))
        lo = hi
    return spaces


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
    all-ones kernel vector up to the eigenvector for eigenvalue k. Built
    entirely in integer arithmetic: start from the Laplacian, replace each
    strictly upper-triangular entry x by -1-x, reset the diagonal so every
    column sums to zero, drop the single zero column this produces, and
    prepend the all-ones column (the sign of that column is free; we take
    +1). Before the reordering the surviving columns pair with the leading
    entries of the conjugate degree sequence, largest eigenvalue first.
    """
    t1 = laplacian(gen_antiregular(k))
    upper = np.triu(np.ones((k, k), dtype=bool), 1)
    t2 = np.where(upper, -1 - t1, t1)
    t3 = t2.copy()
    np.fill_diagonal(t3, -(t2.sum(axis=0) - np.diag(t2)))
    zero_cols = np.flatnonzero(~t3.any(axis=0))
    if len(zero_cols) != 1:
        raise RuntimeError(
            f"antiregular eigenvector table for k={k}: expected exactly one "
            f"zero column, found {len(zero_cols)} at {zero_cols.tolist()}")
    z = int(zero_cols[0])
    kept = np.delete(t3, z, axis=1)
    return np.concatenate([np.ones((k, 1), dtype=np.int64), kept[:, ::-1]], axis=1)


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
