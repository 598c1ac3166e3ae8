"""Symmetric eigensolver, eigenspace clustering, and closed-form spectra."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lapctrl import (
    antiregular_modal,
    antiregular_spectrum,
    check_majorization,
    conjugate,
    default_gtol,
    degree_sequence,
    eig_sym,
    eigenspaces,
    gen_antiregular,
    gen_complete,
    gen_path,
    gen_threshold,
    laplacian,
    random_connected_graph,
)


# ---------------------------------------------------------------------------
# eig_sym
# ---------------------------------------------------------------------------

class TestEigSym:
    def test_path3_spectrum(self):
        dec = eig_sym(laplacian(gen_path(3)))
        assert np.allclose(dec.values, [0.0, 1.0, 3.0], atol=1e-10)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_path_spectrum(self, k):
        dec = eig_sym(laplacian(gen_path(k)))
        expected = 2 - 2 * np.cos(np.arange(k) * np.pi / k)
        assert np.allclose(dec.values, expected, rtol=0, atol=1e-10)

    def test_complete4_spectrum(self):
        dec = eig_sym(laplacian(gen_complete(4)))
        assert np.allclose(dec.values, [0.0, 4.0, 4.0, 4.0], atol=1e-10)

    def test_values_ascending_and_modal_orthonormal(self):
        L = laplacian(gen_antiregular(7))
        dec = eig_sym(L)
        assert np.all(np.diff(dec.values) >= -1e-12)
        assert np.allclose(dec.modal.T @ dec.modal, np.eye(7), atol=1e-10)

    def test_reconstruction(self):
        L = laplacian(gen_antiregular(6)).astype(float)
        dec = eig_sym(L)
        assert np.allclose(dec.modal @ np.diag(dec.values) @ dec.modal.T, L, atol=1e-9)

    def test_sign_convention_largest_entry_positive(self):
        dec = eig_sym(laplacian(gen_path(5)))
        for j in range(5):
            col = dec.modal[:, j]
            assert col[int(np.argmax(np.abs(col)))] > 0

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            eig_sym(np.zeros((2, 3)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="nonempty square matrix"):
            eig_sym(np.zeros((0, 0)))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite(self, bad):
        # an inf entry used to come back as all-NaN eigenvalues, no error
        m = laplacian(gen_path(4)).astype(float)
        m[0, 1] = m[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite entries"):
            eig_sym(m)

    def test_zero_entries_are_positive_zeros(self):
        # the sign flip must not turn an exact 0.0 into -0.0
        rng = random.Random(1)
        zeros = 0
        for _ in range(60):
            modal = eig_sym(laplacian(random_connected_graph(rng.randint(2, 20), rng))).modal
            zeros += int(np.count_nonzero(modal == 0))
            assert not np.signbit(modal[modal == 0]).any()
        assert zeros > 0

    def test_scalar_matrix(self):
        dec = eig_sym(np.array([[5.0]]))
        assert dec.values[0] == pytest.approx(5.0)
        assert dec.modal[0, 0] == pytest.approx(1.0)

    def test_already_diagonal(self):
        dec = eig_sym(np.diag([3.0, -1.0, 2.0]))
        assert np.allclose(dec.values, [-1.0, 2.0, 3.0])

    def test_repeated_calls_are_identical(self):
        L = laplacian(random_connected_graph(20, random.Random(7)))
        first, second = eig_sym(L), eig_sym(L)
        assert np.array_equal(first.values, second.values)
        assert np.array_equal(first.modal, second.modal)

    @given(st.integers(min_value=1, max_value=10), st.integers())
    @settings(max_examples=30, deadline=None)
    def test_random_laplacian_eigen_equation(self, k, seed):
        L = laplacian(random_connected_graph(k, random.Random(seed))).astype(float)
        dec = eig_sym(L)
        resid = L @ dec.modal - dec.modal * dec.values
        assert np.max(np.abs(resid)) < 1e-8 * max(1.0, float(dec.values[-1]))
        # connected graph: eigenvalue 0 is simple and its vector is constant
        assert dec.values[0] == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(dec.modal[:, 0], 1.0 / np.sqrt(k), atol=1e-8)


# ---------------------------------------------------------------------------
# eigenspace clustering
# ---------------------------------------------------------------------------

class TestEigenspaces:
    def test_default_gtol(self):
        assert default_gtol(np.array([0.0, 0.5])) == pytest.approx(1e-7)
        assert default_gtol(np.array([0.0, 20.0])) == pytest.approx(2e-6)

    def test_complete_graph_multiplicity(self):
        spaces = eigenspaces(eig_sym(laplacian(gen_complete(5))))
        assert [s.basis.shape[1] for s in spaces] == [1, 4]
        assert spaces[0].value == pytest.approx(0.0, abs=1e-9)
        assert spaces[1].value == pytest.approx(5.0)

    def test_repeated_eigenspace_projector_is_basis_free(self):
        # the basis inside the 4-dimensional eigenspace of K5 is the solver's
        # choice; the eigenspace itself, the orthogonal complement of the
        # all-ones vector, is not
        big = eigenspaces(eig_sym(laplacian(gen_complete(5))))[1].basis
        assert np.allclose(big @ big.T, np.eye(5) - np.ones((5, 5)) / 5,
                           rtol=0, atol=1e-12)

    def test_path_all_simple(self):
        spaces = eigenspaces(eig_sym(laplacian(gen_path(6))))
        assert [s.basis.shape[1] for s in spaces] == [1] * 6

    def test_bases_orthonormal_within_cluster(self):
        spaces = eigenspaces(eig_sym(laplacian(gen_complete(4))))
        big = spaces[1].basis
        assert np.allclose(big.T @ big, np.eye(3), atol=1e-10)
        # the bases are LAPACK's columns, used as they come
        for g in (gen_complete(5), gen_threshold("UUUUJ"), gen_threshold("UJUJ")):
            for space in eigenspaces(eig_sym(laplacian(g))):
                Q = space.basis
                assert np.allclose(Q.T @ Q, np.eye(Q.shape[1]), rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# closed-form antiregular spectrum and integer modal table
# ---------------------------------------------------------------------------

class TestAntiregularSpectrum:
    @pytest.mark.parametrize("k", range(2, 13))
    def test_formula_matches_solver(self, k):
        dec = eig_sym(laplacian(gen_antiregular(k)))
        assert np.allclose(dec.values, antiregular_spectrum(k), atol=1e-8)

    def test_skipped_value(self):
        assert antiregular_spectrum(5) == [0, 1, 2, 4, 5]   # skips 3
        assert antiregular_spectrum(6) == [0, 1, 2, 4, 5, 6]
        assert antiregular_spectrum(2) == [0, 2]

    @pytest.mark.parametrize("k", range(2, 13))
    def test_all_integers_simple(self, k):
        spec = antiregular_spectrum(k)
        assert len(spec) == k == len(set(spec))
        assert spec == sorted(spec)
        missing = set(range(k + 1)) - set(spec)
        assert missing == {(k + 1) // 2}


class TestAntiregularModal:
    @pytest.mark.parametrize("k", range(2, 13))
    def test_exact_integer_eigen_equation(self, k):
        L = laplacian(gen_antiregular(k)).astype(np.int64)
        M = antiregular_modal(k)
        lam = np.array(antiregular_spectrum(k), dtype=np.int64)
        assert M.dtype == np.int64
        assert np.array_equal(L @ M, M * lam)

    @pytest.mark.parametrize("k", range(2, 13))
    def test_columns_exactly_orthogonal(self, k):
        M = antiregular_modal(k)
        gram = M.T @ M
        off = gram - np.diag(np.diag(gram))
        assert np.array_equal(off, np.zeros_like(off))

    def test_first_column_constant(self):
        M = antiregular_modal(8)
        assert np.array_equal(M[:, 0], np.ones(8, dtype=np.int64))

    def test_columns_nonzero(self):
        for k in range(2, 10):
            M = antiregular_modal(k)
            assert np.all(np.any(M != 0, axis=0))


# ---------------------------------------------------------------------------
# majorization
# ---------------------------------------------------------------------------

class TestMajorization:
    @pytest.mark.parametrize("k", range(2, 9))
    def test_holds_on_antiregular(self, k):
        g = gen_antiregular(k)
        dec = eig_sym(laplacian(g))
        assert check_majorization(dec.values, conjugate(degree_sequence(g)))

    def test_violation_detected(self):
        # doubling the top eigenvalue of the path breaks the first partial sum
        g = gen_path(4)
        dec = eig_sym(laplacian(g))
        fake = dec.values.copy()
        fake[-1] = float(conjugate(degree_sequence(g))[0]) + 1.0
        assert not check_majorization(fake, conjugate(degree_sequence(g)))

    def test_threshold_graphs_achieve_equality(self):
        # for threshold graphs the spectrum equals the conjugate degrees
        for word in ["J", "UJ", "JUJ", "UJUJ", "JJUJ"]:
            g = gen_threshold(word)
            dec = eig_sym(laplacian(g))
            dstar = np.fromiter(conjugate(degree_sequence(g)), dtype=float)
            assert np.allclose(np.sort(dec.values)[::-1], dstar, atol=1e-8)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            check_majorization(np.zeros(3), (1, 1))
