"""Controllability deciders: PBH, exact Kalman rank, and the Gramian test."""

import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lapctrl import (
    GRAMIAN_EIG_FLOOR,
    ChainSpec,
    CompositeSpec,
    Graph,
    Verdict,
    chain_antiregular,
    composite,
    controllable_vertices,
    default_gtol,
    eig_sym,
    eigenspaces,
    exact_verdict,
    exact_verdicts,
    gen_antiregular,
    gen_complete,
    gen_path,
    gen_threshold,
    gramian_check,
    input_vector,
    is_connected,
    kalman_rank_exact,
    laplacian,
    pbh_verdict,
    random_connected_graph,
    valid_chain_input,
)
from lapctrl.spectral import _fix_signs
from lapctrl.verify import SUITES


def _ev(n, *vertices):
    return input_vector(n, vertices)


def _star(n):
    return Graph.from_edges(n, [(1, v) for v in range(2, n + 1)])


def _complete_bipartite(a, b):
    return Graph.from_edges(a + b, [(u, a + v) for u in range(1, a + 1) for v in range(1, b + 1)])


def _svd_witness(L, b):
    """PBH by the SVD of each eigenspace's projection Q^T b (a d-by-1
    matrix), the rule for a multi-column input: the first space whose
    projection has fewer than d singular values above 1e-8 yields Q u, u the
    last left singular vector of the full SVD, normalized and sign-fixed."""
    for space in eigenspaces(eig_sym(L)):
        Q = space.basis
        u, s, _ = np.linalg.svd(Q.T @ b.reshape(-1, 1).astype(float))
        if len(s) == Q.shape[1] and s[-1] > 1e-8:
            continue
        w = (Q @ u[:, -1:])[:, 0]
        w = w / np.linalg.norm(w)
        if w[int(np.argmax(np.abs(w)))] < 0:
            w = -w
        return w + 0.0, space.value
    return None, None


def _pbh_reference(L, b):
    """PBH one eigenspace at a time, the decider's earlier loop with its own
    gap clustering, kept as the reference its verdicts must match bit for
    bit: (controllable, witness, witness_value)."""
    dec = eig_sym(L)
    values, bf = dec.values, b.reshape(-1).astype(float)
    cuts = np.flatnonzero(np.diff(values, prepend=-np.inf, append=np.inf) > default_gtol(values))
    for lo, hi in zip(cuts, cuts[1:]):
        Q = dec.modal[:, lo:hi]
        proj = Q.T @ bf
        if len(proj) == 1 and abs(proj[0]) > 1e-8:
            continue
        witness = Q @ np.linalg.svd(proj[:, None])[0][:, -1:]
        witness = _fix_signs(witness / np.linalg.norm(witness))[:, 0]
        return False, witness, float(np.mean(values[lo:hi]))
    return True, None, None


def _pbh_reference_cases():
    """(id, graph) pairs on whose every vertex PBH is checked against
    _pbh_reference."""
    rng = random.Random(19)
    randoms = [random_connected_graph(rng.randint(1, 60), rng) for _ in range(20)]
    chains = [chain_antiregular(ChainSpec(c=6, k2=6, links=tuple(links)))
              for links in ("DDDTT", "DTTTT")]
    composites = [composite(CompositeSpec(structure=gen_antiregular(10), cell=gen_path(10), s=s))
                  for s in (1, 2, 9, 10)]
    thresholds = [gen_threshold(word) for word in
                  ("JJJJ", "UUUUJ", "UJUJUJ", "UUJJUUJJ", "UUUJJJUUUJ", "JUJUUJJJUUJ" * 2)]
    return [
        *[(f"P{k}", gen_path(k)) for k in range(1, 41)],
        *[(f"K{k}", gen_complete(k)) for k in range(1, 41)],
        *[(f"AR{k}", gen_antiregular(k)) for k in range(2, 41)],
        *[(f"random{i}-n{g.n}", g) for i, g in enumerate(randoms)],
        *[(f"threshold-n{g.n}", g) for g in thresholds],
        *[(f"6xAR6-{i}", g) for i, g in enumerate(chains)],
        *[(f"AR10(P10)-{i}", g) for i, g in enumerate(composites)],
    ]


def _fraction_free_rank(L, b):
    """Kalman rank over the rationals by fraction-free integer elimination,
    the exact oracle's earlier routine, kept as the reference it must match.

    Each Krylov vector is reduced against the stored pivot vectors by
    integer cross-multiplication and divided by its gcd; the next vector is
    L times it. The chain stops when a vector reduces to zero.
    """
    n = len(L)
    rows = [[int(x) for x in row] for row in np.asarray(L)]
    pivots = []
    v = [int(x) for x in np.asarray(b).reshape(n)]
    while True:
        for pos, pivot in pivots:
            if v[pos]:
                a, c = pivot[pos], v[pos]
                v = [a * x - c * y for x, y in zip(v, pivot)]
        if not any(v):
            break
        g = math.gcd(*v)
        v = [x // g for x in v]
        pos = next(i for i, x in enumerate(v) if x)
        pivots.append((pos, v))
        if len(pivots) == n:
            break
        v = [sum(r * x for r, x in zip(row, v)) for row in rows]
    return len(pivots)


def _krylov_mod_reference(L, b, p):
    """(rank, q) of (L, b) over GF(p) one Krylov vector at a time, the exact
    oracle's earlier kernel, kept as the reference its (rank, q) must match.

    Each new vector f(L) b, with f's coefficients carried in n more columns,
    is reduced by the reduced-echelon pivot rows and reduced mod p; a new
    pivot is normalized and cleared from the rows above, and the next vector
    is L times it. The vector that reduces to zero gives the monic q.
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


# ---------------------------------------------------------------------------
# input vectors
# ---------------------------------------------------------------------------

class TestInputVector:
    def test_single_and_multi_vertex(self):
        assert np.array_equal(_ev(3, 2), np.array([[0], [1], [0]]))
        assert np.array_equal(_ev(3, 1, 3), np.array([[1], [0], [1]]))

    def test_duplicates_collapse(self):
        assert np.array_equal(_ev(3, 2, 2), _ev(3, 2))

    def test_errors(self):
        with pytest.raises(ValueError):
            _ev(3, 4)
        with pytest.raises(ValueError):
            _ev(3, 0)
        with pytest.raises(ValueError):
            input_vector(3, [])

    def test_two_input_columns_are_rejected(self):
        # one input is the only format: a second column is an error in every
        # decider, never a multi-input question
        L = laplacian(gen_path(6))
        B = np.hstack([_ev(6, 1), _ev(6, 2)])
        deciders = [pbh_verdict, kalman_rank_exact, exact_verdict, gramian_check,
                    lambda _, b: valid_chain_input(ChainSpec(c=2, k2=3, links=("D",)), b)]
        for decide in deciders:
            with pytest.raises(ValueError, match="6x1 column"):
                decide(L, B)

    def test_complex_input_is_rejected(self):
        # a cast to int64 keeps only the real part, with only a ComplexWarning,
        # so [1+7j, 0, 0] would be decided as e_1
        L = laplacian(gen_path(3))
        b = np.array([1 + 7j, 0, 0])
        chain = ChainSpec(c=2, k2=3, links=("D",))
        deciders = [pbh_verdict, kalman_rank_exact, gramian_check,
                    lambda _, b: valid_chain_input(chain, np.concatenate([b, [0, 0, 0]]))]
        for decide in deciders:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="input entries must be 0 or 1"):
                    decide(L, b)

    def test_flat_input_decides_like_its_column(self):
        for g in (gen_path(5), gen_antiregular(6), gen_complete(4)):
            L = laplacian(g)
            for v in range(1, g.n + 1):
                col = _ev(g.n, v)
                flat = col[:, 0]
                assert kalman_rank_exact(L, flat) == kalman_rank_exact(L, col)
                assert exact_verdict(L, flat) == exact_verdict(L, col)
                assert pbh_verdict(L, flat).controllable == pbh_verdict(L, col).controllable
                assert gramian_check(L, flat) == gramian_check(L, col)

    def test_non_integer_vertex_is_rejected(self):
        # a label is checked before it indexes b: b[2.0 - 1, 0] is an IndexError
        with pytest.raises(ValueError, match="2.0"):
            input_vector(3, [2.0])
        with pytest.raises(ValueError, match="True"):
            input_vector(3, [True])
        assert np.array_equal(input_vector(3, [np.int64(2)]), _ev(3, 2))


# ---------------------------------------------------------------------------
# the dtype rule: L and b are bool, integer or float arrays, nothing else
# ---------------------------------------------------------------------------

def _outcome(result):
    """Everything a decider decided, as plain comparable values and bytes."""
    if isinstance(result, Verdict):
        witness = None if result.witness is None else result.witness.tobytes()
        return (result.controllable, result.method, result.rank, witness,
                result.witness_value, result.min_eigenvalue)
    if hasattr(result, "modal"):
        return result.values.tobytes(), result.modal.tobytes()
    return result


_MATRIX_DECIDERS = {
    "eig_sym": lambda L, b: eig_sym(L),
    "pbh_verdict": pbh_verdict,
    "kalman_rank_exact": kalman_rank_exact,
    "exact_verdict": exact_verdict,
    "exact_verdicts": lambda L, b: exact_verdicts([(L, b)])[0],
    "gramian_check": gramian_check,
}
_INPUT_DECIDERS = {
    **{name: decide for name, decide in _MATRIX_DECIDERS.items() if name != "eig_sym"},
    "valid_chain_input": lambda L, b: valid_chain_input(ChainSpec(c=1, k2=len(L)), b),
}
_ACCEPTED = [np.bool_, np.int8, np.int32, np.uint8, np.uint64, np.float32, np.float64]
_BAD_MATRICES = {
    "object complex": [[1, -1], [-1, 1 + 0j]],
    "object big int": [[2**64, -2**64], [-2**64, 2**64]],
    "object nan": [[1, math.nan], [math.nan, 1]],
    "object inf": [[math.inf, -1], [-1, 1]],
    "str": np.array([["1", "-1"], ["-1", "1"]]),
    "bytes": np.array([[b"1", b"-1"], [b"-1", b"1"]]),
}
_BAD_INPUTS = {
    "object complex": [1 + 2j, 0],
    "object big int": [2**64, 0],
    "object nan": [math.nan, 1],
    "object inf": [math.inf, 1],
    "str": np.array(["1", "0"]),
    "bytes": np.array([b"1", b"0"]),
}


def _as_array(bad):
    return bad if isinstance(bad, np.ndarray) else np.array(bad, dtype=object)


_NOT_BINARY = "input entries must be 0 or 1"
_ALL_ZERO = "input must have at least one nonzero entry"
_INPUT_ERRORS = {  # a bad input of order 3 and the one message every decider gives
    "int 2": (np.array([2, 0, 0]), _NOT_BINARY),
    "int -1": (np.array([-1, 1, 0]), _NOT_BINARY),
    "int64 zeros": (np.zeros(3, dtype=np.int64), _ALL_ZERO),
    "uint8 255": (np.array([255, 1, 0], dtype=np.uint8), _NOT_BINARY),
    "bool all False": (np.zeros((3, 1), dtype=bool), _ALL_ZERO),
    "float 0.5": (np.array([0.5, 1.0, 0.0]), _NOT_BINARY),
    "float nan": (np.array([[math.nan], [1.0], [0.0]]), _NOT_BINARY),
    "float zeros": (np.zeros(3), _ALL_ZERO),
    "complex": (np.array([1, 0, 0], dtype=complex), _NOT_BINARY),
    "object": (np.array([1, 0, 0], dtype=object), _NOT_BINARY),
    "3x2 holding a 2": (np.array([[2, 0], [0, 0], [0, 0]]),
                        "input must be a length-3 vector or an 3x1 column, got shape (3, 2)"),
    "1x3": (np.ones((1, 3), dtype=np.int64),
            "input must be a length-3 vector or an 3x1 column, got shape (1, 3)"),
    "length 2": (np.ones(2, dtype=np.int64),
                 "input must be a length-3 vector or an 3x1 column, got shape (2,)"),
    "scalar": (np.int64(1), "input must be a length-3 vector or an 3x1 column, got shape ()"),
}


class TestDtypeRule:
    @pytest.mark.parametrize("dtype", _ACCEPTED, ids=lambda t: t.__name__)
    @pytest.mark.parametrize("name", _MATRIX_DECIDERS)
    def test_accepted_matrix_kinds_decide_like_int64(self, name, dtype):
        # a Laplacian, a signless Laplacian and an adjacency matrix, each
        # where the dtype holds it exactly (bool holds only the last)
        decide, checked = _MATRIX_DECIDERS[name], 0
        for g in (gen_path(4), random_connected_graph(7, random.Random(3))):
            L = laplacian(g)
            D = np.diag(np.diag(L))
            for m in (L, 2 * D - L, D - L):
                if not np.array_equal(m.astype(dtype), m):
                    continue
                for v in range(1, g.n + 1):
                    b = _ev(g.n, v)
                    assert _outcome(decide(m.astype(dtype), b)) == _outcome(decide(m, b))
                    checked += 1
        assert checked > 0

    @pytest.mark.parametrize("dtype", _ACCEPTED, ids=lambda t: t.__name__)
    @pytest.mark.parametrize("name", _INPUT_DECIDERS)
    def test_accepted_input_kinds_decide_like_int64(self, name, dtype):
        decide = _INPUT_DECIDERS[name]
        L = laplacian(gen_antiregular(5))
        for vertices in ([1], [3], [4], [1, 3], [1, 2, 4, 5]):
            b = _ev(5, *vertices)[:, 0]
            assert _outcome(decide(L, b.astype(dtype))) == _outcome(decide(L, b))

    @pytest.mark.parametrize("kind", _BAD_MATRICES)
    @pytest.mark.parametrize("name", _MATRIX_DECIDERS)
    def test_matrix_of_rejected_kind(self, name, kind):
        # one ValueError for every other kind: no TypeError or OverflowError
        # from a cast, no "not symmetric" for NaN, and no parsing of text
        with pytest.raises(ValueError, match="matrix must be real"):
            _MATRIX_DECIDERS[name](_as_array(_BAD_MATRICES[kind]), np.array([1, 0]))

    @pytest.mark.parametrize("kind", _BAD_INPUTS)
    @pytest.mark.parametrize("name", _INPUT_DECIDERS)
    def test_input_of_rejected_kind(self, name, kind):
        with pytest.raises(ValueError, match="input entries must be 0 or 1"):
            _INPUT_DECIDERS[name](laplacian(gen_path(2)), _as_array(_BAD_INPUTS[kind]))

    @pytest.mark.parametrize("bad", _INPUT_ERRORS)
    @pytest.mark.parametrize("name", _INPUT_DECIDERS)
    def test_each_bad_input_gives_its_one_message(self, name, bad):
        b, message = _INPUT_ERRORS[bad]
        with pytest.raises(ValueError) as got:
            _INPUT_DECIDERS[name](laplacian(gen_path(3)), b)
        assert str(got.value) == message

    def test_a_bad_input_before_a_bad_matrix_gives_the_inputs_message(self):
        # pairs are checked in order, L before b: the bad input follows a
        # good pair of the same L, whose index it reuses, and comes before a
        # matrix that is not integer
        L, bad_L = laplacian(gen_path(3)), 1.5 * laplacian(gen_path(3))
        for b, message in _INPUT_ERRORS.values():
            with pytest.raises(ValueError) as got:
                exact_verdicts([(L, _ev(3, 1)), (L, b), (bad_L, _ev(3, 1))])
            assert str(got.value) == message
            with pytest.raises(ValueError, match="exact rank needs an integer matrix"):
                exact_verdicts([(L, _ev(3, 1)), (bad_L, _ev(3, 1)), (L, b)])


# ---------------------------------------------------------------------------
# PBH eigenvector test
# ---------------------------------------------------------------------------

class TestPBH:
    def test_path3_end_controllable(self):
        v = pbh_verdict(laplacian(gen_path(3)), _ev(3, 1))
        assert v.controllable and v.method == "pbh" and v.witness is None

    def test_noninteger_laplacian_end_controllable(self):
        # a non-integer L, which the exact oracle refuses, is decided by PBH
        v = pbh_verdict(1.5 * laplacian(gen_path(3)), _ev(3, 1))
        assert v.controllable and v.method == "pbh" and v.witness is None

    def test_path3_center_uncontrollable_with_witness(self):
        L = laplacian(gen_path(3))
        v = pbh_verdict(L, _ev(3, 2))
        assert not v.controllable
        w = v.witness
        # witness is the unit eigenvector (1, 0, -1)/sqrt(2), eigenvalue 1
        assert v.witness_value == pytest.approx(1.0, abs=1e-8)
        assert np.allclose(np.abs(w), [1 / math.sqrt(2), 0, 1 / math.sqrt(2)], atol=1e-8)
        assert w[int(np.argmax(np.abs(w)))] > 0
        assert abs(float(w @ _ev(3, 2).ravel())) < 1e-10
        assert np.max(np.abs(L @ w - v.witness_value * w)) < 1e-8

    def test_path3_split_input_uncontrollable(self):
        # b = e1 + e3 is orthogonal to the odd eigenvector of the path
        v = pbh_verdict(laplacian(gen_path(3)), _ev(3, 1, 3))
        assert not v.controllable

    def test_repeated_eigenvalue_blocks_single_input(self):
        # the complete graph has an eigenspace of dimension n-1; one input
        # can never cover it
        for n in (3, 4, 5):
            L = laplacian(gen_complete(n))
            v = pbh_verdict(L, _ev(n, 1))
            assert not v.controllable
            assert v.witness_value == pytest.approx(float(n), abs=1e-7)
            w = v.witness
            assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
            assert abs(float(w @ _ev(n, 1).ravel())) < 1e-10
            assert np.max(np.abs(L @ w - n * w)) < 1e-8

    def test_one_decomposition_per_decision(self, monkeypatch):
        import lapctrl.controllability as ctrl
        calls = []

        def counting(m, *args, **kwargs):
            calls.append(np.shape(m))
            return eig_sym(m, *args, **kwargs)

        monkeypatch.setattr(ctrl, "eig_sym", counting)
        # controllable, so every one of the 36 eigenspaces is visited
        assert pbh_verdict(laplacian(gen_path(36)), _ev(36, 1)).controllable
        assert calls == [(36, 36)]

    def _count_svd(self, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counting(a, *args, **kwargs):
            calls.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        return calls

    def test_controllable_pair_takes_no_svd(self, monkeypatch):
        calls = self._count_svd(monkeypatch)
        assert pbh_verdict(laplacian(gen_path(36)), _ev(36, 1)).controllable
        assert calls == []

    @pytest.mark.parametrize("g, v", [(gen_complete(5), 1), (gen_path(3), 2)])
    def test_uncontrollable_pair_takes_one_svd(self, monkeypatch, g, v):
        calls = self._count_svd(monkeypatch)
        assert not pbh_verdict(laplacian(g), _ev(g.n, v)).controllable
        assert len(calls) == 1

    @pytest.mark.parametrize("g, vertices", [
        *[(gen_complete(k), range(1, k + 1)) for k in range(3, 9)],
        (_star(6), range(1, 7)),
        (_complete_bipartite(3, 4), range(1, 8)),
        (gen_path(3), [2]),
        (gen_path(5), [3]),
    ])
    def test_witness_matches_the_svd_rule_bit_for_bit(self, g, vertices):
        L = laplacian(g)
        for v in vertices:
            expected, value = _svd_witness(L, _ev(g.n, v))
            verdict = pbh_verdict(L, _ev(g.n, v))
            assert expected is not None and not verdict.controllable
            assert verdict.witness.tobytes() == expected.tobytes(), v
            assert verdict.witness_value == value

    @pytest.mark.parametrize("g", [pytest.param(g, id=name) for name, g in _pbh_reference_cases()])
    def test_matches_the_eigenspace_loop_at_every_vertex(self, g):
        L = laplacian(g)
        for v in range(1, g.n + 1):
            controllable, witness, value = _pbh_reference(L, _ev(g.n, v))
            verdict = pbh_verdict(L, _ev(g.n, v))
            assert verdict.controllable == controllable, v
            assert verdict.witness_value == value, v
            assert (verdict.witness is None) == (witness is None), v
            if witness is not None:
                assert verdict.witness.tobytes() == witness.tobytes(), v

    def test_witness_zero_entries_are_positive_zeros(self):
        rng = random.Random(1)
        zeros = 0
        for _ in range(30):
            g = random_connected_graph(rng.randint(2, 20), rng)
            L = laplacian(g)
            for v in range(1, g.n + 1):
                w = pbh_verdict(L, _ev(g.n, v)).witness
                if w is not None:
                    zeros += int(np.count_nonzero(w == 0))
                    assert not np.signbit(w[w == 0]).any()
        assert zeros > 0

    def test_input_validation(self):
        L = laplacian(gen_path(3))
        with pytest.raises(ValueError):
            pbh_verdict(L, np.array([1, 2, 0]))     # entries not binary
        with pytest.raises(ValueError):
            pbh_verdict(L, np.zeros(3))             # no attachment
        with pytest.raises(ValueError):
            pbh_verdict(L, np.ones(4))              # wrong length
        with pytest.raises(ValueError):
            pbh_verdict(np.zeros((2, 3)), np.ones(2))  # non-square matrix

    def test_empty_matrix_is_rejected(self):
        for decide in (pbh_verdict, kalman_rank_exact, gramian_check):
            with pytest.raises(ValueError, match="nonempty square matrix"):
                decide(np.zeros((0, 0)), np.zeros(0))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_matrix_is_rejected(self, bad):
        L = laplacian(gen_path(4)).astype(float)
        L[0, 1] = L[1, 0] = bad
        for decide in (pbh_verdict, kalman_rank_exact, gramian_check):
            with pytest.raises(ValueError, match="non-finite entries"):
                decide(L, _ev(4, 1))

    def test_complex_matrix_is_rejected(self):
        # a cast to float drops the imaginary part with only a ComplexWarning:
        # L(P3) with +5j at [0, 0] would be decided as P3
        L = laplacian(gen_path(3)).astype(complex)
        L[0, 0] += 5j
        for decide in (lambda L, b: eig_sym(L), pbh_verdict, kalman_rank_exact,
                       gramian_check):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="matrix must be real"):
                    decide(L, _ev(3, 1))

    def test_known_false_negatives_on_six_block_chains(self):
        # Known-false pin: these chains of six AR6 blocks are controllable at
        # vertices 3 and 4 (exact rank 36/36), but PBH says uncontrollable.
        # In DDDTT the input vertex's entry of one eigenvector is 1.0e-9 of
        # the column's peak, below the 1e-8 cover threshold. In DTTTT two
        # eigenvalues near 1.0 lie 6.1e-7 apart, under default_gtol = 7.2e-7,
        # and merge into one 2-dimensional eigenspace that a single input
        # cannot cover. A PBH that answers "indeterminate" near its
        # thresholds (ROADMAP C) should flip this pin.
        for links in ("DDDTT", "DTTTT"):
            L = laplacian(chain_antiregular(ChainSpec(c=6, k2=6, links=tuple(links))))
            for v in (3, 4):
                assert kalman_rank_exact(L, _ev(36, v)) == 36
                assert not pbh_verdict(L, _ev(36, v)).controllable, (links, v)

    def test_known_false_negatives_on_ar10_of_p10_composites(self):
        # Known-false pin: the composites of the structure AR10 and the cell
        # P10 (order 100) are controllable at these twelve (s, input) pairs,
        # every such pair a scan of all s and inputs finds, but PBH says
        # uncontrollable. Each spectrum is simple, with smallest eigengaps
        # from 6.2e-5 to 8.6e-5, but the smallest entry of a unit
        # eigenvector at the input lies between 2.4e-10 and 9.8e-9, below
        # the 1e-8 cover threshold.
        inputs = {1: (50, 60), 2: (49, 50, 59, 60), 9: (41, 42, 51, 52), 10: (41, 51)}
        for s, vertices in inputs.items():
            spec = CompositeSpec(structure=gen_antiregular(10), cell=gen_path(10), s=s)
            L = laplacian(composite(spec))
            for v in vertices:
                assert kalman_rank_exact(L, _ev(100, v)) == 100, (s, v)
                assert not pbh_verdict(L, _ev(100, v)).controllable, (s, v)


# ---------------------------------------------------------------------------
# exact Kalman rank
# ---------------------------------------------------------------------------

class TestKalmanExact:
    def test_path3_ranks(self):
        L = laplacian(gen_path(3))
        assert kalman_rank_exact(L, _ev(3, 1)) == 3
        assert kalman_rank_exact(L, _ev(3, 2)) == 2
        assert kalman_rank_exact(L, _ev(3, 1, 3)) == 2

    def test_complete3_rank(self):
        L = laplacian(gen_complete(3))
        assert kalman_rank_exact(L, _ev(3, 1)) == 2

    def test_path_from_end_full_rank(self):
        for k in (2, 5, 8, 12):
            L = laplacian(gen_path(k))
            assert kalman_rank_exact(L, _ev(k, 1)) == k

    def test_scaling_invariance(self):
        # exact arithmetic survives huge entries without precision loss
        L = laplacian(gen_path(5))
        assert kalman_rank_exact(10**9 * L, _ev(5, 2)) == kalman_rank_exact(L, _ev(5, 2))
        # ... but a non-integer scale leaves exact arithmetic, so it is refused
        with pytest.raises(ValueError, match="integer"):
            kalman_rank_exact(1.5 * laplacian(gen_path(3)), _ev(3, 1))

    def test_permutation_invariance(self):
        L = laplacian(gen_path(4))
        perm = np.array([2, 0, 3, 1])
        P = np.eye(4, dtype=np.int64)[perm]
        for v in range(4):
            b = np.zeros((4, 1), dtype=np.int64)
            b[v, 0] = 1
            assert kalman_rank_exact(P @ L @ P.T, P @ b) == kalman_rank_exact(L, b)

    def test_matches_float_rank_oracle(self):
        rng = random.Random(11)
        for _ in range(25):
            k = rng.randint(2, 7)
            g = random_connected_graph(k, rng)
            L = laplacian(g)
            b = _ev(k, rng.randint(1, k))
            ctrb = np.hstack([np.linalg.matrix_power(L.astype(float), i) @ b
                              for i in range(k)])
            assert kalman_rank_exact(L, b) == np.linalg.matrix_rank(ctrb, tol=1e-7)

    def test_matches_the_fraction_free_reference(self):
        # every vertex of P, K and AR up to order 20 and at order 30; one
        # input per random graph of every other order up to 40, a single
        # vertex and a vertex set in turn
        cases = []
        for k in (*range(2, 21), 30):
            for g in (gen_path(k), gen_complete(k), gen_antiregular(k)):
                cases += [(laplacian(g), _ev(k, v)) for v in range(1, k + 1)]
        rng = random.Random(40)
        for i, k in enumerate(range(2, 41, 2)):
            L = laplacian(random_connected_graph(k, rng))
            cases.append((L, _ev(k, *rng.sample(range(1, k + 1), rng.randint(1, k) if i % 2 else 1))))
        for structure, cell in ((gen_antiregular(4), gen_path(4)),
                                (gen_path(4), gen_antiregular(4))):
            for s in range(1, cell.n + 1):
                g = composite(CompositeSpec(structure=structure, cell=cell, s=s))
                cases += [(laplacian(g), _ev(g.n, v)) for v in range(1, g.n + 1)]
        for k in range(2, 9):
            L = laplacian(gen_path(k))
            for v in range(1, k + 1):
                cases += [(10**9 * L, _ev(k, v)), (7 * L + 3 * np.eye(k, dtype=np.int64), _ev(k, v)),
                          (-L, _ev(k, v))]
        deficient = 0
        for L, b in cases:
            expected = _fraction_free_rank(L, b)
            assert kalman_rank_exact(L, b) == expected, (L.tolist(), b.ravel().tolist())
            deficient += expected < len(L)
        assert 0 < deficient < len(cases)  # both bounds decide some case

    def test_first_primes_are_the_trial_division_primes(self, monkeypatch):
        # the 200 largest primes below 2^21, in descending order, as trial
        # division finds them; and the 1501st, asked for first of all, which
        # grows the memo from empty by one loop, not one call per prime
        import lapctrl.controllability as ctrl
        primes, p = [], 1 << 21
        while len(primes) < 1501:
            p -= 1
            if all(p % d for d in range(2, math.isqrt(p) + 1)):
                primes.append(p)
        monkeypatch.setattr(ctrl, "_PRIMES", [])
        assert ctrl._prime(1500) == primes[1500]
        assert [ctrl._prime(i) for i in range(200)] == primes[:200]

    def test_kernel_matches_the_reference_kernel(self):
        # modulo the largest prime and the eighth: every vertex of P, K and
        # AR up to order 40, and three vertices of random graphs up to order
        # 60. P at vertex 1 (full rank) and a graph with one twin pair at
        # vertex 1 (rank one below the order) of orders 63 to 130, so that
        # ranks 63, 64, 65, 128 and 129 come both full and deficient; and
        # symmetric integer matrices with entries in -3..3. These take the
        # largest prime and 2^24 - 3, where n (p - 1)^2 passes 2^53 from
        # order 33, so the mat-vec runs in int64 as it does at the oracle's
        # primes from order 2048
        import lapctrl.controllability as ctrl
        rng = random.Random(17)
        primes = ctrl._prime(0), ctrl._prime(7)
        cases = [(laplacian(g), range(1, g.n + 1), primes) for k in (2, 8, 16, 17, 32, 33, 40)
                 for g in (gen_path(k), gen_complete(k), gen_antiregular(k))]
        for _ in range(10):
            g = random_connected_graph(rng.randint(2, 60), rng)
            cases.append((laplacian(g), {1, (g.n + 1) // 2, g.n}, primes))
        primes = ctrl._prime(0), 2**24 - 3
        for k in (63, 64, 65, 128, 129):
            cases.append((laplacian(gen_path(k)), [1], primes))
            g = random_connected_graph(k, rng)
            twin = [(u + v - k, k + 1) for u, v in g.edges if k in (u, v)]
            cases.append((laplacian(Graph.from_edges(k + 1, [*g.edges, *twin])), [1], primes))
        for k in (70, 130):
            A = np.array([[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)])
            cases.append((np.triu(A) + np.triu(A, 1).T, [1, k], primes))
        full, deficient = set(), set()
        for L, vertices, primes in cases:
            for v in vertices:
                b = _ev(len(L), v).ravel()
                for p in primes:
                    result = ctrl._krylov_mod(L % p, b, p)
                    assert result == _krylov_mod_reference(L % p, b, p), (L.tolist(), v, p)
                    (full if result[0] == len(L) else deficient).add(result[0])
        assert {16, 17, 32, 33, 40, 63, 64, 65, 70, 128, 129, 130} <= full
        assert {63, 64, 65, 128, 129} <= deficient

    @pytest.fixture
    def krylov_results(self, monkeypatch):
        """(prime, result) of each lone-pair kernel (_krylov_mod) run."""
        import lapctrl.controllability as ctrl
        runs = []
        krylov = ctrl._krylov_mod

        def recording(L, b, p):
            runs.append((p, krylov(L, b, p)))
            return runs[-1][1]

        monkeypatch.setattr(ctrl, "_krylov_mod", recording)
        return runs

    def test_a_lone_pair_breakdown_waits_for_the_next_prime(self, krylov_results):
        # the 2038/201/21 matrix at e_1 has d_1 = 2 p0, zero mod the first
        # prime p0 while v_1 = L e_1 is not: a breakdown, which decides
        # nothing. The later primes run the recurrence to q = x^2 - 2 p0,
        # whose residue mod p1 lifts to -20, not -2 p0; with p2 the CRT lift
        # is exact and q(L) b = 0 decides rank 2
        import lapctrl.controllability as ctrl
        p0, p1, p2 = (ctrl._prime(i) for i in range(3))
        isotropic = np.zeros((4, 4), dtype=np.int64)
        isotropic[0, 1:] = isotropic[1:, 0] = 2038, 201, 21
        b = _ev(4, 1)
        assert kalman_rank_exact(isotropic, b) == _fraction_free_rank(isotropic, b) == 2
        assert krylov_results == [(p0, None), *((p, (2, [-2 * p0 % p, 0, 1])) for p in (p1, p2))]

    def test_the_mat_vec_runs_in_int64_past_2_to_the_53(self):
        # at 2^24 - 3, n (p - 1)^2 passes 2^53 from order 33, where the
        # float64 mat-vec would round, so it runs in int64 there
        import lapctrl.controllability as ctrl
        q, kinds = 2**24 - 3, []

        class Typed(np.ndarray):
            def dot(self, other):
                kinds.append(self.dtype)
                return np.asarray(self).dot(other)

        for k, kind in ((32, np.float64), (33, np.int64)):
            kinds.clear()
            L = (laplacian(gen_path(k)) % q).view(Typed)
            assert ctrl._krylov_mod(L, _ev(k, 1).ravel(), q) == (k, None)
            assert kinds == [kind] * (k - 1)

    def test_lanczos_matches_the_reference_kernel_at_small_primes(self):
        # modulo 13 and 101 a self-product d_k = 0 while v_k is not zero is
        # common, so breakdowns come beside the recurrence: every vertex of
        # P, K and AR up to order 24, and random symmetric matrices with
        # entries in -3..3 at one vertex each. A breakdown gives None, and
        # every other run the reference kernel's (rank, q)
        import lapctrl.controllability as ctrl
        rng = random.Random(29)
        cases = [(laplacian(g), _ev(g.n, v).ravel()) for k in range(2, 25)
                 for g in (gen_path(k), gen_complete(k), gen_antiregular(k))
                 for v in range(1, k + 1)]
        for _ in range(60):
            k = rng.randint(2, 24)
            A = np.array([[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)])
            cases.append((np.triu(A) + np.triu(A, 1).T, _ev(k, rng.randint(1, k)).ravel()))
        for p in (13, 101):
            breakdowns = 0
            for L, b in cases:
                result = ctrl._krylov_mod(L % p, b, p)
                breakdowns += result is None
                assert result in (None, _krylov_mod_reference(L % p, b, p)), (
                    L.tolist(), b.tolist(), p)
            assert 0 < breakdowns < len(cases)

    def test_breakdowns_at_small_primes_wait_for_the_next_prime(self, monkeypatch,
                                                               krylov_results):
        # from 1021 down, self-orthogonal vectors are common, yet every rank
        # is the fraction-free one: every vertex of P, K and AR up to order
        # 12 and seeded symmetric matrices with entries in -3..3. AR11 at
        # vertex 8 breaks down at 1021 and is decided at a later prime
        import lapctrl.controllability as ctrl
        monkeypatch.setattr(ctrl, "_PRIMES", [1021])
        rng = random.Random(31)
        cases = [(laplacian(g), _ev(g.n, v)) for k in range(2, 13)
                 for g in (gen_path(k), gen_complete(k), gen_antiregular(k))
                 for v in range(1, k + 1)]
        for _ in range(40):
            k = rng.randint(2, 12)
            A = np.array([[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)])
            cases.append((np.triu(A) + np.triu(A, 1).T, _ev(k, rng.randint(1, k))))
        breakdowns = []
        for L, b in cases:
            krylov_results.clear()
            assert kalman_rank_exact(L, b) == _fraction_free_rank(L, b), (L.tolist(), b.tolist())
            assert max(p for p, _ in krylov_results) < 2**10
            breakdowns += [len(L) for _, result in krylov_results if result is None]
        assert breakdowns == [11]

    @pytest.fixture
    def lone_runs(self, monkeypatch):
        """(matrix bytes, order) of each lone-pair kernel (_krylov_mod) run."""
        import lapctrl.controllability as ctrl
        runs = []
        krylov = ctrl._krylov_mod

        def recording(L, b, p):
            runs.append((L.tobytes(), len(b)))
            return krylov(L, b, p)

        monkeypatch.setattr(ctrl, "_krylov_mod", recording)
        return runs

    def test_stacked_kernel_matches_the_reference_kernel(self, lone_runs):
        # one _minpoly_mod call holds every order at once: P, K and AR of
        # orders 2..40 at every vertex, random graphs up to order 60 at
        # random inputs, and symmetric integer matrices. Every member must
        # match the reference pair by pair; at small primes, where a
        # sequence misses q_p more often and runs _krylov_mod, a member may
        # instead give None, a breakdown of that run. The reference is slow,
        # so those primes take the family orders up to 24 only
        import lapctrl.controllability as ctrl
        rng = random.Random(23)
        Ls, families, others = [], [], []
        for g in [fn(k) for k in range(2, 41) for fn in (gen_path, gen_complete, gen_antiregular)]:
            Ls.append(laplacian(g))
            families += [(len(Ls) - 1, _ev(g.n, v).ravel()) for v in range(1, g.n + 1)]
        for _ in range(12):
            g = random_connected_graph(rng.randint(2, 60), rng)
            Ls.append(laplacian(g))
            inputs = [rng.sample(range(1, g.n + 1), rng.randint(1, 3)) for _ in range(4)]
            others += [(len(Ls) - 1, _ev(g.n, *vs).ravel()) for vs in inputs]
        for _ in range(6):
            k = rng.randint(2, 12)
            A = np.array([[rng.randint(-3, 3) for _ in range(k)] for _ in range(k)])
            Ls.append(np.triu(A) + np.triu(A, 1).T)
            others += [(len(Ls) - 1, _ev(k, v).ravel()) for v in range(1, k + 1)]
        members = families + others
        small = [(m, b) for m, b in families if len(b) <= 24] + others
        rng.shuffle(members)
        runs = {}
        for p, stack in ((ctrl._prime(0), members), (ctrl._prime(7), small), (101, small),
                         (13, small)):
            lone_runs.clear()
            result = ctrl._minpoly_mod(Ls, stack, p)
            reference = [_krylov_mod_reference(Ls[m] % p, b, p) for m, b in stack]
            assert all(got in (None, expected) for got, expected in zip(result, reference)), p
            runs[p] = len(lone_runs), result.count(None)
            if p == ctrl._prime(0):
                assert result == reference
                assert {2, 39, 40} <= {rank for rank, _ in result}
        assert runs[ctrl._prime(0)] == (0, 0)
        # a sequence of linear complexity below deg q_p makes a leading
        # Hankel minor of the s_k singular, and with it a Lanczos
        # self-product, so each run it falls back to breaks down as well
        assert runs[13][0] == runs[13][1] > 0

    @pytest.mark.parametrize("j", [0, 5, 10, 15, 20])
    def test_powers_reduced_in_blocks_match_the_reference_kernel(self, j):
        # x_k is reduced once per block of lag products, lag the largest
        # with (p/2 + 1) R^lag < 2^52, R the largest absolute column sum of
        # L mod p in residues of least size. On 2^j L for P, K and AR of
        # orders 2..20 and the first prime, lag runs from the order itself
        # (j = 0, R = 4 on a path) through 6 (j = 0, K20) and 2 (j = 10) to
        # 1, every power reduced (j = 20)
        import lapctrl.controllability as ctrl
        p = ctrl._prime(0)
        Ls, members = [], []
        for g in [fn(k) for k in range(2, 21) for fn in (gen_path, gen_complete, gen_antiregular)]:
            Ls.append(2**j * laplacian(g))
            members += [(len(Ls) - 1, _ev(g.n, v).ravel()) for v in range(1, g.n + 1)]
        assert ctrl._minpoly_mod(Ls, members, p) == [
            _krylov_mod_reference(Ls[m] % p, b, p) for m, b in members]

    def test_a_sequence_that_misses_q_waits_for_the_next_prime(self, lone_runs):
        # L e_1 = u e_2 + v e_3 + w e_4 with u^2 + v^2 + w^2 = 2 p for the
        # first prime p, so x_1 = L e_1 has x_1 . x_1 = 0 and L x_1 = 0 mod p:
        # the sequence b^T L^k b is 1, 0, 0, ..., whose f = x leaves L e_1 =
        # x_1, not 0. So f is refused, and _krylov_mod breaks down on the
        # same self-product: the member gives None beside a path pair of the
        # same stack, which the sequence decides. Over the rationals q = x^2
        # - 2p, of rank 2, which the later primes give
        import lapctrl.controllability as ctrl
        p = ctrl._prime(0)
        L = np.zeros((4, 4), dtype=np.int64)
        L[0, 1:] = L[1:, 0] = 2038, 201, 21
        assert 2038**2 + 201**2 + 21**2 == 2 * p
        path = laplacian(gen_path(3))
        b = _ev(4, 1).ravel()
        assert ctrl._minpoly_mod([L, path], [(0, b), (1, _ev(3, 1).ravel())], p) == [
            None, (3, None)]
        assert lone_runs == [((L % p).tobytes(), 4)]
        # in exact_verdicts: the breakdown in the first round's stack, then
        # the pair alone at each later prime until its q lifts exactly
        lone_runs.clear()
        verdicts = exact_verdicts([(L, b), (path, _ev(3, 1))])
        assert [n for _, n in lone_runs] == [4, 4, 4]
        assert verdicts == [exact_verdict(L, b), exact_verdict(path, _ev(3, 1))]
        assert verdicts[0].rank == _fraction_free_rank(L, b) == 2
        # the same at 101 = 10^2 + 1^2 on a 3 x 3 matrix
        small = np.array([[0, 1, 10], [1, 0, 0], [10, 0, 0]])
        lone_runs.clear()
        b2 = _ev(3, 2).ravel()
        assert ctrl._minpoly_mod([small, path], [(0, _ev(3, 1).ravel()), (1, b2)], 101) == [
            None, _krylov_mod_reference(path, b2, 101)]
        assert [n for _, n in lone_runs] == [3]

    @pytest.fixture
    def kernels_refused(self, monkeypatch):
        """Every kernel an exact, PBH or Gramian decision could run, each
        failing the test if it is called."""
        import lapctrl.controllability as ctrl

        def refused(*args, **kwargs):
            raise AssertionError("a kernel ran on a matrix that is not symmetric")

        for module, name in ((ctrl, "_krylov_mod"), (ctrl, "_minpoly_mod"),
                             (np.linalg, "eigh"), (np.linalg, "svd")):
            monkeypatch.setattr(module, name, refused)

    @pytest.mark.parametrize("name, n", [("kalman_rank_exact", 3), ("exact_verdicts", 3),
                                         ("pbh_verdict", 3), ("gramian_check", 3),
                                         ("gramian_check", 202)])
    def test_a_matrix_that_is_not_symmetric_is_refused(self, kernels_refused, name, n):
        # a path Laplacian whose first edge points one way only: an integer
        # matrix with a valid input that every decider refuses with one
        # message before any kernel runs, the batch with a valid pair
        # before it too, and the Gramian also above its 201 nodes
        L = laplacian(gen_path(n))
        L[1, 0] = 0
        decide = {"kalman_rank_exact": kalman_rank_exact, "pbh_verdict": pbh_verdict,
                  "gramian_check": gramian_check,
                  "exact_verdicts": lambda L, b: exact_verdicts([(laplacian(gen_path(n)), b),
                                                                 (L, b)])}[name]
        with pytest.raises(ValueError, match="^matrix is not symmetric$"):
            decide(L, _ev(n, 1))

    @pytest.fixture
    def residue_ranks(self, monkeypatch):
        """(prime, residue rank) of each Krylov run mod p, in order; more than
        ten runs fail the test instead of running on."""
        import lapctrl.controllability as ctrl
        runs = []
        krylov = ctrl._krylov_mod

        def recording(L, b, p):
            assert len(runs) < 10, runs
            rank, q = krylov(L, b, p)
            runs.append((p, rank))
            return rank, q

        monkeypatch.setattr(ctrl, "_krylov_mod", recording)
        return runs, [ctrl._prime(i) for i in range(4)]

    def test_an_uncertified_upper_bound_takes_another_prime(self, residue_ranks):
        # modulo each of the first two primes p0 and p1, diag(0, p0 p1) is
        # zero, so both see rank 1 with q = x; with R = p0 p1 the bound needs
        # M > 2 p0 p1, which their product M = p0 p1 is not, and the third
        # prime sees the full rank
        runs, (p0, p1, p2, _) = residue_ranks
        assert kalman_rank_exact(np.diag([0, p0 * p1]), [1, 1]) == 2
        assert runs == [(p0, 1), (p1, 1), (p2, 2)]

    @pytest.mark.parametrize("j", [0, 1])
    def test_a_prime_below_the_top_residue_rank_is_left_out(self, residue_ranks, j):
        # diag(0, 0, p_j) has rank 2, but modulo p_j it is zero and has rank
        # 1: at j = 0 the second prime's higher rank restarts the combination,
        # at j = 1 the second prime is skipped. q = x^2 - p_j x: modulo one
        # prime p != p_j the symmetric residue of -p_j is p - p_j or 2p - p_j,
        # so the integer check fails, and the first two primes at rank 2 give
        # -p_j exactly, where q(L) b = 0 over the integers decides
        runs, primes = residue_ranks
        assert kalman_rank_exact(np.diag([0, 0, primes[j]]), [1, 1, 1]) == 2
        assert runs == [(p, 1 if i == j else 2) for i, p in enumerate(primes[:3])]

    def test_one_prime_decides_when_q_lifts_exactly(self, residue_ranks):
        # q's coefficients are below half the first prime, so its symmetric
        # lift is q itself and q(L) b = 0 over the integers at once; the CRT
        # bound alone needs M > 2 sum |q_k| R^k, more than one prime gives for
        # P15 at vertex 3 (R = 4, rank 13) and the AR6(P6) composite at
        # vertex 1 (R = 12, rank 12)
        runs, primes = residue_ranks
        spec = CompositeSpec(structure=gen_antiregular(6), cell=gen_path(6), s=1)
        for L, v, rank in ((laplacian(gen_path(3)), 2, 2), (laplacian(gen_path(15)), 3, 13),
                           (laplacian(composite(spec)), 1, 12)):
            runs.clear()
            assert kalman_rank_exact(L, _ev(len(L), v)) == rank
            assert runs == [(primes[0], rank)]

    def test_horner_values_decide_below_a_large_upper_bound(self, residue_ranks):
        # the AR10(P10) composite at vertex 1 has rank 20 and q's largest
        # coefficient is 70488724, more than half of any prime below 2^21, so
        # no single prime lifts it; with R = 20 the a-priori bound is near
        # 2^89, so M 2^64 passes twice the bound at the second prime, whose
        # one uint64 Horner run decides where the CRT bound alone needs five
        runs, primes = residue_ranks
        spec = CompositeSpec(structure=gen_antiregular(10), cell=gen_path(10), s=1)
        assert kalman_rank_exact(laplacian(composite(spec)), _ev(100, 1)) == 20
        assert runs == [(primes[0], 20), (primes[1], 20)]

    def test_a_shorter_q_stays_zero_until_its_own_degree(self):
        # P3 at vertex 2 has the minimal polynomial x(x - 3), so g = x - 3
        # gives g(L) e_2 = -1: nonzero, but in the kernel of L. Checked on
        # one L beside a q of degree 3 (P3 at vertex 1), g must not pick up
        # a factor of L from it
        import lapctrl.controllability as ctrl
        L = laplacian(gen_path(3))
        zero = [ctrl._horner_zero(L, _ev(3, v).ravel(), q)
                for v, q in ((2, [-3, 1]), (2, [0, -3, 1]), (1, [0, 3, -4, 1]))]
        assert zero == [False, True, True]

    def test_horner_reports_a_wrapped_zero_as_zero(self):
        # L = diag(0, 2^32), b = (1, 1), q = x^2: q(L) b = (0, 2^64), which
        # the uint64 run wraps to 0, and it says so: the check is q(L) b = 0
        # mod 2^64, not over the integers. Such a zero certifies a pair only
        # beside q(L) b = 0 mod M and M 2^64 > 2 sum |q_k| R^k; here q(L) b
        # is not 0 mod any odd M. Beside it, diag(0, 3) with q = x^2 - 3x is
        # an exact zero, and with q = x^2 gives (0, 9), not 0 mod 2^64
        import lapctrl.controllability as ctrl
        Ls = [np.diag([0, 2**32]), np.diag([0, 3])]
        b = np.ones(2, dtype=np.int64)
        zero = [ctrl._horner_zero(Ls[m], b, q)
                for m, q in ((0, [0, 0, 1]), (1, [0, -3, 1]), (1, [0, 0, 1]))]
        assert zero == [True, True, False]

    def test_horner_reads_the_matrix_in_place(self):
        # 2^10 L(K512) has q = x^2 - 2^19 x, so q(L) b = 0 for every b. L
        # takes 2 MiB, so a run that copied it (say to uint64) could not
        # stay under 1 MiB; the powers and coefficients take about 12 KiB
        import tracemalloc
        import lapctrl.controllability as ctrl
        L = 2**10 * laplacian(gen_complete(512))
        b = _ev(512, 1).ravel()
        tracemalloc.start()
        try:
            zero = ctrl._horner_zero(L, b, [0, -2**19, 1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert zero is True
        assert peak < 2**20

    def test_a_wrapped_zero_alone_certifies_nothing(self):
        # L = [[0, 1, K], [1, 0, 0], [K, 0, 2^32]] with K = 2^32 p for the
        # first prime p: L e_1 = (0, 1, K) and L^2 e_1 = (1 + K^2, 0, 2^32 K),
        # so q = x^2 - 1 gives q(L) e_1 = (2^64 p^2, 0, 2^64 p): 0 mod p and
        # 0 mod 2^64, but not 0. The first prime sees rank 2 with that q,
        # whose uint64 Horner run gives 0; the inequality M 2^64 > 2 (1 +
        # R^2), R = K + 2^32 near 2^53, refuses it, as M 2^64 = p 2^64 is
        # near 2^85, and the second prime sees the full rank
        import lapctrl.controllability as ctrl
        p = ctrl._prime(0)
        K = 2**32 * p
        L = np.array([[0, 1, K], [1, 0, 0], [K, 0, 2**32]], dtype=np.int64)
        b = np.array([1, 0, 0])
        assert ctrl._krylov_mod(L % p, b, p) == (2, [p - 1, 0, 1])
        assert ctrl._horner_zero(L, b, [-1, 0, 1]) is True
        assert kalman_rank_exact(L, b) == 3

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6),
           st.booleans(), st.integers())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_horner_zero_matches_a_big_integer_evaluation(self, n, k, perturb, seed):
        # an upper triangular L keeps e_1 ... e_k invariant, so by
        # Cayley-Hamilton on its leading block q = prod_{i <= k} (x - L_ii)
        # has q(L) b = 0 for any b on those entries; shifting q's
        # coefficients by multiples of 2^64 keeps it 0 mod 2^64, and a
        # perturbed coefficient usually does not. Entries sit near +-2^63,
        # q is shorter than n + 1 whenever k < n, and Python integers
        # evaluate q(L) b exactly by Horner's rule
        import lapctrl.controllability as ctrl
        rng = random.Random(seed)
        k = min(k, n)

        def entry():
            return rng.choice([-2**63 + rng.randrange(2**8), 2**63 - 1 - rng.randrange(2**8),
                               rng.randrange(-2**63, 2**63), rng.randint(-3, 3)])

        L = [[entry() if j >= i else 0 for j in range(n)] for i in range(n)]
        b = [0] * n
        for i in rng.sample(range(k), rng.randint(1, k)):
            b[i] = 1
        q = [1]
        for i in range(k):
            q = [lo - L[i][i] * hi for lo, hi in zip([0] + q, q + [0])]
        q = [c + 2**64 * rng.randint(-2**10, 2**10) for c in q[:-1]] + [1]
        if perturb:
            q[rng.randrange(k)] += rng.randrange(1, 2**64)
        order = rng.sample(range(n), n)  # relabel, so that L is not triangular
        L = [[L[i][j] for j in order] for i in order]
        b = [b[i] for i in order]
        value = [0] * n
        for c in reversed(q):
            value = [sum(a * x for a, x in zip(row, value)) + c * x for row, x in zip(L, b)]
        expected = not any(v % 2**64 for v in value)
        assert expected or perturb
        assert ctrl._horner_zero(np.array(L, dtype=np.int64), np.array(b), q) is expected

    def test_a_large_upper_bound_keeps_the_crt_loop(self, monkeypatch):
        # 2^40 L(P40) at vertex 8 has rank 38 and R = 2^42, so the bound
        # sum |q_k| R^k is near 2^1616. The primes run until M 2^64 passes
        # twice it, where one uint64 Horner run decides: 74 primes, where M
        # alone needs 78, as 2^64 is worth three 21-bit primes and M at the
        # 77th falls short of twice the bound by less than one bit
        import lapctrl.controllability as ctrl
        ranks = []
        krylov = ctrl._krylov_mod

        def recording(L, b, p):
            rank, q = krylov(L, b, p)
            ranks.append(rank)
            return rank, q

        monkeypatch.setattr(ctrl, "_krylov_mod", recording)
        assert kalman_rank_exact(2**40 * laplacian(gen_path(40)), _ev(40, 8)) == 38
        assert ranks == [38] * 74

    def test_low_rank_pair_builds_few_rows(self):
        # K_n at a vertex has rank 2 (q = x^2 - n x): the Lanczos recurrence
        # takes one mat-vec a step and finds v_2 = 0 after two, not n
        import lapctrl.controllability as ctrl
        L = laplacian(gen_complete(512))
        assert kalman_rank_exact(L, _ev(512, 1)) == 2
        products = []

        class Counted(np.ndarray):
            def dot(self, other):
                products.append(other.shape)
                return np.asarray(self).dot(other)

        p = ctrl._prime(0)
        b = _ev(512, 1).ravel()
        assert ctrl._krylov_mod((L % p).view(Counted), b, p) == (2, [0, p - 512, 1])
        assert products == [(512,)] * 2

    def test_float_entries_outside_int64_are_refused_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="exact rank needs an integer matrix"):
                kalman_rank_exact(np.array([[1e300, -1e300], [-1e300, 1e300]]), [1, 0])
            with pytest.raises(ValueError, match="exact rank needs an integer matrix$"):
                kalman_rank_exact(np.array([[0.5, -0.5], [-0.5, 0.5]]), [1, 0])

    def test_uint64_entries_outside_int64_are_refused_by_range(self):
        big = np.array([[2**63, 0], [0, 1]], dtype=np.uint64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="int64 range"):
                kalman_rank_exact(big, [1, 1])
        # the largest int64 values are still decided exactly
        top = np.array([[2**63 - 1, 0], [0, 1]], dtype=np.uint64)
        assert kalman_rank_exact(top, [1, 1]) == 2
        assert kalman_rank_exact(np.array([[-2**63, 0], [0, 0]]), [1, 1]) == 2

    def test_rank_deficient_pairs_are_certified_by_crt(self):
        # vertex 64 copies the neighbours of vertex 63, so e_63 - e_64 is an
        # eigenvector that the input at vertex 1 misses
        g = random_connected_graph(63, random.Random(64))
        twin = [(u + v - 63, 64) for u, v in g.edges if 63 in (u, v)]
        g = Graph.from_edges(64, [*g.edges, *twin])
        assert kalman_rank_exact(laplacian(g), _ev(64, 1)) == 63
        spec = CompositeSpec(structure=gen_antiregular(10), cell=gen_path(10), s=1)
        assert kalman_rank_exact(laplacian(composite(spec)), _ev(100, 1)) == 20

    def test_large_entries_do_not_overflow(self):
        # residues below 2^21 keep products in int64 whatever the entries;
        # at vertex 8 the rank is deficient and R = 2^42 takes many primes
        L = laplacian(gen_path(40))
        for v in (1, 8):
            assert kalman_rank_exact(2**40 * L, _ev(40, v)) == kalman_rank_exact(L, _ev(40, v))
        assert kalman_rank_exact(L, _ev(40, 8)) == 38

    def test_row_sums_beyond_int64_are_exact(self):
        # x is a multiple of the first prime just above 2^62, so modulo it L
        # is zero and has rank 1 with q = t; the row sum R = 2x is above
        # 2^63, where an int64 sum wraps negative and the bound would accept
        # q at once. Exactly, R bounds q(L) b by 2x, one prime cannot
        # certify that, and the second prime sees the full rank
        import lapctrl.controllability as ctrl
        x = ctrl._prime(0) * (2**62 // ctrl._prime(0) + 1)
        L = np.array([[x, x], [x, x]])
        assert kalman_rank_exact(L, [1, 0]) == 2
        assert exact_verdicts([(L, [1, 0]), (L, [1, 1])]) == [
            exact_verdict(L, [1, 0]), exact_verdict(L, [1, 1])]


def _graph_and_input_sets(k, seed):
    """A random connected graph of order k and four nonempty proper vertex sets."""
    rng = random.Random(seed)
    g = random_connected_graph(k, rng)
    return g, [rng.sample(range(1, k + 1), rng.randint(1, k - 1)) for _ in range(4)]


def _large_full_rank_pair(k, seed):
    """A random connected graph of order k and an input vertex of full
    exact rank, and the generator that drew them."""
    rng = random.Random(seed)
    g = random_connected_graph(k, rng)
    v = rng.randint(1, k)
    assume(kalman_rank_exact(laplacian(g), _ev(k, v)) == k)
    return g, v, rng


class TestExactMetamorphic:
    # Relations the exact rank must keep, on random connected graphs of
    # order up to 10, and on full-rank pairs of order 100 to 200, where the
    # Lanczos recurrence runs a hundred steps or more. L has the eigenvector 1
    # (eigenvalue 0, a simple eigenvalue when G is connected), and the
    # Krylov dimension of b counts the eigenspaces that b meets, so the
    # relations follow from how the inputs meet them.

    @given(st.integers(min_value=100, max_value=200), st.integers())
    @settings(max_examples=12, deadline=None, derandomize=True)
    def test_relabelling_keeps_a_large_full_rank(self, k, seed):
        g, v, rng = _large_full_rank_pair(k, seed)
        label = dict(zip(range(1, k + 1), rng.sample(range(1, k + 1), k)))
        moved = Graph.from_edges(k, [(label[a], label[b]) for a, b in g.edges])
        assert kalman_rank_exact(laplacian(moved), _ev(k, label[v])) == k

    @given(st.integers(min_value=100, max_value=200), st.integers())
    @settings(max_examples=12, deadline=None, derandomize=True)
    def test_graph_complement_keeps_a_large_full_rank(self, k, seed):
        # as at small orders: L(G') = nI - J - L(G) maps each eigenvalue
        # lambda on the complement of 1 to n - lambda, and with G' connected
        # no two eigenspaces merge
        g, v, _ = _large_full_rank_pair(k, seed)
        comp = Graph.from_edges(k, [(u, w) for u in range(1, k + 1)
                                    for w in range(u + 1, k + 1) if (u, w) not in g.edges])
        assume(is_connected(comp))
        Lc = laplacian(comp)
        J = np.ones((k, k), dtype=int)
        assert np.array_equal(Lc, k * np.eye(k, dtype=int) - J - laplacian(g))
        assert kalman_rank_exact(Lc, _ev(k, v)) == k

    @given(st.integers(min_value=100, max_value=200), st.integers(min_value=1, max_value=54),
           st.integers())
    @settings(max_examples=12, deadline=None, derandomize=True)
    def test_a_power_of_two_scale_keeps_a_large_full_rank(self, k, j, seed):
        # 2^j L has the eigenspaces of L; a degree below 2^8 keeps 2^54 L in int64
        g, v, _ = _large_full_rank_pair(k, seed)
        L = laplacian(g)
        assert 2**j * int(L.max()) < 2**63
        assert kalman_rank_exact(2**j * L, _ev(k, v)) == k

    @given(st.integers(min_value=100, max_value=200), st.integers())
    @settings(max_examples=12, deadline=None, derandomize=True)
    def test_input_complement_keeps_a_large_rank(self, k, seed):
        # as at small orders: L 1 = 0, so P (1 - b) = -P b for the projection
        # P on each eigenspace of a nonzero eigenvalue, and both inputs meet
        # the kernel
        rng = random.Random(seed)
        L = laplacian(random_connected_graph(k, rng))
        S = rng.sample(range(1, k + 1), rng.randint(1, k - 1))
        b = _ev(k, *S)
        assert kalman_rank_exact(L, b) == kalman_rank_exact(L, 1 - b)

    @given(st.integers(min_value=2, max_value=10), st.integers())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_input_complement_keeps_the_rank(self, k, seed):
        # 1_S and 1_{V\S} sum to the eigenvector 1, so they meet the same
        # eigenspaces: the kernel because S is nonempty and proper, every
        # other one with opposite projections
        g, sets = _graph_and_input_sets(k, seed)
        L = laplacian(g)
        for S in sets:
            rest = [v for v in range(1, k + 1) if v not in S]
            assert kalman_rank_exact(L, _ev(k, *S)) == kalman_rank_exact(L, _ev(k, *rest)), S

    @given(st.integers(min_value=4, max_value=10), st.integers())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_graph_complement_keeps_the_rank(self, k, seed):
        # L(G') = nI - J - L(G) maps each eigenvalue lambda of L(G) on the
        # orthogonal complement of 1 to n - lambda; with G' connected, n is not an
        # eigenvalue of L(G), so no two eigenspaces merge. Below order 4 no
        # connected graph has a connected complement.
        g, sets = _graph_and_input_sets(k, seed)
        comp = Graph.from_edges(k, [(u, v) for u in range(1, k + 1)
                                    for v in range(u + 1, k + 1) if (u, v) not in g.edges])
        assume(is_connected(comp))
        L, Lc = laplacian(g), laplacian(comp)
        assert np.array_equal(Lc, k * np.eye(k, dtype=int) - np.ones((k, k), dtype=int) - L)
        for S in sets:
            b = _ev(k, *S)
            assert kalman_rank_exact(Lc, b) == kalman_rank_exact(L, b), S

    @given(st.integers(min_value=2, max_value=12),
           st.sampled_from(["path", "antiregular", "complete", "random"]), st.integers())
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_a_power_of_two_scale_keeps_the_rank(self, k, family, seed):
        # c L has the eigenspaces of L, so every input keeps its rank. With
        # c = 2^j the bound sum |q_k| R^k grows by about 2^(j r), so the
        # scales walk the certificate across both of its edges, M > 2 bound
        # and M 2^64 > 2 bound, where a wrapping uint64 Horner run decides;
        # j is capped so that c L stays within int64
        gens = {"path": gen_path, "antiregular": gen_antiregular, "complete": gen_complete,
                "random": lambda k: random_connected_graph(k, random.Random(seed))}
        L = laplacian(gens[family](k))
        for v in range(1, k + 1):
            b = _ev(k, v)
            rank = kalman_rank_exact(L, b)
            for j in (0, 20, 21, 31, 32, 41, 42):
                if 2**j * int(L.max()) < 2**63:
                    assert kalman_rank_exact(2**j * L, b) == rank, (v, j)


class TestExactVerdicts:
    @pytest.fixture
    def first_prime_members(self, monkeypatch):
        """(kernel, pairs) for each first-prime kernel call: a stack's members
        in one _minpoly_mod call, or the one pair of a _krylov_mod run; each
        pair as the bytes of L mod p and of b."""
        import lapctrl.controllability as ctrl
        calls = []
        single, stacked = ctrl._krylov_mod, ctrl._minpoly_mod

        def single_recording(L, b, p):
            if p == ctrl._prime(0):
                calls.append(("single", [(L.tobytes(), b.tobytes())]))
            return single(L, b, p)

        def stack_recording(Ls, members, p):
            if p == ctrl._prime(0):
                calls.append(("stack", [((Ls[m] % p).tobytes(), b.tobytes()) for m, b in members]))
            return stacked(Ls, members, p)

        monkeypatch.setattr(ctrl, "_krylov_mod", single_recording)
        monkeypatch.setattr(ctrl, "_minpoly_mod", stack_recording)
        return calls

    def test_matches_exact_verdict_on_mixed_orders(self):
        # P, K and AR of orders 1..40 at every vertex, across the block
        # boundaries 16/17 and 32/33; ten random graphs at three inputs each;
        # AR10(P10) at vertex 1, which takes five primes; and the matrix
        # kinds the dtype rule accepts besides int64. Shuffled, so stacks of
        # one order fill from pairs spread over the list
        pairs = []
        for k in range(1, 41):
            for g in (gen_path(k), gen_complete(k), *([gen_antiregular(k)] if k > 1 else [])):
                L = laplacian(g)
                pairs += [(L, _ev(k, v)) for v in range(1, k + 1)]
        rng = random.Random(18)
        for _ in range(10):
            g = random_connected_graph(rng.randint(2, 30), rng)
            L = laplacian(g)
            pairs += [(L, _ev(g.n, *rng.sample(range(1, g.n + 1), rng.randint(1, 3))))
                      for _ in range(3)]
        spec = CompositeSpec(structure=gen_antiregular(10), cell=gen_path(10), s=1)
        pairs.append((laplacian(composite(spec)), _ev(100, 1)))
        L = laplacian(gen_antiregular(6))
        D = np.diag(np.diag(L))
        for m in ((D - L).astype(bool), (2 * D - L).astype(np.uint8), L.astype(np.float64)):
            pairs += [(m, _ev(6, v).ravel().astype(m.dtype)) for v in range(1, 7)]
        rng.shuffle(pairs)
        assert exact_verdicts(pairs) == [exact_verdict(L, b) for L, b in pairs]

    def test_each_distinct_pair_meets_the_kernel_once(self, first_prime_members):
        # P2, AR2 and K2 are one graph, so their composites with one
        # structure are one Laplacian; each vertex is asked about three
        # times and decided once, and the verdicts come back in input order
        structure = gen_path(3)
        pairs = []
        for cell in (gen_path(2), gen_antiregular(2), gen_complete(2)):
            g = composite(CompositeSpec(structure=structure, cell=cell, s=1))
            pairs += [(laplacian(g), _ev(6, v)) for v in range(6, 0, -1)]
        verdicts = exact_verdicts(pairs)
        members = [m for _, call in first_prime_members for m in call]
        assert len(members) == len(set(members)) == 6
        assert verdicts == [exact_verdict(L, b) for L, b in pairs]
        assert [v.rank for v in verdicts[:6]] == [kalman_rank_exact(L, b) for L, b in pairs[:6]]

    def test_a_matrix_changed_in_place_is_decided_on_its_yielded_bytes(self):
        # one array, rewritten between yields: each pair is decided on the
        # bytes L had when it was yielded, not on the object or on what it
        # holds once the generator is done
        P, K = laplacian(gen_path(4)), laplacian(gen_complete(4))
        L = P.copy()

        def pairs():
            for m in (P, K, K, P, K):
                L[...] = m
                yield L, _ev(4, 1)

        assert [v.rank for v in exact_verdicts(pairs())] == [4, 2, 2, 4, 2]

    def test_a_stack_over_the_byte_budget_is_split(self, first_prime_members):
        # pairs are sorted by order, across orders, and cut where their
        # running total of powers passes a multiple of the budget: a pair of
        # order 3 and ten of order 160 (8 * 160 * 161 bytes each) stay below
        # it, the next ten below twice it, and the last pair, a stack of
        # one, runs _krylov_mod
        import lapctrl.controllability as ctrl
        assert ctrl._STACK_BYTES // (8 * 160 * 161) == 10
        L = laplacian(gen_complete(160))
        pairs = [(L, _ev(160, v)) for v in range(1, 22)] + [(laplacian(gen_path(3)), _ev(3, 1))]
        verdicts = exact_verdicts(pairs)
        assert [(kernel, len(call)) for kernel, call in first_prime_members] == [
            ("stack", 11), ("stack", 10), ("single", 1)]
        assert [v.rank for v in verdicts] == [2] * 21 + [3]

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        """(prime, sorted member orders) of each Krylov kernel call, a single
        _krylov_mod run holding one member, and whether each Horner check
        found q(L) b = 0 mod 2^64, one boolean per call (one pair)."""
        import lapctrl.controllability as ctrl
        krylov, horner = [], []
        single, stacked, zero = ctrl._krylov_mod, ctrl._minpoly_mod, ctrl._horner_zero

        def single_recording(L, b, p):
            krylov.append((p, [len(b)]))
            return single(L, b, p)

        def stack_recording(Ls, members, p):
            krylov.append((p, sorted(len(b) for _, b in members)))
            return stacked(Ls, members, p)

        def horner_recording(*args):
            decided = zero(*args)
            horner.append(decided)
            return decided

        monkeypatch.setattr(ctrl, "_krylov_mod", single_recording)
        monkeypatch.setattr(ctrl, "_minpoly_mod", stack_recording)
        monkeypatch.setattr(ctrl, "_horner_zero", horner_recording)
        return krylov, horner

    def test_each_later_prime_runs_one_stack_per_order(self, kernel_calls):
        # AR10(P10) at vertices 1, 2 and 3 takes two primes each; 10^9 L(P9)
        # at vertices 2, 5 and 8 and 10^9 L(P6) at vertices 2 and 5 take 8 to
        # 13. Round i runs prime i on the pairs that one-pair calls show
        # still need it, all orders in one stack (eight pairs of order up to
        # 100 fit in the budget), and a pair left alone runs _krylov_mod
        import lapctrl.controllability as ctrl
        krylov, _ = kernel_calls
        spec = CompositeSpec(structure=gen_antiregular(10), cell=gen_path(10), s=1)
        composite_L = laplacian(composite(spec))
        pairs = [(composite_L, _ev(100, v)) for v in (1, 2, 3)]
        pairs += [(10**9 * laplacian(gen_path(9)), _ev(9, v)) for v in (2, 5, 8)]
        pairs += [(10**9 * laplacian(gen_path(6)), _ev(6, v)) for v in (2, 5)]
        primes_needed = []
        for L, b in pairs:
            krylov.clear()
            kalman_rank_exact(L, b)
            primes_needed.append(len(krylov))
        assert min(primes_needed) >= 2
        krylov.clear()
        verdicts = exact_verdicts(pairs)
        assert sum(8 * len(L) * (len(L) + 1) for L, _ in pairs) <= ctrl._STACK_BYTES
        expected = [(ctrl._prime(i), sorted(len(L) for (L, _), need in zip(pairs, primes_needed)
                                            if need > i))
                    for i in range(max(primes_needed))]
        assert krylov == expected
        assert [v.rank for v in verdicts] == [_fraction_free_rank(L, b) for L, b in pairs]

    def test_a_horner_overflow_waits_beside_pairs_decided_at_once(self, kernel_calls):
        # one batch of order 40: 2^40 L(P40) at vertex 8, whose bound (R =
        # 2^42) waits for the 74th prime; L(P40) at vertex 8, certified by
        # Horner at the third prime; AR40 at vertices 2 and 3, certified by
        # Horner at the first; K40 at vertex 1, by the CRT bound at the first;
        # and P40 at vertex 1, of full rank. The first round's Horner runs
        # are the two AR40 q, the only ones with M 2^64 past twice the bound
        import lapctrl.controllability as ctrl
        krylov, horner = kernel_calls
        path = laplacian(gen_path(40))
        pairs = [(2**40 * path, _ev(40, 8)), (laplacian(gen_antiregular(40)), _ev(40, 2)),
                 (path, _ev(40, 8)), (laplacian(gen_complete(40)), _ev(40, 1)),
                 (laplacian(gen_antiregular(40)), _ev(40, 3)), (path, _ev(40, 1))]
        verdicts = exact_verdicts(pairs)
        assert [v.rank for v in verdicts] == [_fraction_free_rank(L, b) for L, b in pairs]
        # L(P40) at vertex 8 meets Horner at the second and third primes, and
        # 2^40 L(P40) at vertex 8 only at the last
        assert horner == [True, True, False, True, True]
        assert krylov[:3] == [(ctrl._prime(0), [40] * 6), (ctrl._prime(1), [40] * 2),
                              (ctrl._prime(2), [40] * 2)]
        assert krylov[3:] == [(ctrl._prime(i), [40]) for i in range(3, 74)]

    def test_horner_holds_a_shared_matrix_once(self, kernel_calls):
        # 2^10 L(K128) has q = x^2 - 2^17 x and R = 2^18 * 127, so the CRT
        # bound leaves every vertex to Horner in the first round. Each of the
        # 128 runs reads the one matrix through a view: a copy of it per
        # member, held together, would take 16 MiB. A copy made and freed
        # within each run stays under this bound; the one-run test
        # test_horner_reads_the_matrix_in_place catches it
        import tracemalloc
        _, horner = kernel_calls
        L = 2**10 * laplacian(gen_complete(128))
        pairs = [(L, _ev(128, v)) for v in range(1, 129)]
        tracemalloc.start()
        try:
            verdicts = exact_verdicts(pairs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [v.rank for v in verdicts] == [2] * 128
        assert horner == [True] * 128
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("L, b", [
        (1.5 * laplacian(gen_path(3)), _ev(3, 1)),
        (np.array([[2**63, 0], [0, 1]], dtype=np.uint64), [1, 1]),
        (np.ones((2, 3)), [1, 1]),
        (laplacian(gen_path(3)), _ev(2, 1)),
        (laplacian(gen_path(3)), [0, 0, 0]),
        (laplacian(gen_path(3)), [0, 2, 0]),
        (laplacian(gen_path(4)), _ev(3, 1)),
    ], ids=["non-integer", "out of range", "not square", "input shape", "zero input",
            "not binary", "column of another order"])
    def test_a_bad_pair_raises_kalman_rank_exacts_error(self, L, b):
        # the last is the good pairs' column, validated beside P3 before it
        with pytest.raises(ValueError) as expected:
            kalman_rank_exact(L, b)
        good = (laplacian(gen_path(3)), _ev(3, 1))
        with pytest.raises(ValueError) as got:
            exact_verdicts([good, (L, b), good])
        assert str(got.value) == str(expected.value)

    def test_a_repeated_column_is_validated_once(self, monkeypatch):
        # e_2 of order 4 beside three matrices, twice each, is one column;
        # the same input given as a list is another, and e_2 of order 5
        # another again, with its own order
        import lapctrl.controllability as ctrl
        checked, check = [], ctrl._as_control
        monkeypatch.setattr(ctrl, "_as_control", lambda b, n: checked.append(n) or check(b, n))
        b = _ev(4, 2)
        pairs = [(laplacian(g), b) for g in (gen_path(4), gen_complete(4), _star(4))] * 2
        pairs += [(laplacian(gen_path(4)), [0, 1, 0, 0]), (laplacian(gen_path(5)), _ev(5, 2))]
        ranks = [v.rank for v in exact_verdicts(pairs)]
        assert checked == [4, 4, 5]
        assert ranks == [_fraction_free_rank(L, b) for L, b in pairs]

    @pytest.mark.parametrize("suite", list(SUITES))
    def test_batching_changes_no_verify_case(self, monkeypatch, suite):
        import lapctrl.controllability as ctrl
        import lapctrl.verify as verify
        batched = SUITES[suite]()

        def one_at_a_time(pairs):
            return [exact_verdict(L, b) for L, b in pairs]

        monkeypatch.setattr(ctrl, "exact_verdicts", one_at_a_time)
        monkeypatch.setattr(verify, "exact_verdicts", one_at_a_time)
        assert SUITES[suite]() == batched


# ---------------------------------------------------------------------------
# controllable vertex sets
# ---------------------------------------------------------------------------

class TestControllableVertices:
    def test_path3(self):
        assert controllable_vertices(gen_path(3)) == {1, 3}

    def test_path2(self):
        assert controllable_vertices(gen_path(2)) == {1, 2}

    def test_complete3_empty(self):
        assert controllable_vertices(gen_complete(3)) == set()

    def test_disconnected_graph_is_rejected(self):
        with pytest.raises(ValueError, match="connected graph"):
            controllable_vertices(Graph(3, [(1, 2)]))

    def test_matches_exact_oracle(self):
        rng = random.Random(5)
        for _ in range(10):
            k = rng.randint(2, 6)
            g = random_connected_graph(k, rng)
            L = laplacian(g)
            expected = {v for v in range(1, k + 1)
                        if kalman_rank_exact(L, _ev(k, v)) == k}
            assert controllable_vertices(g) == expected


# ---------------------------------------------------------------------------
# Gramian positivity
# ---------------------------------------------------------------------------

class TestGramian:
    # The horizon is fixed at 1. Substituting t = s/T shows that the
    # horizon-T Gramian of L is T times the horizon-1 Gramian of T*L, so
    # gramian_check(T * L, b) reads lambda_min(W_T(L)) / T.

    def test_single_vertex_graph_integrates_to_horizon(self):
        # L = [[0]]: W = 1 exactly; Simpson quadrature is exact here
        res = gramian_check(np.zeros((1, 1)), np.ones((1, 1)))
        assert res.controllable and res.method == "gramian"
        assert res.min_eigenvalue == pytest.approx(1.0, rel=1e-12)

    def test_path2_matches_closed_form(self):
        # in the eigenbasis of the two-vertex path, the Gramian of input e1 is
        # [[T/2, (1-exp(-2T))/4], [(1-exp(-2T))/4, (1-exp(-4T))/8]]
        for T in (1.0, 2.0):
            a, b, c = T / 2, (1 - math.exp(-2 * T)) / 4, (1 - math.exp(-4 * T)) / 8
            lo = (a + c - math.sqrt((a - c) ** 2 + 4 * b * b)) / 2
            res = gramian_check(T * laplacian(gen_path(2)), _ev(2, 1))
            assert res.controllable
            assert res.min_eigenvalue == pytest.approx(lo / T, rel=1e-6), T

    def test_path3_center_uncontrollable(self):
        res = gramian_check(laplacian(gen_path(3)), _ev(3, 2))
        assert not res.controllable and res.method == "gramian"
        # the unreachable direction contributes only rounding noise
        assert res.min_eigenvalue < 1e-20

    def test_floor_scales_with_trace(self):
        # a horizon of 0.01 on L: scaling time shrinks every Gramian
        # eigenvalue together; the verdict must not flip on a
        # well-conditioned controllable case
        res = gramian_check(0.01 * laplacian(gen_path(4)), _ev(4, 1))
        assert res.controllable

    def test_parameter_validation(self):
        L = laplacian(gen_path(2))
        with pytest.raises(ValueError, match="square"):
            gramian_check(np.zeros((2, 3)), _ev(2, 1))
        with pytest.raises(ValueError, match="length-2 vector"):
            gramian_check(L, np.ones(3))
        with pytest.raises(ValueError, match="0 or 1"):
            gramian_check(L, np.array([2, 0]))

    def test_too_few_samples_reports_rank_deficient(self, monkeypatch):
        # 201 quadrature nodes cannot span 202 dimensions, which the shape
        # alone decides, before any eigensolve
        import lapctrl.controllability as ctrl

        def no_eigensolve(m):
            raise AssertionError("eig_sym called")

        monkeypatch.setattr(ctrl, "eig_sym", no_eigensolve)
        L = laplacian(gen_path(202))
        res = gramian_check(L, _ev(202, 1))
        assert (res.controllable, res.min_eigenvalue) == (False, 0.0)
        assert res.method == "gramian"
        L[0, 2] = -1
        with pytest.raises(ValueError, match="not symmetric"):
            gramian_check(L, _ev(202, 1))

    @pytest.mark.parametrize("L, b", [
        (np.zeros((1, 1)), np.ones((1, 1))),
        *[(T * laplacian(gen_path(2)), _ev(2, 1)) for T in (1.0, 2.0)],
        (laplacian(gen_path(3)), _ev(3, 2)),
        (0.01 * laplacian(gen_path(4)), _ev(4, 1)),
        *[(laplacian(gen_path(k)), _ev(k, 1)) for k in (4, 6, 8, 10, 12)],
    ])
    def test_min_eigenvalue_is_bit_identical_to_the_per_call_quadrature(self, L, b):
        # the pinned pairs above, against the nodes and weights built inside
        # the call, in the same 201 x n layout (one sample time per row)
        steps = 200
        dec = eig_sym(L)
        weights = np.full(steps + 1, 2.0)
        weights[1::2] = 4.0
        weights[0] = weights[-1] = 1.0
        weights *= 1.0 / steps / 3.0
        factor = np.exp(-np.outer(np.linspace(0.0, 1.0, steps + 1), dec.values))
        factor = factor * (dec.modal.T @ b.astype(float).ravel()) * np.sqrt(weights)[:, None]
        expected = float(np.linalg.svd(factor, compute_uv=False)[-1] ** 2)
        assert gramian_check(L, b).min_eigenvalue == expected

    def test_floor_constant_is_tiny(self):
        assert GRAMIAN_EIG_FLOOR < 1e-20

    @pytest.mark.parametrize("k, rel", [(4, 1e-8), (6, 1e-8), (8, 1e-8), (10, 1e-4)])
    def test_resolves_tiny_min_eigenvalue_on_end_driven_paths(self, k, rel):
        # lambda_min of the Simpson Gramian of (P_k, e1) against a 60-digit
        # evaluation of the same quadrature in the exact path eigenbasis; at
        # k = 8 it sits near 1e-16 of the trace, where forming W = C C^T in
        # doubles would leave no correct digit
        mp = pytest.importorskip("mpmath")
        ref, trace = _path_gramian_reference(mp, k)
        res = gramian_check(laplacian(gen_path(k)), _ev(k, 1))
        assert res.controllable
        assert abs(res.min_eigenvalue - ref) <= rel * ref
        if k == 8:
            assert ref < 1e-16 * trace

    def test_known_false_negatives_on_end_driven_paths(self):
        # Known-false pin: the path P_k driven at vertex 1 is controllable
        # (exact rank k/k), but from k = 11 on the Gramian says
        # uncontrollable. At k = 11 and 12 the 60-digit reference puts
        # lambda_min (2.1e-26 and 1.1e-29) below the floor 1e-24 * trace / k
        # (5.2e-26 and 4.8e-26), so the floor decides, not rounding. A
        # Gramian that answers "indeterminate" under its floor (ROADMAP I)
        # should flip this pin.
        for k in range(11, 19):
            L, b = laplacian(gen_path(k)), _ev(k, 1)
            assert kalman_rank_exact(L, b) == k
            assert gramian_check(L, b).controllable is False, k
        mp = pytest.importorskip("mpmath")
        for k in (11, 12):
            ref, trace = _path_gramian_reference(mp, k)
            assert ref < GRAMIAN_EIG_FLOOR * trace / k, k

    def test_controllable_verdicts_are_never_wrong_on_random_graphs(self):
        # One-sided: a "controllable" answer implies exact rank n. Random
        # connected graphs of order 8..40 at every vertex; most answers are
        # false "uncontrollable" ones, which the floor allows
        rng = random.Random(2026)
        answers = 0
        for n in range(8, 41):
            L = laplacian(random_connected_graph(n, rng))
            inputs = [_ev(n, v) for v in range(1, n + 1)
                      if gramian_check(L, _ev(n, v)).controllable]
            assert all(verdict.controllable for verdict in exact_verdicts((L, b) for b in inputs))
            answers += len(inputs)
        assert answers > 0  # the sweep holds "controllable" answers to check


def _path_gramian_reference(mp, k, steps=200):
    """(lambda_min, trace) of the horizon-1 Simpson Gramian of the k-vertex
    path driven at vertex 1, in the exact eigenbasis at 60 digits."""
    with mp.workdps(60):
        lam = [4 * mp.sin(i * mp.pi / (2 * k)) ** 2 for i in range(k)]
        proj = [mp.cos(i * mp.pi / (2 * k)) * mp.sqrt(mp.mpf(1 if i == 0 else 2) / k)
                for i in range(k)]
        h = mp.mpf(1) / steps
        weights = [h / 3 * (1 if j in (0, steps) else 4 if j % 2 else 2)
                   for j in range(steps + 1)]
        W = mp.matrix(k, k)
        for a in range(k):
            for b in range(a, k):
                W[a, b] = W[b, a] = proj[a] * proj[b] * mp.fsum(
                    w * mp.exp(-(lam[a] + lam[b]) * j * h) for j, w in enumerate(weights))
        eigs = mp.eigsy(W, eigvals_only=True)
        return float(min(eigs)), float(mp.fsum(eigs))


# ---------------------------------------------------------------------------
# cross-method agreement
# ---------------------------------------------------------------------------

class TestMethodsAgree:
    def test_three_methods_agree_on_random_instances(self):
        rng = random.Random(21)
        seen_uncontrollable = 0
        for _ in range(30):
            k = rng.randint(2, 7)
            g = random_connected_graph(k, rng)
            L = laplacian(g)
            b = _ev(k, rng.randint(1, k))
            exact = kalman_rank_exact(L, b) == k
            assert pbh_verdict(L, b).controllable == exact
            assert gramian_check(L, b).controllable == exact
            seen_uncontrollable += 0 if exact else 1
        assert seen_uncontrollable > 0  # the sweep exercises both outcomes
