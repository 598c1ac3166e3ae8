"""Composite graphs, path-split classes, and antiregular chains."""

import itertools
import random

import numpy as np
import pytest

from lapctrl import (
    ChainSpec,
    CompositeSpec,
    HypothesisNotMet,
    OutOfSupport,
    append_path,
    chain_antiregular,
    composite,
    exact_verdict,
    exact_verdicts,
    gen_antiregular,
    gen_complete,
    gen_path,
    input_vector,
    kalman_rank_exact,
    laplacian,
    path_split_controllable,
    predict_composite,
    random_connected_graph,
    valid_chain_input,
)


# ---------------------------------------------------------------------------
# composite graphs
# ---------------------------------------------------------------------------

class TestComposite:
    def test_two_by_two_edges(self):
        spec = CompositeSpec(structure=gen_path(2), cell=gen_path(2), s=1)
        assert composite(spec).sorted_edges() == [(1, 2), (1, 3), (3, 4)]

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_laplacian_identity(self, s):
        spec = CompositeSpec(structure=gen_path(3), cell=gen_antiregular(3), s=s)
        L = laplacian(composite(spec)).astype(float)
        L1 = laplacian(spec.structure).astype(float)
        L2 = laplacian(spec.cell).astype(float)
        es = np.zeros((3, 3))
        es[s - 1, s - 1] = 1.0
        expected = np.kron(np.eye(3), L2) + np.kron(L1, es)
        assert np.array_equal(L, expected)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CompositeSpec(structure=gen_path(2), cell=gen_path(2), s=3)
        disconnected = gen_threshold_like_disconnected()
        with pytest.raises(ValueError):
            CompositeSpec(structure=disconnected, cell=gen_path(2), s=1)

    def test_predict_matches_composite_oracle(self):
        spec = CompositeSpec(structure=gen_antiregular(7), cell=gen_antiregular(5), s=3)
        L = laplacian(composite(spec))
        n = 35
        for w in range(1, 8):
            verdict = predict_composite(spec, w)
            assert verdict.input_vertex == (w - 1) * 5 + 3
            rank = kalman_rank_exact(L, input_vector(n, [verdict.input_vertex]))
            assert verdict.controllable == (rank == n), f"w={w}"

    def test_predict_covers_both_outcomes(self):
        spec = CompositeSpec(structure=gen_antiregular(7), cell=gen_antiregular(5), s=3)
        outcomes = {predict_composite(spec, w).controllable for w in range(1, 8)}
        assert outcomes == {True, False}

    def test_predict_rejects_uncontrollable_cell(self):
        # the middle of a three-vertex path cannot control the cell
        spec = CompositeSpec(structure=gen_path(2), cell=gen_path(3), s=2)
        with pytest.raises(HypothesisNotMet):
            predict_composite(spec, 1)

    def test_predict_rejects_bad_vertex(self):
        spec = CompositeSpec(structure=gen_path(2), cell=gen_path(2), s=1)
        with pytest.raises(ValueError):
            predict_composite(spec, 3)

    @staticmethod
    def _count_premises(monkeypatch, decided):
        """Empty the premise memo for this test and record the (L, b) of
        every premise that compose hands to the exact oracle."""
        import lapctrl.compose as compose

        def counting(pairs):
            pairs = list(pairs)
            decided.extend(pairs)
            return exact_verdicts(pairs)

        monkeypatch.setattr(compose, "_premises", {})
        monkeypatch.setattr(compose, "exact_verdicts", counting)

    def test_premises_are_decided_once_per_graph_and_vertex(self, monkeypatch):
        spec = CompositeSpec(structure=gen_antiregular(7), cell=gen_antiregular(5), s=3)
        decided = []
        self._count_premises(monkeypatch, decided)
        for _ in range(2):
            verdicts = [predict_composite(spec, w) for w in range(1, 8)]
        # the cell at s once, then each structure vertex once
        assert [(len(L), int(np.flatnonzero(B)[0]) + 1) for L, B in decided] == (
            [(5, 3)] + [(7, w) for w in range(1, 8)])
        L = laplacian(spec.structure)
        assert [v.controllable for v in verdicts] == [
            exact_verdict(L, input_vector(7, [w])).controllable for w in range(1, 8)]

    def test_premise_memo_is_emptied_before_it_passes_64_pairs(self, monkeypatch):
        import lapctrl.compose as compose
        monkeypatch.setattr(compose, "_premises", {})
        spec = CompositeSpec(structure=gen_complete(70), cell=gen_path(2), s=1)
        sizes = []
        for w in range(1, 71):
            # K_n (n >= 3) is controllable from no single vertex
            assert not predict_composite(spec, w).controllable
            sizes.append(len(compose._premises))
        # the cell and w = 1, then one more w a call while the two asked for fit
        # in 64 pairs, then both afresh
        assert sizes == [*range(2, 64), *range(2, 10)]

    def test_verify_composite_decides_no_premise_twice(self, monkeypatch):
        from lapctrl.verify import verify_composite
        decided = []
        self._count_premises(monkeypatch, decided)
        verify_composite()
        keys = [(L.tobytes(), B.tobytes()) for L, B in decided]
        # every vertex of P, AR and K of orders 2..5 once, P2 = AR2 = K2 counted once
        assert len(keys) == len(set(keys)) == 3 * (2 + 3 + 4 + 5) - 2 * 2


def gen_threshold_like_disconnected():
    from lapctrl import Graph
    return Graph(2, frozenset())


# ---------------------------------------------------------------------------
# arithmetic-progression classes and path splits
# ---------------------------------------------------------------------------

def in_class(j, m):
    """Membership of m in C_j = {j, j+(2j+1), j+2(2j+1), ...}, by definition."""
    return m >= j and (m - j) % (2 * j + 1) == 0


class TestCjClasses:
    def test_membership(self):
        assert [m for m in range(20) if in_class(1, m)] == [1, 4, 7, 10, 13, 16, 19]
        assert [m for m in range(20) if in_class(2, m)] == [2, 7, 12, 17]
        assert [m for m in range(20) if in_class(3, m)] == [3, 10, 17]

    def test_every_positive_m_has_a_class(self):
        for m in range(1, 50):
            assert in_class(m, m)

    def test_path_split_is_no_shared_class(self):
        # the gcd form of the predicate against the class definition
        for k11 in range(61):
            for k12 in range(61):
                shared = any(in_class(j, k11) and in_class(j, k12)
                             for j in range(1, min(k11, k12) + 1))
                assert path_split_controllable(k11, k12) == (not shared), (k11, k12)

    def test_errors(self):
        for sides in ((-1, 3), (3, -1)):
            with pytest.raises(ValueError):
                path_split_controllable(*sides)

    def test_path_split_examples(self):
        assert path_split_controllable(0, 5)        # end of a path
        assert not path_split_controllable(1, 1)    # middle of a 3-path
        assert not path_split_controllable(1, 4)    # both sides in C_1
        assert path_split_controllable(3, 4)

    def test_path_split_matches_exact_oracle(self):
        for k in range(2, 11):
            L = laplacian(gen_path(k))
            for v in range(1, k + 1):
                expected = kalman_rank_exact(L, input_vector(k, [v])) == k
                assert path_split_controllable(v - 1, k - v) == expected, (k, v)

    def test_eight_vertex_path_controllable_everywhere(self):
        assert all(path_split_controllable(v - 1, 8 - v) for v in range(1, 9))


# ---------------------------------------------------------------------------
# chain construction
# ---------------------------------------------------------------------------

class TestChainSpec:
    def test_links_normalized(self):
        spec = ChainSpec(c=3, k2=4, links=("d", "terminal"))
        assert spec.links == ("D", "T")

    def test_kappa(self):
        assert ChainSpec(c=1, k2=4).kappa == 2
        assert ChainSpec(c=1, k2=5).kappa == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            ChainSpec(c=0, k2=3)
        with pytest.raises(ValueError):
            ChainSpec(c=1, k2=1)
        with pytest.raises(ValueError):
            ChainSpec(c=2, k2=3, links=())           # wrong link count
        with pytest.raises(ValueError):
            ChainSpec(c=2, k2=3, links=("X",))


class TestChainGraph:
    def test_single_block_is_antiregular(self):
        assert chain_antiregular(ChainSpec(c=1, k2=5)).edges == gen_antiregular(5).edges

    def test_two_blocks_dominating_link(self):
        g = chain_antiregular(ChainSpec(c=2, k2=2, links=("D",)))
        assert g.sorted_edges() == [(1, 2), (1, 3), (3, 4)]

    def test_two_blocks_terminal_link(self):
        g = chain_antiregular(ChainSpec(c=2, k2=2, links=("T",)))
        assert g.sorted_edges() == [(1, 2), (2, 3), (3, 4)]

    def test_terminal_chain_of_two_vertex_blocks_is_a_path(self):
        g = chain_antiregular(ChainSpec(c=3, k2=2, links=("T", "T")))
        assert g.edges == gen_path(6).edges

    def test_junction_lands_on_repeated_degree_vertex(self):
        g = chain_antiregular(ChainSpec(c=2, k2=5, links=("D",)))
        # block 2 occupies 6..10; its degree-repeating vertex is 5 + 3 = 8
        assert (1, 8) in g.edges
        g = chain_antiregular(ChainSpec(c=2, k2=5, links=("T",)))
        assert (5, 8) in g.edges

    def test_laplacian_is_blocks_plus_rank_one_updates(self):
        spec = ChainSpec(c=3, k2=4, links=("D", "T"))
        L = laplacian(chain_antiregular(spec)).astype(np.int64)
        Lb = laplacian(gen_antiregular(4)).astype(np.int64)
        expected = np.kron(np.eye(3, dtype=np.int64), Lb)
        for i, link in enumerate(spec.links, start=1):
            z = np.zeros(12, dtype=np.int64)
            out = (i - 1) * 4 + 1 if link == "D" else i * 4
            z[out - 1] = 1
            z[i * 4 + spec.kappa - 1] = -1
            expected += np.outer(z, z)
        assert np.array_equal(L, expected)

    def test_tail(self):
        # a tail is a path appended at block 1's degree-repeating vertex
        spec = ChainSpec(c=1, k2=5)
        g = append_path(chain_antiregular(spec), spec.kappa, 2)
        assert g.n == 7
        assert (3, 6) in g.edges and (6, 7) in g.edges


@pytest.mark.parametrize("bad", [2.5, 3.0, True, "3"])
@pytest.mark.parametrize("build", [
    lambda x: ChainSpec(c=x, k2=3, links=("D", "T")),
    lambda x: ChainSpec(c=1, k2=x),
    gen_path,
    gen_antiregular,
    gen_complete,
    lambda x: random_connected_graph(x, random.Random(0)),
    lambda x: append_path(gen_path(2), 1, x),
    lambda x: CompositeSpec(structure=gen_path(3), cell=gen_path(3), s=x),
    lambda x: predict_composite(CompositeSpec(structure=gen_path(3), cell=gen_path(3), s=1), x),
], ids=["chain-c", "chain-k2", "path", "antiregular", "complete", "random", "append-m",
        "composite-s", "predict-w"])
def test_orders_and_counts_follow_the_integer_rule(build, bad):
    # each was checked only by comparison: 2.5 passed it or reached range()
    with pytest.raises(ValueError, match=f"must be integers, got {bad!r}"):
        build(bad)
    assert build(np.int64(3)) == build(3)


class TestAppendPath:
    def test_appends_nearest_first(self):
        g = append_path(gen_path(2), 2, 3)
        assert g.n == 5
        assert g.sorted_edges() == [(1, 2), (2, 3), (3, 4), (4, 5)]

    def test_zero_length_is_identity(self):
        g = gen_antiregular(4)
        assert append_path(g, 1, 0) is g

    def test_errors(self):
        with pytest.raises(ValueError):
            append_path(gen_path(2), 3, 1)
        with pytest.raises(ValueError):
            append_path(gen_path(2), 1, -1)

    def test_non_integer_vertex_is_rejected(self):
        # a cast would attach the path at int(1.5) = 1
        with pytest.raises(ValueError, match="1.5"):
            append_path(gen_path(3), 1.5, 2)
        with pytest.raises(ValueError, match="'1'"):
            append_path(gen_path(3), "1", 2)


# ---------------------------------------------------------------------------
# chain input predicate
# ---------------------------------------------------------------------------

class TestValidChainInput:
    def test_rejects_malformed_vectors(self):
        spec = ChainSpec(c=2, k2=3, links=("D",))
        with pytest.raises(ValueError):
            valid_chain_input(spec, [1, 0, 0])           # wrong length
        with pytest.raises(ValueError):
            valid_chain_input(spec, [2, 0, 0, 0, 0, 0])  # non-binary
        with pytest.raises(ValueError):
            valid_chain_input(spec, [0] * 6)             # empty input
        with pytest.raises(ValueError):
            valid_chain_input(spec, np.eye(6, 2, dtype=int))  # two input columns

    def test_outside_block_one_is_out_of_support(self):
        spec = ChainSpec(c=2, k2=3, links=("D",))
        with pytest.raises(OutOfSupport):
            valid_chain_input(spec, [1, 0, 0, 1, 0, 0])

    def test_terminal_first_link_restricts_last_entry(self):
        spec = ChainSpec(c=2, k2=3, links=("T",))
        with pytest.raises(OutOfSupport):
            valid_chain_input(spec, [0, 1, 1, 0, 0, 0])

    def test_single_block_matches_exact_oracle_exhaustively(self):
        spec = ChainSpec(c=1, k2=5)
        L = laplacian(chain_antiregular(spec))
        for mask in range(1, 32):
            b = [(mask >> i) & 1 for i in range(5)]
            predicted = valid_chain_input(spec, b)
            rank = kalman_rank_exact(L, np.array(b).reshape(-1, 1))
            assert predicted == (rank == 5), b

    def test_base_condition_examples(self):
        spec = ChainSpec(c=1, k2=5)
        assert valid_chain_input(spec, [0, 0, 1, 0, 0])      # vertex kappa
        assert valid_chain_input(spec, [0, 0, 0, 1, 0])      # vertex kappa+1
        assert not valid_chain_input(spec, [0, 0, 1, 1, 0])  # both
        assert not valid_chain_input(spec, [1, 0, 0, 0, 0])  # neither

    def test_spectral_screen_blocks_coincidence(self):
        # two three-vertex blocks joined terminal-to-middle form a six-vertex
        # path; the input {1, 2} meets the base condition but its popcount 2
        # is a chain eigenvalue outside the block spectrum
        spec = ChainSpec(c=2, k2=3, links=("T",))
        b = [1, 1, 0, 0, 0, 0]
        assert not valid_chain_input(spec, b)
        L = laplacian(chain_antiregular(spec))
        assert kalman_rank_exact(L, np.array(b).reshape(-1, 1)) < 6

    def test_screen_skips_two_vertex_terminal_first_chains(self):
        # these chains are plain paths driven at an end: controllable even
        # though the popcount-eigenvalue coincidence occurs
        spec = ChainSpec(c=3, k2=2, links=("T", "T"))
        b = [1, 0, 0, 0, 0, 0]
        assert valid_chain_input(spec, b)
        L = laplacian(chain_antiregular(spec))
        assert kalman_rank_exact(L, np.array(b).reshape(-1, 1)) == 6

    def test_multi_block_matches_exact_oracle(self):
        for links in [("D",), ("T",)]:
            spec = ChainSpec(c=2, k2=4, links=links)
            L = laplacian(chain_antiregular(spec))
            free = 4 if links[0] == "D" else 3
            for mask in range(1, 1 << free):
                b = [(mask >> i) & 1 for i in range(free)] + [0] * (8 - free)
                predicted = valid_chain_input(spec, b)
                rank = kalman_rank_exact(L, np.array(b).reshape(-1, 1))
                assert predicted == (rank == 8), (links, b)

    def test_four_block_chains_match_exact_oracle(self):
        # past the c <= 3 of criterion 6: every link word and every covered
        # nonzero block-1 input of the four-block chains with k2 = 3..5
        cases = uncontrollable = 0
        for k2 in (3, 4, 5):
            for links in itertools.product("DT", repeat=3):
                spec = ChainSpec(c=4, k2=k2, links=links)
                L = laplacian(chain_antiregular(spec))
                for bits in itertools.product((0, 1), repeat=k2):
                    if not any(bits):
                        continue
                    b = list(bits) + [0] * (3 * k2)
                    try:
                        predicted = valid_chain_input(spec, b)
                    except OutOfSupport:
                        continue
                    verdict = exact_verdict(L, b)
                    assert predicted == verdict.controllable, (k2, links, bits)
                    cases += 1
                    uncontrollable += not verdict.controllable
        assert (cases, uncontrollable) == (312, 146)
