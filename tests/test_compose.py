"""Composite graphs, path-split classes, and antiregular chains."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lapctrl import (
    ChainSpec,
    CompositeSpec,
    Graph,
    HypothesisNotMet,
    OutOfSupport,
    append_path,
    chain_antiregular,
    composite,
    controllable_vertices,
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

_THEOREM4_PINS = {True: (7, 6, 5), False: (7, 6, 3)}  # (k1, k2, seed) of each outcome


def _random_composite(k1, k2, seed):
    """A random structure of order k1, a random cell of order k2 with a
    vertex s that controls it, and a structure vertex w; None when no
    vertex controls the cell."""
    rng = random.Random(seed)
    structure, cell = random_connected_graph(k1, rng), random_connected_graph(k2, rng)
    controlling = sorted(controllable_vertices(cell))
    if not controlling:
        return None
    spec = CompositeSpec(structure=structure, cell=cell, s=rng.choice(controlling))
    return spec, rng.randint(1, k1)


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

    @given(st.integers(min_value=2, max_value=10), st.integers(min_value=2, max_value=10),
           st.integers())
    @example(*_THEOREM4_PINS[True])
    @example(*_THEOREM4_PINS[False])
    @settings(max_examples=12, deadline=None, derandomize=True)
    def test_theorem4_on_random_structures_and_cells(self, k1, k2, seed):
        # with the cell controllable at s, the composite driven at copy w's
        # vertex s is controllable exactly when the structure is at w
        drawn = _random_composite(k1, k2, seed)
        assume(drawn is not None)
        spec, w = drawn
        verdict = predict_composite(spec, w)
        assert verdict.input_vertex == (w - 1) * k2 + spec.s
        oracle = exact_verdict(laplacian(composite(spec)),
                               input_vector(k1 * k2, [verdict.input_vertex]))
        assert verdict.controllable == oracle.controllable

    def test_theorem4_pins_cover_both_outcomes(self):
        for outcome, pin in _THEOREM4_PINS.items():
            assert predict_composite(*_random_composite(*pin)).controllable == outcome

    @staticmethod
    def _record_exact_calls(monkeypatch, module, calls):
        """Record the (L, b) pairs of each exact_verdicts call that module makes."""
        def recording(pairs):
            pairs = list(pairs)
            calls.append(pairs)
            return exact_verdicts(pairs)

        monkeypatch.setattr(module, "exact_verdicts", recording)

    def test_both_premises_are_decided_in_one_call(self, monkeypatch):
        import lapctrl.compose as compose
        spec = CompositeSpec(structure=gen_antiregular(7), cell=gen_antiregular(5), s=3)
        calls = []
        self._record_exact_calls(monkeypatch, compose, calls)
        verdicts = [predict_composite(spec, w) for w in range(1, 8)]
        # each prediction asks once, for the cell of order 5 at s and the
        # structure of order 7 at w, and keeps nothing for the next
        assert [[(len(L), *(np.flatnonzero(B) + 1)) for L, B in pairs] for pairs in calls] == [
            [(5, 3), (7, w)] for w in range(1, 8)]
        L = laplacian(spec.structure)
        assert [v.controllable for v in verdicts] == [
            exact_verdict(L, input_vector(7, [w])).controllable for w in range(1, 8)]

    def test_verify_composite_checks_theorem4_without_predict_composite(self, monkeypatch):
        import lapctrl.verify as verify

        def refuse(spec, w):
            raise AssertionError("verify_composite called predict_composite")

        monkeypatch.setattr(verify, "predict_composite", refuse)
        calls = []
        self._record_exact_calls(monkeypatch, verify, calls)
        assert all(case["pass"] for case in verify.verify_composite())
        # first the 42 vertices of P, AR and K of orders 2..5, where P2 = AR2 = K2
        # repeats two pairs twice
        family = calls[0]
        assert [(len(L), *(np.flatnonzero(B) + 1)) for L, B in family] == [
            (k, v) for _ in range(3) for k in range(2, 6) for v in range(1, k + 1)]
        assert len({(L.tobytes(), B.tobytes()) for L, B in family}) == 38


def _canonical_form(n, edges):
    """The least sorted edge list of a graph on 1..n over all relabellings."""
    return min(tuple(sorted(tuple(sorted((image[u - 1], image[v - 1]))) for u, v in edges))
               for image in itertools.permutations(range(1, n + 1)))


def connected_graphs(top):
    """Every connected graph of order 2..top, one per isomorphism class,
    ordered by order. A connected graph loses no connectivity with a leaf
    of a spanning tree, so each of order n is some graph of order n - 1
    with a new vertex n joined to a nonempty set of its vertices; the
    candidates are deduplicated by their brute-force canonical form."""
    level, graphs = [()], []
    for n in range(2, top + 1):
        forms = {}
        for edges in level:
            for k in range(1, n):
                for joined in itertools.combinations(range(1, n), k):
                    forms.setdefault(_canonical_form(n, [*edges, *((u, n) for u in joined)]))
        level = list(forms)
        graphs += [Graph.from_edges(n, edges) for edges in level]
    return graphs


class TestCompositeOnSmallGraphs:
    def test_generator_finds_each_connected_graph_once(self):
        # 1, 2, 6 and 21 connected graphs of orders 2..5 (OEIS A001349)
        graphs = connected_graphs(5)
        assert [sum(g.n == n for g in graphs) for n in range(2, 6)] == [1, 2, 6, 21]
        assert len({_canonical_form(g.n, g.edges) for g in graphs}) == len(graphs)

    def test_composite_follows_the_structure_on_every_graph_to_order_5(self):
        # every cell of order 2..5 at every vertex s that controls it, and
        # every structure of order 2..5 at every vertex w: the composite at
        # input (w - 1) k2 + s is controllable exactly when the structure is
        # at w, all by the exact oracle. A mismatch stays red
        graphs = connected_graphs(5)
        alone = [(g, v) for g in graphs for v in range(1, g.n + 1)]
        verdicts = dict(zip(alone, exact_verdicts(
            (laplacian(g), input_vector(g.n, [v])) for g, v in alone)))
        cells = [(g, s) for g, s in alone if verdicts[g, s].controllable]
        cases = [(CompositeSpec(structure=structure, cell=cell, s=s), w)
                 for cell, s in cells for structure in graphs for w in range(1, structure.n + 1)]
        assert (len(cells), len(cases)) == (36, 4932)
        laplacians = {spec: laplacian(composite(spec)) for spec in dict.fromkeys(s for s, _ in cases)}
        composites = exact_verdicts(
            (laplacians[spec], input_vector(spec.structure.n * spec.cell.n,
                                            [(w - 1) * spec.cell.n + spec.s]))
            for spec, w in cases)
        mismatches = [(spec.structure.sorted_edges(), w, spec.cell.sorted_edges(), spec.s)
                      for (spec, w), verdict in zip(cases, composites)
                      if verdict.controllable != verdicts[spec.structure, w].controllable]
        assert mismatches == []
        # both outcomes occur, so the agreement is not one-sided
        assert {v.controllable for v in composites} == {True, False}


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
