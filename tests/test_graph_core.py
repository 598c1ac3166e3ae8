"""Graph construction, degree-sequence algebra, serialization, and the public surface."""

import dataclasses
import inspect
import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lapctrl import (
    ChainSpec,
    CompositeSpec,
    DegreeSequence,
    Graph,
    chain_antiregular,
    composite,
    conjugate,
    degree_sequence,
    gen_antiregular,
    gen_complete,
    gen_path,
    gen_threshold,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    is_connected,
    is_graphical,
    laplacian,
    random_connected_graph,
    trace_of,
)


# ---------------------------------------------------------------------------
# Graph basics
# ---------------------------------------------------------------------------

class TestGraph:
    def test_from_edges_canonicalizes_and_dedupes(self):
        g = Graph.from_edges(3, [(2, 1), (1, 2), (3, 2)])
        assert g.sorted_edges() == [(1, 2), (2, 3)]

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edges(2, [(1, 1)])

    def test_edge_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Graph(2, frozenset({(1, 3)}))

    def test_non_canonical_edge_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, frozenset({(3, 1)}))

    def test_bad_vertex_count_rejected(self):
        with pytest.raises(ValueError):
            Graph(0, frozenset())

    def test_non_integer_labels_are_rejected(self):
        # labels are checked, never cast: int() turns both "1" and 1.5 into 1
        for pair, shown in [(("1", "2"), "'1'"), ((1.5, 2), "1.5"), ((True, 2), "True"),
                            ((2, "1"), "'1'")]:
            with pytest.raises(ValueError, match=shown):
                Graph.from_edges(3, [pair])

    def test_bool_vertex_count_and_edge_are_rejected(self):
        with pytest.raises(ValueError, match="True"):
            Graph(True, frozenset())
        with pytest.raises(ValueError, match="True"):
            Graph(2, frozenset({(True, 2)}))

    def test_numpy_integer_vertex_count_becomes_a_python_int(self):
        g = Graph.from_edges(np.int64(3), [(1, 2), (2, 3)])
        assert g == gen_path(3) and type(g.n) is int
        assert type(Graph(np.uint8(2), frozenset()).n) is int

    @pytest.mark.parametrize("n", [True, 3.0, "3"])
    def test_non_integer_vertex_count_is_rejected(self, n):
        with pytest.raises(ValueError, match=f"vertex counts must be integers, got {n!r}"):
            Graph.from_edges(n, [(1, 2)])

    def test_numpy_integer_labels_become_python_ints(self):
        g = Graph.from_edges(3, [(np.int64(2), np.uint8(1))])
        assert g.edges == {(1, 2)}
        assert all(type(x) is int for e in g.edges for x in e)

    def test_edge_list_becomes_a_frozenset(self):
        g = Graph(3, [(1, 2)])
        assert isinstance(g.edges, frozenset)
        assert g == Graph(3, frozenset({(1, 2)}))
        assert hash(g) == hash(Graph(3, frozenset({(1, 2)})))

    def test_neighbors_and_degrees(self):
        g = Graph.from_edges(4, [(1, 2), (2, 3), (2, 4)])
        assert g.degrees() == [1, 3, 1, 1]
        assert (2, 3) in g.edges and (1, 4) not in g.edges


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

class TestGenerators:
    def test_path_edges(self):
        assert gen_path(4).sorted_edges() == [(1, 2), (2, 3), (3, 4)]
        assert gen_path(1).sorted_edges() == []

    def test_path_rejects_empty(self):
        with pytest.raises(ValueError):
            gen_path(0)

    def test_complete_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one vertex"):
            gen_complete(0)

    def test_antiregular_rejects_a_single_vertex(self):
        with pytest.raises(ValueError, match="at least two vertices"):
            gen_antiregular(1)

    def test_random_connected_graph_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one vertex"):
            random_connected_graph(0, random.Random(0))

    @pytest.mark.parametrize("k", range(2, 10))
    def test_antiregular_adjacency_rule(self, k):
        g = gen_antiregular(k)
        for i in range(1, k + 1):
            for j in range(i + 1, k + 1):
                assert ((i, j) in g.edges) == (i + j <= k + 1)

    @pytest.mark.parametrize("k", range(2, 10))
    def test_antiregular_has_exactly_one_repeated_degree(self, k):
        degs = gen_antiregular(k).degrees()
        # k vertices sharing k-1 distinct degree values: one value twice.
        assert len(set(degs)) == k - 1
        doubled = [d for d in set(degs) if degs.count(d) == 2]
        assert doubled == [k // 2]
        # the two holders of the repeated degree sit at ceil(k/2), ceil(k/2)+1
        kap = (k + 1) // 2
        assert degs[kap - 1] == degs[kap] == k // 2

    @pytest.mark.parametrize("k", range(2, 10))
    def test_antiregular_dominating_and_terminal(self, k):
        g = gen_antiregular(k)
        assert g.degrees()[0] == k - 1
        assert g.degrees()[k - 1] == 1

    def test_threshold_single_join_is_edge(self):
        assert gen_threshold("J").sorted_edges() == [(1, 2)]

    def test_threshold_all_joins_is_complete(self):
        assert gen_threshold("JJJ").edges == gen_complete(4).edges

    def test_threshold_union_adds_isolated(self):
        g = gen_threshold("U")
        assert g.n == 2 and g.sorted_edges() == []

    def test_threshold_word_forms(self):
        assert gen_threshold("uj").edges == gen_threshold(["Union", "join"]).edges

    def test_threshold_alternating_word_is_antiregular(self):
        # joins and unions alternating (ending on a join) produce the
        # antiregular degree multiset
        g = gen_threshold("UJUJ")
        assert sorted(g.degrees()) == sorted(gen_antiregular(5).degrees())

    def test_threshold_rejects_bad_step(self):
        with pytest.raises(ValueError):
            gen_threshold("JX")
        with pytest.raises(ValueError):
            gen_threshold("")

    def test_complete_graph(self):
        g = gen_complete(4)
        assert len(g.edges) == 6
        assert all(d == 3 for d in g.degrees())

    def test_random_connected_graph_is_connected_and_seeded(self):
        g1 = random_connected_graph(8, random.Random(7))
        g2 = random_connected_graph(8, random.Random(7))
        assert g1.edges == g2.edges
        assert g1.n == 8
        assert is_connected(g1)

    @given(st.integers(min_value=1, max_value=12), st.integers())
    @settings(max_examples=40, deadline=None)
    def test_random_connected_graph_always_connected(self, k, seed):
        assert is_connected(random_connected_graph(k, random.Random(seed)))


# ---------------------------------------------------------------------------
# degree sequences
# ---------------------------------------------------------------------------

class TestDegreeSequences:
    def test_degree_sequence_sorted_nonincreasing(self):
        assert tuple(degree_sequence(gen_path(3))) == (2, 1, 1)

    def test_degree_sequence_equals_its_tuple(self):
        assert degree_sequence(gen_path(3)) == (2, 1, 1)

    def test_degree_sequence_validation(self):
        with pytest.raises(ValueError):
            DegreeSequence((1, 2))
        with pytest.raises(ValueError):
            DegreeSequence((2, -1))
        with pytest.raises(ValueError):
            DegreeSequence(())

    def test_conjugate_small(self):
        assert tuple(conjugate((2, 1, 1))) == (3, 1, 0)
        assert tuple(conjugate((3, 3, 3, 3))) == (4, 4, 4, 0)

    def test_conjugate_is_involution_on_partitions(self):
        for d in [(3, 2, 2, 1), (4, 1, 1, 1, 1), (2, 2, 2)]:
            padded = tuple(conjugate(conjugate(d)))[: len(d)]
            assert padded == d

    def test_trace_of(self):
        assert trace_of((2, 1, 1)) == 1
        assert trace_of((3, 3, 3, 3)) == 3
        assert trace_of((0,)) == 0

    def test_is_graphical_known_cases(self):
        assert is_graphical((1, 1))
        assert is_graphical((2, 2, 2))          # triangle
        assert is_graphical((3, 1, 1, 1))       # star
        assert not is_graphical((3, 3, 1, 1))   # classic non-realizable
        assert not is_graphical((1,))           # odd degree sum
        assert is_graphical((0, 0, 0))

    def test_is_graphical_rejects_degree_beyond_order(self):
        assert not is_graphical((3, 1, 1))

    @pytest.mark.parametrize("k", range(1, 6))
    def test_is_graphical_matches_enumeration(self, k):
        """Brute-force oracle: realizable degree multisets of all graphs on
        k labeled vertices versus the arithmetic test."""
        pairs = list(itertools.combinations(range(k), 2))
        realizable = set()
        for mask in range(1 << len(pairs)):
            deg = [0] * k
            for idx, (u, v) in enumerate(pairs):
                if mask >> idx & 1:
                    deg[u] += 1
                    deg[v] += 1
            realizable.add(tuple(sorted(deg, reverse=True)))
        for d in itertools.combinations_with_replacement(range(k - 1, -1, -1), k):
            if all(d[i] >= d[i + 1] for i in range(k - 1)):
                assert is_graphical(d) == (d in realizable), d


# ---------------------------------------------------------------------------
# Laplacian and connectivity
# ---------------------------------------------------------------------------

def _laplacian_reference(g):
    """L = D - A one edge at a time, the earlier assembly kept as the
    reference the array construction must match."""
    L = np.zeros((g.n, g.n), dtype=np.int64)
    for u, v in g.edges:
        L[u - 1, u - 1] += 1
        L[v - 1, v - 1] += 1
        L[u - 1, v - 1] = -1
        L[v - 1, u - 1] = -1
    return L


def _random_graph(n, rng):
    """A graph on n vertices with each pair an edge with probability 1/2,
    connected or not."""
    return Graph.from_edges(n, [(u, v) for u, v in itertools.combinations(range(1, n + 1), 2)
                                if rng.random() < 0.5])


class TestLaplacian:
    @pytest.mark.parametrize("g", [
        gen_path(1), Graph(1, frozenset()), Graph(4, frozenset()), Graph.from_edges(5, [(2, 4)]),
        *[make(k) for make in (gen_path, gen_antiregular, gen_complete) for k in (2, 3, 9, 30)],
        *[gen_threshold(word) for word in ("J", "U", "UJUJ", "JJUUJ", "UUUJJJUJ")],
        composite(CompositeSpec(structure=gen_antiregular(4), cell=gen_path(5), s=2)),
        chain_antiregular(ChainSpec(c=3, k2=4, links=("D", "T"))),
        *[random_connected_graph(n, random.Random(n)) for n in range(1, 41, 3)],
        *[_random_graph(n, random.Random(100 + n)) for n in range(1, 41, 3)],
    ])
    def test_matches_the_per_edge_reference(self, g):
        L = laplacian(g)
        assert L.dtype == np.int64 and L.flags.c_contiguous
        assert np.array_equal(L, _laplacian_reference(g))


    def test_path3_matrix(self):
        expected = np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]])
        assert np.array_equal(laplacian(gen_path(3)), expected)

    @pytest.mark.parametrize("k", range(2, 8))
    def test_laplacian_rows_sum_to_zero_and_symmetric(self, k):
        L = laplacian(gen_antiregular(k))
        assert np.array_equal(L, L.T)
        assert np.array_equal(L.sum(axis=1), np.zeros(k, dtype=L.dtype))
        assert np.array_equal(np.diag(L), np.array(gen_antiregular(k).degrees()))

    def test_is_connected(self):
        assert is_connected(gen_path(5))
        assert is_connected(gen_path(1))
        assert not is_connected(Graph(2, frozenset()))
        assert not is_connected(Graph.from_edges(4, [(1, 2), (3, 4)]))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

class TestSerialization:
    def test_json_round_trip(self):
        g = gen_antiregular(6)
        assert graph_from_json(graph_to_json(g)).edges == g.edges

    def test_json_is_canonical_one_line(self):
        text = graph_to_json(gen_path(3))
        assert text == '{"n": 3, "edges": [[1, 2], [2, 3]]}'
        assert json.loads(text) == {"n": 3, "edges": [[1, 2], [2, 3]]}

    def test_json_rejects_malformed(self):
        for bad in ["not json", "[]", '{"n": 2}', '{"n": "2", "edges": []}',
                    '{"n": 2, "edges": {"1": 2}}', '{"n": 2, "edges": [[1, 2, 3]]}',
                    '{"n": 2, "edges": [[1, true]]}']:
            with pytest.raises(ValueError):
                graph_from_json(bad)

    def test_json_rejects_nesting_past_the_recursion_limit(self):
        with pytest.raises(ValueError, match="invalid graph JSON"):
            graph_from_json("[" * 200000 + "]" * 200000)

    def test_dot_format(self):
        assert graph_to_dot(gen_path(2)) == "graph { 1 -- 2; }"
        assert graph_to_dot(gen_path(3)) == "graph { 1 -- 2; 2 -- 3; }"

    def test_dot_keeps_isolated_vertices(self):
        g = Graph.from_edges(3, [(1, 2)])
        assert graph_to_dot(g) == "graph { 3; 1 -- 2; }"

    def test_dot_empty_graph(self):
        assert graph_to_dot(Graph(1, frozenset())) == "graph { 1; }"

    @given(st.integers(min_value=1, max_value=10), st.integers())
    @settings(max_examples=40, deadline=None)
    def test_json_round_trip_random(self, k, seed):
        g = random_connected_graph(k, random.Random(seed))
        back = graph_from_json(graph_to_json(g))
        assert back.n == g.n and back.edges == g.edges


# ---------------------------------------------------------------------------
# public surface
# ---------------------------------------------------------------------------

def test_package_all_is_the_modules_all():
    import lapctrl
    from lapctrl import compose, controllability, graph_core, spectral

    expected = [*graph_core.__all__, *spectral.__all__, *controllability.__all__,
                *compose.__all__, "__version__"]
    assert lapctrl.__all__ == expected
    assert len(set(expected)) == len(expected)
    for name in expected:
        getattr(lapctrl, name)
    # nothing public outside the list: a deleted name cannot linger
    exposed = {name for name, value in vars(lapctrl).items()
               if not name.startswith("_") and not inspect.ismodule(value)}
    assert exposed == set(expected) - {"__version__"}


def test_settable_values_are_the_ones_callers_use():
    from lapctrl import ChainSpec, eig_sym, eigenspaces, gramian_check, pbh_verdict
    from lapctrl.verify import verify_majorization

    assert [f.name for f in dataclasses.fields(ChainSpec)] == ["c", "k2", "links"]
    params = {fn.__name__: list(inspect.signature(fn).parameters)
              for fn in (pbh_verdict, gramian_check, eig_sym, eigenspaces,
                         random_connected_graph, verify_majorization)}
    assert params == {"pbh_verdict": ["L", "B"], "gramian_check": ["L", "B"],
                      "eig_sym": ["m"], "eigenspaces": ["dec"],
                      "random_connected_graph": ["k", "rng"],
                      "verify_majorization": ["seed"]}
