import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topoleak.errors import (
    DisconnectedGraph,
    GenerationFailed,
    InvalidProbability,
    InvalidSize,
    ParseError,
)
from topoleak.topology import (
    Topology,
    adjacency_matrix,
    aggregation_matrix,
    dump_topology,
    gen_erdos_renyi,
    gen_ring,
    gen_star,
    is_connected,
    load_topology,
    second_eigenvalue_modulus,
    stats,
)


class TestGenerators:
    def test_ring_structure(self):
        t = gen_ring(5)
        assert t.n_nodes == 5
        assert t.edges == ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4))
        assert all(len(t.neighbors(i)) == 2 for i in range(5))

    def test_ring_minimum_size(self):
        with pytest.raises(InvalidSize):
            gen_ring(2)

    def test_star_structure(self):
        t = gen_star(6)
        assert t.n_edges == 5
        assert t.neighbors(0) == [1, 2, 3, 4, 5]
        assert all(t.neighbors(i) == [0] for i in range(1, 6))

    def test_star_minimum_size(self):
        with pytest.raises(InvalidSize):
            gen_star(1)

    def test_er_deterministic(self):
        a = gen_erdos_renyi(12, 0.4, seed=7)
        b = gen_erdos_renyi(12, 0.4, seed=7)
        assert a == b
        c = gen_erdos_renyi(12, 0.4, seed=8)
        assert a != c  # overwhelmingly likely for 66 candidate pairs

    def test_er_connected(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            seed = int(rng.integers(1 << 31))
            t = gen_erdos_renyi(10, 0.3, seed=seed)
            assert is_connected(t)

    def test_er_p_one_is_complete(self):
        t = gen_erdos_renyi(6, 1.0, seed=0)
        assert t.n_edges == 15

    def test_er_invalid_p(self):
        with pytest.raises(InvalidProbability):
            gen_erdos_renyi(5, 0.0, seed=0)
        with pytest.raises(InvalidProbability):
            gen_erdos_renyi(5, 1.5, seed=0)

    def test_er_gives_up_when_connectivity_unreachable(self):
        # p so small that a connected 30-node draw inside the retry budget
        # is effectively impossible
        with pytest.raises(GenerationFailed):
            gen_erdos_renyi(30, 1e-6, seed=3)


@st.composite
def connected_topologies(draw):
    """A random spanning tree plus any further edges."""
    n = draw(st.integers(1, 9))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda e: e[0] != e[1]), max_size=12))
    return Topology.from_pairs(n, tree + extra)


class TestEdgeListFormat:
    def test_round_trip(self):
        t = gen_erdos_renyi(9, 0.5, seed=11)
        assert load_topology(dump_topology(t)) == t

    @settings(max_examples=100, deadline=None)
    @given(connected_topologies())
    def test_dump_load_round_trip(self, t):
        text = dump_topology(t)
        assert load_topology(text) == t
        assert dump_topology(load_topology(text)) == text

    @settings(max_examples=60, deadline=None)
    @given(connected_topologies().filter(lambda t: t.n_edges > 0), st.data())
    def test_bad_edge_line_names_its_line(self, t, data):
        lines = dump_topology(t).splitlines()
        k = data.draw(st.integers(2, len(lines)), label="line")
        lines[k - 1] += data.draw(st.sampled_from([" 0", " x"]))
        with pytest.raises(ParseError) as exc:
            load_topology("\n".join(lines) + "\n")
        assert exc.value.line == k

    def test_comments_and_blank_lines(self):
        text = "# a triangle\n\n3 3\n0 1\n# middle\n1 2\n0 2\n"
        t = load_topology(text)
        assert t.n_edges == 3

    def test_node_index_out_of_range(self):
        with pytest.raises(ParseError) as exc:
            load_topology("3 2\n0 1\n1 3\n")
        assert exc.value.line == 3

    def test_malformed_header(self):
        with pytest.raises(ParseError) as exc:
            load_topology("3\n0 1\n")
        assert exc.value.line == 1

    def test_malformed_edge_line(self):
        with pytest.raises(ParseError) as exc:
            load_topology("3 2\n0 1\n1 2 9\n")
        assert exc.value.line == 3

    def test_duplicate_edge(self):
        with pytest.raises(ParseError):
            load_topology("3 3\n0 1\n1 0\n1 2\n")

    def test_self_loop(self):
        with pytest.raises(ParseError):
            load_topology("3 2\n0 0\n1 2\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(ParseError):
            load_topology("3 3\n0 1\n1 2\n")

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraph):
            load_topology("3 1\n0 1\n")

    def test_empty_document(self):
        with pytest.raises(ParseError):
            load_topology("# nothing\n")


class TestAggregationMatrix:
    def test_two_node_pair(self):
        t = Topology.from_pairs(2, [(0, 1)])
        p = aggregation_matrix(adjacency_matrix(t))
        np.testing.assert_allclose(p, [[0.5, 0.5], [0.5, 0.5]])

    def test_path_of_three(self):
        t = Topology.from_pairs(3, [(0, 1), (1, 2)])
        p = aggregation_matrix(adjacency_matrix(t))
        expected = [
            [1 / 2, 1 / 2, 0],
            [1 / 3, 1 / 3, 1 / 3],
            [0, 1 / 2, 1 / 2],
        ]
        np.testing.assert_allclose(p, expected)

    def test_complete_four(self):
        t = gen_erdos_renyi(4, 1.0, seed=0)
        p = aggregation_matrix(adjacency_matrix(t))
        np.testing.assert_allclose(p, np.full((4, 4), 0.25))

    def test_rows_sum_to_one_on_random_graphs(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            seed = int(rng.integers(1 << 31))
            t = gen_erdos_renyi(int(rng.integers(4, 15)), 0.5, seed=seed)
            p = aggregation_matrix(adjacency_matrix(t))
            np.testing.assert_allclose(p.sum(axis=1), np.ones(t.n_nodes), atol=1e-12)
            assert np.all(p >= 0)

    def test_zero_weight_exactly_on_non_edges(self):
        t = gen_erdos_renyi(8, 0.4, seed=5)
        a = adjacency_matrix(t)
        p = aggregation_matrix(a)
        off = ~np.eye(8, dtype=bool)
        assert np.array_equal(p[off] > 0, a[off] > 0)

    def test_disconnected_adjacency_rejected(self):
        a = np.zeros((4, 4))
        a[0, 1] = a[1, 0] = 1.0
        a[2, 3] = a[3, 2] = 1.0
        with pytest.raises(DisconnectedGraph):
            aggregation_matrix(a)


class TestSpectralModulus:
    def test_matches_dense_eigensolver_ring(self):
        # independent oracle: full eigendecomposition of P
        p = aggregation_matrix(adjacency_matrix(gen_ring(10)))
        eigs = np.sort(np.abs(np.linalg.eigvals(p)))[::-1]
        assert second_eigenvalue_modulus(p) == pytest.approx(eigs[1], abs=1e-8)

    def test_ring_ten_closed_form(self):
        # ring eigenvalues of P are (1 + 2 cos(2 pi k / n)) / 3
        p = aggregation_matrix(adjacency_matrix(gen_ring(10)))
        expected = (1 + 2 * np.cos(2 * np.pi / 10)) / 3
        assert second_eigenvalue_modulus(p) == pytest.approx(expected, abs=1e-9)

    def test_star_ten_closed_form(self):
        # leaf rows of the 10-node star give an eigenvalue 1/2 with
        # multiplicity 8; the remaining pair is {1, -2/5}
        p = aggregation_matrix(adjacency_matrix(gen_star(10)))
        assert second_eigenvalue_modulus(p) == pytest.approx(0.5, abs=1e-9)

    def test_complete_graph_is_zero(self):
        p = aggregation_matrix(adjacency_matrix(gen_erdos_renyi(7, 1.0, seed=0)))
        assert second_eigenvalue_modulus(p) == pytest.approx(0.0, abs=1e-9)

    def test_matches_dense_eigensolver_random(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            seed = int(rng.integers(1 << 31))
            t = gen_erdos_renyi(12, 0.35, seed=seed)
            p = aggregation_matrix(adjacency_matrix(t))
            eigs = np.sort(np.abs(np.linalg.eigvals(p)))[::-1]
            assert second_eigenvalue_modulus(p) == pytest.approx(eigs[1], abs=1e-7)


class TestStats:
    def test_ring_ten(self):
        s = stats(gen_ring(10))
        assert s.n_edges == 10
        assert s.avg_degree == pytest.approx(2.0)
        assert s.density == pytest.approx(10 * 2 / 90)

    def test_star_ten(self):
        s = stats(gen_star(10))
        assert s.n_edges == 9
        assert s.avg_degree == pytest.approx(1.8)
        assert s.density == pytest.approx(0.2)

    def test_density_of_complete_graph_is_one(self):
        s = stats(gen_erdos_renyi(5, 1.0, seed=0))
        assert s.density == pytest.approx(1.0)
