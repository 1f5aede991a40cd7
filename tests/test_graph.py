import numpy as np
import pytest

from airconsensus.graph import (
    WeightedDigraph,
    complete_graph,
    graph_from_arcs,
    is_balanced,
    is_strongly_connected,
    laplacian,
    ring_graph,
    step_size_bound,
)
from support import closure_strongly_connected, random_digraph, random_strongly_connected


def two_cycle(w_12=1.0, w_21=1.0):
    # arc (2, 1) carries weight w_12 (into node 1), arc (1, 2) carries w_21
    return WeightedDigraph(2, {(2, 1): w_12, (1, 2): w_21})


def three_cycle(w=1.0):
    return WeightedDigraph(3, {(1, 2): w, (2, 3): w, (3, 1): w})


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            WeightedDigraph(2, {(1, 1): 1.0})

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError, match="positive weight"):
            WeightedDigraph(2, {(1, 2): 0.0})
        with pytest.raises(ValueError, match="positive weight"):
            WeightedDigraph(2, {(1, 2): -3.0})

    def test_rejects_non_finite_weight(self):
        with pytest.raises(ValueError, match="finite weight"):
            WeightedDigraph(2, {(1, 2): float("inf")})
        with pytest.raises(ValueError, match="positive weight"):
            WeightedDigraph(2, {(1, 2): float("nan")})

    def test_rejects_bool_node_count(self):
        with pytest.raises(ValueError, match="node count must be a positive integer"):
            WeightedDigraph(True, {})

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(ValueError, match="outside node range"):
            WeightedDigraph(2, {(1, 3): 1.0})

    def test_duplicate_arc_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            graph_from_arcs(3, [(1, 2, 1.0), (1, 2, 2.0)])

    def test_weights_are_read_only(self):
        g = two_cycle()
        with pytest.raises(TypeError):
            g.weights[(1, 2)] = 5.0


class TestInNeighbors:
    def test_two_cycle(self):
        assert two_cycle().in_neighbors(1) == {2}

    def test_directed_three_cycle(self):
        assert three_cycle().in_neighbors(2) == {1}

    def test_chain_head_has_none(self):
        g = graph_from_arcs(3, [(1, 2, 1.0), (2, 3, 1.0)])
        assert g.in_neighbors(1) == frozenset()

    def test_never_contains_self(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = random_digraph(rng, int(rng.integers(2, 8)))
            for i in range(1, g.n + 1):
                assert i not in g.in_neighbors(i)

    def test_out_of_range_node(self):
        with pytest.raises(ValueError, match="outside range"):
            two_cycle().in_neighbors(3)


class TestStrongConnectivity:
    def test_three_cycle(self):
        assert is_strongly_connected(three_cycle())

    def test_chain_is_not(self):
        g = graph_from_arcs(3, [(1, 2, 1.0), (2, 3, 1.0)])
        assert not is_strongly_connected(g)

    def test_complete(self):
        assert is_strongly_connected(complete_graph(4))

    def test_single_node(self):
        assert is_strongly_connected(WeightedDigraph(1, {}))

    def test_agrees_with_closure_oracle(self):
        rng = np.random.default_rng(7)
        seen = {True: 0, False: 0}
        for _ in range(120):
            n = int(rng.integers(2, 9))
            g = random_digraph(rng, n, arc_prob=float(rng.uniform(0.05, 0.6)))
            expected = closure_strongly_connected(g)
            seen[expected] += 1
            assert is_strongly_connected(g) == expected
        assert seen[True] > 5 and seen[False] > 5


class TestBalance:
    def test_symmetric_two_cycle(self):
        assert is_balanced(two_cycle(1.0, 1.0))

    def test_asymmetric_two_cycle(self):
        assert not is_balanced(two_cycle(1.0, 2.0))

    def test_directed_cycle_any_constant_weight(self):
        assert is_balanced(three_cycle(5.0))

    def test_balanced_implies_zero_laplacian_column_sums(self):
        rng = np.random.default_rng(3)
        from support import random_balanced

        for _ in range(20):
            g = random_balanced(rng, int(rng.integers(3, 9)))
            assert is_balanced(g)
            col_sums = laplacian(g).sum(axis=0)
            assert np.max(np.abs(col_sums)) <= 1e-12


class TestLaplacian:
    def test_two_cycle_unit_weights(self):
        np.testing.assert_array_equal(laplacian(two_cycle()), [[1.0, -1.0], [-1.0, 1.0]])

    def test_single_arc(self):
        g = graph_from_arcs(2, [(1, 2, 3.0)])
        np.testing.assert_array_equal(laplacian(g), [[0.0, 0.0], [-3.0, 3.0]])

    def test_row_sums_zero_random(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = random_digraph(rng, 5, arc_prob=0.5)
            L = laplacian(g)
            # diagonal is assembled as the exact negation of its row's
            # off-diagonal sum
            for i in range(5):
                off = np.delete(L[i], i)
                assert L[i, i] == -np.sum(off)
            assert np.max(np.abs(L.sum(axis=1))) <= 1e-13


class TestStepSizeBound:
    def test_two_cycle(self):
        assert step_size_bound(two_cycle()) == 1.0

    def test_three_cycle_weight_two(self):
        assert step_size_bound(three_cycle(2.0)) == 0.5

    def test_matches_max_laplacian_diagonal(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            g = random_strongly_connected(rng, int(rng.integers(3, 9)))
            heaviest = max(np.diag(laplacian(g)))
            assert step_size_bound(g) == pytest.approx(1.0 / heaviest, rel=1e-15)

    def test_arcless_graph_rejected(self):
        with pytest.raises(ValueError, match="no arcs"):
            step_size_bound(WeightedDigraph(3, {}))


def test_ring_graph_is_balanced_and_connected():
    g = ring_graph(6, weight=2.0)
    assert is_balanced(g)
    assert is_strongly_connected(g)
    assert len(g.arcs) == 6


def test_complete_graph_arc_count():
    g = complete_graph(5)
    assert len(g.arcs) == 20
    assert all(w == 1.0 for w in g.weights.values())
