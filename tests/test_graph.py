import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airconsensus.graph import (
    complete_graph,
    graph_from_arcs,
    is_strongly_connected,
    ring_graph,
    step_size_bound,
)
from airconsensus.linalg import graph_from_stochastic, perron_matrix
from support import (
    closure_strongly_connected,
    is_balanced,
    laplacian,
    random_digraph,
    random_strongly_connected,
    reference_graph,
    reference_strongly_connected,
)


def two_cycle(w_12=1.0, w_21=1.0):
    # arc (2, 1) carries weight w_12 (into node 1), arc (1, 2) carries w_21
    return graph_from_arcs(2, [(2, 1, w_12), (1, 2, w_21)])


def three_cycle(w=1.0):
    return graph_from_arcs(3, [(1, 2, w), (2, 3, w), (3, 1, w)])


def in_neighbors(g, i):
    """Transmitters of the arcs into node ``i``, read from the arc arrays."""
    return set((g.arc_cols[g.arc_rows == i - 1] + 1).tolist())


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            graph_from_arcs(2, [(1, 1, 1.0)])

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError, match="positive weight"):
            graph_from_arcs(2, [(1, 2, 0.0)])
        with pytest.raises(ValueError, match="positive weight"):
            graph_from_arcs(2, [(1, 2, -3.0)])

    def test_rejects_non_finite_weight(self):
        with pytest.raises(ValueError, match="finite weight"):
            graph_from_arcs(2, [(1, 2, float("inf"))])
        with pytest.raises(ValueError, match="positive weight"):
            graph_from_arcs(2, [(1, 2, float("nan"))])

    def test_rejects_bool_node_count(self):
        with pytest.raises(ValueError, match="node count must be a positive integer"):
            graph_from_arcs(True, [])

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(ValueError, match="outside node range"):
            graph_from_arcs(2, [(1, 3, 1.0)])

    def test_duplicate_arc_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            graph_from_arcs(3, [(1, 2, 1.0), (1, 2, 2.0)])

    def test_weights_are_read_only(self):
        g = two_cycle()
        with pytest.raises(TypeError):
            g.weights[(1, 2)] = 5.0
        for array in (g.arc_rows, g.arc_cols, g.arc_weights, g.in_degrees):
            with pytest.raises(ValueError):
                array[0] = 0


# Node ids and weights as the builder may meet them in a document: mostly
# valid, sometimes 0, n + 1, a Python int beyond int64, a weight that is not
# positive or not finite.
@st.composite
def arc_lists(draw, valid=False, max_n=7):
    n = draw(st.integers(1, max_n))
    ids = st.integers(1, n)
    weights = st.floats(0.5, 10.0)
    if not valid:
        ids = st.one_of(ids, ids, ids, st.sampled_from([0, n + 1, 2**70, -(2**70)]))
        weights = st.one_of(weights, weights, st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf]))
    arcs = draw(st.lists(st.tuples(ids, ids, weights), max_size=3 * max_n))
    if valid:
        arcs = [arc for arc in arcs if arc[0] != arc[1]]
        arcs = list({arc[:2]: arc for arc in arcs}.values())
    elif arcs and draw(st.booleans()):
        arcs.insert(draw(st.integers(0, len(arcs))), draw(st.sampled_from(arcs)))
    return n, arcs


def outcome(build, *args):
    try:
        return build(*args)
    except ValueError as exc:
        return str(exc)


class TestAgainstReference:
    @given(arc_lists())
    @settings(max_examples=400, deadline=None)
    def test_arrays_or_message_match(self, drawn):
        n, arcs = drawn
        expected = outcome(reference_graph, n, arcs)
        got = outcome(graph_from_arcs, n, arcs)
        if isinstance(expected, str):
            assert got == expected
            return
        assert not isinstance(got, str), got
        arrays = (got.arc_rows, got.arc_cols, got.arc_weights, got.in_degrees)
        for array, reference in zip(arrays, expected):
            assert array.dtype == reference.dtype
            assert array.tobytes() == reference.tobytes()

    @given(arc_lists(valid=True))
    @settings(max_examples=400, deadline=None)
    def test_strong_connectivity_matches(self, drawn):
        n, arcs = drawn
        assert is_strongly_connected(graph_from_arcs(n, arcs)) == reference_strongly_connected(n, arcs)

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("weight", [1.0, 2.5, 0.0, -1.0, math.nan, math.inf])
    def test_complete_and_ring(self, n, weight):
        complete = [(j, i, weight) for j in range(1, n + 1) for i in range(1, n + 1) if j != i]
        built = [(complete_graph, complete)]
        if n >= 2:
            built.append((ring_graph, [(v, v % n + 1, weight) for v in range(1, n + 1)]))
        for builder, arcs in built:
            expected = outcome(reference_graph, n, arcs)
            got = outcome(builder, n, weight)
            if isinstance(expected, str):
                assert got == expected
            else:
                arrays = (got.arc_rows, got.arc_cols, got.arc_weights, got.in_degrees)
                assert [a.tobytes() for a in arrays] == [a.tobytes() for a in expected]
                assert is_strongly_connected(got) == reference_strongly_connected(n, arcs)


class TestArcOrder:
    # A protocol's update (a ``protocol.Rule`` instance) gathers the
    # transmitted states by runs of equal transmitters, which needs every
    # builder's arc_cols non-decreasing.
    @given(
        arc_lists(valid=True, max_n=12), st.randoms(use_true_random=False), st.integers(1, 40), st.floats(0.5, 10.0)
    )
    @settings(max_examples=200, deadline=None)
    def test_every_builder_sorts_by_transmitter(self, drawn, shuffle, size, weight):
        n, arcs = drawn
        shuffle.shuffle(arcs)
        g = graph_from_arcs(n, arcs)
        graphs = [g, complete_graph(size, weight)] + ([ring_graph(size, weight)] if size >= 2 else [])
        if g.arc_cols.size:
            graphs.append(graph_from_stochastic(perron_matrix(g, 0.5 * step_size_bound(g)), 0.5))
        for built in graphs:
            assert (np.diff(built.arc_cols) >= 0).all()
            keys = built.arc_cols.astype(np.int64) * built.n + built.arc_rows
            assert (np.diff(keys) > 0).all()  # then by receiver, no arc twice


class TestInNeighbors:
    def test_two_cycle(self):
        assert in_neighbors(two_cycle(), 1) == {2}

    def test_directed_three_cycle(self):
        assert in_neighbors(three_cycle(), 2) == {1}

    def test_chain_head_has_none(self):
        g = graph_from_arcs(3, [(1, 2, 1.0), (2, 3, 1.0)])
        assert in_neighbors(g, 1) == set()
        assert g.in_degrees.tolist() == [0, 1, 1]

    def test_never_contains_self(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = random_digraph(rng, int(rng.integers(2, 8)))
            for i in range(1, g.n + 1):
                assert i not in in_neighbors(g, i)


class TestStrongConnectivity:
    def test_three_cycle(self):
        assert is_strongly_connected(three_cycle())

    def test_chain_is_not(self):
        g = graph_from_arcs(3, [(1, 2, 1.0), (2, 3, 1.0)])
        assert not is_strongly_connected(g)

    def test_complete(self):
        assert is_strongly_connected(complete_graph(4))

    def test_single_node(self):
        assert is_strongly_connected(graph_from_arcs(1, []))

    def test_ring_missing_one_arc_is_not(self):
        n = 1000
        arcs = [(v, v % n + 1, 1.0) for v in range(1, n + 1)]
        assert is_strongly_connected(graph_from_arcs(n, arcs))
        assert not is_strongly_connected(graph_from_arcs(n, arcs[:500] + arcs[501:]))

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
            step_size_bound(graph_from_arcs(3, []))


def test_ring_graph_is_balanced_and_connected():
    g = ring_graph(6, weight=2.0)
    assert is_balanced(g)
    assert is_strongly_connected(g)
    assert len(g.arcs) == 6


def test_complete_graph_arc_count():
    g = complete_graph(5)
    assert len(g.arcs) == 20
    assert all(w == 1.0 for w in g.weights.values())
