import numpy as np
import pytest

from airconsensus.graph import graph_from_arcs
from airconsensus.linalg import (
    dominant_left_eigenvector,
    graph_from_stochastic,
    is_primitive,
    is_row_stochastic,
    perron_matrix,
    second_eigenvalue_modulus,
)
from support import (
    charpoly_moduli,
    primitive_by_explicit_powers,
    random_primitive_posdiag,
    random_strongly_connected,
    same_zero_pattern,
)


class TestRowStochastic:
    def test_identity(self):
        assert is_row_stochastic(np.eye(3))

    def test_mixed_rows(self):
        assert is_row_stochastic(np.array([[0.5, 0.5], [0.25, 0.75]]))

    def test_row_sum_two(self):
        assert not is_row_stochastic(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_negative_entry(self):
        assert not is_row_stochastic(np.array([[1.5, -0.5], [0.5, 0.5]]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            is_row_stochastic(np.ones((2, 3)))


class TestPrimitive:
    def test_permutation_is_not(self):
        assert not is_primitive(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_positive_is(self):
        assert is_primitive(np.full((3, 3), 0.2))

    def test_upper_triangular_is_not(self):
        assert not is_primitive(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            is_primitive(np.array([[0.5, -0.1], [0.5, 0.5]]))

    def test_agrees_with_explicit_power_oracle(self):
        rng = np.random.default_rng(21)
        outcomes = {True: 0, False: 0}
        for _ in range(200):
            n = int(rng.integers(2, 6))
            A = (rng.random((n, n)) < rng.uniform(0.2, 0.7)) * rng.uniform(0.5, 2.0, (n, n))
            expected = primitive_by_explicit_powers(A)
            outcomes[expected] += 1
            assert is_primitive(A) == expected
        assert outcomes[True] > 10 and outcomes[False] > 10


class TestSameZeroPattern:
    def test_matching_patterns(self):
        assert same_zero_pattern(np.array([[0, 1], [2, 0]]), np.array([[0, 9], [1, 0]]))

    def test_differing_patterns(self):
        assert not same_zero_pattern(np.array([[0, 1], [2, 0]]), np.array([[0, 1], [0, 0]]))

    def test_reflexive(self):
        A = np.array([[0.0, 3.0, 0.0], [1.0, 0.0, 0.0], [0.0, 2.0, 1.0]])
        assert same_zero_pattern(A, A)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            same_zero_pattern(np.eye(2), np.eye(3))


class TestPerronMatrix:
    def test_two_cycle_half_step(self):
        g = graph_from_arcs(2, [(1, 2, 1.0), (2, 1, 1.0)])
        np.testing.assert_allclose(perron_matrix(g, 0.5), [[0.5, 0.5], [0.5, 0.5]])

    def test_three_cycle(self):
        g = graph_from_arcs(3, [(1, 2, 2.0), (2, 3, 2.0), (3, 1, 2.0)])
        D = perron_matrix(g, 0.25)
        np.testing.assert_allclose(np.diag(D), [0.5, 0.5, 0.5])
        assert D[1, 0] == D[2, 1] == D[0, 2] == 0.5

    def test_random_graph_gives_stochastic_primitive(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            g = random_strongly_connected(rng, int(rng.integers(3, 9)))
            from airconsensus.graph import step_size_bound

            eps = rng.uniform(0.1, 0.99) * step_size_bound(g)
            D = perron_matrix(g, eps)
            assert is_row_stochastic(D, 1e-12)
            assert is_primitive(D)
            assert (np.diag(D) > 0).all()

    def test_step_size_out_of_range(self):
        g = graph_from_arcs(2, [(1, 2, 1.0), (2, 1, 1.0)])
        with pytest.raises(ValueError, match="step size"):
            perron_matrix(g, 1.0)
        with pytest.raises(ValueError, match="step size"):
            perron_matrix(g, -0.1)


class TestDominantLeftEigenvector:
    def test_doubly_stochastic_gives_uniform(self):
        pair = dominant_left_eigenvector(np.array([[0.5, 0.5], [0.5, 0.5]]))
        np.testing.assert_allclose(pair.left_vector, [0.5, 0.5], atol=1e-12)
        assert pair.value == pytest.approx(1.0, abs=1e-12)

    def test_two_by_two_closed_form(self):
        # w' A = w' with w1 + w2 = 1 solves to w = (1/3, 2/3)
        pair = dominant_left_eigenvector(np.array([[0.5, 0.5], [0.25, 0.75]]))
        np.testing.assert_allclose(pair.left_vector, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)

    def test_random_stochastic_residual(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            A = rng.uniform(0.01, 1.0, (6, 6))
            A /= A.sum(axis=1, keepdims=True)
            pair = dominant_left_eigenvector(A)
            w = pair.left_vector
            assert np.max(np.abs(w @ A - w)) <= 1e-10
            assert (w > 0).all()
            assert abs(w.sum() - 1.0) <= 1e-14

    def test_periodic_matrix_gives_its_stationary_vector(self):
        # period-2 zero pattern: not primitive, but the eigenvalue 1 is
        # simple, which is all the bordered solve needs
        periodic = np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]])
        pair = dominant_left_eigenvector(periodic)
        np.testing.assert_allclose(pair.left_vector, [0.25, 0.5, 0.25], atol=1e-15)
        assert pair.value == 1.0

    @pytest.mark.parametrize(
        "A",
        [
            np.array([[0.5, 0.6], [0.5, 0.5]]),  # a row sums to 1.1
            np.array([[1.5, -0.5], [0.5, 0.5]]),  # rows sum to 1, one entry negative
            np.ones((2, 3)) / 3.0,  # not square
            np.zeros((0, 0)),
        ],
        ids=["row-sum", "negative", "not-square", "empty"],
    )
    def test_rejects_a_matrix_that_is_not_row_stochastic(self, A):
        with pytest.raises(ValueError):
            dominant_left_eigenvector(A)

    def test_two_closed_classes_have_no_unique_vector(self):
        # block-diagonal: two stationary vectors, the eigenvalue 1 is double
        A = np.kron(np.eye(2), np.full((2, 2), 0.5))
        with pytest.raises(np.linalg.LinAlgError):
            dominant_left_eigenvector(A)

    def test_two_closed_classes_with_rounded_pivots_are_rejected(self):
        # Random blocks: the LU pivot that should be 0 mostly comes out at
        # rounding level, and the solution is a genuine left eigenvector,
        # one of many. The condition number tells.
        rng = np.random.default_rng(5)
        for _ in range(50):
            blocks = [rng.uniform(0.1, 1.0, (k, k)) for k in rng.integers(2, 5, 2)]
            A = np.zeros((sum(len(b) for b in blocks),) * 2)
            A[: len(blocks[0]), : len(blocks[0])] = blocks[0]
            A[len(blocks[0]) :, len(blocks[0]) :] = blocks[1]
            A /= A.sum(axis=1, keepdims=True)
            with pytest.raises(np.linalg.LinAlgError):
                dominant_left_eigenvector(A)


class TestSecondEigenvalueModulus:
    def test_rank_one(self):
        assert second_eigenvalue_modulus(np.array([[0.5, 0.5], [0.5, 0.5]])) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_symmetric_two_by_two(self):
        A = np.array([[0.75, 0.25], [0.25, 0.75]])
        assert second_eigenvalue_modulus(A) == pytest.approx(0.5, abs=1e-12)

    def test_matches_charpoly_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n = int(rng.integers(2, 5))
            A = rng.uniform(0.01, 1.0, (n, n))
            A /= A.sum(axis=1, keepdims=True)
            expected = charpoly_moduli(A)[1]
            assert second_eigenvalue_modulus(A) == pytest.approx(expected, abs=1e-8)

    def test_below_one_for_primitive_stochastic(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            n = int(rng.integers(3, 11))
            A = rng.uniform(0.01, 1.0, (n, n))
            A /= A.sum(axis=1, keepdims=True)
            value = second_eigenvalue_modulus(A)
            assert 0.0 <= value < 1.0


class TestGraphFromStochastic:
    def test_two_by_two_example(self):
        g = graph_from_stochastic(np.array([[0.5, 0.5], [0.5, 0.5]]), 0.5)
        assert g.arcs == {(1, 2), (2, 1)}
        assert g.weights[2, 1] == 1.0 and g.weights[1, 2] == 1.0

    def test_symmetric_matrix_gives_symmetric_weights(self):
        from support import symmetric_doubly_stochastic

        rng = np.random.default_rng(23)
        for _ in range(10):
            P = symmetric_doubly_stochastic(rng, int(rng.integers(3, 7)))
            g = graph_from_stochastic(P, 0.3)
            weights = g.weights
            for j, i in g.arcs:
                assert (i, j) in g.arcs
                assert weights[j, i] == weights[i, j]

    def test_positive_matrix_gives_complete_graph(self):
        P = np.full((4, 4), 0.25)
        g = graph_from_stochastic(P, 0.1)
        assert len(g.arcs) == 12

    def test_round_trip(self):
        from airconsensus.graph import step_size_bound

        rng = np.random.default_rng(29)
        for _ in range(25):
            g = random_strongly_connected(rng, int(rng.integers(2, 8)))
            eps = rng.uniform(0.05, 0.95) * step_size_bound(g)
            back = graph_from_stochastic(perron_matrix(g, eps), eps)
            assert back.arcs == g.arcs
            for arc, w in g.weights.items():
                assert back.weights[arc] == pytest.approx(w, abs=1e-12)

    def test_zero_diagonal_rejected(self):
        with pytest.raises(ValueError, match="diagonal"):
            graph_from_stochastic(np.array([[0.0, 1.0], [1.0, 0.0]]), 0.5)

    def test_non_stochastic_rejected(self):
        with pytest.raises(ValueError, match="row-stochastic"):
            graph_from_stochastic(np.array([[0.9, 0.9], [0.1, 0.1]]), 0.5)


class TestProductsOfPrimitives:
    def test_product_primitive_with_positive_diagonal(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            A = random_primitive_posdiag(rng, n)
            B = random_primitive_posdiag(rng, n)
            product = A @ B
            assert primitive_by_explicit_powers(product)
            assert is_primitive(product)
            assert (np.diag(product) > 0).all()

    def test_same_pattern_stochastic_sequence_product(self):
        rng = np.random.default_rng(41)
        g = random_strongly_connected(rng, 5)
        pattern = np.zeros((5, 5))
        pattern[g.arc_rows, g.arc_cols] = 1.0
        np.fill_diagonal(pattern, 1.0)
        product = np.eye(5)
        matrices = []
        for _ in range(6):
            M = pattern * rng.uniform(0.1, 1.0, (5, 5))
            M /= M.sum(axis=1, keepdims=True)
            matrices.append(M)
            product = M @ product
        for M in matrices[1:]:
            assert same_zero_pattern(matrices[0], M)
        assert is_row_stochastic(product, 1e-12)
        assert is_primitive(product)
