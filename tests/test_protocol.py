import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airconsensus import protocol
from airconsensus.analysis import monte_carlo
from airconsensus.channel import (
    IID_PER_STEP,
    MODES,
    TIME_INVARIANT,
    ChannelModel,
    ChannelRealization,
    ChannelStreams,
    ConstantLaw,
    UniformLaw,
    sample,
)
from airconsensus.graph import complete_graph, graph_from_arcs, ring_graph, step_size_bound
from airconsensus.linalg import (
    ArcOperator,
    is_primitive,
    is_row_stochastic,
    perron_matrix,
    perron_operator,
)
from airconsensus.protocol import (
    CONVERGED,
    MAX_STEPS,
    ProtocolConfig,
    effective_matrix,
    effective_operator,
    invariant_operator,
    naive_matrix,
    record_run,
    run,
    spread,
    step_superposition,
)
from support import (
    channel_laws,
    dict_graph,
    laplacian,
    mixing_weights,
    random_strongly_connected,
    same_zero_pattern,
    strongly_connected_digraphs,
    take_block_step,
)


NAIVE_CONFIG = ProtocolConfig("naive")


def one_step(topology, config, x, r=None):
    """One update of ``config`` on the single state ``x``, through a block of one;
    ``r`` holds the channel coefficients of the superposition and naive variants."""
    update = config.update(topology)
    coefficients = update.coefficients(r.values[None]) if r is not None else ()
    return update(np.asarray(x, dtype=float)[None], *coefficients)[0]


def ideal_channel(topology, value=1.0):
    return ChannelModel(topology, ConstantLaw(value), TIME_INVARIANT, 0)


def u010_channel(topology, seed=42, mode=IID_PER_STEP):
    return ChannelModel(topology, UniformLaw(0.0, 10.0), mode, seed)


#: The three entry points that run a protocol, each called with
#: (topology, channel, protocol, x0).
ENTRIES = {
    "run": run,
    "record_run": lambda *args: record_run(lambda states, first_step: None, *args),
    "monte_carlo": lambda *args: monte_carlo(*args, runs=2),
}


class TestStepSuperposition:
    def test_two_cycle_half_mixing(self):
        # single in-neighbor per node: the coefficient cancels in the ratio
        g = graph_from_arcs(2, [(1, 2, 1.0), (2, 1, 1.0)])
        r = sample(u010_channel(g, seed=5), 0)
        np.testing.assert_allclose(
            step_superposition(np.array([0.0, 2.0]), r, 0.5), [1.0, 1.0]
        )

    def test_ideal_fully_connected(self):
        r = sample(ideal_channel(complete_graph(3)), 0)
        got = step_superposition(np.array([0.0, 3.0, 6.0]), r, 0.5)
        np.testing.assert_allclose(got, [2.25, 3.0, 3.75])

    def test_matches_matrix_form(self):
        rng = np.random.default_rng(61)
        g = random_strongly_connected(rng, 6)
        model = u010_channel(g, seed=303)
        for k in range(20):
            r = sample(model, k)
            x = rng.uniform(0, 2 * np.pi, 6)
            mixing = rng.uniform(0.05, 0.95, 6)
            direct = step_superposition(x, r, mixing)
            via_matrix = effective_matrix(r, mixing) @ x
            assert np.max(np.abs(direct - via_matrix)) <= 1e-13

    def test_stays_inside_hull(self):
        rng = np.random.default_rng(67)
        g = complete_graph(5)
        model = u010_channel(g, seed=11)
        x = rng.uniform(-3, 3, 5)
        for k in range(50):
            x_next = step_superposition(x, sample(model, k), 0.7)
            assert x_next.max() <= x.max() + 1e-12
            assert x_next.min() >= x.min() - 1e-12
            x = x_next

    def test_mixing_range_enforced(self):
        r = sample(ideal_channel(complete_graph(3)), 0)
        with pytest.raises(ValueError, match="open interval"):
            step_superposition(np.zeros(3), r, 1.0)


class TestEffectiveMatrix:
    def test_two_cycle_single_neighbor_rows(self):
        g = graph_from_arcs(2, [(1, 2, 1.0), (2, 1, 1.0)])
        r = sample(u010_channel(g, seed=8), 0)
        D = effective_matrix(r, [0.3, 0.7])
        np.testing.assert_allclose(D, [[0.7, 0.3], [0.7, 0.3]])

    def test_matched_mixing_reproduces_perron_matrix(self):
        # with the mixing vector tied to the coefficient sums, eps * sums,
        # the update equals the Perron matrix of the graph weighted by the
        # coefficients; recomputed per step when the coefficients change
        rng = np.random.default_rng(71)
        for _ in range(10):
            g = random_strongly_connected(rng, int(rng.integers(3, 8)))
            model = u010_channel(g, seed=int(rng.integers(1000)))
            for k in range(3):
                r = sample(model, k)
                sums = r.gains.sum(axis=1)
                eps = 0.8 / sums.max()
                mixing = eps * sums
                coeff_graph = graph_from_arcs(g.n, [(j, i, r.gains[i - 1, j - 1]) for j, i in g.arc_order])
                np.testing.assert_allclose(
                    effective_matrix(r, mixing), perron_matrix(coeff_graph, eps), atol=1e-13
                )

    def test_matches_two_signal_arc_loop(self):
        # Each receiver hears two superposed signals over its in-arcs: the
        # coefficient-weighted state sum and the plain coefficient sum. It
        # mixes its own state with their ratio.
        rng = np.random.default_rng(51)
        for g in (complete_graph(5), random_strongly_connected(rng, 7)):
            model = u010_channel(g, seed=99)
            for k in range(5):
                r = sample(model, k)
                x = rng.uniform(-5, 5, g.n)
                mixing = rng.uniform(0.05, 0.95, g.n)
                expected = np.empty(g.n)
                for i in range(1, g.n + 1):
                    senders = [j for j, receiver in g.arc_order if receiver == i]
                    weighted = sum(r.gains[i - 1, j - 1] * x[j - 1] for j in senders)
                    plain = sum(r.gains[i - 1, j - 1] for j in senders)
                    expected[i - 1] = (1 - mixing[i - 1]) * x[i - 1] + mixing[i - 1] * weighted / plain
                np.testing.assert_allclose(effective_matrix(r, mixing) @ x, expected, rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(step_superposition(x, r, mixing), expected, rtol=1e-12, atol=1e-12)

    def test_ideal_channel_ratio_is_the_in_neighbor_mean(self):
        # Unit coefficients on the complete 3-node graph: node 1 hears the
        # sum 2 + 3 = 5 and the count 2, so it moves toward 2.5.
        r = sample(ideal_channel(complete_graph(3)), 0)
        x = np.array([1.0, 2.0, 3.0])
        assert (effective_matrix(r, 0.5) @ x)[0] == 0.5 * 1.0 + 0.5 * 2.5

    def test_random_realizations_stochastic_primitive_same_pattern(self):
        rng = np.random.default_rng(73)
        g = random_strongly_connected(rng, 6)
        model = u010_channel(g, seed=21)
        first = None
        for k in range(25):
            D = effective_matrix(sample(model, k), 0.4)
            assert is_row_stochastic(D, 1e-12)
            assert is_primitive(D)
            if first is None:
                first = D
            else:
                assert same_zero_pattern(first, D)


class TestStepClassical:
    def test_two_cycle(self):
        g = graph_from_arcs(2, [(1, 2, 1.0), (2, 1, 1.0)])
        x_next = one_step(g, ProtocolConfig("classical", step_size=0.5), np.array([0.0, 2.0]))
        np.testing.assert_allclose(x_next, [1.0, 1.0])

    def test_tiny_step_barely_moves(self):
        rng = np.random.default_rng(79)
        g = random_strongly_connected(rng, 5, w_lo=0.5, w_hi=5.0)
        x = rng.uniform(0, 2 * np.pi, 5)
        x_next = one_step(g, ProtocolConfig("classical", step_size=1e-9), x)
        assert np.linalg.norm(x_next - x) <= 1e-8 * np.linalg.norm(x)

    def test_balanced_graph_preserves_sum(self):
        from support import random_balanced

        rng = np.random.default_rng(83)
        for _ in range(10):
            g = random_balanced(rng, 6)
            x = rng.uniform(-5, 5, 6)
            from airconsensus.graph import step_size_bound

            config = ProtocolConfig("classical", step_size=0.5 * step_size_bound(g))
            x_next = one_step(g, config, x)
            assert abs(x_next.sum() - x.sum()) <= 1e-10

    def test_step_size_validated(self):
        g = graph_from_arcs(2, [(1, 2, 1.0), (2, 1, 1.0)])
        with pytest.raises(ValueError, match="step size"):
            one_step(g, ProtocolConfig("classical", step_size=1.5), np.zeros(2))


class TestStepNaive:
    def test_ideal_channel_plain_average(self):
        r = sample(ideal_channel(complete_graph(3)), 0)
        got = one_step(r.topology, NAIVE_CONFIG, np.array([0.0, 3.0, 6.0]), r)
        np.testing.assert_allclose(got, [3.0, 3.0, 3.0])

    def test_gain_two_leaves_hull(self):
        r = sample(ideal_channel(complete_graph(3), value=2.0), 0)
        got = one_step(r.topology, NAIVE_CONFIG, np.array([3.0, 3.0, 3.0]), r)
        np.testing.assert_allclose(got, [5.0, 5.0, 5.0])
        assert got.max() > 3.0  # escapes the initial hull

    def test_random_channel_not_row_stochastic(self):
        model = u010_channel(complete_graph(4), seed=15)
        failures = sum(
            not is_row_stochastic(naive_matrix(sample(model, k)), 1e-12) for k in range(100)
        )
        assert failures >= 99

    def test_matrix_matches_step(self):
        rng = np.random.default_rng(89)
        model = u010_channel(complete_graph(5), seed=31)
        for k in range(10):
            r = sample(model, k)
            x = rng.uniform(0, 5, 5)
            got = one_step(r.topology, NAIVE_CONFIG, x, r)
            np.testing.assert_allclose(got, naive_matrix(r) @ x, atol=1e-13)


@settings(max_examples=60, deadline=None)
@given(
    g=strongly_connected_digraphs(),
    seed=st.integers(0, 2**63 - 1),
    k=st.integers(0, 1000),
    data=st.data(),
)
def test_arc_list_steps_match_dense_matrices(g, seed, k, data):
    r = sample(u010_channel(g, seed=seed), k)
    x = np.array(data.draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=g.n, max_size=g.n)))
    mixing = np.array(data.draw(st.lists(st.floats(0.05, 0.95), min_size=g.n, max_size=g.n)))
    step_size = data.draw(st.floats(0.01, 0.99)) * step_size_bound(g)
    superposed = step_superposition(x, r, mixing)
    assert np.max(np.abs(superposed - effective_matrix(r, mixing) @ x)) <= 1e-13
    assert np.max(np.abs(one_step(r.topology, NAIVE_CONFIG, x, r) - naive_matrix(r) @ x)) <= 1e-13
    classical = one_step(g, ProtocolConfig("classical", step_size=step_size), x)
    assert np.max(np.abs(classical - perron_matrix(g, step_size) @ x)) <= 1e-13


@settings(max_examples=100, deadline=None)
@given(g=strongly_connected_digraphs(), law=channel_laws(), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_invariant_operator_is_one_step_on_any_graph(g, law, seed, data):
    # Every update's operator is its own step: for a drawn coefficient row
    # (none for classical), one matvec is one block step, naive included.
    # The operator that predicts a run is the run's own update: that of
    # time-invariant superposition and of classical.
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, g.n)
    channel = ChannelModel(g, law, TIME_INVARIANT, seed)
    r = sample(channel, 0)
    superposition = ProtocolConfig("superposition", mixing=data.draw(mixing_weights(g.n)))
    classical = ProtocolConfig("classical", step_size=data.draw(st.floats(0.01, 0.99)) * step_size_bound(g))
    for config, realization in ((superposition, r), (NAIVE_CONFIG, r), (classical, None)):
        operator = config.update(g).operator(None if realization is None else realization.values)
        np.testing.assert_allclose(operator.matvec(x), one_step(g, config, x, realization), rtol=0.0, atol=1e-12)
    step = one_step(g, superposition, x, r)
    np.testing.assert_allclose(invariant_operator(g, channel, superposition).matvec(x), step, rtol=0.0, atol=1e-12)
    step = one_step(g, classical, x)
    np.testing.assert_allclose(invariant_operator(g, None, classical).matvec(x), step, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize(
    "mode, config",
    [
        (IID_PER_STEP, ProtocolConfig("superposition", mixing=0.5)),
        (IID_PER_STEP, ProtocolConfig("superposition", mixing=(0.2, 0.4, 0.6, 0.8))),
        (IID_PER_STEP, NAIVE_CONFIG),
        (TIME_INVARIANT, NAIVE_CONFIG),
    ],
)
def test_no_invariant_operator_for_a_changing_or_naive_update(mode, config):
    g = complete_graph(4)
    assert invariant_operator(g, u010_channel(g, mode=mode), config) is None


@settings(max_examples=100, deadline=None)
@given(
    g=strongly_connected_digraphs(),
    mode=st.sampled_from(MODES),
    law=channel_laws(),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_superposition_hull_shrinks_on_any_graph(g, mode, law, seed, data):
    # Each update is a convex combination of the states: the greatest
    # value never rises and the least never falls, beyond rounding.
    mixing = data.draw(mixing_weights(g.n))
    x0 = np.random.default_rng(seed).uniform(-10.0, 10.0, g.n)
    trace = run(g, ChannelModel(g, law, mode, seed), ProtocolConfig("superposition", mixing=mixing), x0, max_steps=200)
    states = trace.state_array()
    assert (np.diff(states.max(axis=1)) <= 1e-12).all()
    assert (np.diff(states.min(axis=1)) >= -1e-12).all()


@settings(max_examples=100, deadline=None)
@given(
    g=strongly_connected_digraphs(),
    mode=st.sampled_from(MODES),
    law=channel_laws(),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(0, 1000),
    data=st.data(),
)
def test_effective_matrix_is_row_stochastic_on_any_graph(g, mode, law, seed, k, data):
    D = effective_matrix(sample(ChannelModel(g, law, mode, seed), k), data.draw(mixing_weights(g.n)))
    assert is_row_stochastic(D, 1e-12)


@st.composite
def fed_digraphs(draw, max_n=9):
    """A digraph in which every node hears another one, and some may be
    heard by none, from arcs in any order."""
    n = draw(st.integers(2, max_n))
    arcs = [(draw(st.sampled_from([j for j in range(1, n + 1) if j != i])), i) for i in range(1, n + 1)]
    pairs = [(j, i) for j in range(1, n + 1) for i in range(1, n + 1) if j != i]
    arcs = list(dict.fromkeys(arcs + draw(st.lists(st.sampled_from(pairs), max_size=2 * n))))
    arcs = draw(st.permutations(arcs))
    return graph_from_arcs(n, [(j, i, draw(st.floats(0.5, 10.0))) for j, i in arcs])


@settings(max_examples=200, deadline=None)
@given(
    g=fed_digraphs(),
    rows=st.integers(1, 6),
    spare=st.integers(0, 3),
    variant=st.sampled_from(protocol.VARIANTS),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_block_update_matches_the_take_reference(g, rows, spare, variant, seed, data):
    # The states are gathered by transmitter runs with np.repeat: the same
    # values, bit for bit, as picking each arc's transmitter with np.take.
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 10.0, (rows, g.n))
    values = rng.uniform(0.01, 10.0, (rows, g.arc_cols.size))
    if variant == protocol.SUPERPOSITION:
        scalar = st.floats(0.05, 0.95)
        config = ProtocolConfig(variant, mixing=data.draw(scalar | st.lists(scalar, min_size=g.n, max_size=g.n)))
    elif variant == protocol.CLASSICAL:
        config = ProtocolConfig(variant, step_size=data.draw(st.floats(0.01, 0.99)) * step_size_bound(g))
    else:
        config = NAIVE_CONFIG
    update = config.update(g, rows=rows + spare)
    if variant == protocol.CLASSICAL:
        got, expected = update(x), take_block_step(g, config, x)
    else:
        got, expected = update(x, *update.coefficients(values)), take_block_step(g, config, x, values)
    assert got.tobytes() == expected.tobytes()


def assert_same_operator(dense_read, op):
    """``ArcOperator.from_dense`` lists the arcs row by row; ``op`` in arc order."""
    order = np.lexsort((op.cols, op.rows))
    assert dense_read.diagonal.tobytes() == op.diagonal.tobytes()
    assert dense_read.rows.tolist() == op.rows[order].tolist()
    assert dense_read.cols.tolist() == op.cols[order].tolist()
    assert dense_read.weights.tobytes() == op.weights[order].tobytes()


@settings(max_examples=60, deadline=None)
@given(
    g=strongly_connected_digraphs(),
    seed=st.integers(0, 2**63 - 1),
    per_agent=st.booleans(),
    data=st.data(),
)
def test_dense_matrices_are_their_arc_operators(g, seed, per_agent, data):
    # Every dense update matrix is assembled by ``ArcOperator.dense``, and
    # equals the entrywise formula of each update byte for byte.
    r = sample(u010_channel(g, seed=seed), 0)
    if per_agent:
        mixing = np.array(data.draw(st.lists(st.floats(0.05, 0.95), min_size=g.n, max_size=g.n)))
    else:
        mixing = data.draw(st.floats(0.05, 0.95))
    m = np.broadcast_to(np.asarray(mixing, dtype=float), g.n)
    sums = np.bincount(g.arc_rows, weights=r.values, minlength=g.n)
    expected = (m[:, None] * r.gains) / sums[:, None]
    np.fill_diagonal(expected, 1.0 - m)
    assert effective_matrix(r, mixing).tobytes() == expected.tobytes()
    shares = g.in_degrees + 1.0
    expected = r.gains / shares[:, None]
    np.fill_diagonal(expected, 1.0 / shares)
    assert naive_matrix(r).tobytes() == expected.tobytes()

    # The Perron diagonal is 1 minus the arc entries of its row, summed in
    # arc order: within rounding of ``1 - step_size * in-weight``.
    step_size = data.draw(st.floats(0.01, 0.99)) * step_size_bound(g)
    P = perron_matrix(g, step_size)
    off = ~np.eye(g.n, dtype=bool)
    assert (P[off] == -step_size * laplacian(g)[off]).all()
    np.testing.assert_allclose(np.diag(P), 1.0 - step_size * np.diag(laplacian(g)), rtol=0, atol=1e-15)

    for op in (effective_operator(r, mixing), perron_operator(g, step_size)):
        assert_same_operator(ArcOperator.from_dense(op.dense()), op)


class TestMixingForms:
    # A mixing weight reaches effective_matrix, step_superposition and run
    # as a number (a float, a numpy float, a 0-d array) or as one weight per
    # agent (a list, tuple or array); every form of the same weights gives
    # the same bytes, those of the references in ``support``.
    g = complete_graph(5)
    channel = u010_channel(g, seed=7)
    r = sample(channel, 3)
    x = np.random.default_rng(1).uniform(0.0, 6.0, 5)
    SCALARS = [0.3, np.float64(0.3), np.array(0.3)]
    PER_AGENT = [[0.1, 0.2, 0.3, 0.4, 0.5], (0.1, 0.2, 0.3, 0.4, 0.5), np.array([0.1, 0.2, 0.3, 0.4, 0.5])]

    def entry_points(self, mixing):
        """The bytes of ``effective_matrix``, ``step_superposition`` and a 30-step ``run`` with ``mixing``."""
        trace = run(self.g, self.channel, ProtocolConfig("superposition", mixing=mixing), self.x, max_steps=30)
        return [
            effective_matrix(self.r, mixing).tobytes(),
            step_superposition(self.x, self.r, mixing).tobytes(),
            trace.state_array().tobytes(),
        ]

    def references(self, mixing):
        """The same three from the entrywise matrix and ``take_block_step``, for the float or tuple ``mixing``."""
        config = ProtocolConfig("superposition", mixing=mixing)
        m = np.broadcast_to(np.asarray(mixing, dtype=float), 5)
        sums = np.bincount(self.g.arc_rows, weights=self.r.values, minlength=5)
        matrix = (m[:, None] * self.r.gains) / sums[:, None]
        np.fill_diagonal(matrix, 1.0 - m)
        states = [self.x]
        for k in range(30):
            states.append(take_block_step(self.g, config, states[-1][None], sample(self.channel, k).values[None])[0])
        step = take_block_step(self.g, config, self.x[None], self.r.values[None])[0]
        return [matrix.tobytes(), step.tobytes(), np.array(states).tobytes()]

    @pytest.mark.parametrize("forms", [SCALARS + [[0.3] * 5, (0.3,) * 5, np.full(5, 0.3)], PER_AGENT])
    def test_every_form_gives_the_same_bytes(self, forms):
        expected = self.references(ProtocolConfig("superposition", mixing=forms[0]).mixing)
        for mixing in forms:
            assert self.entry_points(mixing) == expected, type(mixing)

    @pytest.mark.parametrize("length", [0, 1, 4])
    @pytest.mark.parametrize("kind", [list, tuple, np.array])
    def test_a_per_agent_list_of_another_length_is_rejected(self, kind, length):
        # A length-1 list is no scalar: it is not broadcast to every agent.
        mixing = kind([0.3] * length)
        calls = [
            lambda: effective_matrix(self.r, mixing),
            lambda: step_superposition(self.x, self.r, mixing),
            lambda: run(self.g, self.channel, ProtocolConfig("superposition", mixing=mixing), self.x, max_steps=30),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=f"mixing: per-agent list must have length 5, got {length}"):
                call()


class TestRun:
    def test_large_sparse_run_never_builds_dense_gains(self, monkeypatch):
        n = 2000
        rng = np.random.default_rng(113)
        weights = {(v, v % n + 1): 1.0 for v in range(1, n + 1)}
        for i in range(1, n + 1):
            for j in rng.choice(np.arange(1, n + 1), 3, replace=False).tolist():
                if j != i:
                    weights[(j, i)] = 1.0
        g = dict_graph(n, weights)
        drawn = []

        class RecordingStreams(ChannelStreams):
            def draw(self, k, rows=slice(None)):
                drawn.append(super().draw(k, rows))
                return drawn[-1]

        def no_dense_gains(r):
            raise AssertionError("a run built the dense gain matrix")

        monkeypatch.setattr(protocol, "ChannelStreams", RecordingStreams)
        monkeypatch.setattr(ChannelRealization, "gains", property(no_dense_gains))
        x0 = rng.uniform(0, 2 * np.pi, n)
        for mode in MODES:
            for cfg in (ProtocolConfig("superposition", mixing=0.5), ProtocolConfig("naive")):
                trace = run(g, u010_channel(g, mode=mode), cfg, x0, max_steps=20)
                assert trace.steps == 20
                assert np.isfinite(trace.final).all()
        assert len(drawn) == 2 * (1 + 20)
        assert all(values.shape == (1, len(g.arc_order)) for values in drawn)

    def test_superposition_converges(self):
        rng = np.random.default_rng(97)
        g = random_strongly_connected(rng, 6)
        trace = run(
            g,
            u010_channel(g, seed=7),
            ProtocolConfig("superposition", mixing=0.5),
            rng.uniform(0, 2 * np.pi, 6),
            tol=1e-9,
        )
        assert trace.reason == CONVERGED
        assert spread(trace.final) < 1e-9

    def test_naive_ideal_converges_to_exact_average(self):
        x0 = np.array([0.0, 3.0, 6.0])
        trace = run(
            complete_graph(3),
            ideal_channel(complete_graph(3)),
            ProtocolConfig("naive"),
            x0,
            tol=1e-12,
        )
        assert trace.reason == CONVERGED
        np.testing.assert_allclose(trace.final, np.full(3, 3.0), atol=1e-12)

    def test_zero_max_steps(self):
        g = complete_graph(3)
        trace = run(
            g,
            ideal_channel(g),
            ProtocolConfig("superposition", mixing=0.5),
            np.array([0.0, 1.0, 2.0]),
            max_steps=0,
        )
        assert trace.reason == MAX_STEPS
        assert len(trace.states) == 1
        np.testing.assert_array_equal(trace.initial, [0.0, 1.0, 2.0])

    def test_consensus_state_is_fixed_point(self):
        g = complete_graph(4)
        x0 = np.full(4, 2.5)
        for protocol, channel in [
            (ProtocolConfig("superposition", mixing=0.3), u010_channel(g, seed=3)),
            (ProtocolConfig("classical", step_size=0.2), None),
        ]:
            trace = run(g, channel, protocol, x0, max_steps=5, tol=1e-15)
            for state in trace.states:
                np.testing.assert_array_equal(state, x0)

    def test_hull_monotone_min_max(self):
        rng = np.random.default_rng(101)
        for _ in range(5):
            g = random_strongly_connected(rng, int(rng.integers(3, 8)))
            trace = run(
                g,
                u010_channel(g, seed=int(rng.integers(1000))),
                ProtocolConfig("superposition", mixing=float(rng.uniform(0.1, 0.9))),
                rng.uniform(0, 2 * np.pi, g.n),
            )
            arr = trace.state_array()
            mins, maxs = arr.min(axis=1), arr.max(axis=1)
            assert (np.diff(mins) >= -1e-12).all()
            assert (np.diff(maxs) <= 1e-12).all()

    def test_full_trace_reproducible(self):
        g = complete_graph(5)
        rng = np.random.default_rng(103)
        x0 = rng.uniform(0, 2 * np.pi, 5)
        cfg = ProtocolConfig("superposition", mixing=0.4)
        a = run(g, u010_channel(g, seed=55), cfg, x0)
        b = run(g, u010_channel(g, seed=55), cfg, x0)
        np.testing.assert_array_equal(a.state_array(), b.state_array())
        assert a.reason == b.reason

    def test_recorded_matrices_link_states(self):
        g = complete_graph(4)
        rng = np.random.default_rng(107)
        x0 = rng.uniform(0, 1, 4)
        trace = run(
            g,
            u010_channel(g, seed=77),
            ProtocolConfig("superposition", mixing=0.6),
            x0,
            max_steps=10,
            tol=1e-15,
        )
        assert trace.steps == 10
        for k in range(trace.steps):
            D = effective_matrix(sample(u010_channel(g, seed=77), k), 0.6)
            np.testing.assert_allclose(
                D @ trace.states[k], trace.states[k + 1], atol=1e-13
            )

    def test_channel_required_for_superposition(self):
        g = complete_graph(3)
        with pytest.raises(ValueError, match="requires a channel"):
            run(g, None, ProtocolConfig("superposition", mixing=0.5), np.zeros(3))

    def test_run_validates_inputs(self):
        g = complete_graph(3)
        channel = ideal_channel(g)
        cfg = ProtocolConfig("superposition", mixing=0.5)
        with pytest.raises(ValueError, match="tol"):
            run(g, channel, cfg, np.zeros(3), tol=0.0)
        with pytest.raises(ValueError, match="max_steps"):
            run(g, channel, cfg, np.zeros(3), max_steps=-1)
        with pytest.raises(ValueError, match="length 3"):
            run(g, channel, cfg, np.zeros(4))

    @pytest.mark.parametrize("bad", [float("inf"), -float("inf"), float("nan")])
    def test_run_rejects_non_finite_state_and_tol(self, bad):
        g = complete_graph(3)
        channel = ideal_channel(g)
        cfg = ProtocolConfig("superposition", mixing=0.5)
        with pytest.raises(ValueError, match="x0 must be finite"):
            run(g, channel, cfg, [0.0, bad, 1.0])
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            run(g, channel, cfg, np.zeros(3), tol=bad)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("entry", ENTRIES)
    def test_every_entry_rejects_a_spread_beyond_float_range(self, entry):
        # Every value is finite, but max(x0) - min(x0) overflows to inf:
        # rejected before the first spread is taken, with no warning.
        g = ring_graph(4)
        cfg = ProtocolConfig("superposition", mixing=0.5)
        with pytest.raises(ValueError) as info:
            ENTRIES[entry](g, ideal_channel(g), cfg, [-1e308, 1e308, -1e308, 1e308])
        assert str(info.value) == "the spread max(x0) - min(x0) = 1e+308 - (-1e+308) is beyond float range"

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize(
        "topology, other",
        [
            (ring_graph(4), ring_graph(5)),
            # the same arc count, every arc reversed
            (ring_graph(3), graph_from_arcs(3, [(2, 1, 1.0), (3, 2, 1.0), (1, 3, 1.0)])),
        ],
        ids=["more-nodes", "reversed-arcs"],
    )
    def test_every_entry_rejects_a_channel_over_another_graph(self, entry, topology, other):
        cfg = ProtocolConfig("superposition", mixing=0.5)
        with pytest.raises(ValueError, match="the channel's graph .* and the run's .* differ in their nodes or arcs"):
            ENTRIES[entry](topology, u010_channel(other), cfg, np.arange(topology.n))

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_every_entry_rejects_a_channel_under_the_classical_protocol(self, entry):
        g = ring_graph(4)
        cfg = ProtocolConfig("classical", step_size=0.4)
        with pytest.raises(ValueError, match="the classical variant takes no channel model"):
            ENTRIES[entry](g, u010_channel(g), cfg, np.arange(4.0))

    def test_a_channel_over_an_equal_graph_runs_the_same(self):
        g = ring_graph(4)
        cfg = ProtocolConfig("superposition", mixing=0.5)
        twin = run(g, u010_channel(ring_graph(4)), cfg, np.arange(4.0))
        np.testing.assert_array_equal(twin.states, run(g, u010_channel(g), cfg, np.arange(4.0)).states)

    def test_classical_converges_on_balanced_graph_to_mean(self):
        from airconsensus.graph import step_size_bound
        from support import random_balanced

        rng = np.random.default_rng(109)
        g = random_balanced(rng, 5)
        x0 = rng.uniform(0, 2 * np.pi, 5)
        trace = run(
            g, None, ProtocolConfig("classical", step_size=0.5 * step_size_bound(g)), x0
        )
        assert trace.reason == CONVERGED
        assert abs(np.mean(trace.final) - np.mean(x0)) <= 1e-8


class TestProtocolConfig:
    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            ProtocolConfig("telepathy")

    def test_superposition_needs_mixing(self):
        with pytest.raises(ValueError, match="mixing"):
            ProtocolConfig("superposition")

    def test_classical_needs_step_size(self):
        with pytest.raises(ValueError, match="^step_size: required finite number for the classical variant$"):
            ProtocolConfig("classical")

    @pytest.mark.parametrize("variant", [["superposition"], {"classical": 1}, 1, True, None])
    def test_a_variant_that_is_no_string_rejected(self, variant):
        with pytest.raises(ValueError, match=r"^variant: must be one of \("):
            ProtocolConfig(variant)

    @pytest.mark.parametrize(
        "variant, field",
        [("naive", "mixing"), ("naive", "step_size"), ("classical", "mixing"), ("superposition", "step_size")],
    )
    def test_a_parameter_the_variant_does_not_take_rejected(self, variant, field):
        own = {"superposition": {"mixing": 0.5}, "classical": {"step_size": 0.1}, "naive": {}}[variant]
        with pytest.raises(ValueError, match=f"^{field}: the {variant} variant takes no {field}$"):
            ProtocolConfig(variant, **{**own, field: 0.3})

    @pytest.mark.parametrize(
        "mixing",
        [1.5, [0.5, 2.0], "0.5", 0.0, 1.0, float("nan"), True, [0.5, True], np.full((2, 2), 0.5), None],
        ids=["above-one", "list-entry", "string", "zero", "one", "nan", "bool", "bool-entry", "matrix", "missing"],
    )
    def test_bad_mixing_rejected(self, mixing):
        with pytest.raises(ValueError, match="^mixing: "):
            ProtocolConfig("superposition", mixing=mixing)

    @pytest.mark.parametrize(
        "step_size",
        [-1, 0.0, float("inf"), float("nan"), True, "0.1", 10**400, None],
        ids=["negative", "zero", "inf", "nan", "bool", "string", "beyond-float", "missing"],
    )
    def test_bad_step_size_rejected(self, step_size):
        with pytest.raises(ValueError, match="^step_size: "):
            ProtocolConfig("classical", step_size=step_size)

    def test_none_for_a_parameter_the_variant_does_not_take(self):
        # The resolved echo writes null for the parameter a variant does not take.
        assert ProtocolConfig("superposition", mixing=0.5, step_size=None) == ProtocolConfig("superposition", mixing=0.5)
        assert ProtocolConfig("classical", mixing=None, step_size=0.1).step_size == 0.1
        assert ProtocolConfig("naive", mixing=None, step_size=None) == NAIVE_CONFIG

    def test_numpy_mixing_accepted(self):
        assert ProtocolConfig("superposition", mixing=np.float64(0.25)).mixing == 0.25
        assert ProtocolConfig("superposition", mixing=np.float32(0.5)).mixing == 0.5
        assert ProtocolConfig("superposition", mixing=np.array([0.2, 0.7])).mixing == (0.2, 0.7)
        assert ProtocolConfig("classical", step_size=np.float64(0.1)).step_size == 0.1


class TestVariantRules:
    def test_topology_problems_name_every_need(self):
        chain = graph_from_arcs(3, [(1, 2, 1.0), (2, 3, 1.0)])
        assert protocol.topology_problems(chain, "superposition") == [
            (None, "must be strongly connected for the superposition variant"),
            (None, "every node needs an in-neighbor for the superposition variant"),
        ]
        assert protocol.topology_problems(chain, "classical") == [
            (None, "must be strongly connected for the classical variant")
        ]
        assert protocol.topology_problems(chain, "naive") == []

    def test_topology_problems_check_the_parameters_against_the_graph(self):
        g = complete_graph(5)  # in-weight sum 4: step sizes below 0.25
        problems = protocol.topology_problems
        assert problems(g, "classical", step_size=0.2) == []
        assert problems(g, "classical", step_size=0.25) == [
            ("step_size", "must lie in (0, 0.25) for this topology, got 0.25")
        ]
        assert problems(graph_from_arcs(1, []), "classical", step_size=0.1) == [
            ("step_size", "graph has no arcs; step size bound is undefined")
        ]
        assert problems(g, "superposition", [0.2, 0.5, 0.7]) == [("mixing", "per-agent list must have length 5, got 3")]
        assert problems(g, "superposition", [0.5] * 5) == problems(g, "superposition", 0.5) == []

    def test_topology_problems_pass_over_what_the_config_reports(self):
        # A parameter invalid on its own, or one the variant does not take,
        # is ProtocolConfig's to report; the rest is still checked.
        g = complete_graph(5)
        problems = protocol.topology_problems
        assert problems(g, "classical", step_size=-1.0) == problems(g, "superposition", [0.5, 2.0]) == []
        assert problems(g, "classical", 0.5, 0.9) == [("step_size", "must lie in (0, 0.25) for this topology, got 0.9")]
        assert problems(g, "superposition", [0.5] * 3, 0.1) == [("mixing", "per-agent list must have length 5, got 3")]

    def test_every_bad_field_in_one_error(self):
        with pytest.raises(ValueError) as info:
            ProtocolConfig("classical", mixing=0.5)
        assert str(info.value).splitlines() == [
            "mixing: the classical variant takes no mixing",
            "step_size: required finite number for the classical variant",
        ]

    @pytest.mark.parametrize("variant", ["telepathy", ["superposition"], {"classical": 1}, 1, None])
    def test_a_value_that_is_no_variant_needs_nothing_and_takes_a_channel(self, variant):
        chain = graph_from_arcs(3, [(1, 2, 1.0), (2, 3, 1.0)])
        assert protocol.topology_problems(chain, variant) == []
        assert protocol.takes_channel(variant)

    def test_only_the_classical_variant_takes_no_channel(self):
        assert [protocol.takes_channel(v) for v in protocol.VARIANTS] == [True, False, True]
        assert protocol.VARIANTS == tuple(protocol.PARAMETERS)

    def test_parameters_name_each_variants_field(self):
        assert protocol.PARAMETERS == {"superposition": "mixing", "classical": "step_size", "naive": None}
        assert protocol.VARIANTS == tuple(protocol.RULES)
