import math
import os
import signal
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airconsensus import analysis
from airconsensus.analysis import (
    decomposition_deviation,
    decomposition_matrices,
    disturbance_vector,
    fixed_point_residual,
    measure_rate,
    monte_carlo,
    predicted_consensus,
    stacked_arc_indicator,
    summarize_run,
)
from airconsensus.channel import (
    IID_PER_STEP,
    MODES,
    TIME_INVARIANT,
    ChannelModel,
    ConstantLaw,
    UniformLaw,
    sample,
)
from airconsensus.config import PRESET_NAMES, parse_config, preset
from airconsensus.graph import complete_graph, graph_from_arcs, ring_graph, step_size_bound
from airconsensus.linalg import dominant_left_eigenvector
from airconsensus.protocol import CONVERGED, ProtocolConfig, Trace, effective_matrix, run
from airconsensus.records import replace
from support import channel_laws, child_seed, random_strongly_connected, run_child, strongly_connected_digraphs


def u010_channel(topology, seed=42, mode=IID_PER_STEP):
    return ChannelModel(topology, UniformLaw(0.0, 10.0), mode, seed)


class TestPredictedConsensus:
    def test_ideal_balanced_complete_graph_gives_mean(self):
        g = complete_graph(4)
        r = sample(ChannelModel(g, ConstantLaw(1.0), TIME_INVARIANT, 0), 0)
        x0 = np.array([1.0, 2.0, 5.0, 8.0])
        for mixing in (0.2, 0.6):
            D = effective_matrix(r, mixing)
            assert predicted_consensus(D, x0) == pytest.approx(x0.mean(), abs=1e-8)

    def test_two_by_two_closed_form(self):
        D = np.array([[0.5, 0.5], [0.25, 0.75]])
        assert predicted_consensus(D, np.array([0.0, 3.0])) == pytest.approx(2.0, abs=1e-9)

    def test_independent_of_mixing_weight(self):
        g = random_strongly_connected(np.random.default_rng(3), 6)
        r = sample(u010_channel(g, seed=17, mode=TIME_INVARIANT), 0)
        x0 = np.random.default_rng(4).uniform(0, 2 * np.pi, 6)
        low = predicted_consensus(effective_matrix(r, 0.2), x0)
        high = predicted_consensus(effective_matrix(r, 0.5), x0)
        assert abs(low - high) <= 1e-8

    def test_left_eigenvector_independent_of_mixing(self):
        g = random_strongly_connected(np.random.default_rng(5), 7)
        r = sample(u010_channel(g, seed=23, mode=TIME_INVARIANT), 0)
        w_low = dominant_left_eigenvector(effective_matrix(r, 0.2)).left_vector
        w_high = dominant_left_eigenvector(effective_matrix(r, 0.7)).left_vector
        assert np.max(np.abs(w_low - w_high)) <= 1e-9

    def test_fixed_point_residual_small_for_common_mixing(self):
        g = random_strongly_connected(np.random.default_rng(7), 6)
        r = sample(u010_channel(g, seed=29, mode=TIME_INVARIANT), 0)
        w = dominant_left_eigenvector(effective_matrix(r, 0.35)).left_vector
        assert fixed_point_residual(r, w) <= 1e-10

    def test_fixed_point_residual_matches_the_dense_shares(self):
        # The arc form against the dense shares h_ji / sum_l h_jl, for any w.
        g = random_strongly_connected(np.random.default_rng(8), 7)
        r = sample(u010_channel(g, seed=31), 2)
        w = np.random.default_rng(9).uniform(0.0, 1.0, 7)
        ratios = r.gains / r.gains.sum(axis=1, keepdims=True)
        assert abs(fixed_point_residual(r, w) - np.max(np.abs(w @ ratios - w))) <= 1e-14
        with pytest.raises(ValueError, match="length 7"):
            fixed_point_residual(r, w[:6])

    @settings(max_examples=100, deadline=None)
    @given(
        g=strongly_connected_digraphs(),
        seed=st.integers(0, 2**32 - 1),
        mixings=st.lists(st.floats(0.01, 0.99), min_size=2, max_size=2),
    )
    def test_direct_solve_independent_of_mixing_and_matches_power_iteration(self, g, seed, mixings):
        r = sample(u010_channel(g, seed=seed, mode=TIME_INVARIANT), 0)
        x0 = np.random.default_rng(seed).uniform(0, 2 * np.pi, g.n)
        values = []
        for mixing in mixings:
            D = effective_matrix(r, mixing)
            values.append(predicted_consensus(D, x0))
            assert abs(values[-1] - dominant_left_eigenvector(D).left_vector @ x0) <= 1e-8
        assert abs(values[0] - values[1]) <= 1e-12

    def test_consensus_value_consistency_with_run(self):
        g = random_strongly_connected(np.random.default_rng(11), 5)
        channel = u010_channel(g, seed=31, mode=TIME_INVARIANT)
        rng = np.random.default_rng(12)
        x0 = rng.uniform(0, 2 * np.pi, 5)
        trace = run(g, channel, ProtocolConfig("superposition", mixing=0.4), x0, tol=1e-9)
        predicted = predicted_consensus(effective_matrix(sample(channel, 0), 0.4), x0)
        assert abs(np.mean(trace.final) - predicted) <= 1e-6


class TestDisturbanceVector:
    def test_equal_row_coefficients_vanish(self):
        g = complete_graph(4)
        r = sample(ChannelModel(g, ConstantLaw(3.0), TIME_INVARIANT, 0), 0)
        nu = disturbance_vector(r, np.random.default_rng(1).uniform(-5, 5, 4))
        np.testing.assert_array_equal(nu, np.zeros(16))

    def test_zero_off_arcs(self):
        g = graph_from_arcs(3, [(1, 2, 1.0), (2, 3, 1.0), (3, 1, 1.0)])
        r = sample(u010_channel(g, seed=5), 0)
        nu = disturbance_vector(r, np.array([1.0, 2.0, 3.0])).reshape(3, 3)
        for i in range(1, 4):
            for j in range(1, 4):
                if (j, i) not in g.arcs:
                    assert nu[i - 1, j - 1] == 0.0

    def test_zero_mean_over_many_steps(self):
        # per-arc empirical mean within 4 standard errors of zero
        g = complete_graph(4)
        model = u010_channel(g, seed=1234)
        x = np.array([2.0, -1.0, 4.0, 0.5])
        draws = np.stack([disturbance_vector(sample(model, k), x) for k in range(10_000)])
        arc_cols = [i * 4 + j for i in range(4) for j in range(4) if i != j]
        for col in arc_cols:
            values = draws[:, col]
            se = values.std(ddof=1) / math.sqrt(len(values))
            assert abs(values.mean()) <= 4 * se


class TestDecomposition:
    def test_two_node_matrices(self):
        deco = decomposition_matrices(complete_graph(2), 0.4)
        np.testing.assert_allclose(deco.state_matrix, [[0.6, 0.4], [0.4, 0.6]])
        np.testing.assert_allclose(
            deco.input_matrix, [[0.0, 0.4, 0.0, 0.0], [0.0, 0.0, 0.4, 0.0]]
        )

    def test_three_node_shares(self):
        deco = decomposition_matrices(complete_graph(3), 0.6)
        off_diag = deco.state_matrix[~np.eye(3, dtype=bool)]
        np.testing.assert_allclose(off_diag, np.full(6, 0.3))
        assert deco.input_matrix[0, 1] == pytest.approx(0.3)
        assert deco.input_matrix[1, 3] == pytest.approx(0.3)

    def test_state_matrix_rows_sum_to_one(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            g = random_strongly_connected(rng, int(rng.integers(3, 9)))
            deco = decomposition_matrices(g, float(rng.uniform(0.05, 0.95)))
            np.testing.assert_allclose(deco.state_matrix.sum(axis=1), np.ones(g.n), atol=1e-15)

    def test_identity_holds_for_ideal_channel(self):
        g = complete_graph(3)
        r = sample(ChannelModel(g, ConstantLaw(1.0), TIME_INVARIANT, 0), 0)
        x = np.array([0.5, 2.5, -1.0])
        assert decomposition_deviation(r, x, 0.3) == 0.0
        np.testing.assert_array_equal(disturbance_vector(r, x), np.zeros(9))

    def test_identity_random_sweep(self):
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(2, 7))
            g = complete_graph(n)
            r = sample(u010_channel(g, seed=int(rng.integers(10_000))), int(rng.integers(50)))
            x = rng.uniform(0, 2 * np.pi, n)
            worst = max(worst, decomposition_deviation(r, x, float(rng.uniform(0.05, 0.95))))
        assert worst <= 1e-11

    def test_identity_on_sparse_topology(self):
        # the split is an algebraic identity on any topology where every
        # node has an in-neighbor, not just complete ones
        rng = np.random.default_rng(19)
        g = random_strongly_connected(rng, 6)
        r = sample(u010_channel(g, seed=7), 3)
        x = rng.uniform(-4, 4, 6)
        assert decomposition_deviation(r, x, 0.55) <= 1e-12

    def test_mixing_range_validated(self):
        with pytest.raises(ValueError, match="mixing"):
            decomposition_matrices(complete_graph(3), 1.2)


@settings(max_examples=100, deadline=None)
@given(
    g=strongly_connected_digraphs(),
    mode=st.sampled_from(MODES),
    law=channel_laws(),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(0, 1000),
    mixing=st.floats(0.01, 0.99),
)
def test_decomposition_identity_on_any_graph(g, mode, law, seed, k, mixing):
    # States of order 1: the gap is roundoff.
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, g.n)
    assert decomposition_deviation(sample(ChannelModel(g, law, mode, seed), k), x, mixing) <= 1e-12


class TestStackedArcIndicator:
    def test_n_two(self):
        np.testing.assert_array_equal(stacked_arc_indicator(2), [0.0, 1.0, 1.0, 0.0])

    def test_n_three_zero_positions(self):
        xi = stacked_arc_indicator(3)
        assert list(np.nonzero(xi == 0.0)[0]) == [0, 4, 8]

    def test_matches_column_sums_of_input_matrix(self):
        for n in range(2, 7):
            mixing = 0.45
            deco = decomposition_matrices(complete_graph(n), mixing)
            expected = (mixing / (n - 1)) * stacked_arc_indicator(n)
            np.testing.assert_array_equal(deco.input_matrix.sum(axis=0), expected)

    def test_too_small_n(self):
        with pytest.raises(ValueError, match="at least 2"):
            stacked_arc_indicator(1)


class TestMeasureRate:
    def test_synthetic_two_by_two_half_rate(self):
        g = graph_from_arcs(2, [(1, 2, 1.0), (2, 1, 1.0)])
        trace = run(
            g,
            None,
            ProtocolConfig("classical", step_size=0.25),  # contraction factor 0.5
            np.array([0.0, 1.0]),
            tol=1e-30,
            max_steps=40,
        )
        rate = math.exp(measure_rate(trace))
        assert 0.45 <= rate <= 0.55
        assert summarize_run(trace).rate_measured == measure_rate(trace)

    def test_faster_for_larger_mixing(self):
        g = random_strongly_connected(np.random.default_rng(23), 5)
        channel = u010_channel(g, seed=7, mode=TIME_INVARIANT)
        x0 = np.random.default_rng(24).uniform(0, 2 * np.pi, 5)
        slow = run(g, channel, ProtocolConfig("superposition", mixing=0.2), x0)
        fast = run(g, channel, ProtocolConfig("superposition", mixing=0.5), x0)
        assert fast.steps < slow.steps

    def test_constant_trace_rejected(self):
        g = complete_graph(3)
        trace = run(
            g,
            ChannelModel(g, ConstantLaw(1.0), TIME_INVARIANT, 0),
            ProtocolConfig("superposition", mixing=0.5),
            np.full(3, 1.5),
            max_steps=30,
            tol=1e-15,
        )
        with pytest.raises(ValueError, match="too short|no decay"):
            measure_rate(trace)

    def test_short_trace_rejected(self):
        g = complete_graph(3)
        trace = run(
            g,
            ChannelModel(g, ConstantLaw(1.0), TIME_INVARIANT, 0),
            ProtocolConfig("superposition", mixing=0.5),
            np.array([0.0, 1.0, 2.0]),
            max_steps=4,
            tol=1e-15,
        )
        with pytest.raises(ValueError, match="too short"):
            measure_rate(trace)

    def test_diverged_trace_rejected(self):
        # A spread doubling each step and then infinite: no rate is fitted.
        states = np.zeros((40, 2))
        states[:, 1] = 2.0 ** np.arange(40)
        states[30:, 1] = np.inf
        trace = Trace(states, "max-steps")
        with pytest.raises(ValueError, match="not finite"):
            measure_rate(trace)
        assert summarize_run(trace).rate_measured is None


class TestSummarizeRun:
    def test_consensus_value_in_initial_hull(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            g = random_strongly_connected(rng, int(rng.integers(3, 8)))
            x0 = rng.uniform(0, 2 * np.pi, g.n)
            trace = run(
                g,
                u010_channel(g, seed=int(rng.integers(1000))),
                ProtocolConfig("superposition", mixing=float(rng.uniform(0.1, 0.9))),
                x0,
            )
            summary = summarize_run(trace)
            assert summary.converged
            assert not summary.hull_violated
            assert x0.min() <= summary.consensus_value <= x0.max()

    def test_naive_run_flags_hull_violation(self):
        g = complete_graph(4)
        rng = np.random.default_rng(31)
        trace = run(
            g,
            u010_channel(g, seed=3),
            ProtocolConfig("naive"),
            rng.uniform(0, 2 * np.pi, 4),
            max_steps=40,
        )
        summary = summarize_run(trace)
        assert summary.hull_violated
        assert not summary.converged


class TestMonteCarlo:
    def test_repeat_call_identical(self):
        g = complete_graph(5)
        channel = u010_channel(g, seed=7)
        x0 = np.random.default_rng(33).uniform(0, 2 * np.pi, 5)
        cfg = ProtocolConfig("superposition", mixing=0.4)
        a = monte_carlo(g, channel, cfg, x0, runs=20)
        b = monte_carlo(g, channel, cfg, x0, runs=20)
        assert a == b

    def test_disturbance_shrinks_with_stubbornness_and_size(self):
        # small-scale version of the variance orderings; the acceptance
        # suite runs the full 1000-run comparison
        rng = np.random.default_rng(34)
        x0_10 = rng.uniform(0, 2 * np.pi, 10)
        g10 = complete_graph(10)
        stubborn = monte_carlo(
            g10, u010_channel(g10, seed=5), ProtocolConfig("superposition", mixing=0.2),
            x0_10, runs=200,
        )
        eager = monte_carlo(
            g10, u010_channel(g10, seed=5), ProtocolConfig("superposition", mixing=0.8),
            x0_10, runs=200,
        )
        assert stubborn.std_consensus < eager.std_consensus

    def test_runs_validated(self):
        g = complete_graph(3)
        with pytest.raises(ValueError, match="at least 2"):
            monte_carlo(
                g, u010_channel(g), ProtocolConfig("superposition", mixing=0.5),
                np.zeros(3), runs=1,
            )


def serial_monte_carlo(topology, channel, protocol, x0, runs, **kwargs):
    """Reference: one ``run`` per replicate, on the channel seeds monte_carlo
    documents, derived through numpy's own ``SeedSequence``."""
    values, steps, seeds, converged = [], [], [], []
    for idx in range(runs):
        model, seed = channel, 0
        if channel is not None:
            seed = child_seed(channel.seed, idx)
            model = replace(channel, seed=seed)
        trace = run(topology, model, protocol, x0, **kwargs)
        values.append(float(np.mean(trace.final)))
        steps.append(trace.steps)
        seeds.append(seed)
        converged.append(trace.reason == CONVERGED)
    return tuple(values), tuple(steps), tuple(seeds), tuple(converged)


def assert_matches_serial(topology, channel, protocol, x0, runs, **kwargs):
    result = monte_carlo(topology, channel, protocol, x0, runs, **kwargs)
    values, steps, seeds, converged = serial_monte_carlo(topology, channel, protocol, x0, runs, **kwargs)
    assert np.array(result.consensus_values).tobytes() == np.array(values).tobytes()
    assert result.steps == steps
    assert result.seeds == seeds
    assert result.converged == converged
    return result


class TestBatchedMonteCarloMatchesSerialRuns:
    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        # Blocks of 7 replicates on the complete 4-node graph (12 arcs), and
        # of a few replicates on the presets: runs span several blocks and
        # the last block is partial.
        monkeypatch.setattr(analysis, "MC_BLOCK_ELEMENTS", 7 * 12)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_every_preset(self, name):
        cfg = parse_config(preset(name))
        assert_matches_serial(cfg.topology, cfg.channel, cfg.protocol, cfg.x0, 23, tol=cfg.tol, max_steps=cfg.max_steps)

    @pytest.mark.parametrize("mode", [IID_PER_STEP, TIME_INVARIANT])
    def test_cut_off_by_max_steps(self, mode):
        g = complete_graph(4)
        x0 = np.random.default_rng(61).uniform(0, 2 * np.pi, 4)
        result = assert_matches_serial(
            g, u010_channel(g, seed=3, mode=mode), ProtocolConfig("superposition", mixing=0.3), x0, 20,
            max_steps=6,
        )
        assert result.non_converged == 20
        assert set(result.steps) == {6}

    def test_rows_leave_the_block_at_different_steps(self):
        g = complete_graph(4)
        x0 = np.random.default_rng(62).uniform(0, 2 * np.pi, 4)
        result = assert_matches_serial(
            g, u010_channel(g, seed=4), ProtocolConfig("superposition", mixing=[0.2, 0.5, 0.7, 0.9]), x0, 30,
            tol=1e-6, max_steps=24,
        )
        assert len(set(result.steps)) > 1
        assert 0 < result.non_converged < 30

    def test_naive_variant(self):
        g = complete_graph(4)
        x0 = np.random.default_rng(63).uniform(0, 2 * np.pi, 4)
        assert_matches_serial(g, u010_channel(g, seed=5), ProtocolConfig("naive"), x0, 17, max_steps=25)

    def test_classical_variant(self):
        g = ring_graph(4)
        x0 = np.random.default_rng(64).uniform(0, 2 * np.pi, 4)
        config = ProtocolConfig("classical", step_size=0.5 * step_size_bound(g))
        assert_matches_serial(g, None, config, x0, 9)

    def test_classical_advances_one_row(self, monkeypatch):
        # Nothing is drawn, so every replicate is the same run: one row is
        # advanced and its outcome repeated.
        blocks = []
        advance = analysis.advance

        def recording(update, x0, *args):
            blocks.append(len(x0))
            return advance(update, x0, *args)

        monkeypatch.setattr(analysis, "advance", recording)
        g = ring_graph(8)
        x0 = np.random.default_rng(65).uniform(0, 2 * np.pi, 8)
        result = assert_matches_serial(g, None, ProtocolConfig("classical", step_size=0.4), x0, 50)
        assert blocks == [1]
        assert result.runs == 50 and result.std_consensus == 0.0

    def test_zero_max_steps(self):
        g = complete_graph(4)
        x0 = np.array([1.0, 1.0, 1.0, 1.0 + 1e-12])
        for tol in (1e-9, 1e-15):
            result = assert_matches_serial(
                g, u010_channel(g), ProtocolConfig("superposition", mixing=0.5), x0, 9, tol=tol, max_steps=0
            )
            assert set(result.steps) == {0}


@pytest.mark.parametrize("mode", [IID_PER_STEP, TIME_INVARIANT])
def test_monte_carlo_in_blocks_matches_one_block(monkeypatch, mode):
    # The seeds are replayed once for the batch and the generators built a
    # block at a time: blocks of 3 replicates (the last one partial) give
    # the bytes of one block of 40.
    g = complete_graph(5)
    x0 = np.random.default_rng(66).uniform(0, 2 * np.pi, 5)
    args = (g, u010_channel(g, seed=2**64 + 9, mode=mode), ProtocolConfig("superposition", mixing=0.6), x0, 40)
    blocks = []
    advance = analysis.advance

    def recording(update, x0, *rest):
        blocks.append(len(x0))
        return advance(update, x0, *rest)

    # Pinned to one process: a fork's calls to advance are not recorded here.
    monkeypatch.setattr(analysis, "_cpu_count", lambda: 1)
    monkeypatch.setattr(analysis, "advance", recording)
    whole = monte_carlo(*args)
    monkeypatch.setattr(analysis, "MC_BLOCK_ELEMENTS", 3 * 20)
    split = monte_carlo(*args)
    assert blocks == [40] + [3] * 13 + [1]
    assert_same_result(split, whole)


def one_process(monkeypatch, *args, **kwargs):
    """``monte_carlo(*args, **kwargs)`` pinned to this process."""
    with monkeypatch.context() as m:
        m.setattr(analysis, "_cpu_count", lambda: 1)
        return monte_carlo(*args, **kwargs)


def assert_same_result(got, want):
    assert np.array(got.consensus_values).tobytes() == np.array(want.consensus_values).tobytes()
    assert got == want


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Pids returned by every ``os.fork`` this test makes."""
    assert analysis._single_threaded(), "the test process must run one OS thread to fork"
    pids = []
    fork = os.fork

    def counting():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return pids


MC_CASES = {
    # (channel mode, protocol, runs, keyword arguments)
    "iid": (IID_PER_STEP, ProtocolConfig("superposition", mixing=0.6), 23, {}),
    "time-invariant": (TIME_INVARIANT, ProtocolConfig("superposition", mixing=0.6), 23, {}),
    "naive": (IID_PER_STEP, ProtocolConfig("naive"), 21, {"max_steps": 30}),
    "max-steps": (IID_PER_STEP, ProtocolConfig("superposition", mixing=0.3), 25, {"max_steps": 6}),
}


@pytest.mark.parametrize("processes", [2, 3])
@pytest.mark.parametrize("case", sorted(MC_CASES))
def test_monte_carlo_processes_match_one_process(monkeypatch, forks, processes, case):
    # Blocks of 5 replicates dealt over 2 or 3 processes; 23, 21 and 25
    # runs end in a partial block or a whole one.
    mode, config, runs, kwargs = MC_CASES[case]
    g = complete_graph(4)
    x0 = np.random.default_rng(67).uniform(0, 2 * np.pi, 4)
    args = (g, u010_channel(g, seed=11, mode=mode), config, x0, runs)
    monkeypatch.setattr(analysis, "MC_BLOCK_ELEMENTS", 5 * 12)
    want = one_process(monkeypatch, *args, **kwargs)
    assert forks == []
    monkeypatch.setattr(analysis, "_cpu_count", lambda: processes)
    got = monte_carlo(*args, **kwargs)
    assert len(forks) == processes - 1
    assert_same_result(got, want)
    if case == "max-steps":
        assert got.non_converged == runs
    assert_no_child_left()


def test_monte_carlo_classical_row_never_forks(monkeypatch, forks):
    g = ring_graph(6)
    x0 = np.random.default_rng(68).uniform(0, 2 * np.pi, 6)
    args = (g, None, ProtocolConfig("classical", step_size=0.4), x0, 40)
    want = one_process(monkeypatch, *args)
    monkeypatch.setattr(analysis, "_cpu_count", lambda: 3)
    monkeypatch.setattr(analysis, "MC_BLOCK_ELEMENTS", 1)
    assert_same_result(monte_carlo(*args), want)
    assert forks == []


def split_batch(monkeypatch, runs=23):
    """Arguments of a 5-block batch, with two processes forced."""
    g = complete_graph(4)
    x0 = np.random.default_rng(69).uniform(0, 2 * np.pi, 4)
    monkeypatch.setattr(analysis, "MC_BLOCK_ELEMENTS", 5 * 12)
    monkeypatch.setattr(analysis, "_cpu_count", lambda: 2)
    return g, u010_channel(g, seed=12), ProtocolConfig("superposition", mixing=0.5), x0, runs


def test_failed_fork_blocks_run_here(monkeypatch, forks):
    # A fork that exits 3 before writing: its blocks run in this process.
    args = split_batch(monkeypatch)
    want = one_process(monkeypatch, *args)
    monkeypatch.setattr(analysis, "_run_forked", lambda *rest: os._exit(3))
    assert_same_result(monte_carlo(*args), want)
    assert len(forks) == 1
    assert_no_child_left()


@pytest.mark.parametrize("killed", [False, True], ids=["exit-3", "killed-mid-batch"])
def test_rows_of_a_failed_fork_are_run_again(monkeypatch, forks, killed):
    # The fork writes wrong rows for all its blocks, then exits 3, or is
    # killed by a signal after its first block: its blocks run again here,
    # over the rows it wrote.
    args = split_batch(monkeypatch)
    want = one_process(monkeypatch, *args)
    advance = analysis.advance

    def wrong(*rest):
        result = advance(*rest)
        return replace(result, final=result.final + 1.0, steps=result.steps + 1, converged=~result.converged)

    def partial(fill, blocks, parent, cpu):
        try:
            analysis.advance = wrong  # in this fork's copy of the module only
            for b in blocks:
                fill(b)
                if killed:
                    os.kill(os.getpid(), signal.SIGKILL)
        finally:
            os._exit(3)

    monkeypatch.setattr(analysis, "_run_forked", partial)
    assert_same_result(monte_carlo(*args), want)
    assert len(forks) == 1
    assert_no_child_left()


def test_fork_that_cannot_start_runs_here(monkeypatch):
    args = split_batch(monkeypatch)
    want = one_process(monkeypatch, *args)

    def no_fork():
        raise BlockingIOError("no process to spare")

    monkeypatch.setattr(os, "fork", no_fork)
    assert_same_result(monte_carlo(*args), want)


def test_exception_in_own_block_kills_the_forks(monkeypatch, forks):
    args = split_batch(monkeypatch)
    me, advance = os.getpid(), analysis.advance

    def failing_here(*rest):
        if os.getpid() == me:
            raise RuntimeError("block failed")
        return advance(*rest)

    monkeypatch.setattr(analysis, "advance", failing_here)
    with pytest.raises(RuntimeError, match="block failed"):
        monte_carlo(*args)
    assert len(forks) == 1
    assert_no_child_left()


def test_exception_in_a_fork_is_raised_here(monkeypatch, forks):
    # Every block fails: the fork exits 1, and its blocks, run here, raise
    # what one process raises.
    args = split_batch(monkeypatch)

    def failing(*rest):
        raise RuntimeError("block failed")

    monkeypatch.setattr(analysis, "advance", failing)
    with pytest.raises(RuntimeError, match="block failed"):
        monte_carlo(*args)
    assert len(forks) == 1
    assert_no_child_left()


def test_large_batch_over_two_processes(monkeypatch, forks):
    # 20000 runs on 6 arcs: blocks of 5461, the fork's two hold 9078
    # replicates, 218 kB of the 480 kB shared table.
    g = complete_graph(3)
    args = (g, u010_channel(g, seed=13), ProtocolConfig("superposition", mixing=0.5), np.array([0.0, 1.0, 3.0]), 20000)
    want = one_process(monkeypatch, *args)
    monkeypatch.setattr(analysis, "_cpu_count", lambda: 2)
    assert_same_result(monte_carlo(*args), want)
    assert len(forks) == 1
    assert_no_child_left()


def test_second_thread_means_no_fork(monkeypatch, forks):
    args = split_batch(monkeypatch)
    want = one_process(monkeypatch, *args)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert not analysis._single_threaded()
        got = monte_carlo(*args)
    finally:
        stop.set()
        thread.join()
    assert forks == []
    assert_same_result(got, want)


def on_cpu():
    """The CPU this process last ran on: field 39 of ``/proc/self/stat``."""
    with open("/proc/self/stat") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[36])


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs to move between")
def test_place_moves_this_process_and_restores_its_mask():
    # On each allowed CPU in turn, with the mask it had; retried, as the
    # scheduler may move the unpinned process again before it looks.
    allowed = os.sched_getaffinity(0)
    try:
        for cpu in sorted(allowed) * 2:
            for _ in range(5):
                analysis._place(cpu)
                assert os.sched_getaffinity(0) == allowed
                if on_cpu() == cpu:
                    break
            else:
                pytest.fail(f"not moved onto CPU {cpu}")
        analysis._place(4095)  # refused (EINVAL): the process stays, with its mask
        assert os.sched_getaffinity(0) == allowed
    finally:
        os.sched_setaffinity(0, allowed)


def test_each_process_is_placed_on_its_own_cpu(monkeypatch, forks):
    # Three processes on the sorted allowed CPUs, process p on
    # cpus[p % len(cpus)], each placed once; a one-process batch is not.
    args = split_batch(monkeypatch)
    read, write = os.pipe()
    monkeypatch.setattr(analysis, "_place", lambda cpu: os.write(write, b"%d %d\n" % (os.getpid(), cpu)))
    try:
        one_process(monkeypatch, *args)
        monkeypatch.setattr(analysis, "_cpu_count", lambda: 3)
        monte_carlo(*args)
    finally:
        os.close(write)
    with os.fdopen(read) as fh:
        placed = sorted(tuple(map(int, line.split())) for line in fh)
    cpus = sorted(os.sched_getaffinity(0))
    assert placed == sorted([(os.getpid(), cpus[0]), (forks[0], cpus[1 % len(cpus)]), (forks[1], cpus[2 % len(cpus)])])


@pytest.mark.parametrize("mask", ["allowed", "last-cpu"])
def test_batch_leaves_the_callers_affinity(monkeypatch, forks, mask):
    # Also when this process's own block raises, and on a mask that does
    # not hold CPU 0 where the host has more than one CPU.
    args = split_batch(monkeypatch)
    allowed = os.sched_getaffinity(0)
    mine = allowed if mask == "allowed" else {max(allowed)}
    me, advance = os.getpid(), analysis.advance

    def failing_here(*rest):
        if os.getpid() == me:
            raise RuntimeError("block failed")
        return advance(*rest)

    os.sched_setaffinity(0, mine)
    try:
        monte_carlo(*args)
        assert os.sched_getaffinity(0) == mine
        monkeypatch.setattr(analysis, "advance", failing_here)
        with pytest.raises(RuntimeError, match="block failed"):
            monte_carlo(*args)
        assert os.sched_getaffinity(0) == mine
    finally:
        os.sched_setaffinity(0, allowed)
    assert len(forks) == 2
    assert_no_child_left()


def test_refused_placement_gives_the_same_results(monkeypatch, forks):
    args = split_batch(monkeypatch)
    want = one_process(monkeypatch, *args)

    def refused(pid, mask):
        raise PermissionError("affinity refused")

    monkeypatch.setattr(os, "sched_setaffinity", refused)
    assert_same_result(monte_carlo(*args), want)
    assert len(forks) == 1
    assert_no_child_left()


def test_fork_exits_when_its_parent_is_gone():
    # A fork whose recorded parent is not its parent runs no block and
    # exits 1.
    pid = os.fork()
    if pid == 0:
        try:
            analysis._run_forked(lambda b: os._exit(7), range(3), 0, min(os.sched_getaffinity(0)))
        finally:
            os._exit(9)
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 1


def test_batches_leave_no_descriptor_or_child(monkeypatch, forks):
    # Five batches of five blocks, each over three processes.
    args = split_batch(monkeypatch)
    monkeypatch.setattr(analysis, "_cpu_count", lambda: 3)
    before = sorted(os.listdir("/proc/self/fd"))
    for _ in range(5):
        monte_carlo(*args)
    assert sorted(os.listdir("/proc/self/fd")) == before
    assert len(forks) == 10
    assert_no_child_left()


# ``main`` on ``argv[1:]`` in a fresh interpreter: prints the exit code and
# whether mmap and signal are loaded.
CLI_IMPORTS = """
import sys
from airconsensus.cli import main
print(main(sys.argv[1:]), "mmap" in sys.modules, "signal" in sys.modules)
"""


def test_only_a_batch_loads_mmap_and_only_a_failure_signal(tmp_path):
    # A single run loads neither module; a batch that ends well maps its
    # table but kills no fork.
    argv = ["--preset", "ti-sigma02", "--quiet", "--out-dir"]
    assert run_child(CLI_IMPORTS, *argv, str(tmp_path / "run")).stdout.split() == ["0", "False", "False"]
    batch = run_child(CLI_IMPORTS, *argv, str(tmp_path / "batch"), "--runs", "4")
    assert batch.stdout.split() == ["0", "True", "False"]


def test_one_process_without_fork_or_affinity(monkeypatch):
    assert analysis._processes(1) == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert analysis._cpu_count() == 1
    assert analysis._processes(8) == 1
