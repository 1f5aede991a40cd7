"""The O(|E|) run predictions against dense references.

``predicted_consensus`` and ``subdominant_modulus`` work on the arc-list
form of the update matrix through restarted Arnoldi. The references here
are dense: ``dominant_left_eigenvector``, a bordered LU solve of
``w' (D - I) = 0``, ``sum(w) = 1``, for the left Perron vector and
``numpy.linalg.eigvals`` (through ``second_eigenvalue_modulus``) for the
second eigenvalue modulus.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airconsensus import cli, linalg
from airconsensus.analysis import predicted_consensus
from airconsensus.channel import TIME_INVARIANT, ChannelModel, ConstantLaw, UniformLaw, sample
from airconsensus.config import PRESET_NAMES, parse_config, preset
from airconsensus.graph import complete_graph, graph_from_arcs, step_size_bound
from airconsensus.linalg import (
    KRYLOV_BASIS,
    ArcOperator,
    ArnoldiError,
    dominant_left_eigenvector,
    perron_matrix,
    perron_operator,
    second_eigenvalue_modulus,
    subdominant_modulus,
    top_eigenpair,
)
from airconsensus.protocol import CLASSICAL, effective_matrix, effective_operator
from airconsensus.records import replace
from support import ring_with_chords, strongly_connected_digraphs

VALUE_TOL = 1e-12
RATE_REL_TOL = 1e-10
# Both moduli carry an absolute rounding error of a few ulps of ||D||,
# so a relative gate means nothing for a second eigenvalue near 0.
RATE_ABS_FLOOR = 1e-14


def assert_matches_dense(D, op, x0):
    reference = float(dominant_left_eigenvector(D).left_vector @ x0)
    assert abs(predicted_consensus(op, x0) - reference) <= VALUE_TOL
    assert abs(predicted_consensus(D, x0) - reference) <= VALUE_TOL
    rate = second_eigenvalue_modulus(D)
    assert abs(subdominant_modulus(op) - rate) <= RATE_REL_TOL * rate + RATE_ABS_FLOOR


def ti_channel(g, seed):
    return ChannelModel(g, UniformLaw(0.0, 10.0), TIME_INVARIANT, seed)


@st.composite
def graphs_below_basis(draw):
    """A strongly connected digraph or a pure directed ring (complex
    spectrum), with n from 2 up to one below the Krylov basis size."""
    if not draw(st.booleans()):
        return draw(strongly_connected_digraphs(max_n=KRYLOV_BASIS - 1))
    n = draw(st.integers(2, KRYLOV_BASIS - 1))
    order = draw(st.permutations(range(1, n + 1)))
    weights = draw(st.lists(st.floats(0.5, 10.0), min_size=n, max_size=n))
    return graph_from_arcs(n, [(order[t], order[(t + 1) % n], weights[t]) for t in range(n)])


@st.composite
def few_eigenvalue_graphs(draw):
    """A complete graph, a two-way star, a complete bipartite graph or a
    two-way ring, with one weight on every arc: few distinct eigenvalues
    (under a constant channel or the classical protocol), on which
    Arnoldi's basis turns invariant after a few vectors. Rings stop at 24
    nodes, where the spectral gap stays above 1e-3 for the mixings and step
    sizes drawn."""
    family = draw(st.sampled_from(["complete", "star", "bipartite", "ring"]))
    weight = draw(st.floats(0.5, 10.0))
    if family == "complete":
        return complete_graph(draw(st.integers(2, 90)), weight)
    if family == "star":
        n = draw(st.integers(2, 60))
        links = [(1, i) for i in range(2, n + 1)]
    elif family == "bipartite":
        a, b = draw(st.integers(1, 30)), draw(st.integers(1, 30))
        n = a + b
        links = [(j, i) for j in range(1, a + 1) for i in range(a + 1, n + 1)]
    else:
        n = draw(st.integers(3, 24))
        links = [(i, i % n + 1) for i in range(1, n + 1)]
    return graph_from_arcs(n, [(*arc, weight) for j, i in links for arc in ((j, i), (i, j))])


def classical_update(draw, g):
    step = draw(st.floats(0.05, 0.95)) * step_size_bound(g)
    return perron_matrix(g, step), perron_operator(g, step)


@st.composite
def update_matrices(draw):
    """(dense D, its ArcOperator form): superposition with a scalar or a
    per-agent mixing over a time-invariant uniform channel, or the
    classical Perron matrix."""
    g = draw(graphs_below_basis())
    kind = draw(st.sampled_from(["scalar", "per-agent", "classical"]))
    if kind == "classical":
        return classical_update(draw, g)
    r = sample(ti_channel(g, draw(st.integers(0, 2**32 - 1))), 0)
    if kind == "scalar":
        mixing = draw(st.floats(0.01, 0.99))
    else:
        mixing = draw(st.lists(st.floats(0.01, 0.99), min_size=g.n, max_size=g.n))
    return effective_matrix(r, mixing), effective_operator(r, mixing)


@st.composite
def few_eigenvalue_updates(draw):
    """(dense D, its ArcOperator form) with few distinct eigenvalues, all
    of them semisimple: a few-eigenvalue graph under a constant channel
    with a scalar mixing, or its classical Perron matrix. (A constant
    channel on a random digraph can give a defective eigenvalue, which no
    method, the dense reference included, resolves below sqrt(eps).)"""
    g = draw(few_eigenvalue_graphs())
    if draw(st.booleans()):
        return classical_update(draw, g)
    r = sample(ChannelModel(g, ConstantLaw(draw(st.floats(0.1, 10.0))), TIME_INVARIANT, 1), 0)
    mixing = draw(st.floats(0.05, 0.95))
    return effective_matrix(r, mixing), effective_operator(r, mixing)


@settings(max_examples=150, deadline=None)
@given(pair=update_matrices() | few_eigenvalue_updates(), seed=st.integers(0, 2**32 - 1))
def test_predictions_match_dense_references(pair, seed):
    D, op = pair
    x0 = np.random.default_rng(seed).uniform(0, 2 * np.pi, len(D))
    assert_matches_dense(D, op, x0)


@settings(max_examples=40, deadline=None)
@given(pair=update_matrices(), seed=st.integers(0, 2**32 - 1))
def test_arc_operator_products_match_dense(pair, seed):
    D, op = pair
    x = np.random.default_rng(seed).normal(size=len(D))
    off = D - np.diag(np.diag(D))
    for form in (op, ArcOperator.from_dense(D)):
        assert np.max(np.abs(form.matvec(x) - D @ x)) <= 1e-13
        assert np.max(np.abs(form.offdiagonal_rmatvec(x) - x @ off)) <= 1e-13


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_every_preset_matches_dense_references(name):
    cfg = parse_config(preset(name))
    if cfg.protocol.variant == CLASSICAL:
        D = perron_matrix(cfg.topology, cfg.protocol.step_size)
        op = perron_operator(cfg.topology, cfg.protocol.step_size)
    else:
        r = sample(replace(cfg.channel, mode=TIME_INVARIANT), 0)
        D, op = effective_matrix(r, cfg.protocol.mixing), effective_operator(r, cfg.protocol.mixing)
    assert_matches_dense(D, op, np.asarray(cfg.x0))


def test_tiny_mixing_weight_keeps_its_prediction(capsys):
    # The weight cancels from the fixed-point check, so 1e-9 (where 1 - D_jj
    # loses about seven digits) predicts what 0.2 predicts.
    doc = preset("ti-sigma02")
    doc["protocol"]["mixing"] = 1e-9
    tiny, _ = cli._predictions(parse_config(doc))
    reference, _ = cli._predictions(parse_config(preset("ti-sigma02")))
    assert capsys.readouterr().err == ""
    assert tiny is not None and abs(tiny - reference) <= 1e-12


def two_community_x0(rng, n):
    half = n // 2
    return np.concatenate([rng.uniform(0, np.pi, half), rng.uniform(np.pi, 2 * np.pi, n - half)])


@pytest.mark.parametrize("seed", range(1, 11))
def test_two_community_sparse_graphs_match_dense_references(seed):
    rng = np.random.default_rng(seed)
    g = ring_with_chords(rng, 500, chords=8, blocks=2, cross=1)
    r = sample(ti_channel(g, seed), 0)
    assert_matches_dense(effective_matrix(r, 0.3), effective_operator(r, 0.3), two_community_x0(rng, 500))


def test_ring_with_three_chords_top_is_a_complex_pair():
    # Run time-invariant, this graph's second eigenvalue is one of a
    # complex pair in a dense cluster: the hard case for a restarted method.
    rng = np.random.default_rng(1)
    g = ring_with_chords(rng, 500, chords=3)
    r = sample(ti_channel(g, 1), 0)
    D = effective_matrix(r, 0.5)
    moduli = np.abs(np.linalg.eigvals(D))
    second = np.linalg.eigvals(D)[np.argsort(-moduli)[1]]
    assert abs(second.imag) > 1e-3
    assert_matches_dense(D, effective_operator(r, 0.5), rng.uniform(0, 2 * np.pi, 500))


def test_predictions_are_deterministic():
    g = ring_with_chords(np.random.default_rng(4), 300, chords=3)
    op = effective_operator(sample(ti_channel(g, 4), 0), 0.5)
    x0 = np.linspace(0.0, 1.0, 300)
    assert predicted_consensus(op, x0) == predicted_consensus(op, x0)
    assert subdominant_modulus(op) == subdominant_modulus(op)


def test_single_node_operator():
    op = ArcOperator(np.ones(1), np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0))
    assert subdominant_modulus(op) == 0.0


def test_row_without_off_diagonal_weight_has_no_prediction():
    D = np.array([[1.0, 0.0], [0.5, 0.5]])  # node 1 hears nobody: 1 is not simple
    with pytest.raises(np.linalg.LinAlgError, match="no off-diagonal weight"):
        predicted_consensus(D, [0.0, 1.0])


def test_top_eigenpair_finds_a_complex_pair():
    # A rotation by 90 degrees scaled by 0.5, beside a smaller real eigenvalue.
    A = np.array([[0.0, -0.5, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.25]])
    theta, x = top_eigenpair(lambda v: A @ v, 3)
    assert abs(theta) == pytest.approx(0.5, abs=1e-15)
    assert abs(theta.imag) == pytest.approx(0.5, abs=1e-15)
    assert np.max(np.abs(A @ x - theta * x)) <= 1e-15


def test_top_eigenpair_raises_with_restarts_and_residual(monkeypatch):
    g = ring_with_chords(np.random.default_rng(2), 200, chords=3)
    op = effective_operator(sample(ti_channel(g, 2), 0), 0.5)
    monkeypatch.setattr(linalg, "KRYLOV_MAX_RESTARTS", 1)
    with pytest.raises(ArnoldiError) as info:
        subdominant_modulus(op)
    assert info.value.restarts == 1
    assert info.value.residual > linalg.KRYLOV_TOL
    assert str(info.value).startswith("restarted Arnoldi did not converge after 1 restarts (final residual ")


def test_top_eigenpair_checks_the_residual_on_an_invariant_subspace():
    # An "operator" that maps the start vector to 0 and then acts as the
    # identity: the basis is invariant at once, and its Ritz pair, 0 and
    # the start vector, fails the residual check.
    calls = []

    def matvec(v):
        calls.append(v)
        return 0.0 * v if len(calls) == 1 else v.copy()

    with pytest.raises(ArnoldiError) as info:
        top_eigenpair(matvec, 5)
    assert info.value.restarts == 0
    assert str(info.value) == "restarted Arnoldi did not converge after 0 restarts (final residual 1.000e+00)"


def constant_complete(n):
    """The superposition update of a complete graph under a constant
    channel, mixing 0.5: two distinct eigenvalues, 1 and 0.5 - 0.5 / (n - 1)."""
    channel = ChannelModel(complete_graph(n), ConstantLaw(1.0), TIME_INVARIANT, 1)
    return effective_operator(sample(channel, 0), 0.5)


@pytest.mark.parametrize(
    "op",
    [
        *(constant_complete(n) for n in (10, 30, 60)),
        *(perron_operator(complete_graph(n), 0.01) for n in (10, 30)),
    ],
    ids=["superposition-n10", "superposition-n30", "superposition-n60", "classical-n10", "classical-n30"],
)
def test_subdominant_modulus_on_degenerate_spectra_is_right(op):
    # Arnoldi breaks down on these few-eigenvalue spectra: its basis spans
    # an invariant subspace after a few vectors. It once returned moduli
    # from 1.35 to 5185 here, and then raised.
    dense = second_eigenvalue_modulus(op.dense())
    assert abs(subdominant_modulus(op) - dense) <= RATE_REL_TOL * dense + RATE_ABS_FLOOR


@pytest.mark.parametrize("n", [10, 30, 100])
def test_rank_one_update_predicts_the_mean_in_one_step(n):
    # Step size 1/n on the complete graph: D = J/n, every eigenvalue but
    # the 1 is 0, and the deflated operator returns only rounding noise.
    # Its noise-level top pair is the answer; it once raised.
    op = perron_operator(complete_graph(n), 1.0 / n)
    assert abs(subdominant_modulus(op) - second_eigenvalue_modulus(op.dense())) <= RATE_ABS_FLOOR
    x0 = np.random.default_rng(n).uniform(0.0, 10.0, n)
    assert abs(predicted_consensus(op, x0) - x0.mean()) <= VALUE_TOL


@pytest.mark.parametrize("n", [10, 30, 60])
def test_predicted_consensus_on_constant_complete_graphs_is_the_mean(n):
    # Every agent hears every other with the same gain: the update is
    # doubly stochastic and averages.
    x0 = np.random.default_rng(n).uniform(0.0, 10.0, n)
    assert abs(predicted_consensus(constant_complete(n), x0) - x0.mean()) <= VALUE_TOL


def test_subdominant_modulus_above_one_raises(monkeypatch):
    monkeypatch.setattr(linalg, "top_eigenpair", lambda matvec, n: (1.0 + 1e-9, np.ones(n)))
    with pytest.raises(ArnoldiError, match="second eigenvalue modulus 1 exceeds 1"):
        subdominant_modulus(constant_complete(4))
    monkeypatch.setattr(linalg, "top_eigenpair", lambda matvec, n: (-1.0 - 1e-13, np.ones(n)))
    assert subdominant_modulus(constant_complete(4)) == 1.0 + 1e-13


def complete_scenario(tmp_path, protocol, channel=None, n=30):
    """Run the CLI on the complete ``n``-node graph; return ``mean(x0)``
    and the summary."""
    doc = {"topology": {"kind": "complete", "n": n}, "protocol": protocol, "seed": 2, "run": {"max_steps": 50}}
    if channel is not None:
        doc["channel"] = channel
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    cli.main(["--config", str(path), "--out-dir", str(tmp_path), "--quiet"])
    return float(np.mean(parse_config(doc).x0)), json.loads((tmp_path / "summary.json").read_text())


def test_cli_never_writes_a_modulus_above_one(tmp_path, monkeypatch):
    # Classical protocol on the complete 30-node graph, step size 0.01: the
    # dense second eigenvalue modulus is |1 - 30 * 0.01| = 0.7. With the
    # consensus prediction forced through, the rate alone decides.
    monkeypatch.setattr(cli, "predicted_consensus", lambda D, x0: 0.0)
    _, summary = complete_scenario(tmp_path, {"variant": "classical", "step_size": 0.01})
    assert abs(summary["result.rate_predicted"] - 0.7) <= 1e-12


@pytest.mark.parametrize(
    "protocol, channel, rate",
    [
        # A balanced graph averages, at the rate |1 - 30 * 0.01|.
        ({"variant": "classical", "step_size": 0.01}, None, 0.7),
        # Equal gains, mixing 0.5: the update 0.5 I + 0.5 (J - I) / 29.
        (
            {"variant": "superposition", "mixing": 0.5},
            {"law": {"kind": "constant", "value": 1.0}, "mode": "time-invariant"},
            0.5 - 0.5 / 29,
        ),
    ],
    ids=["classical", "constant-channel"],
)
def test_cli_predicts_the_complete_graph(tmp_path, capsys, protocol, channel, rate):
    mean, summary = complete_scenario(tmp_path, protocol, channel)
    assert abs(summary["result.predicted_value"] - mean) <= 1e-12
    assert abs(summary["result.rate_predicted"] - rate) <= 1e-12
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("n", [10, 30, 100])
def test_cli_predicts_the_rank_one_complete_graph(tmp_path, capsys, n):
    # Step size 1/n averages in one step: the dense rate is rounding noise.
    mean, summary = complete_scenario(tmp_path, {"variant": "classical", "step_size": 1.0 / n}, n=n)
    assert abs(summary["result.predicted_value"] - mean) <= 1e-12
    assert abs(summary["result.rate_predicted"]) <= RATE_ABS_FLOOR
    assert capsys.readouterr().err == ""
