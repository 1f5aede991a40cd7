import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from airconsensus.channel import (
    _CHANNEL_STREAM,
    IID_PER_STEP,
    LAWS as LAW_CLASSES,
    MODES,
    TIME_INVARIANT,
    ChannelModel,
    ChannelStreams,
    ConstantLaw,
    UniformLaw,
    _generators,
    _stream_words,
    derive_seed,
    derive_seeds,
    sample,
)
from airconsensus.graph import complete_graph, graph_from_arcs
from airconsensus.records import replace
from support import child_seed, generator_uniform_draw, run_child, stream, stream_draw, strongly_connected_digraphs


def u010_model(topology, mode=IID_PER_STEP, seed=42):
    return ChannelModel(topology=topology, law=UniformLaw(0.0, 10.0), mode=mode, seed=seed)


def arc_loop_gains(model, k):
    """Reference dense realization: the reference draw scattered one arc at
    a time."""
    order = model.topology.arc_order
    gains = np.zeros((model.topology.n, model.topology.n))
    for (j, i), value in zip(order, stream_draw(model, k)):
        gains[i - 1, j - 1] = value
    return gains


@st.composite
def uniform_laws(draw):
    """Uniform laws with lo == 0 or lo > 0, widths from subnormal (5e-324,
    where about half the draws round to zero, and 1.5e-323, where a sixth
    do and the rest take one of three values) to huge (1e300)."""
    lo = draw(st.one_of(st.just(0.0), st.sampled_from([5e-324, 1e-300, 2.5, 1e300]), st.floats(0.0, 1e300)))
    width = draw(st.one_of(st.sampled_from([5e-324, 1.5e-323, 1e-300, 10.0, 1e300]), st.floats(5e-324, 1e300)))
    assume(lo < lo + width < math.inf)
    return UniformLaw(lo, lo + width)


LAWS = st.one_of(uniform_laws(), st.sampled_from([ConstantLaw(1.0), ConstantLaw(0.25), ConstantLaw(7e300)]))


class TestLaws:
    def test_uniform_bounds_validated(self):
        with pytest.raises(ValueError, match="lo < hi"):
            UniformLaw(10.0, 10.0)
        with pytest.raises(ValueError, match="lo < hi"):
            UniformLaw(-1.0, 5.0)

    def test_constant_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            ConstantLaw(0.0)

    @pytest.mark.parametrize("lo, hi", [(0.0, 1e400), (0.0, float("inf")), (0.0, float("nan")), (float("nan"), 1.0)])
    def test_uniform_bounds_must_be_finite(self, lo, hi):
        with pytest.raises(ValueError, match="uniform law"):
            UniformLaw(lo, hi)

    @pytest.mark.parametrize("value", [1e400, float("inf"), float("nan")])
    def test_constant_must_be_finite(self, value):
        with pytest.raises(ValueError, match="positive and finite"):
            ConstantLaw(value)

    @settings(max_examples=200, deadline=None)
    @given(law=uniform_laws(), seed=st.integers(0, 2**64 - 1), size=st.integers(0, 300))
    def test_uniform_draw_matches_generator_uniform(self, law, seed, size):
        # A time-invariant draw redraws its zeros right after its fill.
        star = graph_from_arcs(size + 1, [(j, 1, 1.0) for j in range(2, size + 2)])
        got = sample(ChannelModel(star, law, TIME_INVARIANT, seed), 0).values
        assert got.tobytes() == generator_uniform_draw(law, stream(seed), size).tobytes()
        assert (got > 0.0).all()

    @pytest.mark.parametrize("kind", sorted(LAW_CLASSES))
    def test_scale_maps_its_argument_in_place(self, kind):
        law_type = LAW_CLASSES[kind]
        law = law_type(*(float(i + 1) for i in range(len(law_type._fields))))
        uniforms = np.random.default_rng(3).random(1000)
        before = uniforms.copy()
        assert law.scale(uniforms) is uniforms
        assert (uniforms != before).all()

    @pytest.mark.parametrize(
        "law",
        [UniformLaw(0.0, 10.0), UniformLaw(0.1, 0.7), UniformLaw(1e300, 1.7e300), UniformLaw(0.0, 5e-324), ConstantLaw(0.25)],
    )
    def test_bound_caps_every_draw(self, law):
        assert law.bound in law._fields
        model = ChannelModel(complete_graph(11), law, IID_PER_STEP, 5)
        block = ChannelStreams(model, range(910)).draw(2)  # 110 arcs per seed
        assert block.size >= 10**5
        assert (block <= getattr(law, law.bound)).all()

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            ChannelModel(complete_graph(3), UniformLaw(0.0, 10.0), "sometimes", 1)


class TestSampling:
    def test_time_invariant_is_constant_over_steps(self):
        model = u010_model(complete_graph(4), mode=TIME_INVARIANT)
        np.testing.assert_array_equal(sample(model, 0).gains, sample(model, 7).gains)

    def test_iid_same_step_reproducible(self):
        model = u010_model(complete_graph(4))
        np.testing.assert_array_equal(sample(model, 3).gains, sample(model, 3).gains)

    def test_iid_steps_differ(self):
        model = u010_model(complete_graph(4))
        assert not np.array_equal(sample(model, 0).gains, sample(model, 1).gains)

    def test_random_access_no_replay_needed(self):
        model = u010_model(complete_graph(4))
        direct = sample(model, 100).gains
        for k in range(5):
            sample(model, k)
        np.testing.assert_array_equal(sample(model, 100).gains, direct)

    def test_ideal_channel_all_ones(self):
        model = ChannelModel(complete_graph(3), ConstantLaw(1.0), TIME_INVARIANT, 0)
        r = sample(model, 0)
        off_diag = ~np.eye(3, dtype=bool)
        assert (r.gains[off_diag] == 1.0).all()

    def test_support_equals_arc_set(self):
        g = graph_from_arcs(4, [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 1, 1.0), (2, 1, 1.0)])
        r = sample(u010_model(g), 5)
        for j in range(1, 5):
            for i in range(1, 5):
                if (j, i) in g.arcs:
                    assert r.gains[i - 1, j - 1] > 0.0
                else:
                    assert r.gains[i - 1, j - 1] == 0.0

    def test_strict_positivity_many_draws(self):
        # about 1e6 coefficients across seeds and steps
        g = complete_graph(46)  # 2070 arcs
        for seed in (0, 1, 2):
            model = u010_model(g, seed=seed)
            for k in range(161):
                r = sample(model, k)
                off_diag = ~np.eye(46, dtype=bool)
                assert (r.gains[off_diag] > 0.0).all()

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            sample(u010_model(complete_graph(3)), -1)

    @pytest.mark.parametrize("mode", MODES)
    def test_step_beyond_stream_rejected(self, mode):
        # Step 2**64 would start at offset 2**128 and wrap onto step 0.
        model = u010_model(complete_graph(3), mode=mode)
        assert sample(model, 2**64 - 1).values.shape == (6,)
        with pytest.raises(ValueError, match="below 2\\*\\*64"):
            sample(model, 2**64)
        with pytest.raises(ValueError, match="below 2\\*\\*64"):
            ChannelStreams(model, [1]).draw(2**64)

    def test_gains_are_read_only(self):
        r = sample(u010_model(complete_graph(3)), 0)
        with pytest.raises(ValueError):
            r.gains[0, 1] = 5.0
        with pytest.raises(ValueError):
            r.values[0] = 5.0

    @settings(max_examples=60, deadline=None)
    @given(g=strongly_connected_digraphs(), seed=st.integers(0, 2**63 - 1))
    def test_gains_match_arc_loop_bit_for_bit(self, g, seed):
        for mode in MODES:
            model = u010_model(g, mode=mode, seed=seed)
            for k in (0, 1, 7):
                gains = sample(model, k).gains
                assert gains.dtype == np.float64
                assert gains.tobytes() == arc_loop_gains(model, k).tobytes()

    def test_coefficients_mapping_matches_gains(self):
        # values[e] is the coefficient of the e-th arc of topology.arc_order
        r = sample(u010_model(complete_graph(3)), 2)
        assert len(r.values) == len(r.topology.arc_order)
        for (j, i), h in zip(r.topology.arc_order, r.values):
            assert h == r.gains[i - 1, j - 1]


def test_bool_seed_rejected():
    with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
        ChannelModel(complete_graph(3), UniformLaw(0.0, 10.0), TIME_INVARIANT, True)


def test_derive_seed_is_deterministic_and_spread_out():
    seeds = {derive_seed(42, i) for i in range(100)}
    assert len(seeds) == 100
    assert derive_seed(42, 7) == derive_seed(42, 7)
    assert derive_seed(42, 7) != derive_seed(43, 7)


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96 + 5, 2**128, 2**200 + 11]
# Seeds of every word count the hash tells apart: up to 4 words (padded to
# the pool), then 5, 7 and more.
SEEDS = st.one_of(
    st.sampled_from(EDGE_SEEDS + [2**128 - 1, 2**200]), st.integers(0, 2**64 - 1), st.integers(0, 2**230)
)


@settings(max_examples=150, deadline=None)
@example(base=0, keys=EDGE_SEEDS, seeds=EDGE_SEEDS)
@example(base=2**200, keys=[0, 2**32, 5, 2**64 - 1], seeds=[2**32 - 1, 2**128, 0, 2**64 - 1, 2**200])
@given(base=SEEDS, keys=st.lists(SEEDS, max_size=8), seeds=st.lists(SEEDS, max_size=8))
def test_seed_replay_matches_seed_sequence(base, keys, seeds):
    # One batch of mixed sizes, against numpy's own SeedSequence: the run
    # seeds, the words each channel generator is seeded with, and the
    # generators built from those words.
    assert derive_seeds(base, keys) == [child_seed(base, key) for key in keys]
    assert [derive_seed(base, key) for key in keys] == derive_seeds(base, keys)
    words = _stream_words(seeds)
    assert words.dtype == np.uint64 and words.shape == (len(seeds), 4)
    for row, rng, seed in zip(words, _generators(words), seeds):
        expected = np.random.SeedSequence(entropy=seed, spawn_key=(_CHANNEL_STREAM,)).generate_state(4, np.uint64)
        assert row.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == stream(seed).bit_generator.state


# ``main`` on ``argv[2:]`` in a fresh interpreter, after importing
# numpy.random if ``argv[1]`` is "preload": prints the exit code and which
# of numpy.random and OpenSSL's _hashlib (loaded through secrets) are loaded.
CLI_IMPORTS = """
import sys
if sys.argv[1] == "preload":
    import numpy.random
from airconsensus.cli import main
print(main(sys.argv[2:]), "numpy.random" in sys.modules, "_hashlib" in sys.modules)
"""


def cli_document(topology, mode=TIME_INVARIANT):
    """A superposition scenario on ``topology`` with an explicit initial state."""
    return {
        "topology": topology,
        "channel": {"law": {"kind": "uniform", "lo": 0.0, "hi": 10.0}, "mode": mode},
        "protocol": {"variant": "superposition", "mixing": 0.5},
        "initial_state": {"kind": "explicit", "values": [float(i % 5) for i in range(topology["n"])]},
        "seed": 4,
    }


def out_bytes(out):
    """Every file the CLI wrote to ``out``, in name order."""
    return [(out / name).read_bytes() for name in sorted(p.name for p in out.iterdir())]


@pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0", reason="numpy 1 imports numpy.random eagerly")
def test_importing_the_cli_leaves_numpy_random_unloaded(tmp_path):
    # numpy 2 loads numpy.random on first use; the seeding shim is built
    # with the first generator, so importing the CLI does not pay for the
    # import. A run that loads numpy.random loads it without OpenSSL, and
    # writes the same bytes as with a plain import.
    assert run_child("import sys, airconsensus.cli; print('numpy.random' in sys.modules)").stdout == "False\n"
    arcs = [[j, j % 6 + 1, 1.0] for j in range(1, 7)] + [[1, 4, 2.0], [5, 2, 0.5]]
    small = tmp_path / "small.json"
    small.write_text(json.dumps(cli_document({"kind": "custom", "n": 6, "arcs": arcs})))

    def cli(preload, *argv):
        out = tmp_path / f"out-{len(list(tmp_path.iterdir()))}"
        code, *loaded = run_child(CLI_IMPORTS, preload, *argv, "--quiet", "--out-dir", str(out)).stdout.split()
        return code, loaded, out_bytes(out)

    code, loaded, files = cli("none", "--config", str(small))
    assert (code, loaded) == ("0", ["True", "False"])
    assert cli("preload", "--config", str(small)) == ("0", ["True", "True"], files)
    assert cli("none", "--config", str(small), "--runs", "2")[1] == ["True", "False"]
    iid = tmp_path / "iid.json"
    iid.write_text(json.dumps(cli_document({"kind": "custom", "n": 6, "arcs": arcs}, IID_PER_STEP)))
    assert cli("none", "--config", str(iid))[1] == ["True", "False"]
    # Every preset draws a uniform initial state.
    assert cli("none", "--preset", "ti-sigma02")[1] == ["True", "False"]


# A ``--runs 2`` batch of ``argv[1:]`` in a fresh interpreter, then what a
# later caller sees: the standard ``secrets`` and unseeded numpy generators.
AFTER_A_BATCH = """
import sys
from airconsensus.cli import main
assert main([*sys.argv[1:], "--runs", "2", "--quiet"]) == 0
print("_hashlib" in sys.modules, "secrets" in sys.modules)
import secrets
import numpy as np
assert len(secrets.token_hex(4)) == 8 and secrets.randbits(8) < 256
assert 0.0 <= np.random.default_rng().random() < 1.0
assert np.random.SeedSequence().entropy.bit_length() > 64
print("token_hex" in vars(sys.modules["secrets"]))
"""


@pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0", reason="numpy 1 imports numpy.random eagerly")
def test_numpy_random_loader_leaves_the_standard_secrets(tmp_path):
    # The stand-in is gone once numpy.random is loaded: a later ``import
    # secrets`` gets the standard module, and unseeded generators still
    # draw OS entropy (128 bits).
    argv = ["--preset", "tv-sigma05", "--out-dir", str(tmp_path / "a")]
    assert run_child(AFTER_A_BATCH, *argv).stdout.split() == ["False", "False", "True"]
    # A loaded secrets is left in place, and while a second Python thread
    # runs, which could import secrets meanwhile, the import is plain too.
    for setup in ["import secrets", "threading.Thread(target=ready.wait).start()"]:
        code = f"""
import sys, threading
ready = threading.Event()
{setup}
from airconsensus.channel import _numpy_random
_numpy_random()
ready.set()
print("_hashlib" in sys.modules, "token_hex" in vars(sys.modules["secrets"]))
"""
        assert run_child(code).stdout.split() == ["True", "True"]


@pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0", reason="numpy 1 imports numpy.random eagerly")
def test_numpy_random_loader_falls_back_to_a_plain_import(tmp_path):
    # A numpy that reads a name the stand-in lacks fails under it: the
    # loader imports numpy.random plainly, with the standard secrets, and
    # the batch writes the same bytes.
    argv = ["--preset", "tv-sigma05", "--runs", "4", "--quiet"]
    child = """
import sys, types
from airconsensus import channel
channel._secrets_stand_in = lambda: types.ModuleType("secrets")
from airconsensus.cli import main
print(main(sys.argv[1:]), "_hashlib" in sys.modules, "token_hex" in vars(sys.modules["secrets"]))
"""
    plain = run_child(child, *argv, "--out-dir", str(tmp_path / "plain"))
    assert plain.stdout.split() == ["0", "True", "True"]
    stand_in = run_child(CLI_IMPORTS, "none", *argv, "--out-dir", str(tmp_path / "stand-in"))
    assert stand_in.stdout.split() == ["0", "True", "False"]
    assert out_bytes(tmp_path / "plain") == out_bytes(tmp_path / "stand-in")


STEPS = st.one_of(st.sampled_from([0, 1, 2, 2**32, 2**64 - 1]), st.integers(0, 40), st.integers(0, 2**64 - 1))
# Rows drawn at each step: all of them (None) or a subset in any order.
ROW_SUBSETS = st.one_of(st.none(), st.lists(st.integers(0, 5), unique=True))
# A sixth of its draws round to zero; the rest show the stream position.
SUBNORMAL = UniformLaw(0.0, 1.5e-323)


@settings(max_examples=150, deadline=None)
@example(
    seeds=[7, 2**64], steps=[3, 3, 1, 4], subsets=[None, [1], [0, 1], [1, 0]],
    mode=IID_PER_STEP, law=SUBNORMAL, topology=complete_graph(4),
)
@example(
    seeds=[7, 2**64], steps=[0, 5, 0], subsets=[None, [1], None],
    mode=TIME_INVARIANT, law=SUBNORMAL, topology=complete_graph(4),
)
@example(
    seeds=[2**64], steps=[0, 4, 0], subsets=[None, [0], None],
    mode=TIME_INVARIANT, law=SUBNORMAL, topology=complete_graph(4),
)
# No arcs: every draw is empty.
@example(
    seeds=[3], steps=[1, 0], subsets=[None, [0]],
    mode=IID_PER_STEP, law=UniformLaw(0.0, 10.0), topology=graph_from_arcs(3, []),
)
@given(
    seeds=st.lists(
        st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**64 - 1), st.integers(0, 2**200)),
        min_size=1,
        max_size=6,
    ),
    steps=st.lists(STEPS, min_size=1, max_size=6),
    subsets=st.lists(ROW_SUBSETS, min_size=6, max_size=6),
    mode=st.sampled_from(MODES),
    law=LAWS,
    topology=strongly_connected_digraphs(),
)
def test_channel_streams_match_sample(seeds, steps, subsets, mode, law, topology):
    # Sampling is a pure function of (seed, mode, k): each draw equals
    # ``sample`` whatever the block drew before, through repeated,
    # descending and skipped steps and changing row subsets, also after
    # a row redrew the zeros a subnormal width rounds to.
    model = ChannelModel(topology, law, mode, 5)
    streams = ChannelStreams(model, seeds)
    for k, subset in zip(steps, subsets):
        if subset is None:
            rows = slice(None)
        else:
            rows = np.array([row for row in subset if row < len(seeds)], dtype=np.intp)
        selected = np.arange(len(seeds))[rows].tolist()
        draws = streams.draw(k, rows)
        assert draws.shape == (len(selected), len(topology.arc_order))
        for out, i in zip(draws, selected):
            expected = sample(replace(model, seed=seeds[i]), k).values
            assert out.tobytes() == expected.tobytes()
            assert out.tobytes() == stream_draw(replace(model, seed=seeds[i]), k).tobytes()


def test_channel_streams_draw_selected_rows_and_redraw_zeros():
    # On (0, 5e-324] about half the draws round to exactly zero and are redrawn.
    model = ChannelModel(complete_graph(5), UniformLaw(0.0, 5e-324), IID_PER_STEP, 0)
    seeds = [derive_seed(9, i) for i in range(7)]
    rows = np.array([6, 2, 3])
    got = ChannelStreams(model, seeds).draw(3, rows)
    assert (got > 0.0).all()
    for out, row in zip(got, rows):
        assert out.tobytes() == sample(replace(model, seed=seeds[row]), 3).values.tobytes()
