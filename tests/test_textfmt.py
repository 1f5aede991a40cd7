"""The numpy ``%.17g`` formatter and the ``trace.csv`` writer built on it,
checked byte for byte against Python's own formatting."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airconsensus import protocol, textfmt
from airconsensus.cli import main
from airconsensus.config import PRESET_NAMES, parse_config, preset
from airconsensus.protocol import CONVERGED, Trace, run
from support import strict_json, write_trace_chunked, write_trace_per_step


def formatted(values):
    """The text of each value in the rows of a one-step trace."""
    values = np.asarray(values, dtype=np.float64)
    rows = textfmt.TraceRows(len(values))(values[None], 0).decode().splitlines()
    assert [row.split(",")[:2] for row in rows] == [["0", str(agent)] for agent in range(1, len(values) + 1)]
    return [row.split(",")[2] for row in rows]


def python_g17(values):
    return ["%.17g" % v for v in np.asarray(values, dtype=np.float64).tolist()]


def ties(rng, size):
    """Values whose exact decimal expansion has 18 significant digits, the
    last a 5: ``k / 2**(17 - E)`` with ``k`` odd, for every fixed-notation
    exponent ``E``. Each is a tie at the 17th digit."""
    values = []
    for exp in range(-4, 16):
        j = 17 - exp
        lo, hi = int(np.ceil(10.0**exp * 2**j)), min(int(10.0 ** (exp + 1) * 2**j), 2**53)
        k = rng.integers(lo // 2, hi // 2, size) * 2 + 1
        values.append(k / 2.0**j)
    return np.concatenate(values)


POWERS = 10.0 ** np.arange(-6, 19)

EDGES = [
    # Ties at the 17th digit, rounded half to even.
    1234567890123456.25,
    1234567890123456.75,
    123456789012345.125,
    123456789012345.375,
    # Either side of the fixed-notation range.
    1e-4,
    np.nextafter(1e-4, 0),
    9.9999999999999995e-5,
    1e-5,
    np.nextafter(1e-5, 0),
    np.nextafter(1e-5, 1),
    1e16,
    np.nextafter(1e16, 0),
    99999999999999984.0,
    9.9999999999999999e16,
    1e17,
    # Integers and short fractions lose their point and trailing zeros.
    1.0,
    100.0,
    100.5,
    0.1,
    2.0**53,
    2.0**53 + 2,
    # Everything Python formats.
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.2250738585072014e-308,
    1.7976931348623157e308,
    -1.7976931348623157e308,
    np.inf,
    -np.inf,
    np.nan,
    -np.nan,
]


def test_edge_values_together_and_alone():
    assert formatted(EDGES) == python_g17(EDGES)
    for value in EDGES:
        assert formatted([value]) == python_g17([value]), value
        assert formatted([-value]) == python_g17([-value]), -value


def test_neighbours_of_powers_of_ten():
    values = np.concatenate([np.nextafter(POWERS, 0), POWERS, np.nextafter(POWERS, np.inf)])
    values = np.concatenate([values, -values])
    assert formatted(values) == python_g17(values)


def test_ties_round_half_to_even():
    values = ties(np.random.default_rng(11), 500)
    assert formatted(values) == python_g17(values)
    assert formatted(-values) == python_g17(-values)


def test_bulk_random_values_every_magnitude():
    rng = np.random.default_rng(12)
    values = np.concatenate(
        [
            rng.random(20000) * 2 * np.pi,
            10 ** rng.uniform(-7, 19, 40000) * rng.choice([-1.0, 1.0], 40000),
            rng.integers(0, 2**63, 20000).astype(np.float64),
            rng.integers(1, 2**20, 20000) / 2.0 ** rng.integers(0, 60, 20000),
            rng.integers(0, 2**64, 40000, dtype=np.uint64).view(np.float64),
        ]
    )
    assert formatted(values) == python_g17(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_matches_python_on_any_float(values):
    assert formatted(values) == python_g17(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_matches_python_on_any_bit_pattern(words):
    values = np.array(words, dtype=np.uint64).view(np.float64)
    assert formatted(values) == python_g17(values)


def assert_writes_reference_bytes(tmp_path, trace):
    write_trace_chunked(tmp_path / "trace.csv", trace)
    write_trace_per_step(tmp_path / "reference.csv", trace)
    assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def scenario_trace(doc):
    cfg = parse_config(doc)
    return run(cfg.topology, cfg.channel, cfg.protocol, cfg.x0, tol=cfg.tol, max_steps=cfg.max_steps)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_writer_matches_reference_on_presets(tmp_path, name):
    assert_writes_reference_bytes(tmp_path, scenario_trace(preset(name)))


@pytest.mark.parametrize("chunk", [12, 40, 1000])
def test_writer_matches_reference_when_steps_do_not_fill_the_last_chunk(tmp_path, monkeypatch, chunk):
    # 4 agents: chunks of 3, 10 and 250 steps for 121 steps, the step labels
    # growing from one digit to three inside a chunk.
    monkeypatch.setattr(protocol, "CHUNK_VALUES", chunk)
    states = np.random.default_rng(13).normal(0.0, 10.0, (121, 4))
    states[::7, 1] = 0.0
    assert len(states) % (chunk // 4)
    assert_writes_reference_bytes(tmp_path, Trace(states=states, reason=CONVERGED))


def test_writer_matches_reference_with_one_agent(tmp_path):
    states = np.random.default_rng(14).uniform(-1.0, 1.0, (37, 1))
    assert_writes_reference_bytes(tmp_path, Trace(states=states, reason=CONVERGED))


def test_writer_matches_reference_with_steps_wider_than_a_chunk(tmp_path):
    n = protocol.CHUNK_VALUES + 808
    states = np.random.default_rng(15).uniform(0.0, 2 * np.pi, (3, n))
    states[1, ::97] = ties(np.random.default_rng(16), 5)[: len(states[1, ::97])]
    assert_writes_reference_bytes(tmp_path, Trace(states=states, reason=CONVERGED))


# The naive update is not stochastic: the states grow through 1e17, where
# %.17g turns to exponent notation, and overflow to inf.
DIVERGING_NAIVE = {
    "topology": {"kind": "complete", "n": 6},
    "channel": {"law": {"kind": "uniform", "lo": 0.0, "hi": 10.0}, "mode": "time-invariant"},
    "protocol": {"variant": "naive"},
    "initial_state": {"kind": "explicit", "values": [-3.0, -1.0, 0.0, 0.5, 2.0, 4.0]},
    "seed": 3,
    "run": {"max_steps": 500},
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_writer_matches_reference_on_a_diverging_naive_run(tmp_path):
    trace = scenario_trace(DIVERGING_NAIVE)
    assert np.isinf(trace.states[-1]).all() and (np.abs(trace.states) >= 1e17).mean() > 0.5
    assert_writes_reference_bytes(tmp_path, trace)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_naive_run_writes_strict_json(tmp_path):
    config = tmp_path / "diverging.json"
    config.write_text(json.dumps(DIVERGING_NAIVE))
    assert main(["--config", str(config), "--out-dir", str(tmp_path / "out"), "--quiet"]) == 2
    summary = strict_json((tmp_path / "out" / "summary.json").read_text())
    assert summary["result.consensus_value"] is None and summary["result.spread_final"] is None
