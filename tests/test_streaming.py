"""The CLI's single run streams ``trace.csv`` a chunk of steps at a time and
keeps only running aggregates. Its outputs must equal, byte for byte,
those of the whole-trace path (``run``, then ``summarize_run`` and the
per-step reference writer), and its peak memory must not grow with the
step count."""

import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airconsensus import cli, protocol
from airconsensus.analysis import summarize_run
from airconsensus.channel import ChannelStreams
from airconsensus.config import PRESET_NAMES, parse_config, preset
from airconsensus.graph import step_size_bound
from airconsensus.protocol import record_run, run
from support import run_child, strongly_connected_digraphs, write_trace_per_step

UNIFORM = {"kind": "uniform", "lo": 0.0, "hi": 10.0}

# PR 10's diverging naive run: through 1e17, where %.17g turns to exponent
# notation, and on to inf.
DIVERGING_NAIVE = {
    "topology": {"kind": "complete", "n": 6},
    "channel": {"law": UNIFORM, "mode": "time-invariant"},
    "protocol": {"variant": "naive"},
    "initial_state": {"kind": "explicit", "values": [-3.0, -1.0, 0.0, 0.5, 2.0, 4.0]},
    "seed": 3,
    "run": {"max_steps": 500},
}

ONE_AGENT = {
    "topology": {"kind": "custom", "n": 1, "arcs": []},
    "channel": {"law": UNIFORM, "mode": "iid-per-step"},
    "protocol": {"variant": "naive"},
    "initial_state": {"kind": "explicit", "values": [0.25]},
    "seed": 1,
}


def whole_trace_outputs(doc, out):
    """``trace.csv`` and ``summary.json`` bytes of the whole-trace path."""
    cfg = parse_config(doc)
    trace = run(cfg.topology, cfg.channel, cfg.protocol, cfg.x0, tol=cfg.tol, max_steps=cfg.max_steps)
    predicted, rate_predicted = cli._predictions(cfg)
    summary = summarize_run(trace, predicted_value=predicted, rate_predicted=rate_predicted)
    write_trace_per_step(out / "reference.csv", trace)
    flat = cli._flatten({"config": cfg.resolved, "result": cli._summary_dict(summary, trace.reason)})
    return (out / "reference.csv").read_bytes(), ("".join(cli._flat_json(flat)) + "\n").encode()


def assert_streams_whole_trace_bytes(doc, out, chunk):
    path = out / "scenario.json"
    path.write_text(json.dumps(doc))
    with mock.patch.object(protocol, "CHUNK_VALUES", chunk):
        code = cli.main(["--config", str(path), "--out-dir", str(out / "cli"), "--quiet"])
    assert code in (cli.EXIT_OK, cli.EXIT_MAX_STEPS)
    trace, summary = whole_trace_outputs(doc, out)
    assert (out / "cli" / "trace.csv").read_bytes() == trace
    assert (out / "cli" / "summary.json").read_bytes() == summary


@st.composite
def scenarios(draw):
    """A small strongly connected graph under any variant and channel mode,
    run for few enough steps to span a handful of small chunks."""
    g = draw(strongly_connected_digraphs(max_n=6))
    doc = {
        "topology": {"kind": "custom", "n": g.n, "arcs": [[j, i, w] for (j, i), w in sorted(g.weights.items())]},
        "seed": draw(st.integers(0, 2**32)),
        "run": {"max_steps": draw(st.sampled_from([0, 1, 2, 7, 60, 400]))},
    }
    variant = draw(st.sampled_from(["superposition", "classical", "naive"]))
    if variant == "classical":
        doc["protocol"] = {"variant": variant, "step_size": draw(st.floats(0.05, 0.95)) * step_size_bound(g)}
    else:
        mode = draw(st.sampled_from(["time-invariant", "iid-per-step"]))
        doc["channel"] = {"law": UNIFORM, "mode": mode}
        doc["protocol"] = {"variant": variant}
        if variant == "superposition":
            doc["protocol"]["mixing"] = draw(st.floats(0.05, 0.95))
    return doc


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(doc=scenarios(), chunk=st.sampled_from([1, 5, 12, 64, protocol.CHUNK_VALUES]))
def test_streamed_outputs_match_whole_trace_outputs(doc, chunk):
    with tempfile.TemporaryDirectory() as out:
        assert_streams_whole_trace_bytes(doc, Path(out), chunk)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("doc", [DIVERGING_NAIVE, ONE_AGENT], ids=["diverging-naive", "one-agent"])
@pytest.mark.parametrize("chunk", [7, 40, protocol.CHUNK_VALUES])
def test_streamed_outputs_match_on_edge_runs(tmp_path, doc, chunk):
    assert_streams_whole_trace_bytes(doc, tmp_path, chunk)


@pytest.mark.parametrize("name", PRESET_NAMES)
@pytest.mark.parametrize("max_steps", [0, 1, None])
def test_streamed_outputs_match_on_presets(tmp_path, name, max_steps):
    doc = preset(name)
    if max_steps is not None:
        doc.setdefault("run", {})["max_steps"] = max_steps
    assert_streams_whole_trace_bytes(doc, tmp_path, 40)


def test_unwritable_summary_reported_with_path(tmp_path, capsys):
    (tmp_path / "summary.json").mkdir()  # a directory squatting on the summary filename
    code = cli.main(["--preset", "ti-sigma02", "--out-dir", str(tmp_path), "--quiet"])
    assert code == cli.EXIT_USAGE
    assert "cannot write" in capsys.readouterr().err


PEAK_CHILD = """
import sys
from airconsensus.cli import main
main(sys.argv[1:])
with open("/proc/self/status") as fh:
    print(next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")))
"""


def peak_rss_kb(tmp_path, max_steps):
    """High-water resident memory of one CLI run, in a fresh interpreter, on
    a 1000-node ring whose i.i.d. channel and mixing of 0.05 keep it
    running to ``max_steps``."""
    doc = {
        "topology": {"kind": "ring", "n": 1000},
        "channel": {"law": UNIFORM, "mode": "iid-per-step"},
        "protocol": {"variant": "superposition", "mixing": 0.05},
        "seed": 1,
        "run": {"max_steps": max_steps},
    }
    config = tmp_path / f"ring-{max_steps}.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / f"out-{max_steps}"
    child = run_child(PEAK_CHILD, "--config", str(config), "--out-dir", str(out), "--quiet")
    summary = json.loads((out / "summary.json").read_text())
    assert summary["result.steps"] == max_steps and not summary["result.converged"]
    (out / "trace.csv").unlink()
    return int(child.stdout)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status for VmHWM")
def test_single_run_peak_memory_does_not_grow_with_steps(tmp_path):
    # The whole history of 3000 steps would be 24 MB, and the parent of the
    # streaming writer peaked 43 MB higher at 3000 steps than at 300.
    short, long = peak_rss_kb(tmp_path, 300), peak_rss_kb(tmp_path, 3000)
    assert long - short <= 4 * 1024, (short, long)


# ``PEAK_CHILD`` after importing ``secrets`` (and with it OpenSSL's
# ``_hashlib``) if ``argv[1]`` is "preload".
PRELOADED_PEAK_CHILD = """
import sys
if sys.argv.pop(1) == "preload":
    import secrets
""" + PEAK_CHILD


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status for VmHWM")
def test_monte_carlo_peak_memory_leaves_out_openssl(tmp_path):
    # The batch loads numpy.random without secrets -> hmac -> _hashlib;
    # importing secrets first puts OpenSSL back, about 3.7 MB of peak.
    if run_child("import sys; print('_hashlib' in sys.modules)").stdout == "True\n":
        pytest.skip("the interpreter loads _hashlib at start-up")
    peaks = {}
    for preload in ("none", "preload"):
        argv = ["--preset", "tv-sigma05", "--runs", "2", "--quiet", "--out-dir", str(tmp_path / preload)]
        peaks[preload] = int(run_child(PRELOADED_PEAK_CHILD, preload, *argv).stdout)
    assert (tmp_path / "none" / "samples.csv").read_bytes() == (tmp_path / "preload" / "samples.csv").read_bytes()
    assert peaks["preload"] - peaks["none"] >= 2.5 * 1024, peaks


MODULES_CHILD = """
import sys
from airconsensus.cli import main
main(sys.argv[1:])
print(sorted(name for name in sys.modules if name.startswith("airconsensus")))
"""


def test_monte_carlo_never_imports_the_trace_formatter(tmp_path):
    # A Monte Carlo run writes no trace: its set-up time and memory do not
    # include the formatter's tables. A single run does import it.
    args = ("--preset", "tv-sigma05", "--out-dir", str(tmp_path), "--quiet")
    modules = run_child(MODULES_CHILD, *args, "--runs", "2")
    assert "airconsensus.cli" in modules.stdout and "airconsensus.textfmt" not in modules.stdout
    assert (tmp_path / "samples.csv").exists()
    modules = run_child(MODULES_CHILD, *args)
    assert "airconsensus.textfmt" in modules.stdout


def test_aggregates_match_the_whole_trace(monkeypatch):
    cfg = parse_config(preset("ti-sigma02"))
    args = (cfg.topology, cfg.channel, cfg.protocol, cfg.x0, cfg.tol, cfg.max_steps)
    states = run(*args).states
    monkeypatch.setattr(protocol, "CHUNK_VALUES", 12)
    handed = []
    aggregates = record_run(lambda chunk, first_step: handed.append((first_step, len(chunk))), *args)
    # Chunks of 12 // 5 = 2 whole steps, the last one maybe partial.
    assert [size for _, size in handed[:-1]] == [2] * (len(handed) - 1) and 1 <= handed[-1][1] <= 2
    assert [step for first, size in handed for step in range(first, first + size)] == list(range(len(states)))
    assert aggregates.steps == len(states) - 1 and aggregates.reason == protocol.CONVERGED
    assert np.array_equal(aggregates.initial, states[0])
    assert np.array_equal(aggregates.final, states[-1])
    assert np.array_equal(aggregates.spreads(), states.max(axis=1) - states.min(axis=1))
    assert aggregates.hull() == (states.min(), states.max())
    assert summarize_run(aggregates) == summarize_run(protocol.Trace(states=states, reason=aggregates.reason))


def advanced_states(cfg):
    """Every state of a run as a per-step ``record`` callback of ``advance``
    collects it, with no chunk buffer in between."""
    states = [np.array(cfg.x0, dtype=float)]
    channel = cfg.channel
    protocol.advance(
        cfg.protocol.update(cfg.topology),
        states[0][None],
        None if channel is None else ChannelStreams(channel, [channel.seed]),
        cfg.tol,
        cfg.max_steps,
        lambda block: states.append(block[0].copy()),
    )
    return np.stack(states)


def three_agent_scenario(variant, mode, max_steps):
    doc = {"topology": {"kind": "complete", "n": 3}, "seed": 11, "run": {"max_steps": max_steps}}
    doc["protocol"] = {"variant": variant}
    if variant == "classical":
        doc["protocol"]["step_size"] = 0.2
    else:
        doc["channel"] = {"law": UNIFORM, "mode": mode}
        if variant == "superposition":
            doc["protocol"]["mixing"] = 0.3
    return parse_config(doc)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("chunk", [1, 5, 12, protocol.CHUNK_VALUES])
@pytest.mark.parametrize("max_steps", [0, 7, 300])
@pytest.mark.parametrize(
    "variant, mode",
    [
        ("superposition", "time-invariant"),
        ("superposition", "iid-per-step"),
        ("naive", "time-invariant"),
        ("naive", "iid-per-step"),
        ("classical", None),
    ],
)
def test_run_states_match_a_per_step_record_of_advance(monkeypatch, variant, mode, max_steps, chunk):
    cfg = three_agent_scenario(variant, mode, max_steps)
    expected = advanced_states(cfg)
    if (chunk, max_steps) == (12, 7):
        # 8 states in chunks of 12 // 3 = 4: the last chunk is full.
        assert len(expected) == 8
    monkeypatch.setattr(protocol, "CHUNK_VALUES", chunk)
    trace = run(cfg.topology, cfg.channel, cfg.protocol, cfg.x0, tol=cfg.tol, max_steps=cfg.max_steps)
    assert trace.states.shape == expected.shape and trace.states.tobytes() == expected.tobytes()
