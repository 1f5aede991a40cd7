import contextlib
import csv
import io
import json
import math
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airconsensus import analysis, cli, config, linalg, protocol
from airconsensus.channel import LAWS, ChannelRealization
from airconsensus.cli import INTERNAL_ERROR, MAX_RUNS, main
from airconsensus.config import MAX_ARCS, ConfigError, PRESET_NAMES, override_seed, parse_config, preset
from airconsensus.protocol import CONVERGED, ProtocolConfig, Trace, run
from airconsensus.records import replace
from support import (
    child_seed,
    reference_graph,
    ring_with_chords,
    run_child,
    stream_draw,
    strict_json,
    write_trace_chunked,
)


def minimal_doc(**overrides):
    """A valid superposition scenario; an override replaces a section and
    ``None`` removes it."""
    doc = {
        "topology": {"kind": "complete", "n": 5},
        "channel": {"law": {"kind": "uniform", "lo": 0.0, "hi": 10.0}, "mode": "iid-per-step"},
        "protocol": {"variant": "superposition", "mixing": 0.5},
        "seed": 42,
    }
    doc.update(overrides)
    return {key: value for key, value in doc.items() if value is not None}


# Numbers beyond float range, written into the JSON text literally: "X"
# becomes 1e400 (read as inf) and "N" a 401-digit integer.
NON_FINITE_PROBES = {
    "initial_state": (
        {"initial_state": {"kind": "explicit", "values": [0.5, "X", 1.0, 2.0, 3.0]}},
        "initial_state.values: every value must be finite",
    ),
    "tol": ({"run": {"tol": "X"}}, "run.tol: must be a positive finite number"),
    "arc weight": (
        {"topology": {"kind": "custom", "n": 3, "arcs": [[1, 2, "X"], [2, 3, 1.0], [3, 1, 1.0]]}},
        "topology: arc (1, 2) must have a finite weight",
    ),
    "initial_state width": (
        {"initial_state": {"kind": "uniform", "lo": -1.0, "hi": "X", "seed": 3}},
        "initial_state: needs a finite width",
    ),
    "integer tol": ({"run": {"tol": "N"}}, "run.tol: must be a positive finite number"),
    "integer mixing": (
        {"protocol": {"variant": "superposition", "mixing": "N"}},
        "protocol.mixing: must lie in the open interval (0, 1)",
    ),
    "integer step size": (
        {"protocol": {"variant": "classical", "step_size": "N"}, "channel": None},
        "protocol.step_size: required finite number",
    ),
}


_CUSTOM3 = {"kind": "custom", "n": 3, "arcs": [[1, 2, 1.0], [2, 3, 1.0], [3, 1, 1.0]]}

# JSON values of the wrong type where a number or an integer belongs: each
# used to be coerced (int() truncation, float() of a string, bools as 0/1).
MISTYPED_PROBES = {
    "fractional node id": (
        {"topology": {**_CUSTOM3, "arcs": [[1.9, 2, 1.0], [2, 3, 1.0], [3, 1, 1.0]]}},
        "topology: topology.arcs node ids must be integers",
    ),
    "string arc weight": (
        {"topology": {**_CUSTOM3, "arcs": [[1, 2, 1.0], [2, 3, "1"], [3, 1, 1.0]]}},
        "topology: arc (2, 3) weight must be a number",
    ),
    "bool arc weight": (
        {"topology": {**_CUSTOM3, "arcs": [[1, 2, 1.0], [2, 3, 1.0], [3, 1, True]]}},
        "topology: arc (3, 1) weight must be a number",
    ),
    "bool node count": ({"topology": {**_CUSTOM3, "n": True}}, "topology: topology.n must be an integer"),
    "string ring weight": (
        {"topology": {"kind": "ring", "n": 5, "weight": "2"}},
        "topology: topology.weight must be a number",
    ),
    "string law bounds": (
        {"channel": {"law": {"kind": "uniform", "lo": "0", "hi": "10"}, "mode": "iid-per-step"}},
        "channel.law: lo must be a number",
    ),
    "bool constant law": (
        {"channel": {"law": {"kind": "constant", "value": True}, "mode": "iid-per-step"}},
        "channel.law: value must be a number",
    ),
    "bool initial bound": (
        {"initial_state": {"kind": "uniform", "lo": 0.0, "hi": True, "seed": 3}},
        "initial_state: hi must be a number",
    ),
    "bool initial value": (
        {"initial_state": {"kind": "explicit", "values": [0.5, True, 1.0, 2.0, 3.0]}},
        "initial_state.values: must be a list of numbers",
    ),
    "bool tol": ({"run": {"tol": True}}, "run.tol: must be a positive finite number"),
    "bool max_steps": ({"run": {"max_steps": True}}, "run.max_steps: must be a nonnegative integer"),
    "bool seed": (
        {
            "seed": True,
            "channel": {"law": {"kind": "uniform", "lo": 0.0, "hi": 10.0}, "mode": "iid-per-step", "seed": 1},
            "initial_state": {"kind": "uniform", "lo": 0.0, "hi": 1.0, "seed": 2},
        },
        "seed: must be a nonnegative integer",
    ),
    "bool channel seed": (
        {"channel": {"law": {"kind": "uniform", "lo": 0.0, "hi": 10.0}, "mode": "iid-per-step", "seed": True}},
        "channel.seed: must be a nonnegative integer",
    ),
    "bool state seed": (
        {"initial_state": {"kind": "uniform", "lo": 0.0, "hi": 1.0, "seed": False}},
        "initial_state.seed: must be a nonnegative integer",
    ),
    "bool step size": (
        {
            "topology": {"kind": "ring", "n": 5, "weight": 0.1},
            "protocol": {"variant": "classical", "step_size": True},
            "channel": None,
        },
        "protocol.step_size: required finite number",
    ),
    "bool mixing entry": (
        {"protocol": {"variant": "superposition", "mixing": [0.5, True, 0.5, 0.5, 0.5]}},
        "protocol.mixing: required number (or per-agent list)",
    ),
}


_U010_IID = {"law": {"kind": "uniform", "lo": 0.0, "hi": 10.0}, "mode": "iid-per-step"}

# A key of another kind of the same section: the keys a section takes may
# depend on its kind.
OTHER_KIND_KEY_PROBES = {
    "complete topology": ({"topology": {"kind": "complete", "n": 5, "arcs": []}}, "topology: unknown key 'arcs'"),
    "uniform initial state": (
        {"initial_state": {"kind": "uniform", "values": [0.0, 1.0, 2.0, 3.0, 4.0]}},
        "initial_state: unknown key 'values'",
    ),
    "explicit initial state": (
        {"initial_state": {"kind": "explicit", "values": [0.0, 1.0, 2.0, 3.0, 4.0], "seed": 1}},
        "initial_state: unknown key 'seed'",
    ),
}


def probe_text(overrides):
    return json.dumps(minimal_doc(**overrides)).replace('"X"', "1e400").replace('"N"', "1" + "0" * 400)


class TestParseConfig:
    def test_minimal_config_resolves_defaults(self):
        cfg = parse_config(minimal_doc())
        assert cfg.tol == 1e-9
        assert cfg.max_steps == 10_000
        assert cfg.resolved["run"] == {"tol": 1e-9, "max_steps": 10_000}
        assert cfg.resolved["initial_state"]["kind"] == "uniform"
        assert cfg.resolved["initial_state"]["hi"] == math.tau
        # derived seeds are echoed explicitly
        assert isinstance(cfg.resolved["channel"]["seed"], int)
        assert isinstance(cfg.resolved["initial_state"]["seed"], int)
        assert cfg.x0.shape == (5,)

    @pytest.mark.parametrize("source", [*PRESET_NAMES, "minimal", "classical", "naive", "per-agent-mixing"])
    def test_resolved_echo_reparses_to_same_scenario(self, source):
        # The echo writes null for the parameter a variant does not take.
        docs = {
            "minimal": minimal_doc(),
            "classical": minimal_doc(channel=None, protocol={"variant": "classical", "step_size": 0.1}),
            "naive": minimal_doc(protocol={"variant": "naive"}),
            "per-agent-mixing": minimal_doc(protocol={"variant": "superposition", "mixing": [0.1, 0.3, 0.5, 0.7, 0.9]}),
        }
        cfg = parse_config(docs[source] if source in docs else preset(source))
        again = parse_config(cfg.resolved)
        np.testing.assert_array_equal(cfg.x0, again.x0)
        assert (again.channel and again.channel.seed) == (cfg.channel and cfg.channel.seed)
        assert again.protocol == cfg.protocol
        assert again.resolved == cfg.resolved

    @pytest.mark.parametrize("variant", [["superposition"], {"variant": "naive"}, 3, True, None])
    def test_a_variant_that_is_no_string_is_one_problem(self, tmp_path, capsys, variant):
        doc = minimal_doc(protocol={"variant": variant, "mixing": 0.5})
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        assert len(info.value.problems) == 1 and info.value.problems[0].startswith("protocol.variant: ")
        path = tmp_path / "variant.json"
        path.write_text(json.dumps(doc))
        assert main(["--config", str(path), "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "protocol.variant: " in err and INTERNAL_ERROR not in err

    @pytest.mark.parametrize(
        "doc",
        ["{}", json.dumps(minimal_doc()), [["seed", 1]], [1, 2], None, 7],
        ids=["empty-object-text", "scenario-text", "pairs", "array", "null", "number"],
    )
    def test_only_a_mapping_is_a_document(self, doc):
        # JSON text is decoded by the caller (the CLI), never here.
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        assert info.value.problems == ("top-level document must be a JSON object",)

    def test_seed_override_drops_the_section_seeds(self):
        doc = minimal_doc(initial_state={"kind": "uniform", "lo": 0.0, "hi": 1.0, "seed": 5})
        doc["channel"]["seed"] = 6
        override_seed(doc, 9)
        assert doc["seed"] == 9 and "seed" not in doc["channel"] and "seed" not in doc["initial_state"]
        derived = parse_config(doc).resolved
        assert derived["channel"]["seed"] == child_seed(9, 1)
        assert derived["initial_state"]["seed"] == child_seed(9, 2)

    @pytest.mark.parametrize("outputs", [{"trace": "out.csv", "samples": "out.csv"}, {"trace": "..a", "summary": "s"}])
    def test_output_names_accepted(self, outputs):
        # No run writes both the trace and the samples: they may share a name.
        cfg = parse_config(minimal_doc(outputs=outputs))
        defaults = {"trace": "trace.csv", "summary": "summary.json", "samples": "samples.csv"}
        assert cfg.resolved["outputs"] == {**defaults, **outputs}

    @pytest.mark.parametrize(
        "outputs, problems",
        [
            ({"trace": "", "summary": ".", "samples": ".."}, ["trace", "summary", "samples"]),
            ({"trace": "a/b.csv", "samples": "x\0y"}, ["trace", "samples"]),
            ({"summary": "trace.csv"}, ["summary-collision"]),
            ({"summary": "m.csv", "samples": "m.csv", "trace": 3}, ["trace", "summary-collision"]),
        ],
    )
    def test_output_names_checked(self, outputs, problems):
        with pytest.raises(ConfigError) as info:
            parse_config(minimal_doc(outputs=outputs))
        expected = [
            f"outputs.summary: must differ from the trace and samples names, got {outputs['summary']!r}"
            if key == "summary-collision"
            else f"outputs.{key}: must be a non-empty filename"
            for key in problems
        ]
        assert list(info.value.problems) == expected

    def test_mixing_above_one_rejected_naming_constraint(self):
        doc = minimal_doc()
        doc["protocol"]["mixing"] = 1.2
        with pytest.raises(ConfigError, match=r"open interval \(0, 1\)"):
            parse_config(doc)

    def test_chain_topology_rejected_for_superposition(self):
        doc = minimal_doc(
            topology={"kind": "custom", "n": 3, "arcs": [[1, 2, 1.0], [2, 3, 1.0]]}
        )
        with pytest.raises(ConfigError, match="strongly connected"):
            parse_config(doc)

    def test_chain_topology_problems_reported_beside_invalid_mixing(self):
        doc = minimal_doc(
            topology={"kind": "custom", "n": 3, "arcs": [[1, 2, 1.0], [2, 3, 1.0]]},
            protocol={"variant": "superposition", "mixing": 7},
        )
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        assert info.value.problems == (
            "protocol.mixing: must lie in the open interval (0, 1), got 7",
            "topology: must be strongly connected for the superposition variant",
            "topology: every node needs an in-neighbor for the superposition variant",
        )

    def test_one_node_rejected_for_superposition_with_other_problems(self):
        # Strongly connected, but its one node hears nobody: no received ratio.
        doc = minimal_doc(topology={"kind": "custom", "n": 1, "arcs": []}, run={"tol": -1.0})
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        assert len(info.value.problems) == 2
        assert "topology: every node needs an in-neighbor for the superposition variant" in info.value.problems

    def test_classical_step_size_bound_named(self):
        doc = minimal_doc()
        doc["protocol"] = {"variant": "classical", "step_size": 0.9}
        del doc["channel"]
        # complete n=5 with unit weights: in-weight sum 4, bound 0.25
        with pytest.raises(ConfigError, match=r"\(0, 0.25\)"):
            parse_config(doc)

    @pytest.mark.parametrize(
        "step_size, problem",
        [
            (0.9, "protocol.step_size: must lie in (0, 0.25) for this topology, got 0.9"),
            (None, "protocol.step_size: required finite number for the classical variant"),
        ],
        ids=["beyond-bound", "missing"],
    )
    def test_every_protocol_problem_reported_together(self, step_size, problem):
        doc = minimal_doc(channel=None, protocol={"variant": "classical", "mixing": 0.5, "step_size": step_size})
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        assert info.value.problems == ("protocol.mixing: the classical variant takes no mixing", problem)

    def test_classical_rejects_channel_section(self):
        doc = minimal_doc()
        doc["protocol"] = {"variant": "classical", "step_size": 0.1}
        with pytest.raises(ConfigError, match="does not use a channel"):
            parse_config(doc)

    @pytest.mark.parametrize("step_size", [1.5, None], ids=["invalid", "missing"])
    def test_classical_step_size_problem_reported_alone(self, tmp_path, capsys, step_size):
        # A classical scenario takes no channel section, even when its step
        # size is invalid or missing.
        doc = {"topology": {"kind": "ring", "n": 4}, "protocol": {"variant": "classical"}, "seed": 1}
        if step_size is not None:
            doc["protocol"]["step_size"] = step_size
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        assert len(info.value.problems) == 1
        assert info.value.problems[0].startswith("protocol.step_size: ")
        path = tmp_path / "classical.json"
        path.write_text(json.dumps(doc))
        assert main(["--config", str(path), "--out-dir", str(tmp_path)]) == 1
        assert "channel" not in capsys.readouterr().err

    def test_problems_are_aggregated(self):
        doc = minimal_doc()
        doc["protocol"]["mixing"] = 2.0
        doc["run"] = {"tol": -1.0}
        doc["bogus"] = {}
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        text = str(info.value)
        assert "mixing" in text and "run.tol" in text and "bogus" in text

    @pytest.mark.parametrize("probe", sorted(OTHER_KIND_KEY_PROBES))
    def test_a_key_of_another_kind_reported(self, probe):
        overrides, message = OTHER_KIND_KEY_PROBES[probe]
        with pytest.raises(ConfigError) as err:
            parse_config(minimal_doc(**overrides))
        assert err.value.problems == (message,)

    def test_every_unknown_key_reported_together(self):
        # Each used to be ignored: run.max_step ran the default 10,000 steps.
        doc = minimal_doc(
            topology={**_CUSTOM3, "weight": 2.0},
            channel={**_U010_IID, "sed": 3, "law": {"kind": "uniform", "lo": 0.0, "hi": 10.0, "value": 1.0}},
            protocol={"variant": "superposition", "mixing": 0.5, "mixng": 0.2},
            initial_state={"kind": "explicit", "values": [0.0, 1.0, 2.0], "low": 0.0},
            run={"max_step": 3},
            outputs={"traces": "t.csv"},
        )
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert err.value.problems == (
            "topology: unknown key 'weight'",
            "protocol: unknown key 'mixng'",
            "channel: unknown key 'sed'",
            "channel.law: unknown key 'value'",
            "initial_state: unknown key 'low'",
            "run: unknown key 'max_step'",
            "outputs: unknown key 'traces'",
        )

    @pytest.mark.parametrize("kind", sorted(LAWS))
    def test_a_law_document_takes_exactly_its_fields(self, kind):
        fields = LAWS[kind]._fields
        values = [float(i + 1) for i in range(len(fields))]
        law = {"kind": kind, **dict(zip(fields, values))}
        cfg = parse_config(minimal_doc(channel={**_U010_IID, "law": law}))
        assert cfg.channel.law == LAWS[kind](*values)
        assert cfg.resolved["channel"]["law"] == law
        for field in fields:
            short = {key: value for key, value in law.items() if key != field}
            with pytest.raises(ConfigError) as err:
                parse_config(minimal_doc(channel={**_U010_IID, "law": short}))
            assert err.value.problems == (f"channel.law: {kind} law needs {field!r}",)
        with pytest.raises(ConfigError) as err:
            parse_config(minimal_doc(channel={**_U010_IID, "law": {**law, "extra": 1.0}}))
        assert err.value.problems == ("channel.law: unknown key 'extra'",)

    def test_missing_seed_reported(self):
        doc = minimal_doc()
        del doc["seed"]
        with pytest.raises(ConfigError, match="seed"):
            parse_config(doc)

    def test_explicit_initial_state(self):
        doc = minimal_doc(
            initial_state={"kind": "explicit", "values": [1.0, 2.0, 3.0, 4.0, 5.0]}
        )
        cfg = parse_config(doc)
        np.testing.assert_array_equal(cfg.x0, [1, 2, 3, 4, 5])

    def test_explicit_initial_state_length_checked(self):
        doc = minimal_doc(initial_state={"kind": "explicit", "values": [1.0, 2.0]})
        with pytest.raises(ConfigError, match="length 5"):
            parse_config(doc)

    def test_naive_takes_no_parameters(self):
        doc = minimal_doc()
        doc["protocol"] = {"variant": "naive", "mixing": 0.5}
        with pytest.raises(ConfigError, match="naive variant takes no"):
            parse_config(doc)

    @pytest.mark.parametrize(
        "law, fragment",
        [
            ({"kind": "uniform", "lo": 0.0, "hi": 1e400}, "finite bounds"),
            ({"kind": "uniform", "lo": 0.0, "hi": float("inf")}, "finite bounds"),
            ({"kind": "uniform", "lo": 0.0, "hi": float("nan")}, "lo < hi"),
            ({"kind": "constant", "value": float("inf")}, "positive and finite"),
            ({"kind": "constant", "value": float("nan")}, "positive and finite"),
        ],
    )
    def test_non_finite_law_reported_with_other_problems(self, law, fragment):
        doc = minimal_doc()
        doc["channel"]["law"] = law
        doc["protocol"]["mixing"] = 7
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert len(err.value.problems) == 2
        assert any(p.startswith("channel.law:") and fragment in p for p in err.value.problems)

    @pytest.mark.parametrize("probe", sorted(NON_FINITE_PROBES))
    def test_non_finite_number_reported_with_other_problems(self, probe):
        overrides, message = NON_FINITE_PROBES[probe]
        doc = json.loads(probe_text(overrides))
        doc["bogus"] = {}
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert len(err.value.problems) == 2
        assert any(p.startswith(message) for p in err.value.problems)

    @pytest.mark.parametrize("probe", sorted(MISTYPED_PROBES))
    def test_mistyped_number_reported_with_other_problems(self, probe):
        overrides, message = MISTYPED_PROBES[probe]
        doc = minimal_doc(**overrides)
        doc["bogus"] = {}
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert len(err.value.problems) == 2
        assert any(p.startswith(message) for p in err.value.problems)

    def test_mapping_left_unchanged_and_unshared(self):
        doc = minimal_doc(
            topology={"kind": "custom", "n": 3, "arcs": [[1, 2, 1.0], [2, 3, 1.0], [3, 1, 1.0]]},
            protocol={"variant": "superposition", "mixing": [0.2, 0.5, 0.7]},
            initial_state={"kind": "explicit", "values": [0.0, 1.0, 2.0]},
            run={"tol": 1e-9, "max_steps": 50},
            outputs={"trace": "t.csv"},
        )
        before = json.loads(json.dumps(doc))
        cfg = parse_config(doc)
        assert doc == before

        def containers(tree):
            if isinstance(tree, dict):
                yield tree
                for value in tree.values():
                    yield from containers(value)
            elif isinstance(tree, list):
                yield tree
                for value in tree:
                    yield from containers(value)

        shared = {id(c) for c in containers(doc)} & {id(c) for c in containers(cfg.resolved)}
        assert not shared

    def test_presets_all_parse(self):
        for name in PRESET_NAMES:
            cfg = parse_config(preset(name))
            assert cfg.topology.n in (5, 30)

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset("nope")


class TestCli:
    def test_preset_run_writes_files_and_exits_zero(self, tmp_path, capsys):
        code = main(["--preset", "ti-sigma02", "--out-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "converged" in out
        trace = (tmp_path / "trace.csv").read_text().splitlines()
        assert trace[0] == "step,agent,x"
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["result.converged"] is True
        assert summary["config.protocol.mixing"] == 0.2
        assert abs(
            summary["result.consensus_value"] - summary["result.predicted_value"]
        ) <= 1e-6
        # one row per agent per recorded step
        assert len(trace) == 1 + 5 * (summary["result.steps"] + 1)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["--preset", "tv-sigma05", "--out-dir", str(a), "--quiet"]) == 0
        assert main(["--preset", "tv-sigma05", "--out-dir", str(b), "--quiet"]) == 0
        assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()

    def test_seed_override_changes_result(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["--preset", "tv-sigma05", "--out-dir", str(a), "--quiet", "--seed", "1"])
        main(["--preset", "tv-sigma05", "--out-dir", str(b), "--quiet", "--seed", "2"])
        sa = json.loads((a / "summary.json").read_text())
        sb = json.loads((b / "summary.json").read_text())
        assert sa["config.channel.seed"] != sb["config.channel.seed"]
        assert sa["result.consensus_value"] != sb["result.consensus_value"]

    def test_config_file_run(self, tmp_path):
        doc = minimal_doc()
        doc["run"] = {"max_steps": 3}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        code = main(["--config", str(path), "--out-dir", str(tmp_path), "--quiet"])
        assert code == 2  # not converged in 3 steps
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["result.reason"] == "max-steps"

    def test_summary_writes_the_runs_own_reason(self, tmp_path, monkeypatch):
        # A reason other than converged or max-steps reaches the summary as
        # the run set it, not as one worked out again from convergence.
        record_run = cli.record_run

        def third_reason(*args, **kwargs):
            aggregates = record_run(*args, **kwargs)
            aggregates.reason = "diverged"
            return aggregates

        monkeypatch.setattr(cli, "record_run", third_reason)
        assert main(["--preset", "ti-sigma02", "--out-dir", str(tmp_path), "--quiet"]) == 2
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["result.reason"] == "diverged"
        assert summary["result.converged"] is False

    def test_invalid_config_exits_one(self, tmp_path, capsys):
        doc = minimal_doc()
        doc["protocol"]["mixing"] = 7
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["--config", str(path), "--out-dir", str(tmp_path)]) == 1
        assert "open interval (0, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("runs", [[], ["--runs", "2"]], ids=["single", "montecarlo"])
    def test_one_node_superposition_exits_one_writing_nothing(self, tmp_path, capsys, runs):
        doc = minimal_doc(topology={"kind": "custom", "n": 1, "arcs": []})
        doc["channel"]["mode"] = "time-invariant"  # summed before the first step
        path = tmp_path / "one-node.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        out.mkdir()
        assert main(["--config", str(path), "--out-dir", str(out), *runs]) == 1
        err = capsys.readouterr().err
        assert "invalid scenario config" in err and "every node needs an in-neighbor" in err
        assert not any(out.iterdir())

    def test_overflowing_law_bound_exits_one_in_montecarlo(self, tmp_path, capsys):
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(minimal_doc()).replace('"hi": 10.0', '"hi": 1e400'))
        assert main(["--config", str(path), "--runs", "2", "--out-dir", str(tmp_path)]) == 1
        assert "channel.law: uniform law needs finite bounds" in capsys.readouterr().err
        assert not (tmp_path / "samples.csv").exists()

    @pytest.mark.parametrize("probe", sorted(NON_FINITE_PROBES))
    def test_non_finite_number_exits_one(self, tmp_path, capsys, probe):
        overrides, message = NON_FINITE_PROBES[probe]
        path = tmp_path / "probe.json"
        path.write_text(probe_text(overrides))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--config", str(path), "--out-dir", str(tmp_path)]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()

    @pytest.mark.parametrize("probe", sorted(MISTYPED_PROBES))
    def test_mistyped_number_exits_one(self, tmp_path, capsys, probe):
        overrides, message = MISTYPED_PROBES[probe]
        path = tmp_path / "probe.json"
        path.write_text(json.dumps(minimal_doc(**overrides)))
        assert main(["--config", str(path), "--out-dir", str(tmp_path)]) == 1
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["probe.json"]

    def test_parse_error_reports_position(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["--config", str(path), "--out-dir", str(tmp_path / "out")]) == 1
        assert "line 1 column" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "nope.json")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_requires_exactly_one_source(self, capsys):
        assert main([]) == 1
        assert "exactly one" in capsys.readouterr().err

    def test_unknown_flag_exits_one(self, capsys):
        assert main(["--frobnicate"]) == 1

    def test_naive_scenario_records_hull_violation(self, tmp_path):
        doc = minimal_doc()
        doc["protocol"] = {"variant": "naive"}
        doc["run"] = {"max_steps": 60}
        path = tmp_path / "naive.json"
        path.write_text(json.dumps(doc))
        code = main(["--config", str(path), "--out-dir", str(tmp_path), "--quiet"])
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert code == 2
        assert summary["result.hull_violated"] is True

    @pytest.mark.parametrize("mode", ["iid-per-step", "time-invariant"])
    def test_montecarlo_on_edgeless_topology(self, tmp_path, mode):
        # Valid for the naive variant: with no arcs no agent ever moves.
        doc = minimal_doc(topology={"kind": "custom", "n": 3, "arcs": []})
        doc["channel"]["mode"] = mode
        doc["protocol"] = {"variant": "naive"}
        doc["run"] = {"max_steps": 5}
        path = tmp_path / "edgeless.json"
        path.write_text(json.dumps(doc))
        code = main(["--config", str(path), "--out-dir", str(tmp_path), "--runs", "2", "--quiet"])
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["montecarlo.non_converged"] == 2

    def test_montecarlo_mode(self, tmp_path, capsys):
        code = main(
            ["--preset", "tv-sigma05", "--out-dir", str(tmp_path), "--runs", "10"]
        )
        assert code == 0
        assert "10 runs" in capsys.readouterr().out
        samples = (tmp_path / "samples.csv").read_text().splitlines()
        assert samples[0] == "run,seed,consensus_value,steps,converged"
        assert len(samples) == 11
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["montecarlo.runs"] == 10
        assert summary["montecarlo.non_converged"] == 0

    def test_montecarlo_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["--preset", "tv-sigma05", "--out-dir", str(a), "--runs", "8", "--quiet"])
        main(["--preset", "tv-sigma05", "--out-dir", str(b), "--runs", "8", "--quiet"])
        assert (a / "samples.csv").read_bytes() == (b / "samples.csv").read_bytes()
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()

    def test_montecarlo_rejects_single_run(self, tmp_path, capsys):
        assert main(["--preset", "tv-sigma05", "--runs", "1", "--out-dir", str(tmp_path / "out")]) == 1
        assert "at least 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("runs", [MAX_RUNS + 1, 10**10])
    def test_montecarlo_rejects_too_many_runs(self, tmp_path, capsys, runs):
        # Rejected before any seed is derived: one error line, no output directory.
        assert main(["--preset", "tv-sigma05", "--runs", str(runs), "--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: --runs must be at least 2 and at most {MAX_RUNS}\n"
        assert not (tmp_path / "out").exists()

    def test_quiet_suppresses_output(self, tmp_path, capsys):
        main(["--preset", "ti-sigma02", "--out-dir", str(tmp_path), "--quiet"])
        assert capsys.readouterr().out == ""

    def test_trace_full_precision(self, tmp_path):
        main(["--preset", "ti-sigma02", "--out-dir", str(tmp_path), "--quiet"])
        first_row = (tmp_path / "trace.csv").read_text().splitlines()[1]
        value = first_row.split(",")[2]
        assert float(value) == np.float64(value)  # round-trips exactly
        assert len(value.split(".")[-1]) >= 15


def outputs_probe(outputs):
    return json.dumps(minimal_doc(outputs=outputs, run={"max_steps": 5})).encode()


# Inputs the front door rejects; each once ran, was misreported, ended in a
# traceback or wrote outside its place: (file bytes, extra arguments, a line
# of the report on stderr).
FRONT_DOOR_PROBES = {
    "scenario inside a JSON string": (json.dumps(json.dumps(minimal_doc())).encode(), [], "top-level document"),
    "JSON string": (b'"garbage"', [], "top-level document must be a JSON object"),
    "list of sections": (b'[["topology", {"kind": "ring", "n": 3}], ["seed", 1]]', [], "top-level document"),
    "JSON array": (b"[1, 2]", [], "top-level document must be a JSON object"),
    "JSON array with --seed": (b"[1, 2]", ["--seed", "3"], "top-level document must be a JSON object"),
    "not UTF-8": (b'{"seed": "\xff"}', [], "cannot read config"),
    "nested too deep": (b"[" * 100_000, [], "cannot read config"),
    "NUL in a name": (outputs_probe({"trace": "a\0b.csv"}), [], "outputs.trace: must be a non-empty filename"),
    "summary over the trace": (
        outputs_probe({"trace": "out.txt", "summary": "out.txt"}),
        [],
        "outputs.summary: must differ from the trace and samples names, got 'out.txt'",
    ),
    "summary over the samples": (
        outputs_probe({"samples": "summary.json"}),
        ["--runs", "2"],
        "outputs.summary: must differ",
    ),
    "name outside the output directory": (
        outputs_probe({"samples": "../escaped.csv"}),
        ["--runs", "2"],
        "outputs.samples: must be a non-empty filename",
    ),
    "name in a subdirectory": (outputs_probe({"trace": "sub/t.csv"}), [], "outputs.trace: must be a non-empty"),
    "dot names": (outputs_probe({"trace": ".", "summary": ".."}), [], "outputs.summary: must be a non-empty"),
}


@pytest.mark.parametrize("probe", list(FRONT_DOOR_PROBES))
def test_front_door_rejects_probe_writing_nothing(tmp_path, capsys, probe):
    text, args, message = FRONT_DOOR_PROBES[probe]
    path = tmp_path / "probe.json"
    path.write_bytes(text)
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out-dir", str(out), *args]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err and INTERNAL_ERROR not in err
    assert [p.name for p in tmp_path.iterdir()] == ["probe.json"]


# Topologies above the size bound: rejected from the document's numbers
# before any node or arc is built.
SIZE_PROBES = {
    "complete n = 10^9": {"kind": "complete", "n": 10**9},
    "complete n = 2^70": {"kind": "complete", "n": 2**70},
    "ring n = 2^70": {"kind": "ring", "n": 2**70},
    "ring one arc above the bound": {"kind": "ring", "n": MAX_ARCS + 1},
    "smallest complete graph above the bound": {"kind": "complete", "n": 1025},
    "custom n = 10^9": {"kind": "custom", "n": 10**9, "arcs": [[1, 2, 1.0], [2, 1, 1.0]]},
}


@pytest.mark.parametrize("runs", [[], ["--runs", "2"]])
@pytest.mark.parametrize("probe", list(SIZE_PROBES))
def test_topology_above_size_bound_rejected_writing_nothing(tmp_path, capsys, probe, runs):
    topology = SIZE_PROBES[probe]
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(minimal_doc(topology=topology)))
    tracemalloc.start()
    try:
        code = main(["--config", str(path), "--out-dir", str(tmp_path / "out"), *runs])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    err = capsys.readouterr().err
    assert f"topology: {topology['n']} nodes and " in err and "Traceback" not in err and INTERNAL_ERROR not in err
    assert f"at most {MAX_ARCS} of each are supported" in err
    assert [p.name for p in tmp_path.iterdir()] == ["probe.json"]
    assert peak < 4 << 20


@pytest.mark.parametrize(
    "arcs",
    [
        [[1, 2, 1.0], [2**70, 1, 1.0]],
        [[1, 2, 1.0], [3, -(2**70), 1.0], [2**70, 1, 1.0]],
        [[1, 1, 1.0], [0, 3, 1.0], [2, 3, -1.0], [0, 3, 1.0]],
        [[2, 3, 0], [3, 3, 1.0]],
        [[3, 1, 1.0], [1, 2, 2.5], [4, 1, 1.0], [1, 3, float("inf")]],
        [[2**70, 2**70, 1.0], [1, 2, 1.0], [2, 1, 1.0]],
    ],
)
def test_custom_topology_reports_the_reference_fault(arcs):
    # One problem, the one the dict-based builder reports first: a repeated
    # arc, else the first bad arc in document order. Huge ids are out of range.
    with pytest.raises(ValueError) as reference:
        reference_graph(3, [(j, i, float(w)) for j, i, w in arcs])
    with pytest.raises(ConfigError) as exc:
        parse_config(minimal_doc(topology={"kind": "custom", "n": 3, "arcs": arcs}))
    assert exc.value.problems == (f"topology: {reference.value}",)


class IntSubclass(int):
    pass


class ListSubclass(list):
    pass


ARC_IDS = st.integers(0, 4) | st.integers(1, 4).map(IntSubclass) | st.sampled_from(
    [2**70, -(2**64), True, 1.0, "1", None]
)
ARC_WEIGHTS = st.floats(0.5, 2.0) | st.integers(1, 3) | st.sampled_from(
    [0, -1.0, math.inf, math.nan, 10**400, 2**70 + 1, False, "1", None, [1.0]]
)
GOOD_ARC = st.tuples(st.integers(1, 4), st.integers(1, 4), st.floats(0.5, 2.0) | st.integers(1, 3)).map(list)
GOOD_ARCS = st.lists(GOOD_ARC.filter(lambda arc: arc[0] != arc[1]), max_size=8, unique_by=lambda arc: tuple(arc[:2]))
ODD_ARC = st.tuples(ARC_IDS, ARC_IDS, ARC_WEIGHTS).map(list)
ARC_LISTS = st.one_of(
    GOOD_ARCS,
    GOOD_ARCS.map(lambda arcs: [ListSubclass(arc) for arc in arcs]),
    st.lists(GOOD_ARC | ODD_ARC, max_size=6),
    st.lists(ODD_ARC | st.lists(ARC_IDS, max_size=4) | ARC_IDS, max_size=4),
    ARC_IDS,
)


def reference_custom_topology(n, arcs):
    """A custom topology parsed arc by arc and built from float tuples, as
    the build from the document's columns must: its echoed arcs, or the
    one problem it reports."""
    try:
        if not isinstance(arcs, list) or not all(isinstance(a, list) and len(a) == 3 for a in arcs):
            raise ValueError("topology.arcs must be a list of [j, i, weight] triples")
        for j, i, w in arcs:
            if not all(isinstance(v, int) and not isinstance(v, bool) for v in (j, i)):
                raise ValueError(f"topology.arcs node ids must be integers, got {[j, i, w]!r}")
            if not isinstance(w, (int, float)) or isinstance(w, bool):
                raise ValueError(f"arc ({j}, {i}) weight must be a number, got {w!r}")
        rows, cols, weights, _ = reference_graph(n, [(j, i, float(w)) for j, i, w in arcs])
    except (ValueError, OverflowError) as exc:
        return f"topology: {exc}"
    return [[j + 1, i + 1, w] for j, i, w in zip(cols.tolist(), rows.tolist(), weights.tolist())]


@settings(max_examples=300, deadline=None)
@given(arcs=ARC_LISTS)
def test_custom_topology_parse_matches_the_per_arc_reference(arcs):
    problems = []
    _, echo = config._parse_topology({"kind": "custom", "n": 4, "arcs": arcs}, problems)
    assert (problems[0] if problems else echo["arcs"]) == reference_custom_topology(4, arcs)
    assert len(problems) <= 1


def test_size_bound_admits_graphs_at_the_bound(monkeypatch):
    monkeypatch.setattr("airconsensus.config.MAX_ARCS", 12)
    assert len(parse_config(minimal_doc(topology={"kind": "complete", "n": 4})).topology.arc_order) == 12
    assert len(parse_config(minimal_doc(topology={"kind": "ring", "n": 12})).topology.arc_order) == 12
    for topology, size in (
        ({"kind": "complete", "n": 5}, "5 nodes and 20 arcs"),
        ({"kind": "ring", "n": 13}, "13 nodes and 13 arcs"),
    ):
        with pytest.raises(ConfigError) as info:
            parse_config(minimal_doc(topology=topology))
        assert info.value.problems == (f"topology: {size}: at most 12 of each are supported",)


def fuzz_doc():
    """A valid 4-node scenario that stops within 50 steps, with a field of
    every section set."""
    return {
        "topology": {"kind": "custom", "n": 4, "arcs": [[1, 2, 1.0], [2, 3, 2.0], [3, 4, 1.0], [4, 1, 0.5]]},
        "channel": {"law": {"kind": "uniform", "lo": 0.5, "hi": 2.0}, "mode": "iid-per-step", "seed": 3},
        "protocol": {"variant": "superposition", "mixing": 0.5},
        "initial_state": {"kind": "uniform", "lo": 0.0, "hi": 1.0, "seed": 4},
        "run": {"tol": 1e-6, "max_steps": 50},
        "outputs": {"trace": "t.csv", "summary": "s.json", "samples": "m.csv"},
        "seed": 1,
    }


# Where a fuzzed value goes: every section and field of fuzz_doc, a law and
# a protocol field its base leaves out, and a section no scenario has.
FUZZ_PATHS = [
    (key,) for key in fuzz_doc()
] + [
    (section, key) for section, fields in fuzz_doc().items() if isinstance(fields, dict) for key in fields
] + [
    ("topology", "arcs", 0),
    ("topology", "arcs", 0, 2),
    ("channel", "law", "kind"),
    ("channel", "law", "hi"),
    ("channel", "law", "value"),
    ("protocol", "step_size"),
    ("initial_state", "values"),
    ("extra",),
]

JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(),
    st.text(max_size=6),
    # Path-like names: separators, dots and NUL.
    st.text(alphabet="./\0ab", max_size=4),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def _beyond_64(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool) and value > 64


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzzed_document_never_raises(data):
    path = data.draw(st.sampled_from(FUZZ_PATHS), label="path")
    # Scalars drawn on their own as well: st.recursive draws mostly containers.
    values = JSON_SCALARS | JSON_VALUES
    if path == ("run", "max_steps"):
        # A huge max_steps runs that long: it costs time, not memory.
        values = values.filter(lambda v: not _beyond_64(v))
    doc = fuzz_doc()
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = data.draw(values, label="value")
    runs = data.draw(st.sampled_from([[], ["--runs", "2"]]), label="runs")
    with tempfile.TemporaryDirectory() as work:
        config = Path(work) / "fuzz.json"
        config.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["--config", str(config), "--out-dir", str(Path(work) / "out"), *runs])
    # A crash would be caught by main's last boundary and exit 1 too: the
    # catch-all's line is what tells it from a rejected document.
    assert code in (0, 1, 2) and INTERNAL_ERROR not in err.getvalue(), err.getvalue()


def test_montecarlo_statistics_beyond_float_range(tmp_path):
    # The naive update drives these two replicates apart by about 1e202:
    # their squared deviation from the mean passes the float range, which
    # once raised OverflowError.
    doc = fuzz_doc()
    doc["protocol"] = {"variant": "naive"}
    doc["initial_state"] = {"kind": "explicit", "values": [0.0, 3e200, 0.0, 3e200]}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    assert main(["--config", str(path), "--runs", "2", "--out-dir", str(tmp_path), "--quiet"]) == 0
    summary = strict_json((tmp_path / "s.json").read_text())
    assert math.isfinite(summary["montecarlo.mean_consensus"])
    # The standard deviation is beyond float range: null in strict JSON.
    assert summary["montecarlo.std_consensus"] is None


@pytest.mark.parametrize(
    "failure", [RuntimeError("fixed-point check failed"), np.linalg.LinAlgError("Eigenvalues did not converge")]
)
def test_missing_prediction_warns_with_reason(tmp_path, capsys, monkeypatch, failure):
    def fail(*args):
        raise failure

    for target in ("predicted_consensus", "subdominant_modulus"):
        with monkeypatch.context() as patch:
            patch.setattr(cli, target, fail)
            code = main(["--preset", "ti-sigma02", "--out-dir", str(tmp_path), "--quiet"])
        assert code == 0
        assert capsys.readouterr().err == f"warning: no prediction: {failure}\n"
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["result.predicted_value"] is None
        assert summary["result.rate_predicted"] is None


CLASSICAL_DOC = {
    "topology": {"kind": "ring", "n": 8},
    "protocol": {"variant": "classical", "step_size": 0.4},
    "seed": 3,
}


def ring_with_chords_doc(n, chords, seed):
    g = ring_with_chords(np.random.default_rng(seed), n, chords)
    return {
        "topology": {"kind": "custom", "n": n, "arcs": [[j, i, 1.0] for j, i in g.arc_order]},
        "channel": {"law": {"kind": "uniform", "lo": 0.0, "hi": 10.0}, "mode": "time-invariant"},
        "protocol": {"variant": "superposition", "mixing": 0.5},
        "seed": seed,
    }


@pytest.mark.parametrize("source", ["preset", "classical", "classical-runs"])
def test_predictions_build_no_dense_matrix(tmp_path, monkeypatch, source):
    # Neither a run, a Monte Carlo batch nor the predictions build an
    # n x n array: every dense form raises, wherever it is bound.
    def dense(*args, **kwargs):
        raise AssertionError("dense n x n work on a CLI run path")

    package = [module for name, module in sys.modules.items() if name.split(".")[0] == "airconsensus"]
    for module in package:
        for name in ("effective_matrix", "naive_matrix", "perron_matrix"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, dense)
    monkeypatch.setattr(linalg.ArcOperator, "dense", dense)
    monkeypatch.setattr(ChannelRealization, "gains", property(dense))
    monkeypatch.setattr(np.linalg, "eigvals", dense)
    monkeypatch.setattr(np.linalg, "solve", dense)
    if source == "preset":
        argv = ["--preset", "ti-sigma02"]
    else:
        path = tmp_path / "classical.json"
        path.write_text(json.dumps(CLASSICAL_DOC))
        argv = ["--config", str(path)] + (["--runs", "3"] if source == "classical-runs" else [])
    assert main(argv + ["--out-dir", str(tmp_path), "--quiet"]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    if source == "classical-runs":
        assert summary["montecarlo.runs"] == 3 and summary["montecarlo.non_converged"] == 0
        return
    assert abs(summary["result.predicted_value"] - summary["result.consensus_value"]) <= 1e-6
    assert 0.0 < summary["result.rate_predicted"] < 1.0


def test_classical_run_keeps_below_dense_memory():
    # An n x n float array at n = 2000 is 32 MB; the arc-list step holds a
    # few length-|E| temporaries and the trace about 16 kB per step.
    n = 2000
    g = ring_with_chords(np.random.default_rng(7), n, 3)
    x0 = np.random.default_rng(8).uniform(0, 2 * np.pi, n)
    classical = ProtocolConfig("classical", step_size=0.1)
    tracemalloc.start()
    try:
        trace = run(g, None, classical, x0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.reason == CONVERGED
    assert peak < n * n * 8 / 2


def test_prediction_keeps_below_dense_memory():
    # An n x n float array at n = 1000 is 8 MB; the solves hold about
    # 1 kB per node (Krylov basis and temporaries). The time-invariant draw
    # of the 4000 arcs is counted too; the document's uniform initial state
    # has loaded numpy.random before (counted, its import adds about 0.6 MB).
    cfg = parse_config(ring_with_chords_doc(1000, 3, 5))
    tracemalloc.start()
    try:
        predicted, rate = cli._predictions(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert predicted is not None and rate is not None
    assert peak < 1000 * 1000 * 8 / 2


def test_arnoldi_failure_warns_with_restarts_and_residual(tmp_path, capsys, monkeypatch):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(ring_with_chords_doc(200, 3, 2)))
    monkeypatch.setattr(linalg, "KRYLOV_MAX_RESTARTS", 0)
    assert main(["--config", str(path), "--out-dir", str(tmp_path), "--quiet"]) == 0
    err = capsys.readouterr().err
    assert err.startswith(
        "warning: no prediction: restarted Arnoldi did not converge after 0 restarts (final residual "
    )
    assert err.endswith(")\n") and err.count("\n") == 1
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["result.predicted_value"] is None
    assert summary["result.rate_predicted"] is None


# Flat documents as the CLI writes them: scalars, strings and lists
# (nested or not) of numbers and literals, sometimes of strings.
FLAT_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(),
    st.text(max_size=8),
    st.recursive(
        st.one_of(st.none(), st.booleans(), st.integers(-(2**70), 2**70), st.floats()),
        lambda inner: st.lists(inner, max_size=6) | st.tuples(inner, inner),
        max_leaves=40,
    ),
    st.lists(st.text(alphabet="[],\" 0ab", max_size=4), max_size=4),
)


@settings(max_examples=300, deadline=None)
@given(
    doc=st.dictionaries(st.text(max_size=12), FLAT_VALUES, max_size=8),
    chunk=st.sampled_from([1, 2, 5, cli.LIST_CHUNK]),
)
def test_summary_encoder_matches_json_indent(doc, chunk):
    # Non-finite scalars are written as null; lists are left as they are,
    # and laid out the same a chunk of items at a time.
    strict = {key: None if isinstance(v, float) and not math.isfinite(v) else v for key, v in doc.items()}
    with mock.patch.object(cli, "LIST_CHUNK", chunk):
        assert "".join(cli._flat_json(doc)) == json.dumps(strict, sort_keys=True, indent=2)


def test_summary_encoder_matches_json_indent_when_deeply_nested():
    deep = 1.5
    for _ in range(60):
        deep = [deep, [], 2]
    assert "".join(cli._flat_json({"deep": deep})) == json.dumps({"deep": deep}, sort_keys=True, indent=2)


def test_long_config_echo_is_written_a_chunk_at_a_time(tmp_path):
    # A 4500-arc echo and a 1500-agent mixing list, several chunks each:
    # json's own layout, byte for byte, written without a whole copy of
    # the document (encoded whole, it peaked at five times its size).
    doc = ring_with_chords_doc(1500, 2, 3)
    doc["protocol"]["mixing"] = [0.25 + agent / 4000 for agent in range(1500)]
    flat = cli._flatten({"config": parse_config(doc).resolved})
    path = tmp_path / "summary.json"
    tracemalloc.start()
    try:
        cli._write_flat(path, flat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = path.read_text()
    assert text == json.dumps(flat, sort_keys=True, indent=2) + "\n"
    assert peak < len(text) / 2, (peak, len(text))


# A superposition or naive node sums x_j * h_ij and h_ij over its in-arcs:
# documents whose sums can leave float range, and their neighbors just
# inside it.
def overflow_doc(topology, law, values, variant="superposition", mode="iid-per-step", tol=1e-9):
    protocol = {"variant": variant, "mixing": 0.5} if variant == "superposition" else {"variant": variant}
    return {
        "topology": topology,
        "channel": {"law": law, "mode": mode},
        "protocol": protocol,
        "initial_state": {"kind": "explicit", "values": values},
        "run": {"tol": tol, "max_steps": 200},
        "seed": 1,
    }


RING4 = {"kind": "ring", "n": 4}
U010 = {"kind": "uniform", "lo": 0.0, "hi": 10.0}
COMPLETE30 = {"kind": "complete", "n": 30}
X30 = [agent / 29 for agent in range(30)]  # max |x0| = 1
OVERFLOWING = {
    "ring x0": (
        overflow_doc(RING4, U010, [-1e308, 1e308, -1e308, 1e308], mode="time-invariant", tol=1e290),
        "initial_state: received signals overflow: max |x0| 1e+308 times channel.law.hi 10 times the largest in-degree 1",
    ),
    "complete law": (
        overflow_doc(COMPLETE30, {"kind": "uniform", "lo": 0.0, "hi": 1e308}, X30),
        "channel.law: received signals overflow: hi 1e+308 times the largest in-degree 29",
    ),
    "complete law above the bound": (
        overflow_doc(COMPLETE30, {"kind": "uniform", "lo": 0.0, "hi": 6.3e306}, X30),
        "channel.law: received signals overflow: hi 6.3e+306",
    ),
    "naive constant law": (
        overflow_doc(COMPLETE30, {"kind": "constant", "value": 6.3e306}, X30, variant="naive"),
        "channel.law: received signals overflow: value 6.3e+306",
    ),
    "naive x0": (
        overflow_doc(COMPLETE30, {"kind": "constant", "value": 2.0}, [1e307] * 30, variant="naive"),
        "initial_state: received signals overflow: max |x0| 1e+307 times channel.law.value 2",
    ),
}
UNDER_THE_BOUND = {
    "ring x0": overflow_doc(RING4, U010, [-1e307, 1e307, -1e307, 1e307], mode="time-invariant", tol=1e290),
    "complete law": overflow_doc(COMPLETE30, {"kind": "uniform", "lo": 0.0, "hi": 6e306}, X30),
}


@pytest.mark.parametrize("runs", [[], ["--runs", "2"]])
@pytest.mark.parametrize("name", sorted(OVERFLOWING))
def test_received_signal_overflow_exits_one(tmp_path, capsys, name, runs):
    doc, message = OVERFLOWING[name]
    doc = dict(doc, bogus=1)  # reported together with another problem
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out-dir", str(out), *runs]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid scenario config:") and "Traceback" not in err
    assert message in err and "unknown section 'bogus'" in err and err.count("\n  - ") == 2
    assert not out.exists()


@pytest.mark.parametrize("name", sorted(UNDER_THE_BOUND))
def test_received_signals_just_under_the_bound_run_finite(tmp_path, name):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(UNDER_THE_BOUND[name]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow in any step
        assert main(["--config", str(path), "--out-dir", str(tmp_path), "--quiet"]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert math.isfinite(summary["result.consensus_value"]) and summary["result.converged"]
    with open(tmp_path / "trace.csv") as fh:
        assert all(math.isfinite(float(row["x"])) for row in csv.DictReader(fh))


@pytest.mark.parametrize("runs", [[], ["--runs", "2"]])
@pytest.mark.parametrize("variant", ["superposition", "naive", "classical"])
def test_initial_state_whose_spread_overflows_exits_one(tmp_path, capsys, variant, runs):
    # Each received sum, 1e308 times 1.0 over one in-arc, is finite; the
    # spread max(x0) - min(x0) is not.
    doc = overflow_doc(
        RING4, {"kind": "constant", "value": 1.0}, [-1e308, 1e308, -1e308, 1e308], variant=variant, mode="time-invariant"
    )
    if variant == "classical":
        del doc["channel"]
        doc["protocol"]["step_size"] = 0.5
    path = tmp_path / "spread.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--config", str(path), "--out-dir", str(out), *runs]) == 1
    assert capsys.readouterr().err == (
        "invalid scenario config:\n"
        "  - initial_state: the spread max(x0) - min(x0) = 1e+308 - (-1e+308) is beyond float range\n"
    )
    assert not out.exists()


# Registered before the CLI's exit hook, so it runs after it: atexit
# hooks run last in, first out. gc.freeze is replaced by a counting
# wrapper before main registers it.
FREEZE_CHILD = """
import atexit, gc, sys
freezes = []
atexit.register(lambda: print("at exit:", gc.get_freeze_count() > 0, len(freezes)))
freeze = gc.freeze
gc.freeze = lambda: freezes.append(freeze())
from airconsensus.cli import main
out = sys.argv[1]
main(["--preset", "ti-sigma02", "--out-dir", out + "/single", "--quiet"])
main(["--preset", "tv-sigma05", "--runs", "20", "--out-dir", out + "/montecarlo", "--quiet"])
print("after main:", gc.get_freeze_count(), len(freezes))
"""


def test_cli_freezes_the_heap_once_at_exit(tmp_path):
    # Finalization's collections skip a frozen heap. The heap is frozen
    # once, as the process exits, however many times main ran; nothing is
    # frozen while the process lives, and the outputs are unchanged.
    child = run_child(FREEZE_CHILD, str(tmp_path / "child"))
    assert child.stdout.splitlines() == ["after main: 0 0", "at exit: True 1"]
    main(["--preset", "ti-sigma02", "--out-dir", str(tmp_path / "here" / "single"), "--quiet"])
    main(["--preset", "tv-sigma05", "--runs", "20", "--out-dir", str(tmp_path / "here" / "montecarlo"), "--quiet"])
    written = sorted(p.relative_to(tmp_path / "here") for p in (tmp_path / "here").rglob("*.*"))
    assert [str(p) for p in written] == [
        "montecarlo/samples.csv", "montecarlo/summary.json", "single/summary.json", "single/trace.csv"
    ]
    for name in written:
        assert (tmp_path / "child" / name).read_bytes() == (tmp_path / "here" / name).read_bytes()


@pytest.mark.parametrize("name", PRESET_NAMES)
@pytest.mark.parametrize("runs", [None, 3])
def test_summary_json_bytes_match_json_indent(tmp_path, name, runs):
    argv = ["--preset", name, "--out-dir", str(tmp_path), "--quiet"]
    main(argv + (["--runs", str(runs)] if runs else []))
    written = (tmp_path / "summary.json").read_text()
    assert written == json.dumps(json.loads(written), sort_keys=True, indent=2) + "\n"


def test_trace_writer_matches_per_value_formatting(tmp_path):
    rng = np.random.default_rng(5)
    states = rng.normal(0.0, 1e3, (12, 11))
    states[3, :5] = [-0.1, 0.1, 1e-300, 1e300, -1e300]
    states[7, :4] = [2.0 / 3.0, -np.pi, 0.30000000000000004, -0.0]
    trace = Trace(states=states, reason=CONVERGED)
    path = tmp_path / "trace.csv"
    write_trace_chunked(path, trace)
    expected = "step,agent,x\n" + "".join(
        f"{step},{agent},{value:.17g}\n"
        for step, row in enumerate(states.tolist())
        for agent, value in enumerate(row, start=1)
    )
    assert path.read_bytes() == expected.encode()


def test_write_failure_reported_with_path(tmp_path, capsys):
    target = tmp_path / "ro"
    target.mkdir()
    (target / "trace.csv").mkdir()  # a directory squatting on the trace filename
    code = main(["--preset", "ti-sigma02", "--out-dir", str(target), "--quiet"])
    assert code == 1
    assert "cannot write" in capsys.readouterr().err


@pytest.mark.parametrize("runs", [[], ["--runs", "2"]])
def test_unexpected_error_is_one_line_without_traceback(tmp_path, capsys, monkeypatch, runs):
    def fail(*args, **kwargs):
        raise RuntimeError("engine failed\nat step 3")

    monkeypatch.setattr(cli, "monte_carlo", fail)
    monkeypatch.setattr(cli, "record_run", fail)
    assert main(["--preset", "tv-sigma05", "--out-dir", str(tmp_path), "--quiet", *runs]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: internal: RuntimeError: engine failed at step 3\n" and captured.out == ""


GOLDEN = Path(__file__).parent / "data" / "golden_tv_complete_n30_sigma08_runs100"


def test_montecarlo_outputs_match_golden_files(tmp_path):
    # Any change to the random stream or the update arithmetic shows up here.
    code = main(["--preset", "tv-complete-n30-sigma08", "--runs", "100", "--out-dir", str(tmp_path), "--quiet"])
    assert code == 0
    for name in ("samples.csv", "summary.json"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


GOLDEN_SINGLE = Path(__file__).parent / "data" / "golden_ti_custom_n5"


def test_single_run_outputs_match_golden_files(tmp_path):
    # A single time-invariant run: its one channel draw, the trace and the
    # prediction, which draws the same coefficients again.
    argv = ["--config", str(GOLDEN_SINGLE / "scenario.json"), "--out-dir", str(tmp_path), "--quiet"]
    assert main(argv) == 0
    for name in ("trace.csv", "summary.json"):
        assert (tmp_path / name).read_bytes() == (GOLDEN_SINGLE / name).read_bytes(), name


GOLDEN_CLASSICAL = Path(__file__).parent / "data" / "golden_classical_ring8_runs50"


def test_classical_montecarlo_outputs_match_golden_files(tmp_path):
    # Written by an engine that stepped each of the 50 identical replicates.
    argv = ["--config", str(GOLDEN_CLASSICAL / "scenario.json"), "--runs", "50"]
    assert main(argv + ["--out-dir", str(tmp_path), "--quiet"]) == 0
    for name in ("samples.csv", "summary.json"):
        assert (tmp_path / name).read_bytes() == (GOLDEN_CLASSICAL / name).read_bytes(), name


GOLDEN_NAIVE = Path(__file__).parent / "data" / "golden_naive_ring8_runs50"


def test_naive_montecarlo_outputs_match_golden_files(tmp_path):
    # The naive step on a ring under an i.i.d. U(0.5, 1.5) channel: every
    # replicate runs to max_steps, with no warning.
    argv = ["--config", str(GOLDEN_NAIVE / "scenario.json"), "--runs", "50"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--out-dir", str(tmp_path), "--quiet"]) == 0
    for name in ("samples.csv", "summary.json"):
        assert (tmp_path / name).read_bytes() == (GOLDEN_NAIVE / name).read_bytes(), name


def test_golden_files_match_per_replicate_stream_reference():
    # Each golden replicate rerun alone on coefficients drawn straight from
    # the seed's PCG64DXSM stream, seeded through numpy's SeedSequence,
    # without the package's seeding, ChannelStreams or monte_carlo.
    cfg = parse_config(preset("tv-complete-n30-sigma08"))
    rows = list(csv.DictReader((GOLDEN / "samples.csv").open()))
    values, steps = [], []
    for i, row in enumerate(rows):
        channel = replace(cfg.channel, seed=child_seed(cfg.channel.seed, i))
        # In place of the replicate's ChannelStreams: the model and its draw.
        streams = SimpleNamespace(model=channel, draw=lambda k, active, out=None: stream_draw(channel, k)[None])
        result = protocol.advance(
            cfg.protocol.update(cfg.topology),
            np.array(cfg.x0)[None],
            streams,
            cfg.tol,
            cfg.max_steps,
        )
        values.append(float(result.final[0].mean()))
        steps.append(int(result.steps[0]))
        assert (row["run"], row["seed"]) == (str(i), str(channel.seed))
        assert row["consensus_value"] == f"{values[-1]:.17g}"
        assert (row["steps"], row["converged"]) == (str(steps[-1]), str(int(result.converged[0])))
    summary = json.loads((GOLDEN / "summary.json").read_text())
    mean = math.fsum(values) / len(values)
    assert summary["montecarlo.runs"] == len(values) == 100
    assert summary["montecarlo.mean_consensus"] == mean
    assert summary["montecarlo.std_consensus"] == math.sqrt(math.fsum((v - mean) ** 2 for v in values) / 99)
    assert summary["montecarlo.mean_steps"] == math.fsum(steps) / 100


# A fresh interpreter with OPENBLAS_NUM_THREADS unset or set to argv[1]
# runs the golden batch of 3 blocks through the CLI; it prints the
# variable as numpy loaded and how many processes it forked.
BLAS_CHILD = """
import os, sys
os.environ.pop("OPENBLAS_NUM_THREADS", None)
if sys.argv[1]:
    os.environ["OPENBLAS_NUM_THREADS"] = sys.argv[1]
fork, forks = os.fork, []
def counting():
    pid = fork()
    if pid:
        forks.append(pid)
    return pid
os.fork = counting
from airconsensus.cli import main
main(["--preset", "tv-complete-n30-sigma08", "--runs", "100", "--out-dir", sys.argv[2], "--quiet"])
print(os.environ["OPENBLAS_NUM_THREADS"], len(forks))
"""


@pytest.mark.parametrize("threads", ["", "2"])
def test_cli_loads_numpy_with_one_blas_thread_by_default(tmp_path, threads):
    # OpenBLAS starts its threads as numpy loads. With the CLI's default of
    # one, its process runs one OS thread and the batch forks one process
    # per CPU, at most one per block. A count the caller set is kept.
    child = run_child(BLAS_CHILD, threads, str(tmp_path))
    value, forks = child.stdout.split()
    assert value == (threads or "1")
    if not threads:
        assert int(forks) == min(analysis._cpu_count(), 3) - 1
    for name in ("samples.csv", "summary.json"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
