"""Scenario configuration: validation, defaults, seeds, presets.

A scenario document is a JSON object, given as the mapping ``json.load``
makes of it, with sections ``topology``, ``channel``, ``protocol``, and
optionally ``initial_state``, ``run``, ``outputs``, plus a top-level
``seed`` from which any missing channel or initial-state seed is derived.
Validation is all-at-once: every problem in the document is reported in a
single error, and nothing is run on an invalid config. Each variant's
rules are ``protocol``'s: the protocol section is mapped onto
``ProtocolConfig`` and ``topology_problems``, and ``protocol.`` is put
before their messages.
"""

from __future__ import annotations

import copy
import math
from typing import Any, Mapping, Optional

import numpy as np

from .channel import LAWS, ChannelModel, check_mode, derive_seed
from .graph import WeightedDigraph, complete_graph, graph_from_arcs, ring_graph
from .protocol import (
    DEFAULT_MAX_STEPS,
    DEFAULT_SPREAD_TOL,
    ProtocolConfig,
    check_spread,
    takes_channel,
    topology_problems,
)
from .records import record

# The sections whose seed is derived from the top-level seed when they
# give none, each with its stream tag.
_SEED_TAGS = {"channel": 1, "initial_state": 2}

DEFAULT_OUTPUTS = {"trace": "trace.csv", "summary": "summary.json", "samples": "samples.csv"}

#: Most arcs a topology may have, and so most nodes: a strongly connected
#: digraph on n >= 2 nodes has at least n arcs. Parsing a scenario at the
#: bound took 55-80 bytes per arc over the interpreter's 29 MB (complete
#: n = 1024: 83 MB; ring n = 2^20: 106 MB), so it stays below about 0.15 GB.
#: The count is checked before anything is built.
MAX_ARCS = 1 << 20


class ConfigError(ValueError):
    """One or more scenario validation failures, reported together."""

    def __init__(self, problems):
        self.problems = tuple(problems)
        super().__init__(
            "invalid scenario config:\n" + "\n".join(f"  - {p}" for p in self.problems)
        )


@record
class ScenarioConfig:
    """Fully resolved, validated scenario.

    ``resolved`` echoes the whole configuration with every default and
    derived seed made explicit, so any run is reproducible from its
    summary alone.
    """

    topology: WeightedDigraph
    channel: Optional[ChannelModel]
    protocol: ProtocolConfig
    x0: np.ndarray
    tol: float
    max_steps: int
    trace_file: str
    summary_file: str
    samples_file: str
    resolved: dict


def parse_config(doc: Mapping[str, Any]) -> ScenarioConfig:
    """Validate a scenario document, the mapping ``json.load`` makes of a
    JSON object, and resolve its defaults; anything else is rejected."""
    if not isinstance(doc, Mapping):
        raise ConfigError(["top-level document must be a JSON object"])

    problems: list[str] = []
    known = {"topology", "channel", "protocol", "initial_state", "run", "outputs", "seed"}
    problems.extend(f"unknown section {key!r}" for key in doc if key not in known)

    seed = _seed(doc.get("seed"), None, None, problems)

    topology, topo_echo = _parse_topology(doc.get("topology"), problems)
    protocol, variant = _parse_protocol(doc.get("protocol"), topology, problems)
    channel, channel_echo = _parse_channel(doc.get("channel"), topology, variant, seed, problems)
    x0, state_echo = _parse_initial_state(doc.get("initial_state"), topology, seed, problems)
    tol, max_steps = _parse_run(doc.get("run"), problems)
    trace_file, summary_file, samples_file = _parse_outputs(doc.get("outputs"), problems)
    if x0 is not None and x0.size:
        reported = len(problems)
        if channel is not None:
            _check_received_range(channel, x0, problems)
        # One problem at most for x0: an overflowing received sum says it already.
        if not any(p.startswith("initial_state:") for p in problems[reported:]):
            try:
                check_spread(x0)
            except ValueError as exc:
                problems.append(f"initial_state: {exc}")

    if problems:
        raise ConfigError(problems)

    resolved = {
        "topology": topo_echo,
        "channel": channel_echo,
        "protocol": {
            field: list(value) if isinstance(value := getattr(protocol, field), tuple) else value
            for field in ProtocolConfig._fields
        },
        "initial_state": state_echo,
        "run": {"tol": tol, "max_steps": max_steps},
        "outputs": {"trace": trace_file, "summary": summary_file, "samples": samples_file},
    }
    return ScenarioConfig(
        topology=topology,
        channel=channel,
        protocol=protocol,
        x0=x0,
        tol=tol,
        max_steps=max_steps,
        trace_file=trace_file,
        summary_file=summary_file,
        samples_file=samples_file,
        resolved=resolved,
    )


def _parse_topology(section, problems):
    if not isinstance(section, dict):
        problems.append("topology: section is required and must be an object")
        return None, None
    kind = section.get("kind")
    try:
        if kind in ("complete", "ring"):
            _check_keys(section, "topology", ("kind", "n", "weight"), problems)
            n = _require_int(section, "n", "topology.n", minimum=2)
            weight = _as_number(section.get("weight", 1.0), "topology.weight")
            _check_size(n, n * (n - 1) if kind == "complete" else n)
            g = (complete_graph if kind == "complete" else ring_graph)(n, weight)
            echo = {"kind": kind, "n": n, "weight": weight}
        elif kind == "custom":
            _check_keys(section, "topology", ("kind", "n", "arcs"), problems)
            n = _require_int(section, "n", "topology.n", minimum=1)
            arcs = section.get("arcs")
            if not isinstance(arcs, list) or not all(
                isinstance(a, list) and len(a) == 3 for a in arcs
            ):
                raise ValueError("topology.arcs must be a list of [j, i, weight] triples")
            _check_size(n, len(arcs))
            for j, i, w in arcs:
                if not (_is_integer(j) and _is_integer(i)):
                    raise ValueError(f"topology.arcs node ids must be integers, got {[j, i, w]!r}")
                if not _is_number(w):
                    raise ValueError(f"arc ({j}, {i}) weight must be a number, got {w!r}")
            g = graph_from_arcs(n, arcs)
            ends = zip((g.arc_cols + 1).tolist(), (g.arc_rows + 1).tolist(), g.arc_weights.tolist())
            echo = {"kind": "custom", "n": n, "arcs": list(map(list, ends))}
        else:
            raise ValueError(f"topology.kind must be 'complete', 'ring' or 'custom', got {kind!r}")
    except (ValueError, TypeError, KeyError, OverflowError) as exc:
        problems.append(f"topology: {exc}")
        return None, None
    return g, echo


def _check_size(n, arcs):
    if max(n, arcs) > MAX_ARCS:
        raise ValueError(f"{n} nodes and {arcs} arcs: at most {MAX_ARCS} of each are supported")


def _parse_channel(section, topology, variant, seed, problems):
    if not takes_channel(variant):
        if section is not None:
            problems.append(f"channel: the {variant} variant does not use a channel section")
        return None, None
    if not isinstance(section, dict):
        problems.append("channel: section is required and must be an object")
        return None, None
    _check_keys(section, "channel", ("law", "mode", "seed"), problems)
    law_spec = section.get("law")
    law = None
    if not isinstance(law_spec, dict):
        problems.append("channel.law: required object, e.g. {\"kind\": \"uniform\", \"lo\": 0.0, \"hi\": 10.0}")
    else:
        kind = law_spec.get("kind")
        try:
            if not (isinstance(kind, str) and kind in LAWS):
                raise ValueError(f"kind must be {' or '.join(map(repr, LAWS))}, got {kind!r}")
            fields = LAWS[kind]._fields
            _check_keys(law_spec, "channel.law", ("kind", *fields), problems)
            for field in fields:
                if field not in law_spec:
                    raise ValueError(f"{kind} law needs {field!r}")
            values = [_as_number(law_spec[field], field) for field in fields]
            law = LAWS[kind](*values)
            law_echo = {"kind": kind, **dict(zip(fields, values))}
        except (ValueError, TypeError, OverflowError) as exc:
            problems.append(f"channel.law: {exc}")
    mode = section.get("mode")
    try:
        check_mode(mode)
    except ValueError as exc:
        problems.append(f"channel.{exc}")
        mode = None
    channel_seed = _seed(section.get("seed"), "channel", seed, problems)
    if topology is None or law is None or mode is None or channel_seed is None:
        return None, None
    model = ChannelModel(topology=topology, law=law, mode=mode, seed=channel_seed)
    return model, {"law": law_echo, "mode": mode, "seed": channel_seed}


def _check_received_range(channel, x0, problems):
    """A node sums ``h_ij`` and ``h_ij x_j`` over its in-arcs before it
    divides or averages: both sums must stay within float range on the
    first step for every coefficient the law can draw. Superposition
    states never leave the initial hull, so the first step bounds every
    later one; a naive run may still diverge later."""
    field, c_max = channel.law.bound, getattr(channel.law, channel.law.bound)
    d_max = int(channel.topology.in_degrees.max())
    x_max = float(np.max(np.abs(x0)))
    if not math.isfinite(c_max * d_max):
        problems.append(
            f"channel.law: received signals overflow: {field} {c_max:g} times the largest in-degree {d_max} "
            "is beyond float range"
        )
    elif not math.isfinite(x_max * c_max * d_max):
        problems.append(
            f"initial_state: received signals overflow: max |x0| {x_max:g} times channel.law.{field} {c_max:g} "
            f"times the largest in-degree {d_max} is beyond float range"
        )


def _parse_protocol(section, topology, problems):
    """The ``ProtocolConfig`` (``None`` if invalid) and the declared variant, which decides if a channel belongs."""
    if not isinstance(section, dict):
        problems.append("protocol: section is required and must be an object")
        return None, None
    _check_keys(section, "protocol", ProtocolConfig._fields, problems)
    values = [section.get(field) for field in ProtocolConfig._fields]
    protocol = None
    try:
        protocol = ProtocolConfig(*values)
    except ValueError as exc:
        problems.extend(f"protocol.{line}" for line in str(exc).splitlines())
    # The topology checks run whatever the protocol's own values are, so
    # that every violated constraint is named.
    if topology is not None:
        for field, message in topology_problems(topology, *values):
            problems.append(f"protocol.{field}: {message}" if field else f"topology: {message}")
    return protocol, section.get("variant")


def _parse_initial_state(section, topology, seed, problems):
    if section is None:
        section = {"kind": "uniform", "lo": 0.0, "hi": math.tau}
    if not isinstance(section, dict):
        problems.append("initial_state: must be an object")
        return None, None
    kind = section.get("kind")
    if kind == "explicit":
        _check_keys(section, "initial_state", ("kind", "values"), problems)
        values = section.get("values")
        if not isinstance(values, list) or not all(_is_number(v) for v in values):
            problems.append("initial_state.values: must be a list of numbers")
            return None, None
        if not all(_is_finite(v) for v in values):
            problems.append("initial_state.values: every value must be finite")
            return None, None
        if topology is not None and len(values) != topology.n:
            problems.append(
                f"initial_state.values: must have length {topology.n}, got {len(values)}"
            )
            return None, None
        x0 = np.array(values, dtype=float)
        return x0, {"kind": "explicit", "values": [float(v) for v in values]}
    if kind == "uniform":
        _check_keys(section, "initial_state", ("kind", "lo", "hi", "seed"), problems)
        try:
            lo = _as_number(section.get("lo", 0.0), "lo")
            hi = _as_number(section.get("hi", math.tau), "hi")
        except (ValueError, OverflowError) as exc:
            problems.append(f"initial_state: {exc}")
            return None, None
        if not lo < hi:
            problems.append(f"initial_state: needs lo < hi, got ({lo}, {hi})")
            return None, None
        if not math.isfinite(hi - lo):
            problems.append(f"initial_state: needs a finite width hi - lo, got ({lo}, {hi})")
            return None, None
        state_seed = _seed(section.get("seed"), "initial_state", seed, problems)
        if topology is None or state_seed is None:
            return None, None
        rng = np.random.default_rng(state_seed)
        x0 = rng.uniform(lo, hi, topology.n)
        return x0, {"kind": "uniform", "lo": lo, "hi": hi, "seed": state_seed}
    problems.append(f"initial_state.kind: must be 'uniform' or 'explicit', got {kind!r}")
    return None, None


def _parse_run(section, problems):
    if section is not None and not isinstance(section, dict):
        problems.append("run: must be an object")
    section = section if isinstance(section, dict) else {}
    _check_keys(section, "run", ("tol", "max_steps"), problems)
    tol = section.get("tol", DEFAULT_SPREAD_TOL)
    max_steps = section.get("max_steps", DEFAULT_MAX_STEPS)
    if not _is_number(tol) or not _is_finite(tol) or not tol > 0:
        problems.append(f"run.tol: must be a positive finite number, got {tol!r}")
        tol = DEFAULT_SPREAD_TOL
    if not _is_integer(max_steps) or max_steps < 0:
        problems.append(f"run.max_steps: must be a nonnegative integer, got {max_steps!r}")
        max_steps = DEFAULT_MAX_STEPS
    return float(tol), max_steps


def _parse_outputs(section, problems):
    if section is not None and not isinstance(section, dict):
        problems.append("outputs: must be an object")
    section = section if isinstance(section, dict) else {}
    _check_keys(section, "outputs", DEFAULT_OUTPUTS, problems)
    # A plain name inside the output directory: no path, no NUL.
    names = {}
    for key, default in DEFAULT_OUTPUTS.items():
        value = section.get(key, default)
        if isinstance(value, str) and value not in ("", ".", "..") and "/" not in value and "\0" not in value:
            names[key] = value
        else:
            problems.append(f"outputs.{key}: must be a non-empty filename")
    # Every run writes the summary beside the trace or the samples, never both of those.
    summary = names.get("summary")
    if summary is not None and summary in (names.get("trace"), names.get("samples")):
        problems.append(f"outputs.summary: must differ from the trace and samples names, got {summary!r}")
    return tuple(names.get(key, default) for key, default in DEFAULT_OUTPUTS.items())


def _check_keys(section, label, allowed, problems):
    """One problem for each key of ``section`` that ``allowed`` does not name."""
    problems.extend(f"{label}: unknown key {key!r}" for key in section if key not in allowed)


def _seed(value, section, base, problems):
    """The one seed rule, for ``section`` (``None``: the optional top-level seed): a
    nonnegative integer as it is; if missing, one derived from the top-level seed
    ``base`` with the section's stream tag; else a problem recorded and ``None``."""
    label = "seed" if section is None else f"{section}.seed"
    if _is_integer(value) and value >= 0:
        return value
    if value is not None:
        problems.append(f"{label}: must be a nonnegative integer, got {value!r}")
    elif section is not None:
        if base is not None:
            return derive_seed(base, _SEED_TAGS[section])
        problems.append(f"{label}: required (or provide a top-level seed to derive it from)")
    return None


def override_seed(doc: Any, seed: int) -> None:
    """Make ``seed`` the top-level seed of ``doc`` in place and drop the section seeds
    derived from it, so that it wins over seeds frozen into the document (the CLI's
    ``--seed``). Anything but an object is left for ``parse_config`` to reject."""
    if isinstance(doc, dict):
        doc["seed"] = seed
        for section in _SEED_TAGS:
            if isinstance(doc.get(section), dict):
                doc[section].pop("seed", None)


def _is_number(value) -> bool:
    """Whether a JSON value is a number: an int or a float, but not a bool.
    Finiteness is checked where each field is validated."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    """Whether a JSON value is an integer: an int, but not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _as_number(value, label) -> float:
    """A JSON number as a float; anything else is a ``ValueError`` naming ``label``."""
    if not _is_number(value):
        raise ValueError(f"{label} must be a number, got {value!r}")
    return float(value)


def _is_finite(number) -> bool:
    """Whether a JSON number is a finite float; ints beyond float range are not."""
    try:
        return math.isfinite(number)
    except OverflowError:
        return False


def _require_int(section, key, label, minimum):
    value = section.get(key)
    if not _is_integer(value) or value < minimum:
        raise ValueError(f"{label} must be an integer >= {minimum}, got {value!r}")
    return value


# A 5-node balanced, strongly connected stand-in topology (each node sends
# to the next one and the one after, all unit weights, so in-weight equals
# out-weight everywhere). The original experiments' exact digraph is not
# available; this stand-in is documented, not claimed identical.
STANDIN_ARCS = sorted(
    [[v, v % 5 + 1, 1.0] for v in range(1, 6)] + [[v, (v + 1) % 5 + 1, 1.0] for v in range(1, 6)]
)


def _superposition_preset(mode, mixing, topology=None):
    """A superposition scenario over a U(0, 10) channel, by default on the stand-in topology."""
    return {
        "topology": topology or {"kind": "custom", "n": 5, "arcs": STANDIN_ARCS},
        "channel": {"law": {"kind": "uniform", "lo": 0.0, "hi": 10.0}, "mode": mode, "seed": 7},
        "protocol": {"variant": "superposition", "mixing": mixing},
        "initial_state": {"kind": "uniform", "lo": 0.0, "hi": math.tau, "seed": 4242},
    }


PRESETS: dict[str, dict] = {
    "ti-sigma02": _superposition_preset("time-invariant", 0.2),
    "ti-sigma05": _superposition_preset("time-invariant", 0.5),
    "tv-sigma05": _superposition_preset("iid-per-step", 0.5),
    "tv-complete-n30-sigma08": _superposition_preset("iid-per-step", 0.8, {"kind": "complete", "n": 30}),
}

PRESET_NAMES = tuple(sorted(PRESETS))


def preset(name: str) -> dict:
    """Deep copy of a named preset scenario document."""
    try:
        return copy.deepcopy(PRESETS[name])
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}") from None
