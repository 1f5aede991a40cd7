"""Scenario-driven command line front end.

Runs one scenario (trace + summary) or a Monte Carlo batch (per-run
samples + aggregate statistics). Exit codes: 0 converged, 2 max-steps,
1 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Any, Mapping, Optional

import numpy as np

from .analysis import monte_carlo, predicted_consensus, summarize_run
from .channel import TIME_INVARIANT, sample
from .config import PRESET_NAMES, ConfigError, ScenarioConfig, override_seed, parse_config, preset
from .linalg import perron_operator, subdominant_modulus
from .protocol import (
    CLASSICAL,
    CONVERGED,
    MAX_STEPS,
    SUPERPOSITION,
    RunAggregates,
    effective_operator,
    record_run,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MAX_STEPS = 2


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="airconsensus",
        description="Simulate consensus over a wireless multiple-access channel.",
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--config", type=Path, help="path to a JSON scenario document")
    source.add_argument("--preset", choices=PRESET_NAMES, help="named built-in scenario")
    parser.add_argument("--seed", type=int, help="override the scenario's top-level seed")
    parser.add_argument("--runs", type=int, help="Monte Carlo mode: number of runs (>= 2)")
    parser.add_argument("--out-dir", type=Path, default=Path("."), help="output directory")
    parser.add_argument("--quiet", action="store_true", help="suppress the result line")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE

    if (args.config is None) == (args.preset is None):
        print("error: exactly one of --config or --preset is required", file=sys.stderr)
        return EXIT_USAGE
    if args.runs is not None and args.runs < 2:
        print("error: --runs must be at least 2", file=sys.stderr)
        return EXIT_USAGE

    if args.config is not None:
        # The one JSON decoder of a scenario: RFC 8259 text is UTF-8.
        try:
            doc: Any = json.loads(args.config.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            print(
                f"error: {args.config}: parse error at line {exc.lineno} column {exc.colno}: {exc.msg}",
                file=sys.stderr,
            )
            return EXIT_USAGE
        except (OSError, UnicodeDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
            print(f"error: cannot read config {args.config}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        doc = preset(args.preset)
    if args.seed is not None:
        override_seed(doc, args.seed)

    try:
        cfg = parse_config(doc)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE

    try:
        args.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory {args.out_dir}: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.runs is not None:
        return _run_montecarlo(cfg, args.runs, args.out_dir, args.quiet)
    return _run_scenario(cfg, args.out_dir, args.quiet)


def _predictions(cfg: ScenarioConfig):
    """Predicted consensus value and contraction rate, where they exist
    (time-invariant superposition, or the classical protocol), from the
    O(|E|) form of the update: no n x n array is built."""
    if cfg.protocol.variant == SUPERPOSITION and cfg.channel.mode == TIME_INVARIANT:
        D = effective_operator(sample(cfg.channel, 0), cfg.protocol.mixing)
    elif cfg.protocol.variant == CLASSICAL:
        D = perron_operator(cfg.topology, cfg.protocol.step_size)
    else:
        return None, None
    try:
        return predicted_consensus(D, cfg.x0), subdominant_modulus(D)
    except (np.linalg.LinAlgError, RuntimeError) as exc:
        print(f"warning: no prediction: {exc}", file=sys.stderr)
        return None, None


def _run_scenario(cfg: ScenarioConfig, out_dir: Path, quiet: bool) -> int:
    trace_path = out_dir / cfg.trace_file
    summary_path = out_dir / cfg.summary_file
    try:
        aggregates = _write_trace(trace_path, cfg)
    except OSError as exc:
        print(f"error: cannot write {exc.filename or trace_path}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    predicted, rate_predicted = _predictions(cfg)
    summary = summarize_run(aggregates, predicted_value=predicted, rate_predicted=rate_predicted)
    doc = _flatten({"config": cfg.resolved, "result": _summary_dict(summary)})
    try:
        summary_path.write_text(_dumps_flat(doc) + "\n")
    except OSError as exc:
        print(f"error: cannot write {exc.filename or summary_path}: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if not quiet:
        print(
            f"{aggregates.reason} after {aggregates.steps} steps: consensus {summary.consensus_value:.12g} "
            f"(spread {summary.spread_final:.3e}); wrote {trace_path} and {summary_path}"
        )
    return EXIT_OK if summary.converged else EXIT_MAX_STEPS


def _run_montecarlo(cfg: ScenarioConfig, runs: int, out_dir: Path, quiet: bool) -> int:
    result = monte_carlo(
        cfg.topology,
        cfg.channel,
        cfg.protocol,
        cfg.x0,
        runs,
        tol=cfg.tol,
        max_steps=cfg.max_steps,
    )
    samples_path = out_dir / cfg.samples_file
    lines = ["run,seed,consensus_value,steps,converged"]
    for idx in range(result.runs):
        lines.append(
            f"{idx},{result.seeds[idx]},{result.consensus_values[idx]:.17g},"
            f"{result.steps[idx]},{int(result.converged[idx])}"
        )
    doc = _flatten(
        {
            "config": cfg.resolved,
            "montecarlo": {
                "runs": result.runs,
                "non_converged": result.non_converged,
                "mean_consensus": result.mean_consensus,
                "std_consensus": result.std_consensus,
                "mean_steps": result.mean_steps,
                "initial_mean": float(np.mean(cfg.x0)),
                "samples_file": cfg.samples_file,
            },
        }
    )
    summary_path = out_dir / cfg.summary_file
    try:
        samples_path.write_text("\n".join(lines) + "\n")
        summary_path.write_text(_dumps_flat(doc) + "\n")
    except OSError as exc:
        print(f"error: cannot write {exc.filename or samples_path}: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if not quiet:
        print(
            f"{result.runs} runs ({result.non_converged} not converged): "
            f"mean consensus {result.mean_consensus:.12g}, std {result.std_consensus:.6g}, "
            f"mean steps {result.mean_steps:.1f}; wrote {samples_path} and {summary_path}"
        )
    return EXIT_OK


def _write_trace(path: Path, cfg: ScenarioConfig) -> RunAggregates:
    """Run the scenario and stream its ``step,agent,x`` rows, one per agent
    and step, to ``path`` a chunk at a time as the run makes them: memory
    does not grow with the step count. Return what the summary reads of the
    run."""
    # Imported on first use: a Monte Carlo run writes no trace.
    from .textfmt import TraceRows

    rows = TraceRows(cfg.topology.n)
    with path.open("wb") as fh:
        fh.write(b"step,agent,x\n")
        return record_run(
            lambda states, first_step: fh.write(rows(states, first_step)),
            cfg.topology, cfg.channel, cfg.protocol, cfg.x0, tol=cfg.tol, max_steps=cfg.max_steps,
        )


def _summary_dict(summary) -> dict:
    return {
        "consensus_value": summary.consensus_value,
        "predicted_value": summary.predicted_value,
        "steps": summary.steps_to_converge,
        "spread_final": summary.spread_final,
        "rate_measured": summary.rate_measured,
        "rate_predicted": summary.rate_predicted,
        "converged": summary.converged,
        "reason": CONVERGED if summary.converged else MAX_STEPS,
        "hull_violated": summary.hull_violated,
    }


def _dumps_flat(doc: Mapping[str, Any]) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)`` of a flat document, byte
    for byte, with the values encoded by the C encoder: ``indent`` makes
    ``json`` fall back to its pure-Python encoder. A non-finite float value
    is written as ``null``, so the document is strict JSON (RFC 8259); the
    lists the resolved config echoes are finite by validation and are not
    checked."""
    lines = []
    for key in sorted(doc):
        value = doc[key]
        if isinstance(value, float) and not math.isfinite(value):
            value = None
        text = json.dumps(value, separators=(",", ":"))
        if isinstance(value, (list, tuple)) and value:
            text = _indent_list(text) or json.dumps(value, indent=2).replace("\n", "\n  ")
        lines.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(lines) + "\n}" if lines else "{}"


def _indent_list(text: str) -> Optional[str]:
    """Compact JSON of a list, laid out as ``indent=2`` lays it out one level
    deep, or ``None`` unless it is a list of numbers (or ``null`` or
    booleans) or a list of nonempty such lists: all the resolved config
    holds."""
    if '"' in text or "[]" in text:
        return None
    body = text[1:-1]
    if "[" not in body:
        return "[\n    " + body.replace(",", ",\n    ") + "\n  ]"
    # A list of lists is "[[...],[...]]", with no bracket between its
    # inner lists' "],[" separators.
    inner = body[1:-1].replace("],[", "\0")
    if body[0] != "[" or body[-1] != "]" or "[" in inner or "]" in inner:
        return None
    inner = inner.replace(",", ",\n      ").replace("\0", "\n    ],\n    [\n      ")
    return "[\n    [\n      " + inner + "\n    ]\n  ]"


def _flatten(tree: Mapping[str, Any], prefix: str = "") -> dict:
    """Nested mappings to dotted flat keys; lists and scalars stay values."""
    flat: dict[str, Any] = {}
    for key, value in tree.items():
        dotted = f"{prefix}{key}"
        if isinstance(value, Mapping):
            flat.update(_flatten(value, prefix=f"{dotted}."))
        else:
            flat[dotted] = value
    return flat


if __name__ == "__main__":
    sys.exit(main())
