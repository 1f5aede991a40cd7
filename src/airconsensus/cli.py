"""Scenario-driven command line front end.

Runs one scenario (trace + summary) or a Monte Carlo batch (per-run
samples + aggregate statistics). Exit codes: 0 converged, 2 max-steps
(a batch exits 0 and counts its non-converged runs), 1 usage, config or
any other error (one `error:` line, no traceback; an error the program
did not foresee reads `error: internal: <Type>: ...`).
"""

from __future__ import annotations

import argparse
import atexit
import functools
import gc
import json
import math
import os
import sys
from pathlib import Path
from typing import Any, Iterator, Mapping, Optional, Sequence

# One BLAS thread unless the caller chose a count, set before numpy loads:
# OpenBLAS starts a worker thread per CPU then, and a Monte Carlo batch
# forks one process per CPU only from a process of one OS thread
# (``analysis._processes``). A single run on a 500-node graph takes as
# long on one BLAS thread as on two.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .analysis import monte_carlo, predicted_consensus, summarize_run
from .config import PRESET_NAMES, ConfigError, ScenarioConfig, override_seed, parse_config, preset
from .linalg import subdominant_modulus
from .protocol import RunAggregates, invariant_operator, record_run

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MAX_STEPS = 2

#: How the line of an exception the program did not foresee begins: every
#: foreseen failure has an ``error:`` line of its own, so tests and CI can
#: tell a rejected input from a crash.
INTERNAL_ERROR = "error: internal:"

#: Most Monte Carlo runs one invocation takes. Each run keeps its seed,
#: result and sample line until the end, about 350 bytes (10^4 to 10^6 runs
#: of the tv-sigma05 preset peaked at 44 to 379 MB), so a batch at the bound
#: stays below about 0.5 GB. The count is checked before anything is drawn
#: or written.
MAX_RUNS = 1 << 20

#: Most items of a list ``summary.json`` encodes at once. The C encoder
#: holds a few small strings per number of the piece it encodes, so the
#: 4500-arc echo of a 500-node graph peaked 1 MB above the document
#: encoded whole, and 0.07 MB (and a third faster) 256 items at a time.
LIST_CHUNK = 256


@functools.cache
def _freeze_heap_at_exit() -> None:
    """Have the interpreter freeze its heap as the process exits, once per
    process: finalization's collections then skip the objects importing
    numpy and the package left tracked, about 30 ms of every invocation.
    Nothing changes while the process lives, so callers of ``main`` in a
    long-lived process see no difference."""
    atexit.register(gc.freeze)


def main(argv: Optional[list[str]] = None) -> int:
    _freeze_heap_at_exit()
    try:
        return _main(argv)
    except Exception as exc:  # the last boundary: one error line, never a traceback
        message = f"{type(exc).__name__}: {exc}".replace("\n", " ")
        print(f"{INTERNAL_ERROR} {message}", file=sys.stderr)
        return EXIT_USAGE


def _main(argv: Optional[list[str]]) -> int:
    parser = argparse.ArgumentParser(
        prog="airconsensus",
        description="Simulate consensus over a wireless multiple-access channel.",
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--config", type=Path, help="path to a JSON scenario document")
    source.add_argument("--preset", choices=PRESET_NAMES, help="named built-in scenario")
    parser.add_argument("--seed", type=int, help="override the scenario's top-level seed")
    parser.add_argument("--runs", type=int, help=f"Monte Carlo mode: number of runs (2 to {MAX_RUNS})")
    parser.add_argument("--out-dir", type=Path, default=Path("."), help="output directory")
    parser.add_argument("--quiet", action="store_true", help="suppress the result line")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE

    if (args.config is None) == (args.preset is None):
        print("error: exactly one of --config or --preset is required", file=sys.stderr)
        return EXIT_USAGE
    if args.runs is not None and not 2 <= args.runs <= MAX_RUNS:
        print(f"error: --runs must be at least 2 and at most {MAX_RUNS}", file=sys.stderr)
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
    (``protocol.invariant_operator``), from the O(|E|) form of the update:
    no n x n array is built."""
    D = invariant_operator(cfg.topology, cfg.channel, cfg.protocol)
    if D is None:
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
    doc = _flatten({"config": cfg.resolved, "result": _summary_dict(summary, aggregates.reason)})
    try:
        _write_flat(summary_path, doc)
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
        _write_flat(summary_path, doc)
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


def _summary_dict(summary, reason: str) -> dict:
    return {
        "consensus_value": summary.consensus_value,
        "predicted_value": summary.predicted_value,
        "steps": summary.steps_to_converge,
        "spread_final": summary.spread_final,
        "rate_measured": summary.rate_measured,
        "rate_predicted": summary.rate_predicted,
        "converged": summary.converged,
        "reason": reason,
        "hull_violated": summary.hull_violated,
    }


def _write_flat(path: Path, doc: Mapping[str, Any]) -> None:
    """Write ``_flat_json(doc)`` and a newline to ``path`` piece by piece,
    so no copy of the whole document is held."""
    with path.open("w") as fh:
        fh.writelines(_flat_json(doc))
        fh.write("\n")


def _flat_json(doc: Mapping[str, Any]) -> Iterator[str]:
    """``json.dumps(doc, sort_keys=True, indent=2)`` of a flat document, byte
    for byte, in pieces: each key with its scalar value, and each list
    ``LIST_CHUNK`` items at a time, every piece encoded by the C encoder
    (``indent`` makes ``json`` fall back to its pure-Python encoder). A
    non-finite float value is written as ``null``, so the document is
    strict JSON (RFC 8259); the lists the resolved config echoes are finite
    by validation and are not checked."""
    separator = "{\n"
    for key in sorted(doc):
        value = doc[key]
        yield f"{separator}  {json.dumps(key)}: "
        separator = ",\n"
        if isinstance(value, (list, tuple)) and value:
            yield "[\n    "
            for start in range(0, len(value), LIST_CHUNK):
                yield (",\n    " if start else "") + _indented_items(value[start : start + LIST_CHUNK])
            yield "\n  ]"
        else:
            yield json.dumps(None if isinstance(value, float) and not math.isfinite(value) else value)
    yield "\n}" if doc else "{}"


def _indented_items(items: Sequence[Any]) -> str:
    """The items of a list as ``indent=2`` lays them out one level deep,
    without the list's brackets: an item's layout does not depend on its
    neighbors, so a list's items may be laid out a chunk at a time. A list
    of numbers (or ``null`` or booleans) or of nonempty such lists, all the
    resolved config holds, is laid out from its compact C-encoded text."""
    text = json.dumps(items, separators=(",", ":"))
    body = text[1:-1]
    if '"' not in text and "[]" not in text:
        if "[" not in body:
            return body.replace(",", ",\n    ")
        # A list of lists is "[[...],[...]]", with no bracket between its
        # inner lists' "],[" separators.
        inner = body[1:-1].replace("],[", "\0")
        if body[0] == "[" and body[-1] == "]" and "[" not in inner and "]" not in inner:
            inner = inner.replace(",", ",\n      ").replace("\0", "\n    ],\n    [\n      ")
            return "[\n      " + inner + "\n    ]"
    # "[\n    " + items + "\n  ]" once shifted one level in.
    return json.dumps(items, indent=2).replace("\n", "\n  ")[6:-4]


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
