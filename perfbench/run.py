"""End-to-end and per-layer benchmark of the ``airconsensus`` CLI.

    python3 perfbench/run.py --workload mc-dense --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 5        # every workload, both modes

A run generates the workload's scenario from ``--seed``, then drives the
CLI in a closed loop, one fresh interpreter at a time, for ``--seconds``.
Every invocation's outputs are checked (see ``checks.py``). With
``--trace 0`` each round is one untraced invocation and the end-to-end
metrics are reported; with ``--trace 1`` each round is one untraced and
one traced invocation, and the per-layer metrics come from the traced
ones. The last line of standard output is the result as one JSON object.

The CLI runs from the ``src`` directory of this checkout with one BLAS
thread; see README.md for why.
"""

from __future__ import annotations

import os

# One BLAS thread, here and in every CLI child, set before numpy loads.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Optional  # noqa: E402

from checks import check_montecarlo, check_single, parse_samples, reference_time_invariant  # noqa: E402
from hostspeed import REFERENCE_S, kernel  # noqa: E402
from scenarios import WORKLOADS, Scenario, generate  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("agent_steps_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

PER_LAYER = [
    ("config.parse_s", "s", "lower"),
    ("graph.strongly_connected_s", "s", "lower"),
    ("channel.sample_calls", "count", "lower"),
    ("channel.sample_s", "s", "lower"),
    ("channel.sample_us", "us", "lower"),
    ("protocol.run_calls", "count", "lower"),
    ("protocol.steps", "count", "lower"),
    ("protocol.step_s", "s", "lower"),
    ("protocol.spread_s", "s", "lower"),
    ("protocol.run_self_s", "s", "lower"),
    ("analysis.monte_carlo_self_s", "s", "lower"),
    ("analysis.summarize_s", "s", "lower"),
    ("analysis.measure_rate_s", "s", "lower"),
    ("analysis.predict_s", "s", "lower"),
    ("linalg.dominant_eigvec_s", "s", "lower"),
    ("linalg.second_eig_s", "s", "lower"),
    ("cli.write_s", "s", "lower"),
    ("cli.bytes_written", "count", "lower"),
    ("cli.main_self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

COUNTS = ("channel.sample_calls", "protocol.run_calls", "protocol.steps", "cli.bytes_written")


@dataclass
class Invocation:
    """One CLI invocation; times in measured seconds, ``scale`` converts
    them to reference-host seconds (see hostspeed.py)."""

    scale: float
    wall_s: float
    setup_s: float
    peak_rss_mb: float
    spans: dict
    bytes_written: int


class Bench:
    """One workload's closed loop of CLI invocations in a private work directory."""

    def __init__(self, scenario: Scenario, work: Path):
        self.sc = scenario
        self.work = work
        self.config = work / "scenario.json"
        self.out = work / "out"
        self.stats = work / "stats.json"
        # Byte-code caching on, whatever the caller's setting, as for a user
        # of an installed package; the warm-up run writes the cache.
        self.env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_ENV)
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.ref = None  # outside computation for a time-invariant run
        self.digest = None  # outputs of the first checked invocation
        self.agent_updates = 0
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def prepare(self) -> None:
        self.work.mkdir(parents=True)
        self.config.write_text(json.dumps(self.sc.doc))
        if self.sc.runs is None:
            sys.path.insert(0, str(SRC))
            from airconsensus.channel import sample
            from airconsensus.config import parse_config

            cfg = parse_config(self.sc.doc)
            self.ref = reference_time_invariant(sample(cfg.channel, 0).gains, self.sc.mixing, self.sc.x0)

    def launch(self, trace: bool, cli_args: list[str]):
        """Run the CLI once, between two calibration kernels; return (exit code,
        wall seconds, launch stamp, child stats, host speed scale)."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir()
        self.stats.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "cli_child.py"), str(self.stats), str(int(trace)), "--"]
        cmd += cli_args + ["--out-dir", str(self.out)]
        before = kernel()
        with open(self.work / "stdout.txt", "wb") as so, open(self.work / "stderr.txt", "wb") as se:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, env=self.env, stdout=so, stderr=se, cwd=ROOT)
            try:
                proc.wait()
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.monotonic() - t0
        scale = 2 * REFERENCE_S / (before + kernel())
        stats = json.loads(self.stats.read_text()) if self.stats.exists() else {}
        if proc.returncode == 0 and not str(stats.get("package", "")).startswith(str(SRC)):
            raise RuntimeError(f"the CLI ran from {stats.get('package')}, not from {SRC}")
        return proc.returncode, wall, t0, stats, scale

    def warm_up(self) -> None:
        """One small preset run, so byte-code and page caches are filled before timing."""
        code = self.launch(False, ["--preset", "ti-sigma02"])[0]
        if code != 0:
            raise RuntimeError(f"warm-up invocation exited with code {code}")

    def invoke(self, trace: bool) -> Optional[Invocation]:
        """One measured operation; None if it failed."""
        self.attempted += 1
        cli_args = ["--config", str(self.config)]
        if self.sc.runs is not None:
            cli_args += ["--runs", str(self.sc.runs)]
        code, wall, t0, stats, scale = self.launch(trace, cli_args)
        if code != 0:
            self.failed += 1
            err = (self.work / "stderr.txt").read_text()[-2000:]
            print(f"invocation failed with exit code {code}: {err}", file=sys.stderr)
            return None
        if not self.check_outputs(trace):
            self.failed += 1
            return None
        return Invocation(
            scale=scale,
            wall_s=wall,
            setup_s=stats["setup_end"] - t0,
            peak_rss_mb=stats["peak_rss_kb"] / 1024.0,
            spans=stats["spans"],
            bytes_written=sum(p.stat().st_size for p in self.out.iterdir()),
        )

    def check_outputs(self, trace: bool) -> bool:
        """Full checks on the first outputs; byte identity with them afterwards."""
        files = {p.name: p.read_bytes() for p in sorted(self.out.iterdir())}
        digest = hashlib.sha256(b"".join(k.encode() + v for k, v in files.items())).hexdigest()
        if self.digest is not None:
            if digest == self.digest:
                return True
            what = "traced" if trace else "untraced"
            return self.problem(f"{what} invocation wrote outputs that differ from the first invocation's")
        summary = json.loads(files.get("summary.json", b"{}"))
        sc = self.sc
        if sc.runs is not None:
            samples = files.get("samples.csv", b"").decode()
            # Only a complete graph with iid coefficients is symmetric enough
            # for the mean consensus to estimate mean(x0).
            symmetric = sc.doc["topology"]["kind"] == "complete" and sc.mode == "iid-per-step"
            found = check_montecarlo(summary, samples, sc.x0, sc.runs, unbiased=symmetric)
            if not found:
                self.agent_updates = sum(row[3] for row in parse_samples(samples)) * sc.n
        else:
            found = check_single(summary, files.get("trace.csv", b"").decode(), sc.x0, sc.doc["run"]["tol"], self.ref)
            if not found:
                self.agent_updates = summary["result.steps"] * sc.n
        if found:
            return self.problem("; ".join(found))
        self.digest = digest
        return True

    def problem(self, text: str) -> bool:
        self.problems.append(text)
        print(f"{self.sc.workload}: {text}", file=sys.stderr)
        return False


def layer_metrics(inv: Invocation) -> dict:
    """Per-layer values of one traced invocation from its span totals,
    times in reference-host seconds."""
    spans = inv.spans

    def total(name):
        return spans[name]["total_s"] * inv.scale

    def own(name):
        return (spans[name]["total_s"] - spans[name]["child_s"]) * inv.scale

    sample_calls = spans["channel.sample"]["calls"]
    return {
        "config.parse_s": total("config.parse_config"),
        "graph.strongly_connected_s": total("graph.is_strongly_connected"),
        "channel.sample_calls": sample_calls,
        "channel.sample_s": total("channel.sample"),
        "channel.sample_us": 1e6 * total("channel.sample") / sample_calls if sample_calls else 0.0,
        "protocol.run_calls": spans["protocol.run"]["calls"],
        "protocol.steps": spans["protocol.run"]["items"],
        "protocol.step_s": total("protocol.step_superposition"),
        "protocol.spread_s": total("protocol.spread"),
        "protocol.run_self_s": own("protocol.run"),
        "analysis.monte_carlo_self_s": own("analysis.monte_carlo"),
        "analysis.summarize_s": total("analysis.summarize_run"),
        "analysis.measure_rate_s": total("analysis.measure_rate"),
        "analysis.predict_s": total("analysis.predicted_consensus"),
        "linalg.dominant_eigvec_s": total("linalg.dominant_left_eigenvector"),
        "linalg.second_eig_s": total("linalg.second_eigenvalue_modulus"),
        "cli.write_s": total("cli.write"),
        "cli.bytes_written": inv.bytes_written,
        "cli.main_self_s": own("cli.main"),
    }


def trace_self_checks(bench: Bench, inv: Invocation) -> None:
    """Traced-run consistency: children fit in parents; one draw per step."""
    for name, span in inv.spans.items():
        if span["child_s"] > span["total_s"] + 1e-9:
            bench.problem(f"wrapped children of {name} took {span['child_s']:.6f} s, more than its {span['total_s']:.6f} s")
    if bench.sc.mode == "iid-per-step":
        calls, steps = inv.spans["channel.sample"]["calls"], inv.spans["protocol.run"]["items"]
        if calls != steps:
            bench.problem(f"channel.sample ran {calls} times for {steps} protocol steps")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> Optional[dict]:
    """Result object of one run, or None if no invocation succeeded."""
    scenario = generate(workload, seed)
    work = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    bench = Bench(scenario, work)
    untraced: list[Optional[Invocation]] = []
    traced: list[Optional[Invocation]] = []
    try:
        bench.prepare()
        bench.warm_up()
        deadline = time.monotonic() + seconds
        while True:
            untraced.append(bench.invoke(trace=False))
            if trace:
                traced.append(bench.invoke(trace=True))
            if time.monotonic() >= deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    untraced = [i for i in untraced if i is not None]
    traced = [i for i in traced if i is not None]
    if not untraced or (trace and not traced):
        return None
    if trace:
        for inv in traced:
            trace_self_checks(bench, inv)
        per_inv = [layer_metrics(inv) for inv in traced]
        values = {name: statistics.median(m[name] for m in per_inv) for name, _, _ in PER_LAYER[:-1]}
        for name in COUNTS:
            if len({m[name] for m in per_inv}) != 1:
                bench.problem(f"{name} differs between traced invocations")
            values[name] = per_inv[0][name]
        values["trace.overhead_s"] = statistics.median(i.wall_s * i.scale for i in traced) - statistics.median(
            i.wall_s * i.scale for i in untraced
        )
        spec = PER_LAYER
    else:
        values = {
            "wall_s": statistics.median(i.wall_s * i.scale for i in untraced),
            "setup_s": statistics.median(i.setup_s * i.scale for i in untraced),
            "agent_steps_per_s": statistics.median(bench.agent_updates / (i.wall_s * i.scale) for i in untraced),
            "peak_rss_mb": statistics.median(i.peak_rss_mb for i in untraced),
        }
        print(
            f"{workload}: measured medians wall {statistics.median(i.wall_s for i in untraced):.4f} s, "
            f"setup {statistics.median(i.setup_s for i in untraced):.4f} s; "
            f"host speed scale {statistics.median(i.scale for i in untraced):.3f}",
            file=sys.stderr,
        )
        spec = END_TO_END
    return {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in spec},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark the airconsensus CLI.")
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None, help="default: both with --workload all")
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit, so the running CLI child is killed and
    # waited for, and the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "airconsensus" / "cli.py").is_file():
        print(f"error: no airconsensus sources under {SRC}", file=sys.stderr)
        return 2

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        if result is None:
            print(f"error: no invocation of {args.workload} succeeded", file=sys.stderr)
            return 1
        print(json.dumps(result))
        return 0

    code = 0
    for workload in WORKLOADS:
        for trace in [args.trace] if args.trace is not None else [0, 1]:
            result = run_workload(workload, args.seed, args.seconds, bool(trace))
            if result is None or not result["correct"]:
                code = 1
            if result is None:
                print(f"== {workload} trace={trace}: no invocation succeeded")
                continue
            print(f"== {workload} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, m in result["metrics"].items():
                print(f"  {name:30s} {m['value']:14.6g} {m['unit']}")
    return code


if __name__ == "__main__":
    sys.exit(main())
