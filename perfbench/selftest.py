"""Self-tests of the benchmark: each correctness check rejects a wrong output.

    python3 perfbench/selftest.py

Runs the CLI once on mc-dense and once on ti-sparse (seed 1, about 6 s),
confirms the checks accept those outputs, then corrupts them one way at
a time and confirms the matching check rejects each. Also covers the
traced-run self-checks, the tracer's wrapping and restoring, the
scenario generator and the agreement of BENCHMARK.json with run.py.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import types
import unittest

import run  # sets the BLAS thread count before numpy loads
from checks import Reference, check_montecarlo, check_single, parse_samples, reference_time_invariant
from cli_child import Tracer, patch
from scenarios import WORKLOADS, generate, strongly_connected

WORK = run.ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"


def run_cli(workload: str) -> tuple:
    """Scenario and output files of one CLI run of ``workload`` at seed 1."""
    sc = generate(workload, 1)
    out = WORK / workload
    out.mkdir(parents=True)
    config = out / "scenario.json"
    config.write_text(json.dumps(sc.doc))
    cmd = [sys.executable, "-m", "airconsensus.cli", "--config", str(config), "--out-dir", str(out), "--quiet"]
    if sc.runs is not None:
        cmd += ["--runs", str(sc.runs)]
    env = dict(os.environ, PYTHONPATH=str(run.SRC), **run.BLAS_ENV)
    subprocess.run(cmd, env=env, check=True)
    return sc, json.loads((out / "summary.json").read_text()), out


def samples_text(rows) -> str:
    lines = ["run,seed,consensus_value,steps,converged"]
    lines += [f"{r},{s},{v:.17g},{k},{c}" for r, s, v, k, c in rows]
    return "\n".join(lines) + "\n"


def summary_for(rows, base: dict) -> dict:
    """``base`` with the Monte Carlo statistics recomputed as the program does."""
    values = [r[2] for r in rows]
    mean = math.fsum(values) / len(values)
    std = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (len(values) - 1))
    return dict(
        base,
        **{
            "montecarlo.mean_consensus": mean,
            "montecarlo.std_consensus": std,
            "montecarlo.mean_steps": math.fsum(r[3] for r in rows) / len(rows),
        },
    )


class MonteCarloChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.sc, cls.summary, out = run_cli("mc-dense")
        cls.samples = (out / "samples.csv").read_text()
        cls.rows = parse_samples(cls.samples)

    def problems(self, summary=None, samples=None):
        return check_montecarlo(
            self.summary if summary is None else summary,
            self.samples if samples is None else samples,
            self.sc.x0,
            self.sc.runs,
            unbiased=True,
        )

    def assertRejected(self, fragment, **kwargs):
        found = self.problems(**kwargs)
        self.assertTrue(any(fragment in p for p in found), f"expected {fragment!r} in {found}")

    def test_program_output_passes(self):
        self.assertEqual(self.problems(), [])

    def test_consensus_outside_initial_hull(self):
        rows = list(self.rows)
        r, s, _, k, c = rows[7]
        rows[7] = (r, s, max(self.sc.x0) + 1e-3, k, c)
        self.assertRejected("outside [min x0, max x0]", samples=samples_text(rows), summary=summary_for(rows, self.summary))

    def test_mean_steps_off_by_one(self):
        summary = dict(self.summary)
        summary["montecarlo.mean_steps"] += 1
        self.assertRejected("montecarlo.mean_steps", summary=summary)

    def test_std_off_by_one_ulp(self):
        summary = dict(self.summary)
        summary["montecarlo.std_consensus"] = math.nextafter(summary["montecarlo.std_consensus"], 1.0)
        self.assertRejected("montecarlo.std_consensus", summary=summary)

    def test_mean_consensus_mismatch(self):
        summary = dict(self.summary)
        summary["montecarlo.mean_consensus"] += 1e-12
        self.assertRejected("montecarlo.mean_consensus", summary=summary)

    def test_repeated_seed(self):
        rows = list(self.rows)
        rows[3] = (rows[3][0], rows[2][1]) + rows[3][2:]
        self.assertRejected("seeds are not distinct", samples=samples_text(rows))

    def test_non_converged_replicate(self):
        rows = list(self.rows)
        rows[5] = rows[5][:4] + (0,)
        self.assertRejected("not every replicate converged", samples=samples_text(rows))

    def test_missing_replicate(self):
        self.assertRejected("expected runs", samples=samples_text(self.rows[:-1]))

    def test_biased_mean(self):
        se = self.summary["montecarlo.std_consensus"] / math.sqrt(self.sc.runs)
        away = math.copysign(4 * se, self.summary["montecarlo.mean_consensus"] - math.fsum(self.sc.x0) / self.sc.n)
        rows = [(r, s, v + away, k, c) for r, s, v, k, c in self.rows]
        found = self.problems(samples=samples_text(rows), summary=summary_for(rows, self.summary))
        self.assertTrue(any("standard errors" in p for p in found), found)
        self.assertFalse(any("montecarlo." in p for p in found), found)


class SingleRunChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.sc, cls.summary, out = run_cli("ti-sparse")
        cls.trace = (out / "trace.csv").read_text()
        sys.path.insert(0, str(run.SRC))
        from airconsensus.channel import sample
        from airconsensus.config import parse_config

        gains = sample(parse_config(cls.sc.doc).channel, 0).gains
        cls.ref = reference_time_invariant(gains, cls.sc.mixing, cls.sc.x0)

    def problems(self, summary=None, trace=None):
        return check_single(
            self.summary if summary is None else summary,
            self.trace if trace is None else trace,
            self.sc.x0,
            self.sc.doc["run"]["tol"],
            self.ref,
        )

    def assertRejected(self, fragment, **kwargs):
        found = self.problems(**kwargs)
        self.assertTrue(any(fragment in p for p in found), f"expected {fragment!r} in {found}")

    def trace_lines(self):
        return self.trace.splitlines()

    def test_program_output_passes(self):
        self.assertEqual(self.problems(), [])

    def test_consensus_shifted(self):
        summary = dict(self.summary)
        summary["result.consensus_value"] += 1e-3
        self.assertRejected("differs from w'x0", summary=summary)

    def test_rate_off(self):
        summary = dict(self.summary)
        summary["result.rate_measured"] *= 1.2
        self.assertRejected("log(lambda_2)", summary=summary)

    def test_not_converged(self):
        summary = dict(self.summary, **{"result.converged": False, "result.reason": "max-steps"})
        self.assertRejected("did not converge", summary=summary)

    def test_missing_trace_row(self):
        lines = self.trace_lines()
        del lines[-1]
        self.assertRejected("data rows", trace="\n".join(lines) + "\n")

    def test_hull_grows(self):
        lines = self.trace_lines()
        n = self.sc.n
        row = 1 + 5 * n + 3  # step 5, agent 4
        step, agent, _ = lines[row].split(",")
        lines[row] = f"{step},{agent},{max(self.sc.x0) + 1e-6!r}"
        self.assertRejected("hull grew", trace="\n".join(lines) + "\n")

    def test_final_spread_too_wide(self):
        lines = self.trace_lines()
        step, agent, x = lines[-1].split(",")
        lines[-1] = f"{step},{agent},{float(x) + 1e-6!r}"
        self.assertRejected("final spread", trace="\n".join(lines) + "\n")

    def test_rows_out_of_order(self):
        lines = self.trace_lines()
        lines[1], lines[2] = lines[2], lines[1]
        self.assertRejected("ordered by step", trace="\n".join(lines) + "\n")

    def test_reference_is_independent_of_mixing(self):
        gains = [[0.0, 2.0, 1.0], [3.0, 0.0, 4.0], [5.0, 1.0, 0.0]]
        x0 = [1.0, 2.0, 4.0]
        a = reference_time_invariant(gains, 0.2, x0)
        b = reference_time_invariant(gains, 0.7, x0)
        self.assertAlmostEqual(a.consensus, b.consensus, places=12)
        self.assertIsInstance(a, Reference)


class TraceSelfChecks(unittest.TestCase):
    def bench(self, mode="iid-per-step"):
        bench = run.Bench(generate("mc-dense", 1), WORK / "unused")
        bench.sc = types.SimpleNamespace(mode=mode, workload="mc-dense")
        return bench

    def invocation(self, sample_calls=10, steps=10, child=0.5):
        spans = {
            "channel.sample": {"calls": sample_calls, "total_s": 0.1, "child_s": 0.0, "items": 0},
            "protocol.run": {"calls": 1, "total_s": 1.0, "child_s": child, "items": steps},
        }
        return run.Invocation(scale=1.0, wall_s=1.0, setup_s=0.1, peak_rss_mb=1.0, spans=spans, bytes_written=0)

    def test_consistent_spans_pass(self):
        bench = self.bench()
        run.trace_self_checks(bench, self.invocation())
        self.assertEqual(bench.problems, [])

    def test_children_longer_than_parent(self):
        bench = self.bench()
        run.trace_self_checks(bench, self.invocation(child=1.5))
        self.assertTrue(any("wrapped children of protocol.run" in p for p in bench.problems))

    def test_sample_calls_differ_from_steps(self):
        bench = self.bench()
        run.trace_self_checks(bench, self.invocation(sample_calls=11))
        self.assertTrue(any("channel.sample ran 11 times" in p for p in bench.problems))


class TracerWrapping(unittest.TestCase):
    def test_counts_self_time_and_restores(self):
        mod = types.ModuleType("fake")

        def leaf(x):
            return x + 1

        def parent(x):
            return mod.leaf(x) + mod.leaf(x)

        mod.leaf, mod.parent = leaf, parent
        other = types.ModuleType("other")
        other.leaf = leaf  # imported by name elsewhere
        tracer = Tracer()
        undo = patch(tracer, [mod, other], "leaf", leaf) + patch(tracer, [mod], "parent", parent)
        self.assertEqual(mod.parent(1), 4)
        self.assertIsNot(other.leaf, leaf)
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
        self.assertIs(mod.leaf, leaf)
        self.assertIs(other.leaf, leaf)
        self.assertEqual(tracer.stats["leaf"]["calls"], 2)
        self.assertEqual(tracer.stats["parent"]["calls"], 1)
        self.assertLessEqual(tracer.stats["parent"]["child_s"], tracer.stats["parent"]["total_s"])
        self.assertAlmostEqual(tracer.stats["parent"]["child_s"], tracer.stats["leaf"]["total_s"], places=12)

    def test_reentrant_name_joins_open_span(self):
        tracer = Tracer()
        inner = tracer.wrap("write", lambda: 1)
        outer = tracer.wrap("write", lambda: inner() + 1)
        self.assertEqual(outer(), 2)
        self.assertEqual(tracer.stats["write"]["calls"], 1)


class Scenarios(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name in WORKLOADS:
            self.assertEqual(generate(name, 3).doc, generate(name, 3).doc)
            self.assertNotEqual(generate(name, 3).doc, generate(name, 4).doc)

    def test_make_up(self):
        for name, spec in WORKLOADS.items():
            sc = generate(name, 5)
            self.assertEqual(len(sc.x0), spec["n"])
            if spec["chords"] is not None:
                arcs = sc.doc["topology"]["arcs"]
                self.assertEqual(len(arcs), spec["n"] * (spec["chords"] + 1))
                self.assertEqual(len({(j, i) for j, i, _ in arcs}), len(arcs))

    def test_graph_search_sees_a_cut(self):
        ring = [(v, v % 6 + 1) for v in range(1, 7)]
        self.assertTrue(strongly_connected(6, ring))
        self.assertFalse(strongly_connected(6, ring[1:]))


class BenchmarkFile(unittest.TestCase):
    def test_matches_run_py(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]], run.END_TO_END
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]], run.PER_LAYER
        )


if __name__ == "__main__":
    try:
        unittest.main(verbosity=2)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK.parent.rmdir()
        except OSError:
            pass
