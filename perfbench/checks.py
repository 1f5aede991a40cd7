"""Correctness checks on the CLI's outputs.

Each check returns a list of problems; an empty list means the output
passed. The checks rest on properties of the method or on computations
made here, never on the program's own analysis code:

* the superposition update is row-stochastic, so every consensus value
  lies in the hull of x0 and the per-step hull never grows;
* Monte Carlo statistics are recomputed from ``samples.csv`` with
  ``math.fsum``, in the order the program documents;
* on a complete graph with iid coefficients the expected agreement
  weights are uniform by symmetry, so the mean consensus is within three
  standard errors of mean(x0) (the same test as acceptance criterion 9);
* for a time-invariant channel the consensus value is w'x0, where w is
  the left Perron vector of the effective matrix, and the log-spread
  slope is log of its second eigenvalue modulus. Both are computed here
  with ``numpy.linalg.eig`` from the gains of ``sample(channel, 0)``.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: Rounding slack on the per-step hull, as in acceptance criterion 5.
HULL_SLACK = 1e-12
#: Agreement with the w'x0 reference.
CONSENSUS_TOL = 1e-6
#: Relative agreement of rate_measured with log(lambda_2).
RATE_REL_TOL = 0.10
#: Standard errors allowed between mean consensus and mean(x0).
MEAN_SE = 3.0


@dataclass(frozen=True)
class Reference:
    """Outside computation for a time-invariant run."""

    consensus: float
    log_lambda2: float


def reference_time_invariant(gains: np.ndarray, mixing: float, x0: Sequence[float]) -> Reference:
    """w'x0 and log(lambda_2) of the effective matrix built from ``gains``.

    Uses the paper's update x_i+ = (1 - m) x_i + m * sum_j h_ij x_j / sum_j h_ij,
    i.e. D = (1 - m) I + m * diag(1 / rowsum(h)) h.
    """
    h = np.asarray(gains, dtype=float)
    D = mixing * h / h.sum(axis=1)[:, None]
    D[np.diag_indices_from(D)] += 1.0 - mixing
    values, vectors = np.linalg.eig(D.T)
    order = np.argsort(-np.abs(values))
    w = np.real(vectors[:, order[0]])
    w = w / w.sum()
    return Reference(
        consensus=float(w @ np.asarray(x0, dtype=float)),
        log_lambda2=math.log(abs(values[order[1]])),
    )


def parse_samples(text: str) -> list[tuple[int, int, float, int, int]]:
    """Rows of ``samples.csv`` as (run, seed, consensus_value, steps, converged)."""
    lines = text.splitlines()
    if not lines or lines[0] != "run,seed,consensus_value,steps,converged":
        raise ValueError("samples.csv: unexpected header")
    rows = []
    for line in lines[1:]:
        run, seed, value, steps, conv = line.split(",")
        rows.append((int(run), int(seed), float(value), int(steps), int(conv)))
    return rows


def check_montecarlo(
    summary: dict, samples_text: str, x0: Sequence[float], runs: int, unbiased: bool
) -> list[str]:
    """Checks on a Monte Carlo run's ``summary.json`` and ``samples.csv``."""
    problems = []
    try:
        rows = parse_samples(samples_text)
    except ValueError as exc:
        return [str(exc)]
    if len(rows) != runs or [r[0] for r in rows] != list(range(runs)):
        problems.append(f"samples.csv: expected runs 0..{runs - 1}, got {len(rows)} rows")
    if not all(r[4] == 1 for r in rows) or summary.get("montecarlo.non_converged") != 0:
        problems.append("not every replicate converged")
    lo, hi = min(x0), max(x0)
    outside = [r[0] for r in rows if not lo <= r[2] <= hi]
    if outside:
        problems.append(f"consensus value outside [min x0, max x0] in runs {outside[:5]}")
    if len({r[1] for r in rows}) != len(rows):
        problems.append("replicate seeds are not distinct")
    if not rows:
        return problems
    values = [r[2] for r in rows]
    mean = math.fsum(values) / len(values)
    std = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (len(values) - 1))
    mean_steps = math.fsum(r[3] for r in rows) / len(rows)
    for key, want in (
        ("montecarlo.runs", len(rows)),
        ("montecarlo.mean_consensus", mean),
        ("montecarlo.std_consensus", std),
        ("montecarlo.mean_steps", mean_steps),
    ):
        if summary.get(key) != want:
            problems.append(f"{key} is {summary.get(key)!r}, recomputed {want!r}")
    if unbiased:
        x0_mean = math.fsum(x0) / len(x0)
        se = std / math.sqrt(len(values))
        if abs(mean - x0_mean) > MEAN_SE * se:
            problems.append(
                f"mean consensus {mean:.9g} is {abs(mean - x0_mean) / se:.2f} standard errors "
                f"from mean(x0) {x0_mean:.9g}"
            )
    return problems


def check_single(
    summary: dict, trace_text: str, x0: Sequence[float], tol: float, ref: Reference
) -> list[str]:
    """Checks on a time-invariant single run's ``summary.json`` and ``trace.csv``."""
    problems = []
    n = len(x0)
    if summary.get("result.converged") is not True or summary.get("result.reason") != "converged":
        problems.append("run did not converge")
    steps = summary.get("result.steps")
    if not isinstance(steps, int):
        return problems + [f"result.steps is {steps!r}"]
    head, _, body = trace_text.partition("\n")
    if head != "step,agent,x":
        return problems + ["trace.csv: unexpected header"]
    data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    if data.shape != ((steps + 1) * n, 3):
        return problems + [
            f"trace.csv has {data.shape[0]} data rows, expected (steps + 1) * n = {(steps + 1) * n}"
        ]
    step_col = np.repeat(np.arange(steps + 1), n)
    agent_col = np.tile(np.arange(1, n + 1), steps + 1)
    if not (np.array_equal(data[:, 0], step_col) and np.array_equal(data[:, 1], agent_col)):
        problems.append("trace.csv: rows are not ordered by step, then agent")
    states = data[:, 2].reshape(steps + 1, n)
    if not np.array_equal(states[0], np.asarray(x0, dtype=float)):
        problems.append("trace.csv: step 0 is not x0")
    maxs, mins = states.max(axis=1), states.min(axis=1)
    if (np.diff(maxs) > HULL_SLACK).any() or (np.diff(mins) < -HULL_SLACK).any():
        problems.append("hull grew: per-step max increased or min decreased")
    final_spread = float(maxs[-1] - mins[-1])
    if not final_spread < tol:
        problems.append(f"final spread {final_spread:.3e} is not below tol {tol:g}")
    consensus = summary.get("result.consensus_value")
    if not isinstance(consensus, float) or abs(consensus - ref.consensus) > CONSENSUS_TOL:
        problems.append(f"consensus value {consensus!r} differs from w'x0 = {ref.consensus!r}")
    rate = summary.get("result.rate_measured")
    if not isinstance(rate, float) or abs(rate - ref.log_lambda2) > RATE_REL_TOL * abs(ref.log_lambda2):
        problems.append(f"rate_measured {rate!r} is not within 10% of log(lambda_2) = {ref.log_lambda2!r}")
    return problems
