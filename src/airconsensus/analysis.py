"""Predictions and decompositions for consensus runs.

Covers the consensus-value prediction from the dominant left eigenvector,
found by restarted Arnoldi on the arc list rather than a dense solve,
the split of the superposition update into an equal-gain part plus a
zero-mean channel disturbance, convergence-rate measurement, and seeded
Monte Carlo statistics over channel realizations, whose blocks of
replicates run in forked copies of the process, one per CPU.
"""

from __future__ import annotations

import math
import os
from typing import Callable, NoReturn, Optional, Sequence, Union

import numpy as np

from .channel import ChannelModel, ChannelRealization, ChannelStreams, derive_seeds
from .graph import WeightedDigraph
from .linalg import ArcOperator, left_perron_vector
from .protocol import (
    CONVERGED,
    DEFAULT_MAX_STEPS,
    DEFAULT_SPREAD_TOL,
    ProtocolConfig,
    RunAggregates,
    _positive_row_sums,
    advance,
    effective_matrix,
    spread,
    validated_state,
)
from .records import record

#: Tolerance of the built-in fixed-point verification in predicted_consensus.
FIXED_POINT_TOL = 1e-10

#: Fraction of the fitting window dropped at each end by measure_rate.
RATE_FIT_TRIM = 0.10

#: Most states or channel coefficients (floats) one Monte Carlo block holds.
MC_BLOCK_ELEMENTS = 1 << 15


@record
class DisturbanceDecomposition:
    """Matrices A (n x n) and B (n x n^2) with x+ = A x + B nu.

    A is the equal-gain update (diagonal ``1 - mixing``, ``mixing / |N_i|``
    on arcs); B is block-diagonal with one length-n row block per agent
    holding ``mixing / |N_i|`` at its neighbor positions. nu is the stacked
    per-arc disturbance, row-major: (nu_11, ..., nu_1n, nu_21, ..., nu_nn).
    """

    state_matrix: np.ndarray
    input_matrix: np.ndarray


@record
class RunSummary:
    """Machine-readable outcome of a single run."""

    consensus_value: float
    predicted_value: Optional[float]
    steps_to_converge: int
    spread_final: float
    rate_measured: Optional[float]
    rate_predicted: Optional[float]
    converged: bool
    hull_violated: bool


@record
class MonteCarloResult:
    """Statistics of the consensus value over independently seeded runs."""

    runs: int
    non_converged: int
    mean_consensus: float
    std_consensus: float
    mean_steps: float
    consensus_values: tuple[float, ...]
    steps: tuple[int, ...]
    seeds: tuple[int, ...]
    converged: tuple[bool, ...]


def predicted_consensus(D: Union[np.ndarray, ArcOperator], x0: Sequence[float]) -> float:
    """Predicted agreement value ``w' x0`` for a time-invariant update matrix.

    ``w`` is the left Perron vector of the primitive row-stochastic ``D``,
    given as an ``ArcOperator`` or as a dense matrix, which is read as
    one (its diagonal and off-diagonal nonzeros). It is found by
    restarted Arnoldi at O(|E|) per product (``linalg.left_perron_vector``).
    Before returning, ``w`` is re-verified against the fixed-point
    equation of ``_fixed_point_gap``, from which a common mixing weight
    cancels: the prediction depends on the channel coefficients but not
    on the mixing weight, however small. Raises ``np.linalg.LinAlgError``
    if a row of ``D`` has no off-diagonal weight, ``linalg.ArnoldiError``
    if the Arnoldi run does not converge and ``RuntimeError`` if ``w``
    fails the check.
    """
    if not isinstance(D, ArcOperator):
        D = ArcOperator.from_dense(D)
    w = left_perron_vector(D)
    residual = _fixed_point_gap(D, w)
    if residual > FIXED_POINT_TOL:
        raise RuntimeError(
            f"left eigenvector failed the fixed-point check (residual {residual:.3e})"
        )
    return float(w @ np.asarray(x0, dtype=float))


def _fixed_point_gap(D: ArcOperator, w: np.ndarray) -> float:
    """``max_i |(w' (D - diag(D)))_i / s_i - w_i|``, with ``s`` the
    off-diagonal row sums (``1 - D_ii``, summed without cancellation): zero
    exactly when ``w' D = w'``. For the superposition update with a common
    mixing weight the weight cancels from the ratio, leaving the
    coefficient-only equation ``w_i = sum_j w_j h_ji / sum_l h_jl``."""
    return float(np.max(np.abs(D.offdiagonal_rmatvec(w) / D.offdiagonal_row_sums() - w)))


def fixed_point_residual(r: ChannelRealization, w: Sequence[float]) -> float:
    """Max-norm deviation of ``w`` from ``w_i = sum over receivers j of
    w_j h_ji / sum_l h_jl``, the coefficient-only equation that the
    consensus-defining eigenvector solves for a common mixing weight.
    Raises ``ValueError`` if a node has no in-neighbor."""
    g, w = r.topology, np.asarray(w, dtype=float)
    if w.shape != (g.n,):
        raise ValueError(f"w must have length {g.n}, got shape {w.shape}")
    shares = ArcOperator(np.zeros(g.n), g.arc_rows, g.arc_cols, r.values / _positive_row_sums(r)[g.arc_rows])
    return _fixed_point_gap(shares, w)


def disturbance_vector(r: ChannelRealization, x: Sequence[float]) -> np.ndarray:
    """Stacked per-arc disturbances nu of length n^2, row-major.

    For an arc ``(j, i)``: ``nu_ij = x_j * (|N_i| h_ij - sum_l h_il) / sum_l h_il``;
    exactly zero off the arc set. Zero-mean for iid coefficients, since the
    coefficient shares of a row are exchangeable. The sums are those of
    ``protocol.effective_operator``.
    """
    x = np.asarray(x, dtype=float)
    n = r.topology.n
    if x.shape != (n,):
        raise ValueError(f"state vector must have length {n}, got shape {x.shape}")
    rows, cols = r.topology.arc_rows, r.topology.arc_cols
    sums = _positive_row_sums(r)[rows]
    nu = np.zeros((n, n))
    nu[rows, cols] = x[cols] * (r.topology.in_degrees[rows] * r.values - sums) / sums
    return nu.reshape(n * n)


def decomposition_matrices(
    topology: WeightedDigraph, mixing: float
) -> DisturbanceDecomposition:
    """Build the equal-gain and disturbance-gain matrices for a common mixing weight."""
    if not 0.0 < mixing < 1.0:
        raise ValueError(f"mixing must lie in (0, 1), got {mixing}")
    n = topology.n
    if (topology.in_degrees == 0).any():
        raise ValueError("every node needs at least one in-neighbor")
    rows, cols = topology.arc_rows, topology.arc_cols
    share = mixing / topology.in_degrees[rows]
    A = np.zeros((n, n))
    B = np.zeros((n, n * n))
    A[rows, cols] = share
    B[rows, rows * n + cols] = share
    np.fill_diagonal(A, 1.0 - mixing)
    return DisturbanceDecomposition(state_matrix=A, input_matrix=B)


def stacked_arc_indicator(n: int) -> np.ndarray:
    """Length-n^2 indicator of arc positions in the stacked disturbance vector
    of a fully connected topology: 0 at the n self-pair (diagonal) positions,
    1 everywhere else.

    Satisfies ``ones' B == (mixing / (n - 1)) * indicator'`` for the fully
    connected disturbance-gain matrix B.
    """
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")
    xi = np.ones(n * n)
    xi[np.arange(n) * (n + 1)] = 0.0
    return xi


def decomposition_deviation(
    r: ChannelRealization, x: Sequence[float], mixing: float
) -> float:
    """Max absolute gap between the one-step update and its decomposition.

    ``effective_matrix @ x`` and ``A x + B nu`` are algebraically equal;
    the returned value is pure floating-point roundoff (<= 1e-12 for
    well-scaled inputs).
    """
    x = np.asarray(x, dtype=float)
    direct = effective_matrix(r, mixing) @ x
    deco = decomposition_matrices(r.topology, mixing)
    split = deco.state_matrix @ x + deco.input_matrix @ disturbance_vector(r, x)
    return float(np.max(np.abs(direct - split)))


def measure_rate(trace: RunAggregates) -> float:
    """Least-squares slope of log(spread) per step over the decay window.

    The first and last 10% of the positive-spread steps are dropped to
    exclude the transient and the floating-point floor. Raises on traces
    with fewer than 10 usable steps, no decay to fit (already at
    consensus) or a non-finite spread (a diverged run).
    """
    spreads = trace.spreads()
    if not np.isfinite(spreads).all():
        raise ValueError("spread is not finite; a diverged run has no rate to fit")
    positive = np.nonzero(spreads > 0.0)[0]
    if len(positive) < 10:
        raise ValueError(
            f"trace too short to fit a rate: {len(positive)} positive-spread steps, need >= 10"
        )
    trim = int(math.floor(RATE_FIT_TRIM * len(positive)))
    window = positive[trim : len(positive) - trim]
    y = np.log(spreads[window])
    if np.ptp(y) == 0.0:
        raise ValueError("spread is constant; no decay to fit")
    slope = np.polyfit(window.astype(float), y, 1)[0]
    return float(slope)


def summarize_run(
    trace: RunAggregates,
    predicted_value: Optional[float] = None,
    rate_predicted: Optional[float] = None,
) -> RunSummary:
    """Condense a run into the flat run summary, from the ``RunAggregates``
    kept while its states were recorded (a whole ``Trace`` is one)."""
    x0, final = trace.initial, trace.final
    lo, hi = float(np.min(x0)), float(np.max(x0))
    low, high = trace.hull()
    hull_violated = low < lo - 1e-12 or high > hi + 1e-12
    try:
        rate_measured: Optional[float] = measure_rate(trace)
    except ValueError:
        rate_measured = None
    return RunSummary(
        consensus_value=float(np.mean(final)),
        predicted_value=predicted_value,
        steps_to_converge=trace.steps,
        spread_final=spread(final),
        rate_measured=rate_measured,
        rate_predicted=rate_predicted,
        converged=trace.reason == CONVERGED,
        hull_violated=hull_violated,
    )


def monte_carlo(
    topology: WeightedDigraph,
    channel: Optional[ChannelModel],
    protocol: ProtocolConfig,
    x0: Sequence[float],
    runs: int,
    tol: float = DEFAULT_SPREAD_TOL,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> MonteCarloResult:
    """Run ``runs`` independent replicates and aggregate consensus statistics.

    Replicate ``i`` runs on the channel seed ``derive_seed(channel.seed, i)``,
    so repeated calls reproduce the same result; without a channel (the
    classical protocol) every seed is 0 and every replicate is the same run,
    which is advanced once and repeated.
    The initial state is held fixed. Non-converged runs are counted in
    ``non_converged`` and still reported, never dropped.

    Replicates advance together, in blocks whose states and coefficients
    hold at most ``MC_BLOCK_ELEMENTS`` floats each. The run seeds and the
    words their channel generators are seeded with are each computed for
    all replicates in one pass; a block's generators are built when the
    block starts, so set-up and memory stay flat. Every replicate's
    consensus value, step count and outcome equal, bit for bit, those of
    one ``run`` with its channel seed.

    The blocks are dealt round-robin over one process per CPU this
    process may run on (``_processes``), each moved onto its own CPU
    first: forked copies of this process run theirs and write each
    replicate's outcome into one table shared with this process, at its
    block's rows, so the results are the same for any number of
    processes. If a forked process fails, its blocks are run here, in
    block order, so a block that raises raises here.

    Sums are accumulated with exact (compensated) summation so the
    statistics do not depend on aggregation order.
    """
    if runs < 2:
        raise ValueError(f"need at least 2 runs, got {runs}")
    x = validated_state(topology, channel, protocol, x0, tol, max_steps)
    seeds = derive_seeds(channel.seed, range(runs)) if channel is not None else [0] * runs
    # With nothing drawn every replicate is the same run: advance one.
    distinct = runs if channel is not None else 1
    block = max(1, MC_BLOCK_ELEMENTS // max(topology.arc_weights.size, topology.n))
    update = protocol.update(topology, rows=min(block, distinct))
    streams = ChannelStreams.blocks(channel, seeds, block) if channel is not None else None
    sizes = [min(block, distinct - start) for start in range(0, distinct, block)]

    def run_block(b: int) -> np.ndarray:
        """``(sizes[b], 3)`` consensus values, steps and outcomes of block ``b``."""
        result = advance(update, np.tile(x, (sizes[b], 1)), None if streams is None else streams(b), tol, max_steps)
        return np.column_stack((result.final.mean(axis=1), result.steps, result.converged))

    outcomes = _run_blocks(run_block, sizes)
    values = outcomes[:, 0].tolist()
    steps = outcomes[:, 1].astype(int).tolist()
    converged = (outcomes[:, 2] != 0.0).tolist()
    if distinct < runs:
        values, steps, converged = values * runs, steps * runs, converged * runs
    try:
        mean = math.fsum(values) / runs
        var = math.fsum((v - mean) ** 2 for v in values) / (runs - 1)
    except (OverflowError, ValueError):  # beyond float range, or inf - inf: runs that diverged
        with np.errstate(over="ignore", invalid="ignore"):
            mean, var = float(np.mean(values)), float(np.var(values, ddof=1))
    return MonteCarloResult(
        runs=runs,
        non_converged=converged.count(False),
        mean_consensus=mean,
        std_consensus=math.sqrt(var),
        mean_steps=math.fsum(steps) / runs,
        consensus_values=tuple(values),
        steps=tuple(steps),
        seeds=tuple(seeds),
        converged=tuple(converged),
    )


def _cpu_count() -> int:
    """CPUs this process may run on; 1 where the host cannot fork or tell."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _single_threaded() -> bool:
    """Whether this process runs one OS thread (numpy's BLAS threads count
    too), so a fork copies no lock another thread holds."""
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _processes(blocks: int) -> int:
    """How many processes a batch of ``blocks`` blocks runs in: one per
    CPU, at most one per block, and one in a process with more than one
    OS thread."""
    cpus = min(_cpu_count(), blocks)
    return cpus if cpus > 1 and _single_threaded() else 1


def _run_blocks(run_block: Callable[[int], np.ndarray], sizes: Sequence[int]) -> np.ndarray:
    """``run_block(b)``, a ``(sizes[b], 3)`` float64 array, for every block
    ``b``, stacked in block order.

    The rows are written in place into one table in an anonymous shared
    mapping, at each block's offset, so every process that forks from here
    writes into the same table. Block ``b`` runs in process ``b % P`` of
    ``P = _processes(len(sizes))``: process 0 is this one, and each other a
    fork whose exit code 0 says that all its blocks' rows are written. The
    blocks of a fork that cannot be started or exits non-zero are run here,
    in block order, over whatever it wrote. If this process raises, every
    fork is killed and reaped.

    With ``P > 1``, process ``p`` first moves onto CPU ``cpus[p %
    len(cpus)]`` of the sorted CPUs it may run on (``_place``), so that the
    processes do not start out sharing one CPU; none stays pinned there.
    """
    import mmap  # imported only here, as SIGKILL is below

    count = len(sizes)
    processes = _processes(count)
    cpus = sorted(os.sched_getaffinity(0)) if processes > 1 else []
    starts = np.cumsum([0, *sizes]).tolist()  # block b's rows are starts[b]:starts[b + 1]
    table = np.frombuffer(mmap.mmap(-1, 24 * starts[-1]), dtype=np.float64).reshape(-1, 3)

    def fill(b: int) -> None:
        table[starts[b] : starts[b + 1]] = run_block(b)

    parent = os.getpid()
    forks: list[tuple[int, range]] = []  # pid, its blocks
    failed: list[int] = []
    try:
        for p in range(1, processes):
            blocks = range(p, count, processes)
            try:
                pid = os.fork()
            except OSError:  # no process to spare
                failed += blocks
                continue
            if pid == 0:
                _run_forked(fill, blocks, parent, cpus[p % len(cpus)])
            forks.append((pid, blocks))
        if cpus:
            _place(cpus[0])
        for b in range(0, count, processes):
            fill(b)
        while forks:
            pid, blocks = forks[-1]
            status = os.waitpid(pid, 0)[1]
            forks.pop()
            if os.waitstatus_to_exitcode(status) != 0:
                failed += blocks
        for b in sorted(failed):
            fill(b)
    finally:
        if forks:
            from signal import SIGKILL  # imported only here: it costs 1 ms of every start-up
        for pid, _ in forks:
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
    return table


def _place(cpu: int) -> None:
    """Move this process onto ``cpu`` now, then let it run on every CPU it
    could before, so the scheduler may still move it. Best effort: if the
    host refuses a mask (``OSError``), the process stays where it is."""
    try:
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {cpu})  # migrates this process before it returns
        os.sched_setaffinity(0, allowed)
    except OSError:
        pass


def _run_forked(fill: Callable[[int], None], blocks: range, parent: int, cpu: int) -> NoReturn:
    """The body of a fork: move onto ``cpu`` (``_place``), ``fill`` each of
    ``blocks`` (write its rows into the shared table) and exit 0. It never
    returns into the caller, writes nothing to standard output, and exits 1
    if a block raises or ``parent`` is gone (checked between blocks)."""
    code = 1
    try:
        _place(cpu)
        for b in blocks:
            if os.getppid() != parent:
                break
            fill(b)
        else:
            code = 0
    finally:
        os._exit(code)
