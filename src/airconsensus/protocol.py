"""Consensus state machines.

Three update laws over one block update and one run loop:

* ``superposition`` -- each agent mixes its own state with the ratio of
  the two superposed signals it receives, which is a weighted average of
  its neighbors' states. Row-stochastic by construction, so it reaches
  consensus on strongly connected topologies for any per-agent mixing
  weight in (0, 1), whatever the (positive) channel coefficients do.
* ``classical`` -- the textbook Laplacian protocol ``x+ = (I - e*L) x``,
  which needs the arc weights to be known.
* ``naive`` -- plain averaging of the raw superposed signal. Its update
  matrix is not row-stochastic for general coefficients, so it fails;
  kept as the baseline that motivates the two-signal scheme.
Each step costs O(|E|): all three are the same gather/multiply/bincount
over the arc list. A graph's arcs are sorted by transmitter, so the
gather is ``np.repeat`` of each state over its transmitter's out-degree:
a copy of the same values ``np.take`` by ``arc_cols`` picks, bit for bit,
without an index read per arc. ``effective_operator`` holds the
superposition update as a ``linalg.ArcOperator``, the O(|E|) form the run
predictions use; ``effective_matrix``, ``naive_matrix`` and
``linalg.perron_matrix`` are the dense forms of such operators, for the
analysis and eigen paths.
``advance`` steps a block of R independent states held as one (R, n)
array; Monte Carlo uses blocks of many. ``record_run`` is a block of one
that buffers its states a chunk of whole steps at a time, hands each
chunk to a callback and folds it into the ``RunAggregates`` that
``analysis.summarize_run`` reads, so a run whose states are streamed
elsewhere holds O(n + steps) floats. ``run``'s ``Trace`` is those
aggregates plus the whole history as one (steps + 1, n) array.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .channel import TIME_INVARIANT, ChannelModel, ChannelRealization, ChannelStreams
from .graph import WeightedDigraph
from .linalg import ArcOperator, perron_operator
from .records import record

SUPERPOSITION = "superposition"
CLASSICAL = "classical"
NAIVE = "naive"
VARIANTS = (SUPERPOSITION, CLASSICAL, NAIVE)

CONVERGED = "converged"
MAX_STEPS = "max-steps"

DEFAULT_SPREAD_TOL = 1e-9
DEFAULT_MAX_STEPS = 10_000

#: About the most values one chunk of a recorded run holds; a chunk is whole steps.
CHUNK_VALUES = 8192

Mixing = Union[float, Sequence[float], np.ndarray]


def spread(x: np.ndarray) -> float:
    """Disagreement measure max(x) - min(x)."""
    return float(np.max(x) - np.min(x))


def check_spread(x0: np.ndarray) -> None:
    """Every variant takes the spread ``max(x) - min(x)`` of each step's
    states, which must stay within float range: raises ``ValueError`` if
    that of ``x0`` does not."""
    lo, hi = float(np.min(x0)), float(np.max(x0))
    if not math.isfinite(hi - lo):
        raise ValueError(f"the spread max(x0) - min(x0) = {hi:g} - ({lo:g}) is beyond float range")


def row_spreads(x: np.ndarray) -> np.ndarray:
    """``spread`` of every row of a 2-D array of states."""
    return x.max(axis=1) - x.min(axis=1)


def resolve_mixing(mixing: Mixing, n: int) -> np.ndarray:
    """Broadcast a scalar mixing weight to all agents and validate (0, 1)."""
    m = np.asarray(mixing, dtype=float)
    if m.ndim == 0:
        m = np.full(n, float(m))
    if m.shape != (n,):
        raise ValueError(f"mixing must be a scalar or a length-{n} vector, got shape {m.shape}")
    if not ((m > 0.0) & (m < 1.0)).all():
        raise ValueError("every mixing weight must lie in the open interval (0, 1)")
    return m


@record
class ProtocolConfig:
    """Which update law to run and its parameters.

    ``mixing`` (superposition only) is the weight each agent puts on the
    received neighbor average, the complement staying on its own state;
    a scalar is broadcast to all agents. ``step_size`` (classical only)
    must lie below the topology's step size bound.
    """

    variant: str
    mixing: Optional[Mixing] = None
    step_size: Optional[float] = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.variant == SUPERPOSITION and self.mixing is None:
            raise ValueError("superposition variant requires a mixing weight")
        if self.variant == CLASSICAL and self.step_size is None:
            raise ValueError("classical variant requires a step size")
        if isinstance(self.mixing, (list, np.ndarray)):
            object.__setattr__(self, "mixing", tuple(float(v) for v in self.mixing))


class RunAggregates:
    """What ``analysis.summarize_run`` reads of a run, kept as the states of
    consecutive steps are added a chunk at a time: the initial and final
    states, the least and greatest value, one spread per step, and the
    termination ``reason`` once the run has set it."""

    def __init__(self):
        self.initial: Optional[np.ndarray] = None
        self.final: Optional[np.ndarray] = None
        self.reason: Optional[str] = None
        self.steps = -1
        self._low, self._high = math.nan, math.nan
        self._spreads = np.empty(0)

    def add(self, states: np.ndarray) -> None:
        """Fold in an ``(S, n)`` array of the next ``S`` steps' states,
        which the caller may overwrite afterwards."""
        if self.initial is None:
            self.initial = states[0].copy()
        self.final = states[-1].copy()
        # NaNs passed over: a value is below ``c`` somewhere exactly when the least is.
        self._low = float(np.fmin(self._low, np.fmin.reduce(states, axis=None)))
        self._high = float(np.fmax(self._high, np.fmax.reduce(states, axis=None)))
        start, end = self.steps + 1, self.steps + 1 + len(states)
        if end > len(self._spreads):
            self._spreads = np.concatenate([self._spreads[:start], np.empty(end)])
        self._spreads[start:end] = row_spreads(states)
        self.steps = end - 1

    def spreads(self) -> np.ndarray:
        return self._spreads[: self.steps + 1]

    def hull(self) -> tuple[float, float]:
        """Least and greatest value any agent held at any step."""
        return self._low, self._high


class Trace(RunAggregates):
    """Full state history of one run, from step 0 to termination, and its
    aggregates: row ``k`` of the ``(steps + 1, n)`` array ``states`` is the
    state after step ``k``."""

    def __init__(self, states: np.ndarray, reason: str):
        super().__init__()
        self.states = states
        self.add(states)
        self.reason = reason

    def state_array(self) -> np.ndarray:
        """The ``(steps + 1, n)`` state history itself (not a copy)."""
        return self.states


def _positive(sums: np.ndarray) -> np.ndarray:
    bad = sums <= 0.0
    if bad.any():
        node = int(np.nonzero(bad)[-1][0]) + 1
        raise ValueError(f"node {node} has no in-neighbors; received signal is undefined")
    return sums


def _positive_row_sums(r: ChannelRealization) -> np.ndarray:
    return _positive(np.bincount(r.topology.arc_rows, weights=r.values, minlength=r.topology.n))


class BlockUpdate:
    """One update of a protocol applied to each row of an ``(R, n)`` block
    of states, for blocks of up to ``rows`` rows.

    Row ``b`` of a block has coefficients in row ``b`` of an ``(R, |E|)``
    array; the classical protocol's arc weights are fixed and shared by
    every row. Receiver sums come from one ``np.bincount`` over the flat index
    ``b * n + arc_rows``, which visits each row's arcs in arc order, so
    every row gets the same result, bit for bit, as a block of one.

    The transmitted states are gathered by runs: a graph's arcs are sorted
    by transmitter, so ``x[:, arc_cols]`` is each transmitter's state
    repeated over its out-arcs, and ``np.repeat`` by the out-degrees,
    counted once here, copies exactly those values. The gather only copies,
    so the products and sums that follow are the same, bit for bit.
    """

    def __init__(self, topology: WeightedDigraph, protocol: ProtocolConfig, rows: int = 1):
        self.topology = topology
        self.variant = protocol.variant
        self._out_degrees = np.bincount(topology.arc_cols, minlength=topology.n)
        self._index = (np.arange(rows)[:, None] * topology.n + topology.arc_rows).ravel()
        if self.variant == SUPERPOSITION:
            self._mixing = resolve_mixing(protocol.mixing, topology.n)
        elif self.variant == CLASSICAL:
            perron = perron_operator(topology, protocol.step_size)
            self._diagonal, self._weights = perron.diagonal, perron.weights
        else:
            self._shares = topology.in_degrees + 1.0

    def arc_sums(self, weights: np.ndarray) -> np.ndarray:
        """``(R, n)`` per-receiver sums of an ``(R, |E|)`` array of arc weights."""
        rows, n = len(weights), self.topology.n
        sums = np.bincount(self._index[: weights.size], weights=weights.ravel(), minlength=rows * n)
        return sums.reshape(rows, n)

    def coefficients(self, values: np.ndarray) -> tuple[np.ndarray, ...]:
        """Per-step arguments of the update for an ``(R, |E|)`` coefficient
        array: the coefficients, plus their checked row sums for superposition."""
        if self.variant == SUPERPOSITION:
            return values, _positive(self.arc_sums(values))
        return (values,)

    def __call__(self, x: np.ndarray, *coefficients: np.ndarray) -> np.ndarray:
        weighted = np.repeat(x, self._out_degrees, axis=1)
        weighted *= coefficients[0] if coefficients else self._weights
        received = self.arc_sums(weighted)
        if self.variant == SUPERPOSITION:
            return (1.0 - self._mixing) * x + self._mixing * (received / coefficients[1])
        if self.variant == CLASSICAL:
            return self._diagonal * x + received
        return (x + received) / self._shares


@record
class BlockResult:
    """Outcome of every row of a block: final states, steps taken, convergence."""

    final: np.ndarray
    steps: np.ndarray
    converged: np.ndarray


def advance(
    update: BlockUpdate,
    x0: np.ndarray,
    draw: Optional[Callable[[int, np.ndarray], np.ndarray]],
    time_invariant: bool,
    tol: float,
    max_steps: int,
    record: Optional[Callable[[np.ndarray], None]] = None,
) -> BlockResult:
    """Iterate ``update`` on each row of the ``(R, n)`` block ``x0`` until
    its spread falls below ``tol``, or ``max_steps`` steps.

    ``draw(k, rows)`` gives the ``(len(rows), |E|)`` channel coefficients
    of step ``k`` for the still active rows (``None`` for the classical
    protocol); a time-invariant channel is drawn and summed once. A row
    leaves the block at the step its spread falls below ``tol``.
    ``record`` sees the states after every step and may keep them:
    ``advance`` never writes to a block once it has handed it out.
    """
    x = np.array(x0, dtype=float)
    rows = np.arange(len(x))
    final = np.empty_like(x)
    steps = np.full(len(x), max_steps)
    converged = np.zeros(len(x), dtype=bool)
    frozen = update.coefficients(draw(0, rows)) if draw is not None and time_invariant else None
    for k in range(max_steps):
        done = row_spreads(x) < tol
        if done.any():
            finished, keep = rows[done], ~done
            final[finished], steps[finished], converged[finished] = x[done], k, True
            rows, x = rows[keep], x[keep]
            if frozen is not None:
                frozen = tuple(a[keep] for a in frozen)
            if not len(rows):
                break
        if frozen is not None:
            args = frozen
        else:
            args = update.coefficients(draw(k, rows)) if draw is not None else ()
        x = update(x, *args)
        if record is not None:
            record(x)
    else:
        final[rows] = x
        converged[rows] = row_spreads(x) < tol
    return BlockResult(final=final, steps=steps, converged=converged)


def step_superposition(x: np.ndarray, r: ChannelRealization, mixing: Mixing) -> np.ndarray:
    """One superposition update: x+ = (1 - m) * x + m * (received ratio).

    The ratio of the two received signals is a convex combination of the
    neighbors' states, so the update never leaves the hull of x.
    """
    update = BlockUpdate(r.topology, ProtocolConfig(SUPERPOSITION, mixing=mixing))
    return update(np.asarray(x, dtype=float)[None], *update.coefficients(r.values[None]))[0]


def effective_matrix(r: ChannelRealization, mixing: Mixing) -> np.ndarray:
    """Matrix form of the superposition update for one realization, the
    dense form of ``effective_operator(r, mixing)``.

    Diagonal ``1 - m_i``; entry ``(i, j)`` is ``m_i * h_ij / sum_l h_il``
    on arcs and zero elsewhere. Row-stochastic for any realization, and
    of the same zero pattern for every step of a fixed topology.
    """
    return effective_operator(r, mixing).dense()


def effective_operator(r: ChannelRealization, mixing: Mixing) -> ArcOperator:
    """The superposition update of one realization as an ``ArcOperator``:
    diagonal ``1 - m_i`` and ``m_i * h_ij / sum_l h_il`` on each arc, O(|E|)."""
    m = resolve_mixing(mixing, r.topology.n)
    rows = r.topology.arc_rows
    shares = (m[rows] * r.values) / _positive_row_sums(r)[rows]
    return ArcOperator(1.0 - m, rows, r.topology.arc_cols, shares)


def perron_matched_mixing(r: ChannelRealization, step_size: float) -> np.ndarray:
    """Mixing vector that turns the effective matrix into the Perron matrix
    of the coefficient graph with parameter ``step_size``.

    Non-causal: it needs the current step's coefficient sums, which agents
    do not know. Exposed for validating the Perron-matrix equivalence only.
    """
    sums = _positive_row_sums(r)
    bound = 1.0 / float(sums.max())
    if not (0.0 < step_size < bound):
        raise ValueError(f"step size must lie in (0, {bound}), got {step_size}")
    return step_size * sums


def naive_matrix(r: ChannelRealization) -> np.ndarray:
    """Update matrix of the naive scheme: average self with the raw received
    signal, diagonal ``1 / (d_i + 1)`` and ``h_ij / (d_i + 1)`` on arcs for
    in-degree ``d_i``. Not row-stochastic for general coefficients."""
    shares = r.topology.in_degrees + 1.0
    rows = r.topology.arc_rows
    return ArcOperator(1.0 / shares, rows, r.topology.arc_cols, r.values / shares[rows]).dense()


def validated_state(
    topology: WeightedDigraph,
    channel: Optional[ChannelModel],
    protocol: ProtocolConfig,
    x0: Sequence[float],
    tol: float,
    max_steps: int,
) -> np.ndarray:
    """``x0`` as a float array, after checking the arguments of a run (a
    channel must be over ``topology`` or a graph of its nodes and arcs)."""
    x = np.array(x0, dtype=float)
    if x.shape != (topology.n,):
        raise ValueError(f"x0 must have length {topology.n}, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError(f"x0 must be finite, got {np.count_nonzero(~np.isfinite(x))} non-finite values")
    check_spread(x)
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_steps < 0:
        raise ValueError(f"max_steps must be nonnegative, got {max_steps}")
    if protocol.variant in (SUPERPOSITION, NAIVE) and channel is None:
        raise ValueError(f"{protocol.variant} variant requires a channel model")
    if channel is not None and channel.topology is not topology:
        other = channel.topology
        if not (
            other.n == topology.n
            and np.array_equal(other.arc_rows, topology.arc_rows)
            and np.array_equal(other.arc_cols, topology.arc_cols)
        ):
            raise ValueError(
                f"the channel's graph ({other.n} nodes, {other.arc_rows.size} arcs) and the run's "
                f"({topology.n} nodes, {topology.arc_rows.size} arcs) differ in their nodes or arcs"
            )
    return x


def record_run(
    record: Callable[[np.ndarray, int], None],
    topology: WeightedDigraph,
    channel: Optional[ChannelModel],
    protocol: ProtocolConfig,
    x0: Sequence[float],
    tol: float = DEFAULT_SPREAD_TOL,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> RunAggregates:
    """Iterate the selected variant until spread(x) < tol or max_steps, and
    return the run's ``RunAggregates``, its termination ``reason`` set.

    The states of whole steps from step 0 on fill one buffer of about
    ``CHUNK_VALUES`` values. Each full buffer, and the last partial one, is
    folded into the aggregates and handed to ``record(states, first_step)``,
    ``states`` holding steps ``first_step`` on, to be copied if kept.
    Deterministic for a fixed (channel seed, config); non-convergence is an
    outcome, not an error. This is ``advance`` on a block of one.
    """
    x = validated_state(topology, channel, protocol, x0, tol, max_steps)[None]
    buffer = np.empty((max(1, CHUNK_VALUES // topology.n), topology.n))
    aggregates = RunAggregates()
    filled = 0

    def flush() -> None:
        nonlocal filled
        chunk = buffer[:filled]
        record(chunk, aggregates.steps + 1)
        aggregates.add(chunk)
        filled = 0

    def keep(block: np.ndarray) -> None:
        nonlocal filled
        buffer[filled] = block[0]
        filled += 1
        if filled == len(buffer):
            flush()

    keep(x)
    result = advance(
        BlockUpdate(topology, protocol),
        x,
        None if protocol.variant == CLASSICAL else ChannelStreams(channel, [channel.seed]).draw,
        channel is not None and channel.mode == TIME_INVARIANT,
        tol,
        max_steps,
        keep,
    )
    if filled:
        flush()
    aggregates.reason = CONVERGED if result.converged[0] else MAX_STEPS
    return aggregates


def run(
    topology: WeightedDigraph,
    channel: Optional[ChannelModel],
    protocol: ProtocolConfig,
    x0: Sequence[float],
    tol: float = DEFAULT_SPREAD_TOL,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> Trace:
    """``record_run`` keeping every state: the run's whole ``Trace``."""
    chunks: list[np.ndarray] = []
    aggregates = record_run(
        lambda states, _: chunks.append(states.copy()), topology, channel, protocol, x0, tol, max_steps
    )
    return Trace(states=np.concatenate(chunks), reason=aggregates.reason)
