"""Consensus state machines.

Three update laws, one rule class each in ``RULES`` (``Superposition``,
``Classical``, ``Naive``), over one run loop. A rule holds all of its
variant's rules: its parameter (checked as a ``ProtocolConfig`` is built),
its needs of the graph (``topology_problems``), whether it reads a channel
(``takes_channel``), and, as an instance (``ProtocolConfig.update``), its
update: the step of a block, O(|E|) by one gather/multiply/bincount over
the arc list, and that step as a ``linalg.ArcOperator``, which predicts a
run (``invariant_operator``) and gives ``effective_operator``,
``effective_matrix`` and ``naive_matrix``. Nothing else branches on a
variant, so a new variant is one more rule class in ``RULES``.
``advance`` steps a block of R independent states held as one (R, n)
array; Monte Carlo uses blocks of many. ``record_run`` is a block of one
that hands its states out a chunk of whole steps at a time and folds them
into the ``RunAggregates`` that ``analysis.summarize_run`` reads; ``run``'s
``Trace`` is those aggregates plus the whole (steps + 1, n) history.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .channel import TIME_INVARIANT, ChannelModel, ChannelRealization, ChannelStreams, sample
from .graph import WeightedDigraph, is_strongly_connected, step_size_bound
from .linalg import ArcOperator, perron_operator
from .records import record

SUPERPOSITION = "superposition"
CLASSICAL = "classical"
NAIVE = "naive"

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


def _is_real(kind: type) -> bool:
    """Whether values of type ``kind`` are Python or numpy ints or floats, not bools."""
    return issubclass(kind, (int, float, np.integer, np.floating)) and not issubclass(kind, bool)


class Rule:
    """One variant's rules: its one ``parameter``, a ``ProtocolConfig``
    field, and that field's ``check``; its ``graph_problems`` (given the
    parameter checked, or ``None``); ``takes_channel``; ``row_stochastic``.
    By default: no parameter, no problems, a channel and row-stochastic.
    An instance (``ProtocolConfig.update``) is the update of each row of an
    ``(R, n)`` block of states, for blocks of up to ``rows`` rows: the
    gather, product and receiver sums every variant shares, then its
    ``step(x, received, *coefficients(values))``. ``operator(values)`` is
    one step as an ``ArcOperator`` (``values`` ``None`` without a channel).

    Row ``b`` of a block has coefficients in row ``b`` of an ``(R, |E|)``
    array, or the rule's fixed arc ``weights``. Receiver sums come from one
    ``np.bincount`` over the flat index ``b * n + arc_rows``, which visits
    each row's arcs in arc order, so every row gets the same result, bit
    for bit, as a block of one. The transmitters' states ``x[:, arc_cols]``
    are gathered by one ``np.take`` along the state axis into an ``(rows,
    |E|)`` buffer that the instance owns, and ``advance`` draws each
    i.i.d. step's coefficients into another, ``drawn``: a step allocates
    no array of that size, and the blocks of a batch share both.
    """

    parameter: Optional[str] = None
    takes_channel = row_stochastic = True

    def __init__(self, topology: WeightedDigraph, protocol: ProtocolConfig, rows: int = 1):
        self.topology = topology
        self._index = (np.arange(rows)[:, None] * topology.n + topology.arc_rows).ravel()
        self.drawn = np.empty((rows, topology.arc_cols.size))
        self._gathered = np.empty((rows, topology.arc_cols.size))

    @staticmethod
    def graph_problems(topology: WeightedDigraph, parameter) -> list[tuple]:
        return []

    def arc_sums(self, weights: np.ndarray) -> np.ndarray:
        """``(R, n)`` per-receiver sums of an ``(R, |E|)`` array of arc weights."""
        rows, n = len(weights), self.topology.n
        sums = np.bincount(self._index[: weights.size], weights=weights.ravel(), minlength=rows * n)
        return sums.reshape(rows, n)

    def coefficients(self, values: np.ndarray) -> tuple[np.ndarray, ...]:
        """Per-step arguments of ``step`` for an ``(R, |E|)`` coefficient
        array: the coefficients, and what the rule derives from them."""
        return (values,)

    def __call__(self, x: np.ndarray, *coefficients: np.ndarray) -> np.ndarray:
        # mode="clip" (no index is out of range) writes straight into ``out``;
        # the default "raise" fills a temporary first.
        weighted = np.take(x, self.topology.arc_cols, axis=1, out=self._gathered[: len(x)], mode="clip")
        weighted *= coefficients[0] if coefficients else self.weights
        return self.step(x, self.arc_sums(weighted), *coefficients)


class Superposition(Rule):
    """Each agent mixes its own state with the ratio of the two superposed
    signals it receives, a weighted average of its neighbors' states, by
    its ``mixing`` weight in (0, 1) (or one for all). Row-stochastic, so it
    reaches consensus on a strongly connected graph whatever the positive
    coefficients do, and fixed over a time-invariant channel."""

    parameter = "mixing"

    @staticmethod
    def check(mixing) -> Mixing:
        """A number in (0, 1) (a 0-d array too) as a float, or a sequence of them as a tuple of floats."""
        if isinstance(mixing, np.ndarray) and mixing.ndim == 0:
            mixing = mixing[()]
        if _is_real(type(mixing)):
            if not 0.0 < mixing < 1.0:
                raise ValueError(f"mixing: must lie in the open interval (0, 1), got {mixing}")
            return float(mixing)
        sequence = isinstance(mixing, (list, tuple, np.ndarray)) and getattr(mixing, "ndim", 1) == 1
        if sequence and all(map(_is_real, set(map(type, mixing)))):
            if not all(0.0 < v < 1.0 for v in mixing):
                raise ValueError("mixing: every per-agent weight must lie in the open interval (0, 1)")
            return tuple(map(float, mixing))
        raise ValueError("mixing: required number (or per-agent list) for the superposition variant")

    def __init__(self, topology: WeightedDigraph, protocol: ProtocolConfig, rows: int = 1):
        super().__init__(topology, protocol, rows)
        for field, message in self.length_problems(topology, protocol.mixing):
            raise ValueError(f"{field}: {message}")
        self.mixing = np.full(topology.n, protocol.mixing, dtype=float)

    @staticmethod
    def length_problems(topology: WeightedDigraph, mixing) -> list[tuple]:
        if isinstance(mixing, tuple) and len(mixing) != topology.n:
            return [("mixing", f"per-agent list must have length {topology.n}, got {len(mixing)}")]
        return []

    @staticmethod
    def graph_problems(topology: WeightedDigraph, mixing) -> list[tuple]:
        problems = Superposition.length_problems(topology, mixing)
        if not is_strongly_connected(topology):
            problems.append((None, f"must be strongly connected for the {SUPERPOSITION} variant"))
        if not topology.in_degrees.all():
            problems.append((None, f"every node needs an in-neighbor for the {SUPERPOSITION} variant"))
        return problems

    def coefficients(self, values: np.ndarray) -> tuple[np.ndarray, ...]:
        return values, _positive(self.arc_sums(values))

    def step(self, x: np.ndarray, received: np.ndarray, values: np.ndarray, sums: np.ndarray) -> np.ndarray:
        return (1.0 - self.mixing) * x + self.mixing * (received / sums)

    def operator(self, values: np.ndarray) -> ArcOperator:
        rows = self.topology.arc_rows
        shares = (self.mixing[rows] * values) / self.coefficients(values[None])[1][0][rows]
        return ArcOperator(1.0 - self.mixing, rows, self.topology.arc_cols, shares)


class Classical(Rule):
    """The textbook Laplacian protocol ``x+ = (I - e*L) x`` on the known arc
    weights, by a ``step_size`` e below the graph's ``step_size_bound``: it
    reads no channel, and its Perron operator is the same every step."""

    parameter, takes_channel = "step_size", False

    @staticmethod
    def check(step_size) -> float:
        """A positive finite number as a float (NaN and ints beyond float range fail ``abs(x) <= max``)."""
        if not (_is_real(type(step_size)) and abs(step_size) <= sys.float_info.max):
            raise ValueError("step_size: required finite number for the classical variant")
        if not step_size > 0:
            raise ValueError(f"step_size: must be positive, got {step_size}")
        return float(step_size)

    def __init__(self, topology: WeightedDigraph, protocol: ProtocolConfig, rows: int = 1):
        super().__init__(topology, protocol, rows)
        self.perron = perron_operator(topology, protocol.step_size)
        self.weights = self.perron.weights

    @staticmethod
    def graph_problems(topology: WeightedDigraph, step_size) -> list[tuple]:
        problems = []
        if step_size is not None:
            try:
                bound = step_size_bound(topology)
                if not step_size < bound:
                    raise ValueError(f"must lie in (0, {bound:.6g}) for this topology, got {step_size}")
            except ValueError as exc:
                problems.append(("step_size", str(exc)))
        if not is_strongly_connected(topology):
            problems.append((None, f"must be strongly connected for the {CLASSICAL} variant"))
        return problems

    def step(self, x: np.ndarray, received: np.ndarray) -> np.ndarray:
        return self.perron.diagonal * x + received

    def operator(self, values: None) -> ArcOperator:
        return self.perron


class Naive(Rule):
    """Plain averaging of the raw superposed signal, ``(x + received) / (d + 1)``
    for in-degree ``d``: not row-stochastic for general coefficients, so it
    fails; the baseline that motivates the two-signal scheme."""

    row_stochastic = False

    def __init__(self, topology: WeightedDigraph, protocol: ProtocolConfig, rows: int = 1):
        super().__init__(topology, protocol, rows)
        self.shares = topology.in_degrees + 1.0

    def step(self, x: np.ndarray, received: np.ndarray, values: np.ndarray) -> np.ndarray:
        return (x + received) / self.shares

    def operator(self, values: np.ndarray) -> ArcOperator:
        rows = self.topology.arc_rows
        return ArcOperator(1.0 / self.shares, rows, self.topology.arc_cols, values / self.shares[rows])


#: Each variant's rule class: a new variant is one more.
RULES: dict[str, type[Rule]] = {SUPERPOSITION: Superposition, CLASSICAL: Classical, NAIVE: Naive}
#: The ``ProtocolConfig`` field of the one parameter each variant takes.
PARAMETERS = {variant: rule.parameter for variant, rule in RULES.items()}
VARIANTS = tuple(RULES)


def _rule(variant: object) -> type[Rule]:
    """The rule of ``variant``; a value of any type that is no variant gets ``Rule``'s defaults."""
    return RULES.get(variant, Rule) if isinstance(variant, str) else Rule


@record
class ProtocolConfig:
    """Which update law to run and its one parameter (``PARAMETERS``),
    checked by its rule when built; another variant's parameter may be
    ``None``. Bad fields raise one ``ValueError``, a line per field naming
    it first. ``update`` builds the rule's update on a graph."""

    variant: str
    mixing: Optional[Mixing] = None
    step_size: Optional[float] = None

    def __post_init__(self):
        rule = _rule(self.variant)
        if rule is Rule:
            raise ValueError(f"variant: must be one of {VARIANTS}, got {self.variant!r}")
        problems = []
        for field in self._fields[1:]:
            if field == rule.parameter:
                try:
                    object.__setattr__(self, field, rule.check(getattr(self, field)))
                except ValueError as exc:
                    problems.append(str(exc))
            elif getattr(self, field) is not None:
                problems.append(f"{field}: the {self.variant} variant takes no {field}")
        if problems:
            raise ValueError("\n".join(problems))

    def update(self, topology: WeightedDigraph, rows: int = 1) -> Rule:
        """This protocol's update on ``topology``, for blocks of up to ``rows`` states."""
        return RULES[self.variant](topology, self, rows)


def topology_problems(topology: WeightedDigraph, variant, mixing=None, step_size=None) -> list[tuple]:
    """What a protocol of ``ProtocolConfig``'s arguments, valid or not, needs of
    ``topology`` and lacks (its rule's ``graph_problems``), as ``(field,
    message)`` pairs (``field`` ``None``: the graph itself). A parameter
    invalid alone is passed over; a value that is no variant needs nothing."""
    rule = _rule(variant)
    try:
        parameter = rule.parameter and rule.check({"mixing": mixing, "step_size": step_size}[rule.parameter])
    except ValueError:
        parameter = None
    return rule.graph_problems(topology, parameter)


def takes_channel(variant: object) -> bool:
    """Whether a protocol of ``variant`` (any value) reads a channel: all but the classical one."""
    return _rule(variant).takes_channel


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


@record
class BlockResult:
    """Outcome of every row of a block: final states, steps taken, convergence."""

    final: np.ndarray
    steps: np.ndarray
    converged: np.ndarray


def advance(
    update: Rule,
    x0: np.ndarray,
    streams: Optional[ChannelStreams],
    tol: float,
    max_steps: int,
    record: Optional[Callable[[np.ndarray], None]] = None,
) -> BlockResult:
    """Iterate ``update`` on each row of the ``(R, n)`` block ``x0`` until
    its spread falls below ``tol``, or ``max_steps`` steps.

    ``streams`` draws each row's channel coefficients (``None`` for the
    classical protocol): a time-invariant channel's once, summed once, an
    i.i.d.-per-step channel's at every step for the still active rows,
    into ``update.drawn``. A row leaves the block at the step its spread
    falls below ``tol``.
    ``record`` sees the states after every step and may keep them:
    ``advance`` never writes to a block once it has handed it out.
    """
    x = np.array(x0, dtype=float)
    rows = np.arange(len(x))
    final = np.empty_like(x)
    steps = np.full(len(x), max_steps)
    converged = np.zeros(len(x), dtype=bool)
    # The arguments every step shares: none without a channel, or a time-invariant draw.
    fixed = () if streams is None else None
    if streams is not None and streams.model.mode == TIME_INVARIANT:
        fixed = update.coefficients(streams.draw(0, rows))
    for k in range(max_steps):
        done = row_spreads(x) < tol
        if done.any():
            finished, keep = rows[done], ~done
            final[finished], steps[finished], converged[finished] = x[done], k, True
            rows, x = rows[keep], x[keep]
            if fixed is not None:
                fixed = tuple(a[keep] for a in fixed)
            if not len(rows):
                break
        if fixed is None:
            x = update(x, *update.coefficients(streams.draw(k, rows, update.drawn[: len(rows)])))
        else:
            x = update(x, *fixed)
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
    update = ProtocolConfig(SUPERPOSITION, mixing=mixing).update(r.topology)
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
    return ProtocolConfig(SUPERPOSITION, mixing=mixing).update(r.topology).operator(r.values)


def invariant_operator(
    topology: WeightedDigraph, channel: Optional[ChannelModel], protocol: ProtocolConfig
) -> Optional[ArcOperator]:
    """The fixed update whose left Perron vector and subdominant modulus
    predict a run, as an ``ArcOperator``: a row-stochastic update whose
    coefficients are fixed, read from no channel (classical) or a
    time-invariant one; else ``None`` (the update changes every step, or
    is naive and not row-stochastic)."""
    update = protocol.update(topology)
    if not update.row_stochastic or (channel is not None and channel.mode != TIME_INVARIANT):
        return None
    return update.operator(None if channel is None else sample(channel, 0).values)


def naive_matrix(r: ChannelRealization) -> np.ndarray:
    """Update matrix of the naive scheme: average self with the raw received
    signal, diagonal ``1 / (d_i + 1)`` and ``h_ij / (d_i + 1)`` on arcs for
    in-degree ``d_i``. Not row-stochastic for general coefficients."""
    return ProtocolConfig(NAIVE).update(r.topology).operator(r.values).dense()


def validated_state(
    topology: WeightedDigraph,
    channel: Optional[ChannelModel],
    protocol: ProtocolConfig,
    x0: Sequence[float],
    tol: float,
    max_steps: int,
) -> np.ndarray:
    """``x0`` as a float array, after checking the arguments of a run: a
    run has a channel exactly when its variant takes one, and the
    channel must be over ``topology`` or a graph of its nodes and arcs."""
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
    if (channel is None) == takes_channel(protocol.variant):
        needs = "requires a" if channel is None else "takes no"
        raise ValueError(f"the {protocol.variant} variant {needs} channel model")
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
        protocol.update(topology),
        x,
        None if channel is None else ChannelStreams(channel, [channel.seed]),
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
