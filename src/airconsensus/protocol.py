"""Consensus state machines.

Three update laws over a shared run loop:

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
The superposition and naive steps cost O(|E|); ``effective_matrix`` and
``naive_matrix`` are their dense forms for the analysis and eigen paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .channel import TIME_INVARIANT, ChannelModel, ChannelRealization, sample
from .graph import WeightedDigraph
from .linalg import perron_matrix

SUPERPOSITION = "superposition"
CLASSICAL = "classical"
NAIVE = "naive"
VARIANTS = (SUPERPOSITION, CLASSICAL, NAIVE)

CONVERGED = "converged"
MAX_STEPS = "max-steps"

DEFAULT_SPREAD_TOL = 1e-9
DEFAULT_MAX_STEPS = 10_000

Mixing = Union[float, Sequence[float], np.ndarray]


def spread(x: np.ndarray) -> float:
    """Disagreement measure max(x) - min(x)."""
    return float(np.max(x) - np.min(x))


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


@dataclass(frozen=True)
class NetworkState:
    step: int
    x: np.ndarray


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Trace:
    """Full state history of one run, from step 0 to termination."""

    states: tuple[NetworkState, ...]
    reason: str
    matrices: Optional[tuple[np.ndarray, ...]] = None

    @property
    def steps(self) -> int:
        return len(self.states) - 1

    @property
    def initial(self) -> np.ndarray:
        return self.states[0].x

    @property
    def final(self) -> np.ndarray:
        return self.states[-1].x

    def state_array(self) -> np.ndarray:
        """States stacked as a (steps + 1, n) array."""
        return np.stack([s.x for s in self.states])

    def spreads(self) -> np.ndarray:
        arr = self.state_array()
        return arr.max(axis=1) - arr.min(axis=1)


def _received(r: ChannelRealization, x: np.ndarray) -> np.ndarray:
    """Superposed signal at every receiver: sum of h_ij * x_j over its in-arcs."""
    t = r.topology
    return np.bincount(t.arc_rows, weights=r.values * x[t.arc_cols], minlength=t.n)


def _positive_row_sums(r: ChannelRealization) -> np.ndarray:
    sums = np.bincount(r.topology.arc_rows, weights=r.values, minlength=r.topology.n)
    if (sums <= 0.0).any():
        bad = int(np.argmax(sums <= 0.0)) + 1
        raise ValueError(f"node {bad} has no in-neighbors; received signal is undefined")
    return sums


def step_superposition(x: np.ndarray, r: ChannelRealization, mixing: Mixing) -> np.ndarray:
    """One superposition update: x+ = (1 - m) * x + m * (received ratio).

    The ratio of the two received signals is a convex combination of the
    neighbors' states, so the update never leaves the hull of x.
    """
    x = np.asarray(x, dtype=float)
    m = resolve_mixing(mixing, r.topology.n)
    sums = _positive_row_sums(r)
    return (1.0 - m) * x + m * (_received(r, x) / sums)


def effective_matrix(r: ChannelRealization, mixing: Mixing) -> np.ndarray:
    """Matrix form of the superposition update for one realization.

    Diagonal ``1 - m_i``; entry ``(i, j)`` is ``m_i * h_ij / sum_l h_il``
    on arcs and zero elsewhere. Row-stochastic for any realization, and
    of the same zero pattern for every step of a fixed topology.
    """
    m = resolve_mixing(mixing, r.topology.n)
    sums = _positive_row_sums(r)
    D = (m[:, None] * r.gains) / sums[:, None]
    np.fill_diagonal(D, 1.0 - m)
    return D


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


def step_classical(x: np.ndarray, g: WeightedDigraph, step_size: float) -> np.ndarray:
    """One Laplacian-protocol update x+ = (I - step_size * L) x."""
    x = np.asarray(x, dtype=float)
    return perron_matrix(g, step_size) @ x


def naive_matrix(r: ChannelRealization) -> np.ndarray:
    """Update matrix of the naive scheme: average self with the raw received
    signal. Not row-stochastic for general coefficients."""
    shares = r.topology.in_degrees + 1.0
    D = r.gains / shares[:, None]
    np.fill_diagonal(D, 1.0 / shares)
    return D


def step_naive(x: np.ndarray, r: ChannelRealization) -> np.ndarray:
    """One naive update: x+_i = (x_i + received signal) / (in-degree + 1)."""
    x = np.asarray(x, dtype=float)
    return (x + _received(r, x)) / (r.topology.in_degrees + 1.0)


def run(
    topology: WeightedDigraph,
    channel: Optional[ChannelModel],
    protocol: ProtocolConfig,
    x0: Sequence[float],
    tol: float = DEFAULT_SPREAD_TOL,
    max_steps: int = DEFAULT_MAX_STEPS,
    record_matrices: bool = False,
) -> Trace:
    """Iterate the selected variant until spread(x) < tol or max_steps.

    Deterministic for a fixed (channel seed, config); non-convergence is a
    recorded outcome, not an error.
    """
    x = np.array(x0, dtype=float)
    if x.shape != (topology.n,):
        raise ValueError(f"x0 must have length {topology.n}, got shape {x.shape}")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_steps < 0:
        raise ValueError(f"max_steps must be nonnegative, got {max_steps}")
    if protocol.variant in (SUPERPOSITION, NAIVE) and channel is None:
        raise ValueError(f"{protocol.variant} variant requires a channel model")

    mixing = None
    if protocol.variant == SUPERPOSITION:
        mixing = resolve_mixing(protocol.mixing, topology.n)
    classical_matrix = None
    if protocol.variant == CLASSICAL:
        classical_matrix = perron_matrix(topology, protocol.step_size)
    frozen_realization = None
    if channel is not None and channel.mode == TIME_INVARIANT:
        frozen_realization = sample(channel, 0)

    states = [NetworkState(0, x.copy())]
    matrices: list[np.ndarray] = []
    reason = MAX_STEPS
    for k in range(max_steps):
        if spread(x) < tol:
            reason = CONVERGED
            break
        if protocol.variant == CLASSICAL:
            x = classical_matrix @ x
            if record_matrices:
                matrices.append(classical_matrix)
        else:
            r = frozen_realization if frozen_realization is not None else sample(channel, k)
            if protocol.variant == SUPERPOSITION:
                if record_matrices:
                    matrices.append(effective_matrix(r, mixing))
                x = step_superposition(x, r, mixing)
            else:
                if record_matrices:
                    matrices.append(naive_matrix(r))
                x = step_naive(x, r)
        states.append(NetworkState(k + 1, x.copy()))
    else:
        if spread(x) < tol:
            reason = CONVERGED

    return Trace(
        states=tuple(states),
        reason=reason,
        matrices=tuple(matrices) if record_matrices else None,
    )
