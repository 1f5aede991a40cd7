"""Stochastic wireless channel coefficients and superposed-signal arithmetic.

Sampling is counter-based: the coefficients for step ``k`` are a pure
function of ``(seed, mode, k)``, so any step can be reproduced without
replaying earlier ones and independent Monte Carlo workers stay
deterministic.
A realization holds one coefficient per arc, so sampling costs O(|E|);
the dense n x n gain matrix is built only when an analysis reads it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Union

import numpy as np

from .graph import Arc, WeightedDigraph

TIME_INVARIANT = "time-invariant"
IID_PER_STEP = "iid-per-step"
MODES = (TIME_INVARIANT, IID_PER_STEP)

# Stream tag separating channel draws from any other use of the same seed.
_CHANNEL_STREAM = 0xC0EF


@dataclass(frozen=True)
class UniformLaw:
    """Uniform coefficients on (lo, hi]; exact zeros are redrawn so every
    coefficient stays strictly positive."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (0.0 <= self.lo < self.hi):
            raise ValueError(f"uniform law needs 0 <= lo < hi, got ({self.lo}, {self.hi})")

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        values = rng.uniform(self.lo, self.hi, size)
        while True:
            zero = values <= 0.0
            if not zero.any():
                return values
            values[zero] = rng.uniform(self.lo, self.hi, int(zero.sum()))


@dataclass(frozen=True)
class ConstantLaw:
    """Degenerate law: every coefficient equals ``value`` (ideal channel at 1.0)."""

    value: float

    def __post_init__(self):
        if not self.value > 0.0:
            raise ValueError(f"constant coefficient must be positive, got {self.value}")

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.full(size, self.value)


Law = Union[UniformLaw, ConstantLaw]


@dataclass(frozen=True)
class ChannelModel:
    """Distribution of the per-arc channel coefficients over a fixed topology."""

    topology: WeightedDigraph
    law: Law
    mode: str
    seed: int

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")


@dataclass(frozen=True)
class ChannelRealization:
    """Coefficients drawn for one step.

    ``values[e]`` is the (read-only) coefficient of the ``e``-th arc of
    ``topology.arc_order``.
    """

    step: int
    topology: WeightedDigraph
    values: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)

    @cached_property
    def gains(self) -> np.ndarray:
        """Read-only dense form, built on first use: ``gains[i-1, j-1]`` is
        the coefficient from transmitter ``j`` to receiver ``i``; entries
        off the arc set are exactly zero."""
        g = np.zeros((self.topology.n, self.topology.n))
        g[self.topology.arc_rows, self.topology.arc_cols] = self.values
        g.setflags(write=False)
        return g

    def coefficient(self, j: int, i: int) -> float:
        if not self.topology.has_arc(j, i):
            raise ValueError(f"no arc ({j}, {i}) in topology")
        return float(self.values[bisect_left(self.topology.arc_order, (j, i))])

    @property
    def coefficients(self) -> Mapping[Arc, float]:
        return MappingProxyType(dict(zip(self.topology.arc_order, self.values.tolist())))


def sample(model: ChannelModel, k: int) -> ChannelRealization:
    """Draw the coefficients for step ``k``.

    Time-invariant models return the same realization for every step;
    per-step models draw independent coefficients addressed by the step
    index alone.
    """
    if k < 0:
        raise ValueError(f"step index must be nonnegative, got {k}")
    counter = 0 if model.mode == TIME_INVARIANT else k
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=model.seed, spawn_key=(_CHANNEL_STREAM, counter))
    )
    values = model.law.draw(rng, len(model.topology.arc_order))
    return ChannelRealization(step=k, topology=model.topology, values=values)


def superpose(r: ChannelRealization, x: np.ndarray, i: int) -> tuple[float, float]:
    """Signals received at node ``i``: the coefficient-weighted state sum and
    the plain coefficient sum (from the all-ones companion transmission)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (r.topology.n,):
        raise ValueError(f"state vector must have length {r.topology.n}, got {x.shape}")
    if r.topology.in_degree(i) == 0:
        raise ValueError(f"node {i} has no in-neighbors; received signal is undefined")
    into = r.topology.arc_rows == i - 1
    h = r.values[into]
    return float(h @ x[r.topology.arc_cols[into]]), float(h.sum())


def derive_seed(base: int, *key: int) -> int:
    """Deterministic 64-bit child seed for stream/run separation."""
    ss = np.random.SeedSequence(entropy=int(base), spawn_key=tuple(int(v) for v in key))
    return int(ss.generate_state(1, np.uint64)[0])
