"""Stochastic wireless channel coefficients and superposed-signal arithmetic.

Sampling is counter-based: the coefficients of channel seed ``s`` at step
``k`` are drawn on the law from a PCG64DXSM generator seeded from
``SeedSequence(entropy=s, spawn_key=(stream,))`` and advanced by
``k * 2**64`` outputs (``k = 0`` for a time-invariant channel). They are
a pure function of ``(seed, mode, k)``, so any step can be reproduced
without replaying earlier ones, and the steps of one seed read disjoint
substreams of one generator, which PCG64DXSM keeps independent at large
strides by design.
A realization holds one coefficient per arc, so sampling costs O(|E|);
the dense n x n gain matrix is built only when an analysis reads it.
``ChannelStreams`` is the one draw path: it draws for a whole block of
run seeds from one generator per seed, each row one ``advance`` and one
standard-uniform fill; the block is then scaled to the law's bounds in
one pass and checked for exact zeros in one pass, and a zero is redrawn
in place from its row's generator. ``sample`` is a block of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

import numpy as np

from .graph import WeightedDigraph

TIME_INVARIANT = "time-invariant"
IID_PER_STEP = "iid-per-step"
MODES = (TIME_INVARIANT, IID_PER_STEP)

# Stream tag separating channel draws from any other use of the same seed.
_CHANNEL_STREAM = 0xC0EF
# Step k's coefficients start at output k << _STEP_BITS of the seed's stream.
_STEP_BITS = 64


@dataclass(frozen=True)
class UniformLaw:
    """Uniform coefficients ``lo + (hi - lo) * u`` with ``u`` uniform on
    [0, 1), so on [lo, hi) up to rounding; exact zeros (only at ``lo = 0``)
    are redrawn so every coefficient stays strictly positive."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (0.0 <= self.lo < self.hi):
            raise ValueError(f"uniform law needs 0 <= lo < hi, got ({self.lo}, {self.hi})")
        if not math.isfinite(self.hi - self.lo):
            raise ValueError(f"uniform law needs finite bounds, got ({self.lo}, {self.hi})")

    def scale(self, uniforms: np.ndarray) -> np.ndarray:
        """Standard uniforms mapped onto the law in place: ``lo + (hi - lo) * u``,
        bit for bit what ``Generator.uniform(lo, hi)`` makes of the same ``u``."""
        uniforms *= self.hi - self.lo
        uniforms += self.lo
        return uniforms


@dataclass(frozen=True)
class ConstantLaw:
    """Degenerate law: every coefficient equals ``value`` (ideal channel at 1.0)."""

    value: float

    def __post_init__(self):
        if not 0.0 < self.value < math.inf:
            raise ValueError(f"constant coefficient must be positive and finite, got {self.value}")


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
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")


@dataclass(frozen=True)
class ChannelRealization:
    """Coefficients drawn for one step.

    ``values[e]`` is the (read-only) coefficient of the ``e``-th arc of
    ``topology.arc_order``.
    """

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


def sample(model: ChannelModel, k: int) -> ChannelRealization:
    """Draw the coefficients for step ``k``.

    Time-invariant models return the same realization for every step;
    per-step models draw independent coefficients addressed by the step
    index alone, which must lie below ``2**64``.
    """
    return ChannelRealization(model.topology, ChannelStreams(model, [model.seed]).draw(k)[0])


def _stream(seed: int) -> np.random.Generator:
    """The channel generator of ``seed``, at the start of its stream."""
    seeds = np.random.SeedSequence(entropy=seed, spawn_key=(_CHANNEL_STREAM,))
    return np.random.Generator(np.random.PCG64DXSM(seeds))


def _offset(model: ChannelModel, k: int) -> int:
    """Position of step ``k``'s coefficients in the model's channel stream."""
    if k < 0:
        raise ValueError(f"step index must be nonnegative, got {k}")
    if k >> _STEP_BITS:
        raise ValueError(f"step index must be below 2**{_STEP_BITS}, got {k}")
    return 0 if model.mode == TIME_INVARIANT else k << _STEP_BITS


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


class ChannelStreams:
    """Coefficients of one channel model under each of a block of run seeds.

    Row ``i`` of ``draw(k, rows)`` equals ``sample(replace(model,
    seed=seeds[rows][i]), k).values`` bit for bit, whatever was drawn
    before: each seed keeps its own channel generator, which is advanced
    from where its last draw left it to step ``k``'s offset and fills its
    row with standard uniforms; the block is then scaled to the law's
    bounds, and each exact zero redrawn with ``Generator.uniform`` from
    its row's generator until none is left.
    """

    def __init__(self, model: ChannelModel, seeds: Sequence[int]):
        self.model = model
        self._rngs = [_stream(seed) for seed in seeds]
        # Stream position of each generator: where its next output sits.
        self._at = [0] * len(self._rngs)

    def draw(self, k: int, rows: Union[slice, np.ndarray] = slice(None)) -> np.ndarray:
        """``(len(rows), |E|)`` coefficients for step ``k`` of the selected runs."""
        law = self.model.law
        arcs = len(self.model.topology.arc_order)
        offset = _offset(self.model, k)
        selected = np.arange(len(self._rngs))[rows].tolist()
        if isinstance(law, ConstantLaw):
            return np.full((len(selected), arcs), law.value)
        out = np.empty((len(selected), arcs))
        for values, i in zip(out, selected):
            rng = self._rngs[i]
            rng.bit_generator.advance(offset - self._at[i])
            rng.random(out=values)
            self._at[i] = offset + arcs
        law.scale(out)
        # Checked after scaling: a subnormal width rounds nonzero uniforms to 0.
        for row in np.flatnonzero(out.min(axis=1, initial=np.inf) <= 0.0).tolist():
            i, values = selected[row], out[row]
            while (zero := values <= 0.0).any():
                count = int(zero.sum())
                values[zero] = self._rngs[i].uniform(law.lo, law.hi, count)
                self._at[i] += count
        return out
