"""Stochastic wireless channel coefficients and superposed-signal arithmetic.

Sampling is counter-based: the coefficients for step ``k`` are a pure
function of ``(seed, mode, k)``, so any step can be reproduced without
replaying earlier ones and independent Monte Carlo workers stay
deterministic.
A realization holds one coefficient per arc, so sampling costs O(|E|);
the dense n x n gain matrix is built only when an analysis reads it.
``ChannelStreams`` draws the same coefficients for a whole block of run
seeds, deriving every seed's generator state with numpy array arithmetic
instead of one ``SeedSequence`` per run and step. Each row of the block
is one standard-uniform fill from a reused PCG64; the block is then
scaled to the law's bounds in one pass and checked for exact zeros in
one pass; a row holding one is redrawn as ``sample`` would redraw it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Sequence, Union

import numpy as np

from .graph import WeightedDigraph

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
        if not math.isfinite(self.hi - self.lo):
            raise ValueError(f"uniform law needs finite bounds, got ({self.lo}, {self.hi})")

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        values = self.scale(rng.random(size))
        while True:
            zero = values <= 0.0
            if not zero.any():
                return values
            values[zero] = rng.uniform(self.lo, self.hi, int(zero.sum()))

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
    index alone.
    """
    if k < 0:
        raise ValueError(f"step index must be nonnegative, got {k}")
    counter = 0 if model.mode == TIME_INVARIANT else k
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=model.seed, spawn_key=(_CHANNEL_STREAM, counter))
    )
    values = model.law.draw(rng, len(model.topology.arc_order))
    return ChannelRealization(topology=model.topology, values=values)


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


def derive_seeds(base: int, count: int) -> list[int]:
    """``[derive_seed(base, i) for i in range(count)]``, derived together."""
    [(_, base_words)] = _word_groups([base], pad=_POOL_SIZE)
    out = np.empty(count, dtype=np.uint64)
    for rows, key in _word_groups(range(count)):
        out[rows] = _generate_state(_mix_entropy(base_words + key)[0], 1)[:, 0]
    return out.tolist()


class ChannelStreams:
    """Coefficients of one channel model under each of a block of run seeds.

    Row ``i`` of ``draw(k)`` equals ``sample(replace(model, seed=seeds[i]),
    k).values`` bit for bit: the generator states ``SeedSequence`` would
    make are computed for all seeds at once, each row is filled with
    standard uniforms from one reused PCG64 set to its seed's state, and
    the whole block is scaled to the law's bounds as ``UniformLaw.draw``
    scales one row.
    """

    def __init__(self, model: ChannelModel, seeds: Sequence[int]):
        self.model = model
        self.runs = len(seeds)
        # Run seed and stream tag come first in the entropy, so their
        # mixing is done once; each step only absorbs its counter.
        self._pools = [
            (rows, _mix_entropy(words + [_CHANNEL_STREAM])) for rows, words in _word_groups(seeds, pad=_POOL_SIZE)
        ]
        self._bits = np.random.PCG64()
        self._rng = np.random.Generator(self._bits)
        self._pcg = {"state": 0, "inc": 0}
        self._state = {"bit_generator": "PCG64", "state": self._pcg, "has_uint32": 0, "uinteger": 0}

    def states(self, k: int) -> np.ndarray:
        """``(runs, 4)`` uint64: ``SeedSequence(entropy=seed, spawn_key=(stream,
        k)).generate_state(4, np.uint64)`` for every seed, the words from
        which ``sample`` seeds its PCG64."""
        out = np.empty((self.runs, 4), dtype=np.uint64)
        for rows, (pool, calls) in self._pools:
            out[rows] = _generate_state(_absorb(pool, calls, _int_words(k))[0], 4)
        return out

    def draw(self, k: int, rows: Union[slice, np.ndarray] = slice(None)) -> np.ndarray:
        """``(len(rows), |E|)`` coefficients for step ``k`` of the selected runs."""
        law = self.model.law
        arcs = len(self.model.topology.arc_order)
        if isinstance(law, ConstantLaw):
            return np.full((np.arange(self.runs)[rows].size, arcs), law.value)
        counter = 0 if self.model.mode == TIME_INVARIANT else k
        states = self.states(counter)[rows].tolist()
        out = np.empty((len(states), arcs))
        for values, words in zip(out, states):
            self._seat(words)
            self._rng.random(out=values)
        law.scale(out)
        # Checked after scaling: a subnormal width rounds nonzero uniforms to 0.
        for row in np.flatnonzero(out.min(axis=1, initial=np.inf) <= 0.0).tolist():
            self._seat(states[row])
            out[row] = law.draw(self._rng, arcs)
        return out

    def _seat(self, words: list[int]) -> None:
        """Set the PCG64 to the start state that four ``SeedSequence`` words
        give it (pcg64_set_seed: state 0, one step, add the seed, one more
        step)."""
        seed_hi, seed_lo, inc_hi, inc_lo = words
        inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
        self._pcg["state"] = ((inc + (seed_hi << 64 | seed_lo)) * _PCG_MULT + inc) & _MASK128
        self._pcg["inc"] = inc
        self._bits.state = self._state


# numpy's SeedSequence (numpy/random/bit_generator.pyx), replayed with uint32
# arithmetic on arrays that hold one entropy word of many seeds each.
_POOL_SIZE = 4
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01_F9DD, 0x4973_F715
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h).
_PCG_MULT = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645
_MASK128 = (1 << 128) - 1


def _int_words(value: int) -> list[int]:
    """Little-endian 32-bit words of a nonnegative int, as SeedSequence
    coerces it (zero is one word)."""
    value = int(value)
    words = [value & _MASK32]
    while value >> 32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _word_groups(values, pad: int = 0) -> list[tuple[np.ndarray, list[np.ndarray]]]:
    """Indices of ``values`` grouped by how many entropy words each makes,
    zero-padded to at least ``pad`` (as SeedSequence pads a seed that has a
    spawn key), with the group's words as uint32 columns."""
    groups: dict[int, tuple[list[int], list[list[int]]]] = {}
    for row, value in enumerate(values):
        words = _int_words(value)
        words += [0] * (pad - len(words))
        rows, table = groups.setdefault(len(words), ([], []))
        rows.append(row)
        table.append(words)
    return [(np.array(rows), list(np.array(table, dtype=np.uint32).T)) for rows, table in groups.values()]


@cache
def _hash_constant(call: int) -> int:
    """State of the hashmix multiplier before its ``call``-th use."""
    return _INIT_A * pow(_MULT_A, call, 1 << 32) & _MASK32


def _hashmix(value, call: int):
    value = (value ^ _hash_constant(call)) * _hash_constant(call + 1) & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    result = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return result ^ result >> 16


def _mix_entropy(words: list) -> tuple[np.ndarray, int]:
    """SeedSequence's entropy pool, ``(4, rows)`` uint32, after absorbing
    ``words`` (at least four; each an int or a uint32 array over rows),
    and the number of hashmix calls made."""
    pool = _stack_pool([_hashmix(word, call) for call, word in enumerate(words[:_POOL_SIZE])])
    calls = _POOL_SIZE
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], calls))
                calls += 1
    return _absorb(pool, calls, words[_POOL_SIZE:])


def _stack_pool(words: list) -> np.ndarray:
    """Four pool words (ints or uint32 arrays) as one ``(4, rows)`` uint32 array."""
    return np.array(np.broadcast_arrays(*words), dtype=np.uint32).reshape(_POOL_SIZE, -1)


def _absorb(pool: np.ndarray, calls: int, words: list) -> tuple[np.ndarray, int]:
    """Mix further entropy words into the pool; a word meets the four pool
    words with four consecutive hashmix calls."""
    for word in words:
        pool = _mix(pool, _stack_pool([_hashmix(word, calls + dst) for dst in range(_POOL_SIZE)]))
        calls += _POOL_SIZE
    return pool, calls


@cache
def _output_constants(n_words: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pool row, xor constant and multiplier of each of the ``2 * n_words``
    uint32 outputs of ``generate_state`` (read-only; the last two as columns)."""
    rows = np.arange(2 * n_words) % _POOL_SIZE
    consts = np.array([_INIT_B * pow(_MULT_B, i, 1 << 32) & _MASK32 for i in range(2 * n_words + 1)], dtype=np.uint32)
    rows.setflags(write=False)
    consts.setflags(write=False)
    return rows, consts[:-1, None], consts[1:, None]


def _generate_state(pool: np.ndarray, n_words: int) -> np.ndarray:
    """``generate_state(n_words, np.uint64)`` per row: ``(rows, n_words)``."""
    rows, xor, mult = _output_constants(n_words)
    value = pool[rows] ^ xor
    value *= mult
    value ^= value >> 16
    words = value.T.astype(np.uint64)
    return words[:, 0::2] | words[:, 1::2] << np.uint64(32)
