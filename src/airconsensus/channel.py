"""Stochastic wireless channel coefficients.

Sampling is counter-based. Channel seed ``s`` has one PCG64DXSM stream,
seeded from ``SeedSequence(entropy=s, spawn_key=(stream,))``. Step ``k``
of an i.i.d.-per-step channel reads outputs ``[k |E|, (k + 1) |E|)`` of
it; a time-invariant channel reads ``[0, |E|)`` at every step. Exact
zeros of i.i.d. step ``k`` are redrawn from outputs ``2**127 + k * 2**63``
on (a time-invariant draw's from ``|E|`` on), so no redraw moves another
step. The coefficients are therefore a pure function of ``(seed, mode,
k)``: any step is reached by one ``advance``, and consecutive steps by
none.
A realization holds one coefficient per arc, so sampling costs O(|E|);
the dense n x n gain matrix is built only when an analysis reads it.
``ChannelStreams`` draws for a whole block of run seeds, each row one
standard-uniform fill; the block is then mapped onto the law by its
``scale`` in one pass and checked for exact zeros in one pass.
``sample`` is a block of one. Each seed of a block has one numpy
generator, built with the block, which fills the seed's row (after an
``advance`` only if the row is out of place). ``_numpy_random`` is the
package's one import of ``numpy.random``. Where it safely can, it loads
only the generator and PCG64 modules a draw uses, without the package's
``__init__`` (4.5 ms with the first generator, against 7.3 ms), and
keeps the ``secrets`` module, and with it OpenSSL, out of the process.
It leaves no ``numpy.random`` entry in ``sys.modules``: each module it
loads is a compiled extension, which a later import returns unchanged.
Outside the law classes (``LAWS``), a law is known only by its fields,
``bound`` and ``scale``.
Seeding replays numpy's ``SeedSequence`` hash on uint32 arrays, one
pass for a whole batch of seeds: it gives ``derive_seed``'s child seeds
and the words each generator is seeded with, bit for bit, without a
``SeedSequence`` object per seed.
"""

from __future__ import annotations

import math
import os
import random
import sys
import threading
from functools import cache, cached_property
from types import ModuleType, SimpleNamespace
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .graph import WeightedDigraph
from .records import record

TIME_INVARIANT = "time-invariant"
IID_PER_STEP = "iid-per-step"
MODES = (TIME_INVARIANT, IID_PER_STEP)

# Stream tag separating channel draws from any other use of the same seed.
_CHANNEL_STREAM = 0xC0EF
# Steps are numbered below 2**_STEP_BITS.
_STEP_BITS = 64
# Zeros of i.i.d. step k are redrawn from output _REDRAW + (k << _REDRAW_STEP_BITS) on.
_REDRAW = 1 << 127
_REDRAW_STEP_BITS = 63

# numpy's SeedSequence: pool size (32-bit words) and hash constants.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF

@record
class UniformLaw:
    """Uniform coefficients ``lo + (hi - lo) * u`` with ``u`` uniform on
    [0, 1), so on [lo, hi) up to rounding; exact zeros (only at ``lo = 0``)
    are redrawn so every coefficient stays strictly positive."""

    bound = "hi"  # the field no coefficient exceeds
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
        if self.lo:  # u * w + 0.0 is u * w, bit for bit, for u * w >= 0
            uniforms += self.lo
        return uniforms


@record
class ConstantLaw:
    """Degenerate law: every coefficient equals ``value`` (ideal channel at 1.0)."""

    bound = "value"  # the field no coefficient exceeds
    value: float

    def __post_init__(self):
        if not 0.0 < self.value < math.inf:
            raise ValueError(f"constant coefficient must be positive and finite, got {self.value}")

    def scale(self, uniforms: np.ndarray) -> np.ndarray:
        """Standard uniforms replaced by ``value`` in place."""
        uniforms.fill(self.value)
        return uniforms


Law = Union[UniformLaw, ConstantLaw]

#: Each law class by its document ``kind``; a law's record fields are that kind's keys.
LAWS = {"uniform": UniformLaw, "constant": ConstantLaw}


def check_mode(mode: object) -> None:
    """Raise ``ValueError``, naming the field first, unless ``mode`` is one of ``MODES``."""
    if mode not in MODES:
        raise ValueError(f"mode: must be one of {MODES}, got {mode!r}")


@record
class ChannelModel:
    """Distribution of the per-arc channel coefficients over a fixed topology."""

    topology: WeightedDigraph
    law: Law
    mode: str
    seed: int

    def __post_init__(self):
        check_mode(self.mode)
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")


@record
class ChannelRealization:
    """Coefficients drawn for one step.

    ``values[e]`` is the (read-only) coefficient of the ``e``-th arc of
    ``topology``'s arc arrays.
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


def _offsets(model: ChannelModel, k: int, arcs: int) -> tuple[int, int]:
    """Positions in the model's channel stream of step ``k``'s coefficients
    and of the redraws of their exact zeros."""
    if k < 0:
        raise ValueError(f"step index must be nonnegative, got {k}")
    if k >> _STEP_BITS:
        raise ValueError(f"step index must be below 2**{_STEP_BITS}, got {k}")
    if model.mode == TIME_INVARIANT:
        return 0, arcs
    return k * arcs, _REDRAW + (k << _REDRAW_STEP_BITS)


def derive_seed(base: int, key: int) -> int:
    """Deterministic 64-bit child seed for stream/run separation: the first
    64-bit word of ``SeedSequence(entropy=base, spawn_key=(key,))``."""
    return derive_seeds(base, [key])[0]


def derive_seeds(base: int, keys: Sequence[int]) -> list[int]:
    """``derive_seed(base, key)`` for each of ``keys``, in one replay."""
    keys = [int(key) for key in keys]
    return _replay([int(base)] * len(keys), keys, 2).astype("<u4").view("<u8")[:, 0].tolist()


def _stream_words(seeds: Sequence[int]) -> np.ndarray:
    """``(len(seeds), 4)`` uint64 words that each seed's channel generator
    is seeded with: ``SeedSequence(entropy=seed, spawn_key=(_CHANNEL_STREAM,))
    .generate_state(4, np.uint64)``."""
    words = _replay(seeds, [_CHANNEL_STREAM] * len(seeds), 8)
    return words.astype("<u4").view("<u8").astype(np.uint64)


def _replay(entropy: Sequence[int], keys: Sequence[int], words: int) -> np.ndarray:
    """``SeedSequence(entropy=e, spawn_key=(key,)).generate_state(words)``
    for each pair of nonnegative ints, as a ``(len(entropy), words)`` uint32
    array.

    numpy's hash replayed on uint32 arrays, one hash step for all rows at
    once. A row's input is the entropy's 32-bit words, zero-padded to the
    pool size because a spawn key follows, then the key's words; rows
    with the same word counts share the order of hash steps and are
    hashed together.
    """
    sizes = [
        (max(_POOL, (e.bit_length() + 31) >> 5), (key.bit_length() + 31) >> 5 or 1)
        for e, key in zip(entropy, keys)
    ]
    out = np.empty((len(sizes), words), np.uint32)
    for size in set(sizes):
        rows = [i for i, s in enumerate(sizes) if s == size]
        columns = np.vstack(
            [_words([entropy[i] for i in rows], size[0]), _words([keys[i] for i in rows], size[1])]
        )
        out[rows] = _hash(columns, words).T
    return out


def _words(values: Sequence[int], width: int) -> np.ndarray:
    """``(width, len(values))`` uint32 array: column ``i`` holds the
    little-endian 32-bit words of ``values[i]``."""
    data = b"".join(value.to_bytes(4 * width, "little") for value in values)
    return np.frombuffer(data, "<u4").reshape(len(values), width).T.astype(np.uint32, order="C")


def _hash(entropy: np.ndarray, words: int) -> np.ndarray:
    """``SeedSequence``'s pool mixing of the ``(length, rows)`` uint32 words
    ``entropy`` (length at least the pool size), then ``generate_state``:
    a ``(words, rows)`` uint32 array. uint32 arithmetic wraps as the hash's."""
    const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const
        return value ^ value >> 16

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ result >> 16

    pool = [hashmix(value) for value in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for value in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(value))
    const, state = _INIT_B, []
    for i in range(words):
        value = pool[i % _POOL] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const
        state.append(value ^ value >> 16)
    return np.array(state)


def _secrets_stand_in() -> ModuleType:
    """A ``secrets`` module holding only what numpy's ``bit_generator``
    reads of it: ``randbits``, the same bound method of a ``SystemRandom``
    that the standard module's is."""
    module = ModuleType("secrets")
    module.randbits = random.SystemRandom().getrandbits
    return module


def _import_draw_modules() -> SimpleNamespace:
    """What the package reads of ``numpy.random``, from its ``_generator``
    and ``_pcg64`` modules imported under a stand-in ``numpy.random``: an
    empty package on numpy's ``random`` directory, so the package's
    ``__init__`` does not run. While ``secrets`` is not loaded,
    ``_secrets_stand_in()`` stands in for it too. Both stand-ins and every
    ``numpy.random.*`` module the imports add leave ``sys.modules`` as
    soon as the imports return or raise."""
    parent = ModuleType("numpy.random")
    parent.__path__ = [os.path.join(np.__path__[0], "random")]
    stand_ins = {"numpy.random": parent}
    if "secrets" not in sys.modules:
        stand_ins["secrets"] = _secrets_stand_in()
    sys.modules.update(stand_ins)
    try:
        from numpy.random import _generator, _pcg64, bit_generator
    finally:
        for name in [*stand_ins, *(name for name in sys.modules if name.startswith("numpy.random."))]:
            del sys.modules[name]
    generator, pcg64 = _generator.Generator, _pcg64.PCG64

    def default_rng(seed: int) -> np.random.Generator:
        """``numpy.random.default_rng(seed)`` of an integer seed, bit for
        bit: ``Generator(PCG64(seed))``. numpy's own first asks whether the
        seed is a legacy ``RandomState``, and that imports the package."""
        return generator(pcg64(seed))

    return SimpleNamespace(
        Generator=generator, PCG64DXSM=_pcg64.PCG64DXSM, default_rng=default_rng, bit_generator=bit_generator
    )


@cache
def _numpy_random() -> Union[ModuleType, SimpleNamespace]:
    """What the package reads of ``numpy.random`` (``Generator``,
    ``PCG64DXSM``, ``default_rng`` and ``bit_generator``), imported on
    first use; the package imports ``numpy.random`` only here.

    While ``numpy.random`` is not loaded and one Python thread runs,
    ``_import_draw_modules`` loads only ``_generator`` and ``_pcg64`` and
    the three modules they import: not the package's ``__init__``, which
    loads the legacy ``mtrand``, three more bit generators and the
    pickling helpers. Loading and building a generator took 4.5 ms
    against 7.3 ms (medians of 20 alternating pairs of fresh processes),
    and a 1000-run batch on a complete 30-node graph peaked 0.87 MB lower.
    A later ``import numpy.random`` gets the whole package, holding the
    objects a draw uses, while every module the partial import adds is a
    compiled extension, which a later import returns unchanged
    (``AFTER_A_BATCH`` in tests/test_channel.py checks this).

    numpy's ``bit_generator`` binds ``secrets.randbits`` for unseeded
    generators, and ``secrets`` loads OpenSSL through ``hmac``. So while
    ``secrets`` is not loaded either, the import sees
    ``_secrets_stand_in()`` as ``secrets``: unseeded generators still draw
    OS entropy, and a later ``import secrets`` gets the standard module.

    If the partial import raises ``ImportError`` (a numpy laid out
    otherwise, or one that reads more of ``secrets`` than the stand-in
    holds), ``numpy.random`` is imported plainly, as it is if it is loaded
    already or another thread runs (which could import ``secrets``
    meanwhile)."""
    if "numpy.random" not in sys.modules and threading.active_count() == 1:
        try:
            return _import_draw_modules()
        except ImportError:
            pass  # the plain import below
    import numpy.random

    return numpy.random


@cache
def _fixed_seed_sequence() -> type:
    """An ``ISeedSequence`` that hands a bit generator fixed seed words.
    Made on first use: importing the package does not load ``numpy.random``."""

    class FixedWords(_numpy_random().bit_generator.ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return FixedWords


def _generators(words: np.ndarray) -> list[np.random.Generator]:
    """A channel generator at the start of its stream for each row of
    ``_stream_words``."""
    numpy_random = _numpy_random()
    fixed, bits, generator = _fixed_seed_sequence(), numpy_random.PCG64DXSM, numpy_random.Generator
    return [generator(bits(fixed(row))) for row in words]


class ChannelStreams:
    """Coefficients of one channel model under each of a block of run seeds.

    Row ``i`` of ``draw(k, rows)`` equals ``sample(replace(model,
    seed=seeds[rows][i]), k).values`` bit for bit, whatever was drawn
    before. Each seed keeps its own channel generator, built with the
    block, which fills its row with standard uniforms from step ``k``'s
    position, advanced there only if its last draw did not end there; the
    law's ``scale`` then maps the block, and each exact zero is redrawn the
    same way from its row's redraw position until none is left. A caller
    that steps blocks passes a buffer of its own as ``out``, so a step's
    draw allocates no ``(len(rows), |E|)`` array.
    """

    def __init__(self, model: ChannelModel, seeds: Sequence[int]):
        self._start(model, _stream_words(seeds))

    @classmethod
    def blocks(cls, model: ChannelModel, seeds: Sequence[int], size: int) -> Callable[[int], "ChannelStreams"]:
        """Random access to the blocks of a batch: the returned function maps
        ``b`` to ``ChannelStreams(model, seeds[b * size : (b + 1) * size])``.
        The seeds are replayed once, here, and a block's generators are
        built when it is asked for."""
        words = _stream_words(seeds)

        def block(b: int) -> ChannelStreams:
            streams = cls.__new__(cls)
            streams._start(model, words[b * size : (b + 1) * size])
            return streams

        return block

    def _start(self, model: ChannelModel, words: np.ndarray) -> None:
        self.model = model
        # Built here, before the run allocates its arrays: built inside the
        # first draw, they left mc-dense about 9% slower, a difference that
        # fixed glibc malloc thresholds (MALLOC_MMAP_THRESHOLD_) remove, so
        # it lies in where glibc then places the block's arrays of about
        # 250 kB.
        self._rngs = _generators(words)
        # Stream position of each generator: where its next output sits.
        self._at = [0] * len(words)

    def draw(
        self, k: int, rows: Union[slice, np.ndarray] = slice(None), out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """``(len(rows), |E|)`` coefficients for step ``k`` of the selected
        runs, written into ``out`` (a C-contiguous float64 array of that
        shape) if given, else into a new array."""
        law = self.model.law
        arcs = self.model.topology.arc_weights.size
        start, redraw = _offsets(self.model, k, arcs)
        rngs, at = self._rngs, self._at
        selected = np.arange(len(rngs))[rows].tolist()
        if out is None:
            out = np.empty((len(selected), arcs))
        elif out.shape != (len(selected), arcs):
            raise ValueError(f"out must have shape {(len(selected), arcs)}, got {out.shape}")
        for values, i in zip(out, selected):
            if at[i] != start:
                rngs[i].bit_generator.advance(start - at[i])
            rngs[i].random(out=values)
            at[i] = start + arcs
        law.scale(out)
        # Checked after scaling: a subnormal width rounds nonzero uniforms to 0.
        if out.min(initial=np.inf) > 0.0:
            return out
        for row in np.flatnonzero(out.min(axis=1) <= 0.0).tolist():
            i, values = selected[row], out[row]
            rngs[i].bit_generator.advance(redraw - at[i])
            at[i] = redraw
            while (zero := values <= 0.0).any():
                count = int(zero.sum())
                values[zero] = law.scale(rngs[i].random(count))
                at[i] += count
        return out
