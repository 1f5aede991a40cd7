"""The rows of ``trace.csv``, ``step,agent,%.17g``, formatted in numpy.

Every byte equals what Python's ``'%.17g' % v`` writes. A finite value
``|v| = m * 2**q`` whose decimal exponent ``E`` lies in [-4, 16], the
range ``%.17g`` writes in fixed notation, gets its 17 significant digits
``N = round_half_even(m * 5**s * 2**(s + q))``, ``s = 16 - E``, exactly:
``m * 5**s`` is below ``2**102`` and is kept in two ``uint64`` limbs, then
shifted right with the remainder compared against half, ties to even.
The digits are laid out in fixed notation, trailing zeros and a bare
point dropped, and zeros are written as ``0`` and ``-0``. Every other
value (subnormals, infinities, NaNs and exponents outside the range)
gets the ``%.17g`` conversion specifier in its row, and one Python ``%``
formats them all once the chunk's rows are joined.

Rows are laid out in a fixed-width byte matrix padded with spaces, a
byte no row holds, and the padding is deleted as the rows are joined.
"""

from __future__ import annotations

import numpy as np

_SPACE = ord(" ")
# Widest fixed-notation text: a sign slot, then 0.00012345678901234567.
_WIDTH = 23

_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
_MANTISSA = _U64((1 << 52) - 1)
_HIDDEN = _U64(1 << 52)
_TEN16, _TEN17 = _U64(10**16), _U64(10**17)
# 5**s * 2**8 for s = 16 - E, E in [-5, 16]: below 2**57. The 2**8 keeps
# the shift below positive for every value in range.
_POW5 = np.array([5**s << 8 for s in range(22)], dtype=np.uint64)
# ASCII of 0000 ... 9999, four digits to one uint32 word; then the same
# with trailing zeros as spaces, for the last nonzero group of a number.
_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), np.uint8).reshape(100, 2)
_QUADS = np.empty((2, 100, 100, 4), np.uint8)
_QUADS[:, :, :, :2] = _PAIRS[:, None]
_QUADS[:, :, :, 2:] = _PAIRS
_QUADS[1, :, ::10, 3] = _SPACE
_QUADS[1, :, 0, 2] = _SPACE
_QUADS[1, ::10, 0, 1] = _SPACE
_QUADS[1, 0, 0, 0] = _SPACE
_QUADS = _QUADS.view(np.uint32).ravel()
# The text of 0.0 and of -0.0, and the conversion specifier for the rest.
_ZEROS = np.full((2, _WIDTH), _SPACE, np.uint8)
_ZEROS[:, 1] = ord("0")
_ZEROS[1, 0] = ord("-")
_SPECIFIER = np.full(_WIDTH, _SPACE, np.uint8)
_SPECIFIER[:5] = np.frombuffer(b"%.17g", np.uint8)


class TraceRows:
    """``step,agent,x`` rows of an ``n``-agent trace, one per agent and
    step, made for a chunk of consecutive steps at a time.

    The row bytes and every per-value array of the formatting live in
    buffers made once and grown only as chunks or step labels grow: a
    chunk allocates nothing in proportion to its size but its output, so
    the heap does not grow and shrink, with its pages faulted back in,
    from one chunk to the next.
    """

    def __init__(self, n: int):
        labels = _labels(np.arange(1, n + 1))
        self._agents = np.full((n, labels.shape[1] + 2), ord(","), np.uint8)
        self._agents[:, 1:-1] = labels
        self._text = bytearray()
        self._shape = None  # of the rows that self._text holds
        self._scratch = _Scratch(0)

    def __call__(self, states: np.ndarray, first_step: int) -> bytearray:
        """The rows of ``states``, an ``(S, n)`` array of steps ``first_step``
        to ``first_step + S - 1``, written as float64 values."""
        states = np.asarray(states, dtype=np.float64)
        steps, n = states.shape
        label = _labels(np.arange(first_step, first_step + steps))
        a, b = label.shape[1], label.shape[1] + self._agents.shape[1]
        size = steps * n * (b + _WIDTH + 1)
        if len(self._text) < size:
            self._text, self._shape = bytearray(size), None
        if self._scratch.size < steps * n:
            self._scratch = _Scratch(steps * n)
        text = np.frombuffer(self._text, np.uint8)
        # Bytes past this chunk's rows are spaces, which the join deletes.
        text[size:] = _SPACE
        rows = text[:size].reshape(steps, n, -1)
        rows[:, :, :a] = label[:, None]
        if rows.shape != self._shape:
            # The agent labels and newlines of the last chunk's rows stay.
            rows[:, :, a:b] = self._agents
            rows[:, :, -1] = ord("\n")
            self._shape = rows.shape
        rest = _fill(states.ravel(), rows.reshape(steps * n, -1)[:, b:-1], self._scratch)
        joined = self._text.translate(None, b" ")
        # With no specifier to fill, % would only copy the chunk's text.
        return joined % tuple(rest.tolist()) if len(rest) else joined


class _Scratch:
    """The per-value arrays of ``_fill`` for up to ``size`` values.

    ``_fill`` keeps ``real[0]``, ``flags[0]`` and ``signed[3]`` to itself.
    ``_decimal`` leaves the digits in ``unsigned[1]`` and the exponents in
    ``signed[1]``, working in ``unsigned[2:]`` for ``_scaled``; ``_fill``
    sorts them into ``unsigned[0]`` and ``signed[0]``, and their rows into
    ``signed[2]``, before ``_ascii_digits`` takes ``unsigned[1:4]``,
    ``small`` and ``words``.
    """

    def __init__(self, size: int):
        self.size = size
        self.index = np.arange(size)
        self.real = np.empty((2, size))
        self.signed = np.empty((4, size), np.int64)
        self.unsigned = np.empty((7, size), np.uint64)
        self.small = np.empty((5, size), np.uint32)
        self.flags = np.empty((3, size), bool)
        self.words = np.empty((size, 5), np.uint32)
        self.text = np.empty((size, _WIDTH), np.uint8)


def _labels(k: np.ndarray) -> np.ndarray:
    """Decimal text of nonnegative integers, one space-padded row each."""
    text = k.astype(f"S{len(str(k.max()))}").view(np.uint8).reshape(len(k), -1)
    text[text == 0] = _SPACE
    return text


def _fill(x: np.ndarray, out: np.ndarray, w: _Scratch) -> np.ndarray:
    """Write the text of each value into its row of ``out``, ``(len(x), 23)``
    bytes, padded with spaces: fixed notation where the exponent is in
    range, ``0`` or ``-0`` for a zero, and the conversion specifier
    ``%.17g`` for every other value. Return those other values, in order."""
    size = len(x)
    ax = np.abs(x, out=w.real[0, :size])
    fixed = np.greater_equal(ax, 1e-5, out=w.flags[0, :size])
    fixed &= np.less(ax, 1e17, out=w.flags[1, :size])
    count = np.count_nonzero(fixed)
    found = np.compress(fixed, w.index[:size], out=w.signed[3, :count])
    n, e = _decimal(np.take(ax, found, out=w.real[1, :count], mode="clip"), w)
    # In order of exponent, so that _layout writes each exponent's rows as
    # one slice; the exponent -5 sorts first and is dropped.
    order = np.argsort(e.astype(np.int8), kind="stable")[np.count_nonzero(e < -4) :]
    count = len(order)
    rows = np.take(found, order, out=w.signed[2, :count], mode="clip")
    e = np.take(e, order, out=w.signed[0, :count], mode="clip")
    n = np.take(n, order, out=w.unsigned[0, :count], mode="clip")
    negative = np.less(np.take(x, rows, out=w.real[1, :count], mode="clip"), 0.0, out=w.flags[2, :count])
    text = w.text[:count]
    _layout(text, n, e, negative, w)
    out[rows] = text
    zero = np.flatnonzero(ax == 0.0)
    out[zero] = _ZEROS[np.signbit(x[zero]).view(np.int8)]
    rest = w.flags[0, :size]
    rest[:] = True
    rest[rows] = False
    rest[zero] = False
    out[rest] = _SPECIFIER
    return x[rest]


def _decimal(ax: np.ndarray, w: _Scratch) -> tuple[np.ndarray, np.ndarray]:
    """``(N, E)`` with ``N`` in [10**16, 10**17) the correctly rounded 17
    significant digits of each ``ax`` in [1e-5, 1e17), and ``E`` the
    decimal exponent ``%.17g`` reads from them; ``ax`` is overwritten."""
    size = len(ax)
    bits = ax.view(np.uint64)
    m = np.bitwise_and(bits, _MANTISSA, out=w.unsigned[0, :size])
    m |= _HIDDEN
    q = w.signed[0, :size]
    np.right_shift(bits, _U64(52), out=q.view(np.uint64))
    q -= 1075
    e = w.signed[1, :size]
    np.copyto(e, np.floor(np.log10(ax, out=ax), out=ax), casting="unsafe")
    np.clip(e, -5, 16, out=e)
    n = _scaled(m, q, np.subtract(16, e, out=w.signed[2, :size]), w.unsigned[1, :size], w.unsigned[2:])
    # floor(log10) can miss by one next to a power of ten: move E and redo.
    # Rounding never carries N up to 10**17: doubles are spaced wider than
    # half a unit of the 17th digit, so none lies that close below 10**k.
    up = np.greater_equal(n, _TEN17, out=w.flags[1, :size])
    down = np.less(n, _TEN16, out=w.flags[2, :size])
    redo = np.flatnonzero(up | down)
    if len(redo):  # rarely: skip some 35 numpy calls on empty arrays
        e[redo] += up[redo].view(np.int8) - down[redo].view(np.int8)
        n[redo] = _scaled(m[redo], q[redo], 16 - e[redo], np.empty(len(redo), np.uint64), w.unsigned[2:])
    return n, e


def _scaled(m: np.ndarray, q: np.ndarray, s: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """``round_half_even(m * 5**s * 2**(s + q))`` as ``uint64`` into ``out``,
    for ``m < 2**53``, ``0 <= s <= 21``, ``-56 < s + q < 4`` and a result
    below ``2**63``; ``tmp`` holds five rows of scratch."""
    f, m_lo, f_lo, mid, low = (row[: len(m)] for row in tmp[:5])
    high = out
    np.take(_POW5, s, out=f, mode="clip")
    np.bitwise_and(m, _LOW32, out=m_lo)
    np.bitwise_and(f, _LOW32, out=f_lo)
    f >>= _U64(32)
    # The 128-bit product m * f as high and low limbs, from 32-bit halves.
    np.multiply(m_lo, f, out=mid)
    np.right_shift(m, _U64(32), out=low)
    np.multiply(low, f, out=high)
    low *= f_lo
    mid += low
    m_lo *= f_lo
    np.left_shift(mid, _U64(32), out=low)
    low += m_lo
    high += np.less(low, m_lo, out=f_lo)
    mid >>= _U64(32)
    high += mid
    # Shift right by t = 8 - s - q, rounding half to even.
    t = f
    np.subtract(8, s, out=t.view(np.int64))
    np.subtract(t.view(np.int64), q, out=t.view(np.int64))
    np.subtract(_U64(64), t, out=mid)
    high <<= mid
    np.right_shift(low, t, out=mid)
    high |= mid
    np.left_shift(_U64(1), t, out=mid)
    mid -= _U64(1)
    low &= mid
    t -= _U64(1)
    np.left_shift(_U64(1), t, out=t)
    np.greater(low, t, out=mid)
    np.equal(low, t, out=m_lo)
    np.bitwise_and(high, _U64(1), out=f_lo)
    m_lo &= f_lo
    mid |= m_lo
    high += mid
    return high


def _ascii_digits(n: np.ndarray, w: _Scratch) -> np.ndarray:
    """``(len(n), 17)`` ASCII digits of each ``n`` in [10**16, 10**17), its
    trailing zeros as spaces."""
    size = len(n)
    lead, rest, upper = (row[:size] for row in w.unsigned[1:4])
    words = w.words[:size]
    text = words.view(np.uint8)
    # Division by a constant, then a multiply and subtract for the
    # remainder: far quicker in numpy than divmod or %.
    np.floor_divide(n, _TEN16, out=lead)
    np.multiply(lead, _TEN16, out=rest)
    np.subtract(n, rest, out=rest)
    lead += _U64(ord("0"))
    np.copyto(text[:, 3], lead, casting="unsafe")
    np.floor_divide(rest, _U64(10**8), out=upper)
    np.multiply(upper, _U64(10**8), out=lead)
    rest -= lead
    high, low, mid, last, index = (row[:size] for row in w.small)
    np.copyto(mid, upper, casting="unsafe")
    np.copyto(last, rest, casting="unsafe")
    np.floor_divide(mid, np.uint32(10**4), out=high)
    np.floor_divide(last, np.uint32(10**4), out=low)
    mid -= np.multiply(high, np.uint32(10**4), out=index)
    last -= np.multiply(low, np.uint32(10**4), out=index)
    # A group is trimmed when every group after it is zero.
    tail = w.flags[1, :size]
    tail[:] = True
    for j, group in reversed(list(enumerate((high, mid, low, last)))):
        np.multiply(tail, np.uint32(10000), out=index)
        index += group
        np.take(_QUADS, index, out=words[:, 1 + j], mode="clip")
        tail &= np.equal(group, 0, out=w.flags[0, :size])
    return text[:, 3:]


def _layout(out: np.ndarray, n: np.ndarray, e: np.ndarray, negative: np.ndarray, w: _Scratch) -> None:
    """Write the fixed-notation text of the digits ``n`` and exponents ``e``
    (ascending, in [-4, 16]) into the rows of ``out``: a sign slot, the
    number with its trailing zeros dropped, and the point with them when
    no fraction is left, then spaces."""
    digits = _ascii_digits(n, w)
    out[:, 0] = np.where(negative, ord("-"), _SPACE)
    out[:, 19:] = _SPACE
    exps = (np.flatnonzero(np.bincount(e + 4)) - 4).tolist()
    bounds = np.searchsorted(e, [*exps, 17]).tolist()
    for exp, lo, hi in zip(exps, bounds, bounds[1:]):
        rows = slice(lo, hi)
        if exp >= 0:
            # Zeros of the integer part stay: a space is below "0".
            out[rows, 1 : exp + 2] = np.maximum(digits[rows, : exp + 1], ord("0"))
            fraction = digits[rows, exp + 1 :]
            point = np.where(fraction[:, 0] == _SPACE, _SPACE, ord(".")) if exp < 16 else _SPACE
            out[rows, exp + 2] = point
            out[rows, exp + 3 : 19] = fraction
        else:
            out[rows, 1:3] = (ord("0"), ord("."))
            out[rows, 3 : 2 - exp] = ord("0")
            out[rows, 2 - exp : 19 - exp] = digits[rows]
