"""The rows of ``trace.csv``, ``step,agent,%.17g``, formatted in numpy.

Every byte equals what Python's ``'%.17g' % v`` writes. A finite value
``a = |v|`` whose decimal exponent ``E`` lies in [-4, 16], the range
``%.17g`` writes in fixed notation, gets its 17 significant digits
``N = round_half_even(a * 10**s)``, ``s = 16 - E``, exactly: ``10**s`` is
an exact double, Dekker's product (Numer. Math. 18, 1971) gives ``a * 10**s``
as ``p + err`` with ``p`` and ``err`` doubles, and ``p``, at least
``2**53``, is an even integer, so ``N = p + rint(err)``.
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


def _veltkamp(a: np.ndarray, hi: np.ndarray, lo: np.ndarray) -> None:
    """Split each double ``a`` into ``hi + lo``, halves of at most 26
    significant bits whose products are exact (Veltkamp's split)."""
    np.multiply(a, 2.0**27 + 1.0, out=hi)
    np.subtract(hi, a, out=lo)
    hi -= lo
    np.subtract(a, hi, out=lo)


# 10**s for s in [0, 22], each an exact double, and its two halves.
_TENS = np.empty((3, 23))
_TENS[0] = [float(10**s) for s in range(23)]
_veltkamp(_TENS[0], _TENS[1], _TENS[2])
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
    """The per-value arrays of ``_fill`` for up to ``size`` values, each
    written through ``out=``.

    ``_fill`` puts the absolute values in ``real[1]``, those it writes in
    fixed notation in ``real[0]`` and their rows in ``ints[5]``.
    ``_decimal`` leaves the exponents in ``ints[3]`` and the digits in
    ``ints[4]``, working in ``real[1:]`` and ``ints[0]`` for ``_scaled``;
    ``_fill`` sorts exponents, digits and rows into ``ints[:3]`` before
    ``_ascii_digits`` takes ``ints[3:]`` and ``words``.
    """

    def __init__(self, size: int):
        self.size = size
        self.index = np.arange(size)
        self.real = np.empty((6, size))
        self.ints = np.empty((6, size), np.int64)
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
    ax = np.abs(x, out=w.real[1, :size])
    fixed = np.greater_equal(ax, 1e-5, out=w.flags[0, :size])
    fixed &= np.less(ax, 1e17, out=w.flags[1, :size])
    count = np.count_nonzero(fixed)
    found = np.compress(fixed, w.index[:size], out=w.ints[5, :count])
    n, e = _decimal(np.take(ax, found, out=w.real[0, :count], mode="clip"), w)
    # In order of exponent, so that _layout writes each exponent's rows as
    # one slice; the exponent -5 sorts first and is dropped.
    order = np.argsort(e.astype(np.int8), kind="stable")[np.count_nonzero(e < -4) :]
    count = len(order)
    e = np.take(e, order, out=w.ints[0, :count], mode="clip")
    n = np.take(n, order, out=w.ints[1, :count], mode="clip")
    rows = np.take(found, order, out=w.ints[2, :count], mode="clip")
    negative = np.less(np.take(x, rows, out=w.real[0, :count], mode="clip"), 0.0, out=w.flags[2, :count])
    text = w.text[:count]
    _layout(text, n, e, negative, w)
    out[rows] = text
    zero = np.flatnonzero(x == 0.0)
    out[zero] = _ZEROS[np.signbit(x[zero]).view(np.int8)]
    rest = w.flags[0, :size]
    rest[:] = True
    rest[rows] = False
    rest[zero] = False
    out[rest] = _SPECIFIER
    return x[rest]


def _decimal(a: np.ndarray, w: _Scratch) -> tuple[np.ndarray, np.ndarray]:
    """``(N, E)`` with ``N`` in [10**16, 10**17) the correctly rounded 17
    significant digits of each ``a`` in [1e-5, 1e17), and ``E`` the
    decimal exponent ``%.17g`` reads from them."""
    size = len(a)
    e, n = w.ints[3, :size], w.ints[4, :size]
    log = w.real[1, :size]
    np.copyto(e, np.floor(np.log10(a, out=log), out=log), casting="unsafe")
    np.clip(e, -5, 16, out=e)
    _scaled(a, np.subtract(16, e, out=w.ints[0, :size]), n, w.real[1:])
    # floor(log10) can miss by one next to a power of ten: move E and redo.
    # Rounding never carries N up to 10**17: doubles are spaced wider than
    # half a unit of the 17th digit, so none lies that close below 10**k.
    up = np.greater_equal(n, 10**17, out=w.flags[1, :size])
    down = np.less(n, 10**16, out=w.flags[2, :size])
    redo = np.flatnonzero(up | down)
    if len(redo):  # rarely: skip some 20 numpy calls on empty arrays
        e[redo] += up[redo].view(np.int8) - down[redo].view(np.int8)
        n[redo] = _scaled(a[redo], 16 - e[redo], np.empty(len(redo), np.int64), w.real[1:])
    return n, e


def _scaled(a: np.ndarray, s: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """``round_half_even(a * 10**s)`` as ``int64`` into ``out``, for
    ``0 <= s <= 22`` and products in [2**53, 2**63), as are those of
    ``_decimal`` even where ``E`` is off by one; ``s`` is overwritten and
    ``tmp`` holds five rows of scratch."""
    p, hi, lo, b, t = (row[: len(a)] for row in tmp[:5])
    np.multiply(a, np.take(_TENS[0], s, out=p, mode="clip"), out=p)
    np.copyto(out, p, casting="unsafe")
    # Dekker's product: p - a * 10**s, exactly, is accumulated in p from the
    # halves of both factors, ((p - hi * b_hi) - lo * b_hi - hi * b_lo) - lo * b_lo.
    _veltkamp(a, hi, lo)
    np.take(_TENS[1], s, out=b, mode="clip")
    p -= np.multiply(hi, b, out=t)
    p -= np.multiply(lo, b, out=b)
    np.take(_TENS[2], s, out=b, mode="clip")
    p -= np.multiply(hi, b, out=hi)
    p -= np.multiply(lo, b, out=lo)
    # p, at least 2**53, is an even integer, so p + rint(err) ties to even.
    np.copyto(s, np.rint(p, out=p), casting="unsafe")
    out -= s
    return out


def _ascii_digits(n: np.ndarray, w: _Scratch) -> np.ndarray:
    """``(len(n), 17)`` ASCII digits of each ``n`` in [10**16, 10**17), its
    trailing zeros as spaces; ``n`` is overwritten."""
    size = len(n)
    quot, group, index = (row[:size] for row in w.ints[3:])
    words = w.words[:size]
    tail = w.flags[1, :size]
    tail[:] = True
    # Four-digit groups from the last, each trimmed when every group after
    # it is zero. Division by a constant, then a multiply and subtract for
    # the remainder: far quicker in numpy than divmod or %.
    for j in range(4, 0, -1):
        np.floor_divide(n, 10**4, out=quot)
        np.subtract(n, np.multiply(quot, 10**4, out=group), out=group)
        np.multiply(tail, 10**4, out=index)
        index += group
        np.take(_QUADS, index, out=words[:, j], mode="clip")
        tail &= np.equal(group, 0, out=w.flags[0, :size])
        n, quot = quot, n
    n += ord("0")
    text = words.view(np.uint8)
    np.copyto(text[:, 3], n, casting="unsafe")
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
