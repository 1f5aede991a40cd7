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

#: About the most values one chunk of trace rows holds; a chunk is whole steps.
CHUNK_VALUES = 8192

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
    step, made for a chunk of consecutive steps at a time."""

    def __init__(self, n: int):
        labels = _labels(np.arange(1, n + 1))
        self._agents = np.full((n, labels.shape[1] + 2), ord(","), np.uint8)
        self._agents[:, 1:-1] = labels

    def __call__(self, states: np.ndarray, first_step: int) -> bytes:
        """The rows of ``states``, an ``(S, n)`` array of steps ``first_step``
        to ``first_step + S - 1``, written as float64 values."""
        states = np.asarray(states, dtype=np.float64)
        steps, n = states.shape
        label = _labels(np.arange(first_step, first_step + steps))
        a, b = label.shape[1], label.shape[1] + self._agents.shape[1]
        rows = np.empty((steps, n, b + _WIDTH + 1), np.uint8)
        rows[:, :, :a] = label[:, None]
        rows[:, :, a:b] = self._agents
        rows[:, :, -1] = ord("\n")
        rest = _fill(states.ravel(), rows.reshape(steps * n, -1)[:, b:-1])
        return rows.tobytes().translate(None, b" ") % tuple(rest.tolist())


def _labels(k: np.ndarray) -> np.ndarray:
    """Decimal text of nonnegative integers, one space-padded row each."""
    text = k.astype(f"S{len(str(k.max()))}").view(np.uint8).reshape(len(k), -1)
    text[text == 0] = _SPACE
    return text


def _fill(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the text of each value into its row of ``out``, ``(len(x), 23)``
    bytes, padded with spaces: fixed notation where the exponent is in
    range, ``0`` or ``-0`` for a zero, and the conversion specifier
    ``%.17g`` for every other value. Return those other values, in order."""
    ax = np.abs(x)
    rows = np.flatnonzero((ax >= 1e-5) & (ax < 1e17))
    n, e = _decimal(ax[rows])
    # In order of exponent, so that _layout writes each exponent's rows as
    # one slice; the exponent -5 sorts first and is dropped.
    order = np.argsort(e.astype(np.int8), kind="stable")[np.count_nonzero(e < -4) :]
    rows, n, e = rows[order], n[order], e[order]
    text = np.empty((len(rows), _WIDTH), np.uint8)
    _layout(text, n, e, x[rows] < 0)
    out[rows] = text
    zero = np.flatnonzero(ax == 0.0)
    out[zero] = _ZEROS[np.signbit(x[zero]).view(np.int8)]
    rest = np.ones(len(x), bool)
    rest[rows] = False
    rest[zero] = False
    out[rest] = _SPECIFIER
    return x[rest]


def _decimal(ax: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(N, E)`` with ``N`` in [10**16, 10**17) the correctly rounded 17
    significant digits of each ``ax`` in [1e-5, 1e17), and ``E`` the
    decimal exponent ``%.17g`` reads from them."""
    bits = ax.view(np.uint64)
    m = (bits & _MANTISSA) | _HIDDEN
    q = (bits >> _U64(52)).astype(np.int64) - 1075
    e = np.floor(np.log10(ax)).astype(np.int64)
    np.minimum(np.maximum(e, -5, out=e), 16, out=e)
    n = _scaled(m, q, 16 - e)
    # floor(log10) can miss by one next to a power of ten: move E and redo.
    # Rounding never carries N up to 10**17: doubles are spaced wider than
    # half a unit of the 17th digit, so none lies that close below 10**k.
    off = (n >= _TEN17).astype(np.int64) - (n < _TEN16)
    redo = np.flatnonzero(off)
    e[redo] += off[redo]
    n[redo] = _scaled(m[redo], q[redo], 16 - e[redo])
    return n, e


def _scaled(m: np.ndarray, q: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``round_half_even(m * 5**s * 2**(s + q))`` as ``uint64``, for
    ``m < 2**53``, ``0 <= s <= 21``, ``-56 < s + q < 4`` and a result
    below ``2**63``."""
    f = _POW5[s]
    m_lo, m_hi = m & _LOW32, m >> _U64(32)
    f_lo, f_hi = f & _LOW32, f >> _U64(32)
    mid = m_lo * f_hi + m_hi * f_lo
    lo = m_lo * f_lo
    low = lo + (mid << _U64(32))
    high = m_hi * f_hi + (mid >> _U64(32)) + (low < lo)
    t = (8 - s - q).astype(np.uint64)
    n = (high << (_U64(64) - t)) | (low >> t)
    rem = low & ((_U64(1) << t) - _U64(1))
    half = _U64(1) << (t - _U64(1))
    return n + ((rem > half) | ((rem == half) & (n & _U64(1)).astype(bool)))


def _ascii_digits(n: np.ndarray) -> np.ndarray:
    """``(len(n), 17)`` ASCII digits of each ``n`` in [10**16, 10**17), its
    trailing zeros as spaces."""
    lead = n // _TEN16
    rest = n - lead * _TEN16
    upper = (rest // _U64(10**8)).astype(np.uint32)
    lower = (rest - upper.astype(np.uint64) * _U64(10**8)).astype(np.uint32)
    high, low = upper // 10000, lower // 10000
    groups = (high, upper - high * 10000, low, lower - low * 10000)
    words = np.empty((len(n), 5), np.uint32)
    # A group is trimmed when every group after it is zero.
    tail = True
    for j in range(3, -1, -1):
        words[:, 1 + j] = _QUADS[groups[j] + 10000 * tail]
        tail = tail & (groups[j] == 0)
    text = words.view(np.uint8)
    text[:, 3] = lead.astype(np.uint8) + ord("0")
    return text[:, 3:]


def _layout(out: np.ndarray, n: np.ndarray, e: np.ndarray, negative: np.ndarray) -> None:
    """Write the fixed-notation text of the digits ``n`` and exponents ``e``
    (ascending, in [-4, 16]) into the rows of ``out``: a sign slot, the
    number with its trailing zeros dropped, and the point with them when
    no fraction is left, then spaces."""
    digits = _ascii_digits(n)
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
