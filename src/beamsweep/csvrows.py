"""CSV rows of a DetectionAnalysis: the bytes '%d' and '%.17g' write, made in array passes.

``record_blocks`` yields the rows of an analysis, one per sector count, in
blocks of text that a writer puts out one at a time; ``_array_rows`` lays
out every block in array passes. The bytes are those of '%d' for the sector
count and '%.17g' for every float, the routine ``presets.format_value`` runs.

A float x != 0 is written by '%.17g' from its 17 significant digits: the
integer D = round(|x| * 10**(16 - k)) in [10**16, 10**17), rounded half to
even, with k = floor(log10 |x|) (and D = 10**16 at k + 1 when the rounding
reaches 10**17). _decimal_parts finds D and k for a whole array at once,
and every cell's text is then one row of slots: a table gives, for the
cell's sign, layout (fixed at each exponent from -4 to 16, or scientific
with a two- or three-digit exponent) and digit count, the constant
characters and which slots are printed. The printed slots of a block, in
order, are its text.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator

import numpy as np

from .analysis import DetectionAnalysis

_BLOCK_ROWS = 1024  # rows per block of text: bounds the memory of a long curve

_K_MIN, _K_MAX = -324, 308  # the decimal exponents of nonzero doubles
_Q_MIN, _Q_MAX = 16 - _K_MAX, 16 - _K_MIN  # the powers 10**(16 - k) they need
# A cell's digits are taken from the double-double product only when its
# fraction lies this far from 1/2; the product errs by less than 2**-45.
_TIE_MARGIN = 2.0**-32
_FORMS = 25  # layouts by exponent: see _form
# Slots of a cell: sign, "0." and three zeros of a fixed form below 1, the
# digits before the point, the point, the digits after it, "e", the exponent's
# sign and three digits, and the separator. An integer's digits take the 19
# slots from _INT_DIGITS.
_SLOTS = 47
_LEAD, _POINT, _TAIL, _EXP, _SEP = 6, 23, 24, 41, 46
_INT_DIGITS = 4
_INT_KEYS = 2 * _FORMS * 17  # an integer's layout key follows the float keys
_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.int64)


def record_blocks(columns: str, analysis: DetectionAnalysis) -> Iterator[str]:
    """CSV rows of an analysis, one per sector count, as text of up to ``_BLOCK_ROWS`` rows.

    Each column is the analysis field of that name, an array over the sector
    counts; the first is the sector count ``m``, an integer array written as
    '%d' writes it, and every other column is written as '%.17g' writes it,
    the routine ``format_value`` runs. Every row ends in a newline. A block
    is made only when the previous one has been consumed, so the text of one
    block at a time is held.
    """
    cells = [getattr(analysis, name) for name in columns.split(",")]
    for start in range(0, len(cells[0]), _BLOCK_ROWS):
        block = [column[start:start + _BLOCK_ROWS] for column in cells]
        yield _array_rows(block[0], np.stack(block[1:], axis=1))


@functools.cache
def _pow10_table() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """10**q for q from _Q_MIN to _Q_MAX as (hi_high, hi_low, lo, b), with 10**q ~ (hi + lo) * 2**b.

    ``hi`` in [0.5, 1) holds the leading 53 bits of 10**q, split by Veltkamp
    into two 26-bit halves for Dekker's exact product, and ``lo`` the next 57
    bits rounded to 53. The bits come from Python integers: 10**q itself for
    q >= 0, and the quotient 2**(bits + 109) // 10**-q below, so the relative
    error of hi + lo is under 2**-109 + 2**-106 < 2**-105.8.
    """
    high, rest, exponents = [], [], []
    for q in range(_Q_MIN, _Q_MAX + 1):
        power = 10 ** abs(q)
        bits = power.bit_length()
        if q >= 0:
            top = power >> (bits - 110) if bits > 110 else power << (110 - bits)
            exponents.append(bits)
        else:
            top = (1 << (bits + 109)) // power
            exponents.append(1 - bits)
        high.append(top >> 57)
        rest.append(top & ((1 << 57) - 1))
    hi = np.ldexp(np.array(high, dtype=np.int64).astype(np.float64), -53)
    lo = np.ldexp(np.array(rest, dtype=np.int64).astype(np.float64), -110)
    split = hi * 134217729.0  # 2**27 + 1
    hi_high = split - (split - hi)
    return hi_high, hi - hi_high, lo, np.array(exponents, dtype=np.int64)


@functools.cache
def _quad_digits() -> tuple[np.ndarray, np.ndarray]:
    """The four ASCII digits of 0..9999 as one uint32 each, and their trailing zero counts."""
    thousands, hundreds, tens, units = np.meshgrid(*[np.arange(10, dtype=np.uint8)] * 4, indexing="ij")
    text = np.stack([thousands, hundreds, tens, units], axis=-1).reshape(10_000, 4) + ord("0")
    zero = [digit == 0 for digit in (thousands, hundreds, tens, units)]
    trailing = zero[3] * (1 + zero[2] * (1 + zero[1] * (1 + zero[0].astype(np.int64))))
    return text.view(np.uint32).ravel(), trailing.ravel()


def _form(k: np.ndarray) -> np.ndarray:
    """The layout of exponent k: k + 4 for a fixed form (-4 <= k <= 16), then scientific
    with a negative two- or three-digit exponent (21, 22) or a positive one (23, 24)."""
    return np.where(k < -4, np.where(k <= -100, 22, 21),
                    np.where(k >= 17, np.where(k >= 100, 24, 23), k + 4))


@functools.cache
def _layouts() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(characters, printed) slots of every layout key; the key part and exponent text of each k.

    A float's key is (sign * _FORMS + form) * 17 + digits - 1, with the form
    from ``_form``; the table over k from _K_MIN to _K_MAX holds form * 17,
    and each form's layout is built at its smallest k. An integer's key
    is _INT_KEYS + its digit count. The exponent's sign and three digits are
    data, not layout, and come from their own table over k.
    """
    exponents = np.arange(_K_MIN, _K_MAX + 1)
    forms = _form(exponents)
    sign, form, count = (
        axis.ravel()
        for axis in np.meshgrid(np.arange(2), np.arange(_FORMS), np.arange(1, 18), indexing="ij")
    )
    k = exponents[np.unique(forms, return_index=True)[1]][form]
    sci = (k < -4) | (k >= 17)
    below_one = (k < 0) & ~sci
    whole = np.where(below_one, 0, np.where(sci, 1, k + 1))  # digits before the point
    shown = np.maximum(count, whole)  # digits printed; a fixed form keeps its units
    lead = np.where(below_one, shown, whole)
    slots = np.arange(17)
    printed = np.zeros((_INT_KEYS + 20, _SLOTS), bool)
    floats = printed[:_INT_KEYS]
    floats[:, 0] = sign
    floats[:, 1] = floats[:, 2] = below_one
    floats[:, 3:6] = np.arange(3) < np.where(below_one, -1 - k, 0)[:, None]
    floats[:, _LEAD:_POINT] = slots < lead[:, None]
    floats[:, _POINT] = ~below_one & (shown > whole)
    floats[:, _TAIL:_EXP] = (slots >= lead[:, None]) & (slots < shown[:, None])
    floats[:, _EXP:_SEP] = sci[:, None]
    floats[:, _EXP + 2] &= np.abs(k) >= 100
    printed[_INT_KEYS:, _INT_DIGITS:_INT_DIGITS + 19] = np.arange(19) >= 19 - np.arange(20)[:, None]
    printed[:, _SEP] = True
    template = np.frombuffer(b"-0.000" + b"0" * 17 + b"." + b"0" * 17 + b"e+000,", np.uint8)
    chars = np.tile(template, (len(printed), 1))
    size = np.abs(exponents)
    exponent_text = np.stack(
        [np.where(exponents < 0, ord("-"), ord("+")), size // 100, size // 10 % 10, size % 10],
        axis=1,
    ) + [0, ord("0"), ord("0"), ord("0")]
    return chars, printed, forms * 17, exponent_text.astype(np.uint8)


def _decimal_parts(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(proven, D, k) of each float: |x| = D * 10**(k - 16) to 17 significant digits.

    With |x| = mant * 2**e (``np.frexp``) and 10**(16 - k) ~ (hi + lo) * 2**b
    from ``_pow10_table``, y = |x| * 10**(16 - k) is mant * hi as Dekker's
    exact product p + err, plus mant * lo, scaled by 2**(e + b). The table
    errs by under 2**-105.8, and rounding mant * lo and adding it to err by
    under 1.5 * 2**-106, so the sum errs by less than 2**-104.6 of
    mant * 10**(16 - k) / 2**b, a number in [1/4, 1). A proven cell has
    y < 10**17 + 1 < 2**57, so 2**(e + b) < 2**59 and y errs by less than
    2**-45. D rounds y half to even, which is what '%.17g' does. A cell is
    proven, and D and k are its digits and exponent, where the fraction of
    y lies more than _TIE_MARGIN from 1/2 and 10**16 <= floor(y) and
    D <= 10**17; a y within 2**-45 below 10**16 has the same digits at k.
    Zeros, non-finite values, (near-)ties such as 2**-25, and a guess of
    k = floor(log10 |x|) off by one are not proven: their D is 10**16 and
    their text comes from '%.17g' itself.
    """
    ax = np.abs(x)
    proven = np.isfinite(ax) & (ax > 0.0)
    ax = np.where(proven, ax, 1.0)
    k = np.floor(np.log10(ax)).astype(np.int64)
    hi_high, hi_low, lo, exponents = _pow10_table()
    row = (16 - _Q_MIN) - k
    mant, e = np.frexp(ax)
    split = mant * 134217729.0
    m_high = split - (split - mant)
    m_low = mant - m_high
    h_high, h_low = hi_high[row], hi_low[row]
    p = mant * (h_high + h_low)
    err = ((m_high * h_high - p) + m_high * h_low + m_low * h_high) + m_low * h_low
    scale = ((e + exponents[row] + 1023) << 52).view(np.float64)  # 2**(e + b), exact
    y_high = p * scale  # an integer, since y >= 2**53 wherever the cell can be proven
    y_low = (err + mant * lo[row]) * scale
    floor = np.floor(y_low)
    fraction = y_low - floor
    d = y_high.astype(np.int64) + floor.astype(np.int64)
    proven &= (np.abs(fraction - 0.5) > _TIE_MARGIN) & (d >= 10**16)
    d += fraction > 0.5
    proven &= d <= 10**17
    carry = d == 10**17
    d[carry] = 10**16
    k += carry
    d[~proven] = 10**16
    return proven, d, k


def _digit_groups(v: np.ndarray) -> np.ndarray:
    """Non-negative int64 v as five groups of decimal digits: v // 10**16, then four of four."""
    groups = np.empty(v.shape + (5,), np.int64)
    upper, lower = np.divmod(v, 10**8)
    np.divmod(upper, 10**8, out=(groups[..., 0], upper))
    np.divmod(upper, 10**4, out=(groups[..., 1], groups[..., 2]))
    np.divmod(lower, 10**4, out=(groups[..., 3], groups[..., 4]))
    return groups


def _array_rows(m: np.ndarray, x: np.ndarray) -> str:
    """The CSV rows of sector counts ``m`` (n,) and float columns ``x`` (n, c), in array passes.

    The bytes are those of the printf formats by construction: a cell the
    array passes cannot prove (see ``_decimal_parts``; for ``m``, a negative
    count) is formatted by '%.17g' or '%d' itself and its text put in its
    slots.
    """
    quads, trailing = _quad_digits()
    chars_of, printed_of, form_keys, exponent_text = _layouts()
    proven, d, k = _decimal_parts(x)
    groups = _digit_groups(d)
    zeros = trailing[groups[..., 4]]  # trailing zeros of D, four digits at a time
    for group, run in ((3, 4), (2, 8), (1, 12)):
        zeros += (zeros == run) * trailing[groups[..., group]]
    m = m.astype(np.int64, copy=False)
    counted = m >= 0
    keys = np.empty((len(m), 1 + x.shape[1]), np.int64)
    keys[:, 0] = _INT_KEYS + np.searchsorted(_POWERS_OF_TEN, m, side="right") + 1
    keys[:, 1:] = np.signbit(x) * (_FORMS * 17) + form_keys[k - _K_MIN] + (16 - zeros)
    chars = np.take(chars_of, keys, axis=0)
    printed = np.take(printed_of, keys, axis=0)

    cells = chars[:, 1:]
    digits = np.take(quads, groups).view(np.uint8)[..., 3:]
    cells[..., _LEAD:_POINT] = digits
    cells[..., _TAIL:_EXP] = digits
    cells[..., _EXP + 1:_SEP] = np.take(exponent_text, k - _K_MIN, axis=0)
    int_digits = np.take(quads, _digit_groups(np.where(counted, m, 0))).view(np.uint8)
    chars[:, 0, _INT_DIGITS:_INT_DIGITS + 19] = int_digits[..., 1:]
    _printf_cells(x, proven, "%.17g", cells, printed[:, 1:])
    _printf_cells(m, counted, "%d", chars[:, 0], printed[:, 0])
    chars[:, -1, _SEP] = ord("\n")
    return chars.ravel()[printed.ravel()].tobytes().decode("ascii")


def _printf_cells(values, proven, fmt, chars, printed) -> None:
    """Put the printf text of every unproven value in its cell's leading slots."""
    where = np.nonzero(~proven)
    if where[0].size:
        texts = [(fmt % v).encode() for v in values[where].tolist()]
        lengths = np.array([len(text) for text in texts])
        chars[where + (slice(0, _SEP),)] = np.array(texts, f"S{_SEP}").view(np.uint8).reshape(-1, _SEP)
        slots = np.arange(_SLOTS)
        printed[where] = (slots < lengths[:, None]) | (slots == _SEP)
