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

The passes over a block write into one workspace (``_Workspace``), made once
per curve and reused by each of its blocks. Arrays made and freed block by
block are too large for the C allocator to keep: it returned their memory
to the system, and every block faulted it in again, about 1,800 minor page
faults for a 4,096-row curve. A block is _BLOCK_ROWS = 512 rows, which holds
the workspace of an eight-column curve to 1.1 MB.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator

import numpy as np

from .analysis import DetectionAnalysis

_BLOCK_ROWS = 512  # rows per block of text: bounds the memory of a long curve

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
    block at a time is held. The passes over every block write into one
    workspace, made for the curve's first block; the last, shorter block
    lays its arrays out in the same memory. Each block is a new string, not
    a view of the workspace.
    """
    cells = [getattr(analysis, name) for name in columns.split(",")]
    rows = len(cells[0])
    workspace = _Workspace(min(_BLOCK_ROWS, rows), len(cells) - 1)
    for start in range(0, rows, _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        ws = workspace if start + _BLOCK_ROWS <= rows else workspace.carve(rows - start)
        for x, column in zip(ws.x.T, cells[1:]):
            x[:] = column[block]
        yield _array_rows(cells[0][block], ws.x, ws)


class _Workspace:
    """The arrays the passes over one block of ``rows`` rows and ``floats`` float columns write into.

    They are views of one buffer, made once per curve: freeing a block's
    arrays and making the next one's would return memory to the system and
    fault it in again, block after block. A block's passes write each array
    before they read it, so nothing carries over from one block to the
    next, and ``carve`` lays out a shorter block's arrays in the same buffer.
    """

    def __init__(self, rows: int, floats: int, memory: np.ndarray | None = None) -> None:
        cells, line = (rows, floats), (rows, 1 + floats)
        layout = {
            "x": (cells, np.float64),  # the block's float columns
            "reals": ((9,) + cells, np.float64),  # _decimal_parts' intermediates
            "e": (cells, np.intc),
            "k": (cells, np.int64),
            "d": (cells, np.int64),
            "index": (cells, np.int64),
            "scratch": (cells, np.int64),
            "zeros": (cells, np.int64),
            "proven": (cells, bool),
            "flag": (cells, bool),
            "groups": (cells + (5,), np.int64),
            "quads": (cells + (5,), np.uint32),
            "exponent_text": (cells + (4,), np.uint8),
            "m": ((rows,), np.int64),
            "counted": ((rows,), bool),
            "m_groups": ((rows, 5), np.int64),
            "m_quads": ((rows, 5), np.uint32),
            "keys": (line, np.int64),
            "chars": (line + (_SLOTS,), np.uint8),
            "printed": (line + (_SLOTS,), bool),
        }
        # Each array starts a multiple of 64 bytes into the buffer, aligned for its dtype.
        sizes = [
            -(-math.prod(shape) * np.dtype(dtype).itemsize // 64) * 64 for shape, dtype in layout.values()
        ]
        self.memory = np.empty(sum(sizes), np.uint8) if memory is None else memory
        offset = 0
        for (name, (shape, dtype)), size in zip(layout.items(), sizes):
            setattr(self, name, np.ndarray(shape, dtype, self.memory, offset))
            offset += size

    def carve(self, rows: int) -> _Workspace:
        """The arrays of a block of fewer rows, in the same memory."""
        return _Workspace(rows, self.x.shape[1], self.memory)


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


def _decimal_parts(x: np.ndarray, ws: _Workspace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(proven, D, k) of each float of ``x`` (n, c): |x| = D * 10**(k - 16) to 17 significant digits.

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
    their text comes from '%.17g' itself. The three results, like every
    intermediate, are arrays of the workspace ``ws``, sized for ``x``.
    """
    ax, mant, m_high, m_low, h_high, h_low, p, err, t = ws.reals
    proven, flag = ws.proven, ws.flag
    k, d, row, bits = ws.k, ws.d, ws.index, ws.scratch
    np.abs(x, out=ax)
    np.isfinite(ax, out=proven)
    proven &= np.greater(ax, 0.0, out=flag)
    np.copyto(ax, 1.0, where=np.logical_not(proven, out=flag))
    np.floor(np.log10(ax, out=t), out=t)
    np.copyto(k, t, casting="unsafe")  # an integer already
    hi_high, hi_low, lo, exponents = _pow10_table()
    np.subtract(16 - _Q_MIN, k, out=row)
    np.frexp(ax, out=(mant, ws.e))
    np.multiply(mant, 134217729.0, out=m_high)  # Veltkamp's split, then m_high = split - (split - mant)
    np.subtract(m_high, np.subtract(m_high, mant, out=t), out=m_high)
    np.subtract(mant, m_high, out=m_low)
    np.take(hi_high, row, out=h_high, mode="clip")
    np.take(hi_low, row, out=h_low, mode="clip")
    np.multiply(mant, np.add(h_high, h_low, out=p), out=p)
    # err = ((m_high * h_high - p) + m_high * h_low + m_low * h_high) + m_low * h_low
    np.multiply(m_high, h_high, out=err)
    err -= p
    err += np.multiply(m_high, h_low, out=t)
    err += np.multiply(m_low, h_high, out=t)
    err += np.multiply(m_low, h_low, out=t)
    np.take(exponents, row, out=bits, mode="clip")
    bits += ws.e
    bits += 1023
    bits <<= 52
    scale = bits.view(np.float64)  # 2**(e + b), exact
    y_high = np.multiply(p, scale, out=p)  # an integer, since y >= 2**53 wherever the cell can be proven
    err += np.multiply(mant, np.take(lo, row, out=t, mode="clip"), out=t)
    y_low = np.multiply(err, scale, out=err)
    floor = np.floor(y_low, out=ax)
    fraction = np.subtract(y_low, floor, out=y_low)
    np.copyto(d, y_high, casting="unsafe")
    np.copyto(bits, floor, casting="unsafe")
    d += bits
    proven &= np.greater(np.abs(np.subtract(fraction, 0.5, out=t), out=t), _TIE_MARGIN, out=flag)
    proven &= np.greater_equal(d, 10**16, out=flag)
    d += np.greater(fraction, 0.5, out=flag)
    proven &= np.less_equal(d, 10**17, out=flag)
    carry = np.equal(d, 10**17, out=flag)
    np.copyto(d, 10**16, where=carry)
    k += carry
    np.copyto(d, 10**16, where=np.logical_not(proven, out=flag))
    return proven, d, k


def _digit_groups(v: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """Non-negative int64 v as five groups of decimal digits: v // 10**16, then four of four.

    The groups are written to ``groups``, of shape v.shape + (5,), and returned.
    """
    upper, high, low, lower = (groups[..., i] for i in (1, 2, 3, 4))
    np.divmod(v, 10**8, out=(upper, low))
    np.divmod(upper, 10**8, out=(groups[..., 0], upper))
    np.divmod(upper, 10**4, out=(upper, high))
    np.divmod(low, 10**4, out=(low, lower))
    return groups


def _array_rows(m: np.ndarray, x: np.ndarray, ws: _Workspace) -> str:
    """The CSV rows of sector counts ``m`` (n,) and float columns ``x`` (n, c), in array passes.

    The passes write into the workspace ``ws``, sized for n rows of c floats;
    the rows are a new string. The bytes are those of the printf formats by
    construction: a cell the array passes cannot prove (see
    ``_decimal_parts``; for ``m``, a negative count) is formatted by '%.17g'
    or '%d' itself and its text put in its slots.
    """
    quads, trailing = _quad_digits()
    chars_of, printed_of, form_keys, exponent_text = _layouts()
    proven, d, k = _decimal_parts(x, ws)
    groups = _digit_groups(d, ws.groups)
    zeros, flag, index = ws.zeros, ws.flag, ws.index
    np.take(trailing, groups[..., 4], out=zeros, mode="clip")  # trailing zeros of D, four digits at a time
    for group, run in ((3, 4), (2, 8), (1, 12)):
        np.add(zeros, np.take(trailing, groups[..., group], out=ws.scratch, mode="clip"), out=zeros,
               where=np.equal(zeros, run, out=flag))
    m = m.astype(np.int64, copy=False)
    counted = np.greater_equal(m, 0, out=ws.counted)
    keys = ws.keys
    keys[:, 0] = np.searchsorted(_POWERS_OF_TEN, m, side="right")
    keys[:, 0] += _INT_KEYS + 1
    np.subtract(k, _K_MIN, out=index)
    float_keys = np.take(form_keys, index, out=ws.scratch, mode="clip")
    float_keys += 16
    float_keys -= zeros
    np.add(float_keys, _FORMS * 17, out=float_keys, where=np.signbit(x, out=flag))
    keys[:, 1:] = float_keys
    chars = np.take(chars_of, keys, axis=0, out=ws.chars, mode="clip")
    printed = np.take(printed_of, keys, axis=0, out=ws.printed, mode="clip")

    cells = chars[:, 1:]
    digits = np.take(quads, groups, out=ws.quads, mode="clip").view(np.uint8)[..., 3:]
    cells[..., _LEAD:_POINT] = digits
    cells[..., _TAIL:_EXP] = digits
    cells[..., _EXP + 1:_SEP] = np.take(exponent_text, index, axis=0, out=ws.exponent_text, mode="clip")
    m_groups = _digit_groups(np.maximum(m, 0, out=ws.m), ws.m_groups)
    int_digits = np.take(quads, m_groups, out=ws.m_quads, mode="clip").view(np.uint8)
    chars[:, 0, _INT_DIGITS:_INT_DIGITS + 19] = int_digits[..., 1:]
    _printf_cells(x, proven, "%.17g", cells, printed[:, 1:])
    _printf_cells(m, counted, "%d", chars[:, 0], printed[:, 0])
    chars[:, -1, _SEP] = ord("\n")
    return str(chars.ravel()[printed.ravel()], "ascii")


def _printf_cells(values, proven, fmt, chars, printed) -> None:
    """Put the printf text of every unproven value in its cell's leading slots."""
    where = np.nonzero(~proven)
    if where[0].size:
        texts = [(fmt % v).encode() for v in values[where].tolist()]
        lengths = np.array([len(text) for text in texts])
        chars[where + (slice(0, _SEP),)] = np.array(texts, f"S{_SEP}").view(np.uint8).reshape(-1, _SEP)
        slots = np.arange(_SLOTS)
        printed[where] = (slots < lengths[:, None]) | (slots == _SEP)
