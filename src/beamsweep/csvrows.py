"""CSV rows of a DetectionAnalysis: the bytes '%d' and '%.17g' write, made in array passes.

``record_blocks`` yields the rows of an analysis, one per sector count, in
blocks of text that a writer puts out one at a time; ``_array_rows`` lays
out every block in array passes. Every cell, the sector count's too, is
written as '%.17g' writes its double, the routine ``presets.format_value``
runs for a float. A curve's sector counts are ``np.arange(1, m_max + 1)``,
and for 1 <= m <= 2**53 the double of m is exact and its '%.17g' text is
'%d''s; no array of more than 2**53 rows can be allocated.

A float x != 0 is written by '%.17g' from its 17 significant digits: the
integer D = round(|x| * 10**(16 - k)) in [10**16, 10**17), rounded half to
even, with k = floor(log10 |x|). _decimal_parts finds D and k for a whole
array at once. Every cell is then _SLOTS bytes of one array, NUL in each
slot it does not print. A table gives, for the cell's form and digit count,
its "0." and zeros, and a mask that puts D's digits and the point in its
digit slots; the sign bit gives the sign, and a table over k the exponent.
A block's text is its slots less every NUL, one ``bytes.translate``.

The passes over a block write into one workspace of plain arrays
(``_Workspace``), made once per curve and reused by each full block; a
shorter last block gets its own once that one is dropped. A new workspace
per block, made while the last was held, cost 250-870 minor page faults per
4,096-row curve. At _BLOCK_ROWS = 512, an eight-column workspace is
1,110,016 bytes.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator

import numpy as np

from .analysis import DetectionAnalysis

_BLOCK_ROWS = 512  # rows per block of text: bounds the memory of a long curve

_K_MIN, _K_MAX = -324, 308  # the decimal exponents of nonzero doubles
_Q_MIN, _Q_MAX = 16 - _K_MAX, 16 - _K_MIN  # the powers 10**(16 - k) they need
# A cell's digits are taken from the double-double product only when its
# fraction lies this far from 1/2; the product errs by less than 2**-45.
_TIE_MARGIN = 2.0**-32
_FORMS = 22  # layouts by exponent: see _form
# A cell's slots, four uint64 words: the sign, "0." and three zeros (_LEAD),
# the 17 digits and the point (_DIGITS), and a word of "e", the exponent's
# sign and digits, and the separator (_SEP). A digit mask takes the next
# digit byte (_SHIFTED) or the same (_IN_PLACE).
_SLOTS = 32
_LEAD, _DIGITS, _EXP, _SEP = 1, 6, 24, 31
_SHIFTED, _IN_PLACE = 0x80, 0x7F


def record_blocks(columns: str, analysis: DetectionAnalysis) -> Iterator[str]:
    """CSV rows of an analysis, one per sector count, as text of up to ``_BLOCK_ROWS`` rows.

    Each column is the analysis field of that name, an array over the sector
    counts, and every cell is written as '%.17g' writes its double, the
    routine ``format_value`` runs for a float; the first column, the sector
    count ``m`` in [1, 2**53], thus reads as '%d' writes it. Every row ends in
    a newline. A block is made only when the previous one has been consumed,
    so the text of one block at a time is held, and one workspace. Each block
    is a new string.
    """
    fields = [getattr(analysis, name) for name in columns.split(",")]
    for start in range(0, len(fields[0]), _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        rows = len(fields[0][block])
        if start == 0 or rows < _BLOCK_ROWS:
            ws = None  # the full blocks' workspace goes before the last block's is made
            ws = _Workspace(rows, len(fields))
        for i, field in enumerate(fields):
            ws.x[:, i] = field[block]
        yield _array_rows(ws.x, ws)


class _Workspace:
    """The arrays the passes over one block of ``rows`` rows and ``columns`` columns write into.

    Made once per curve; the slots, ``chars``, view ``text``. A block's passes
    write each array before they read it, so nothing carries over between blocks.
    """

    def __init__(self, rows: int, columns: int) -> None:
        cells = (rows, columns)
        self.x = np.empty(cells)  # the columns as doubles
        self.reals = np.empty((9,) + cells)  # _decimal_parts' intermediates
        self.e = np.empty(cells, np.intc)
        self.ints = np.empty((4,) + cells, np.int64)  # k, D, then k's index
        self.bools = np.empty((2,) + cells, bool)
        self.groups = np.empty((5,) + cells, np.int64)  # then the digit slots
        self.cell_ints = np.empty((4,) + cells, np.int64)  # products, then zeros and keys
        self.at_run = np.empty(cells, bool)
        self.digits = np.empty(cells + (5,), np.uint32)  # the quads cell by cell
        self.masks = np.empty(cells + (20,), np.uint8)  # quads by group, then masks
        self.exponent_words = np.empty(cells, np.uint64)
        self.text = bytearray(rows * columns * _SLOTS)
        self.chars = np.ndarray(cells + (_SLOTS,), np.uint8, self.text)


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
    """The layout of exponent k: k + 4 for a fixed form (-4 <= k <= 16), else 21, scientific."""
    return np.where((k < -4) | (k >= 17), 21, k + 4)


@functools.cache
def _layouts() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(template, digit mask) of every layout key; the key part and exponent word of each k.

    A cell's key is form * 17 + digits - 1, with the form from ``_form``;
    the table over k from _K_MIN to _K_MAX holds form * 17, and each form's
    layout is built at its smallest k. The sign and the exponent are data,
    not layout.
    """
    exponents = np.arange(_K_MIN, _K_MAX + 1)
    forms = _form(exponents)
    form, count = np.repeat(np.arange(_FORMS), 17), np.tile(np.arange(1, 18), _FORMS)
    k = exponents[np.unique(forms, return_index=True)[1]][form]
    sci = (k < -4) | (k >= 17)
    below_one = (k < 0) & ~sci
    whole = np.where(below_one, 0, np.where(sci, 1, k + 1))  # digits before the point
    shown = np.maximum(count, whole)[:, None]  # digits printed; a fixed form keeps its units
    lead = np.where(below_one, shown[:, 0], whole)[:, None]  # slots before the point
    templates = np.zeros((_FORMS * 17, _SLOTS), np.uint8)
    prefix = below_one[:, None] & (np.arange(5) < 1 - k[:, None])  # "0." and -1 - k zeros
    templates[:, _LEAD:_DIGITS] = prefix * np.frombuffer(b"0.000", np.uint8)
    templates[:, _SEP] = ord(",")
    # Slot j is mask byte 2 + j: digit j before the point, j - 1 after it.
    slot = np.arange(18)
    masks = np.zeros((_FORMS * 17, 20), np.uint8)
    digit_masks = masks[:, 2:]
    digit_masks[slot < lead] = _SHIFTED
    digit_masks[(slot == lead) & (shown > lead)] = ord(".")
    digit_masks[(slot > lead) & (slot <= shown)] = _IN_PLACE
    words = [("e%+03d," % k if k < -4 or k >= 17 else ",").encode() for k in exponents.tolist()]
    words = b"".join(word.rjust(8, b"\0") for word in words)  # slots _EXP to _SEP
    return templates, masks, forms * 17, np.frombuffer(words, np.uint64)


def _decimal_parts(x: np.ndarray, ws: _Workspace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(proven, D, k) of each float of ``x`` (n, c): |x| = D * 10**(k - 16) to 17 significant digits.

    With |x| = mant * 2**e (``np.frexp``) and 10**(16 - k) ~ (hi + lo) * 2**b
    from ``_pow10_table``, y = |x| * 10**(16 - k) is mant * hi as Dekker's
    exact product p + err, plus mant * lo, scaled by 2**(e + b). The table
    errs by under 2**-105.8, and rounding mant * lo and adding it to err by
    under 1.5 * 2**-106, so the sum errs by less than 2**-104.6 of
    mant * 10**(16 - k) / 2**b, a number in [1/4, 1). A proven cell has
    y < 10**17 < 2**57, so 2**(e + b) < 2**59 and y errs by less than
    2**-45. D rounds y half to even, which is what '%.17g' does. A cell is
    proven, and D and k are its digits and exponent, where the fraction of
    y lies more than _TIE_MARGIN from 1/2 and 10**16 <= floor(y) and
    D < 10**17; a y within 2**-45 below 10**16 has the same digits at k.
    Zeros, non-finite values, (near-)ties such as 2**-25, a guess of
    k = floor(log10 |x|) off by one, and a rounding that reaches 10**17 are
    not proven: their D is 10**16 and their text comes from '%.17g' itself.
    The three results, like every intermediate, are arrays of the workspace
    ``ws``, sized for ``x``.
    """
    ax, mant, m_high, m_low, h_high, h_low, p, err, t = ws.reals
    proven, flag = ws.bools
    k, d, row, bits = ws.ints
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
    proven &= np.less(d, 10**17, out=flag)
    np.copyto(d, 10**16, where=np.logical_not(proven, out=flag))
    return proven, d, k


def _digit_groups(groups: np.ndarray, products: np.ndarray) -> None:
    """Non-negative int64 v in ``groups[4]`` as v // 10**16, then four groups of four digits.

    ``groups`` is (5,) + v.shape, ``products`` (4,) + v.shape scratch, and
    each pass runs over whole, contiguous groups.
    """
    for i, power in enumerate((10**16, 10**12, 10**8, 10**4)):
        np.floor_divide(groups[4], power, out=groups[i])
    groups[1:] -= np.multiply(groups[:4], 10**4, out=products)  # from v // 10**(16 - 4i)


def _array_rows(x: np.ndarray, ws: _Workspace) -> str:
    """The CSV rows of the columns ``x`` (n, c), in array passes.

    The passes write into the workspace ``ws``, sized for n rows of c
    columns. The bytes are those of '%.17g' by construction: a cell the
    array passes cannot prove (see ``_decimal_parts``) is formatted by
    '%.17g' itself, in its slots.

    A cell's digits are five quads, 20 ASCII bytes, its 17 from byte 3.
    Over all cells as flat bytes, slot byte b is the minimum of digit byte b
    and mask byte b less _SHIFTED, or of digit byte b + 1 and its _SHIFTED
    bit: as digits are 0x30 to 0x39, the digit the mask passes, the point it
    holds, or NUL.
    """
    quads, trailing = _quad_digits()
    templates, masks_of, form_keys, exponent_words = _layouts()
    proven, d, k = _decimal_parts(x, ws)
    groups = ws.groups
    np.copyto(groups[4], d)
    _digit_groups(groups, ws.cell_ints)
    zeros, more, keys, _ = ws.cell_ints
    np.take(trailing, groups[4], out=zeros, mode="clip")  # trailing zeros of D, four digits at a time
    for group, run in ((3, 4), (2, 8), (1, 12)):
        np.add(zeros, np.take(trailing, groups[group], out=more, mode="clip"), out=zeros,
               where=np.equal(zeros, run, out=ws.at_run))
    index = np.subtract(k, _K_MIN, out=ws.ints[2])
    np.take(form_keys, index, out=keys, mode="clip")
    keys += 16
    keys -= zeros
    chars = np.take(templates, keys, axis=0, out=ws.chars, mode="clip")
    np.multiply(np.signbit(x, out=ws.bools[1]).view(np.uint8), ord("-"), out=chars[..., 0])
    by_group = np.take(quads, groups, out=ws.masks.view(np.uint32).reshape(groups.shape), mode="clip")
    np.copyto(ws.digits, by_group.transpose(1, 2, 0))
    digits = ws.digits.view(np.uint8).reshape(-1)
    mask = np.take(masks_of, keys, axis=0, out=ws.masks, mode="clip").reshape(-1)
    slots = groups.view(np.uint8).reshape(-1)[: mask.size]  # the groups are spent
    np.minimum(digits, np.bitwise_and(mask, _IN_PLACE, out=slots), out=slots)
    mask &= _SHIFTED
    slots[:-1] |= np.minimum(digits[1:], mask[:-1], out=mask[:-1])
    chars[..., _DIGITS:_EXP] = slots.reshape(ws.masks.shape)[..., 2:]
    chars.view(np.uint64)[..., -1] = np.take(exponent_words, index, out=ws.exponent_words, mode="clip")
    if not proven.all():  # '%.17g' itself: its text in the cell's leading slots, NUL after it
        where = np.nonzero(~proven)
        texts = [("%.17g" % v).encode() for v in x[where].tolist()]
        chars[where + (slice(0, _SEP),)] = np.array(texts, f"S{_SEP}").view(np.uint8).reshape(-1, _SEP)
    chars[:, -1, _SEP] = ord("\n")
    return str(ws.text.translate(None, b"\0"), "ascii")
