"""Shortest round-trip text of float64 blocks, byte for byte the text of repr.

``repr(float)`` writes the shortest decimal that reads back to the same double
and, of those, the closest, at about 1 us a value.  Ryu (Ulf Adams, "Ryu: fast
float-to-string conversion", PLDI 2018) finds the same digits with 64-bit
integer arithmetic alone, so this module computes them for a whole block of
values at once:

* the digits come from Ryu's common path for normal doubles with e2 < 0
  (|x| < 2**54): Ryu's 326-entry table of 5**i in 125-bit words, products
  formed from 32-bit halves of uint64 arrays, the count of removable digits,
  then closest rounding;
* the characters follow repr's layout: fixed notation for -4 < decpt <= 16,
  otherwise ``d.ddde+-XX``, where |x| = 0.d1d2... * 10**decpt.  Each value
  gets a column of 4-byte words, NUL-padded, and ``bytes.translate`` drops the
  NULs;
* every other value goes through ``repr`` itself, which stays the definition:
  +-0, inf, nan, subnormals, |x| >= 2**54, Ryu's trailing-zero cases (an exact
  product, where Ryu leaves the common path) and integer-valued fixed text
  such as ``100.0``.

The digit code keeps every uint64 operand a ``np.uint64`` array or scalar,
never a bare Python int: numpy 1.24, the floor in pyproject.toml, promotes
uint64 combined with a Python int to float64.  Exponents and digit counts are
int64 arrays.  The tables are built at the first call, not at import.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np

BLOCK = 2048            # values formatted per pass

U = np.uint64
LOW32 = U(0xFFFFFFFF)
POW10 = [U(10 ** k) for k in range(20)]
DIGITS4 = 10000         # entries of one 4-digit group table
EXP0 = 310              # decpt offset into the exponent table


@functools.cache
def _tables() -> SimpleNamespace:
    # Ryu's DOUBLE_POW5_SPLIT: 5**i shifted to exactly 125 bits.
    split, p = [], 1
    for _ in range(326):
        split.append((p << 125) >> p.bit_length())
        p *= 5
    words = np.array([[w >> (32 * b) & 0xFFFFFFFF for w in split] for b in range(4)],
                     dtype=np.uint64)
    # Everything else Ryu derives from the biased exponent E, per E in
    # [1, 1076] (e2 = E - 1077 < 0); other exponents fall back.
    e = np.arange(1, 1077)
    e2 = e - 1077
    q = ((-e2 * 732923) >> 20) - (e2 < -1)                   # log10Pow5(-e2) - (-e2 > 1)
    i = -e2 - q
    j = q - (((i * 1217359) >> 19) + 1 - 125)                 # q - (pow5bits(i) - 125)
    # per_e[:, E]: the 32-bit limbs of 5**i's word, then Ryu's shift j as
    # the two shifts of _mul_shift, then the trailing-zero mask
    per_e = np.zeros((7, 2048), np.uint64)
    per_e[0:4, e] = words[:, i]
    per_e[4, e] = 128 - j                                     # 118 <= j <= 122
    per_e[5, e] = j - 96
    # m2 & per_e[6] == 0 where 2**q divides mv = 4 m2: the product is exact,
    # Ryu's vrIsTrailingZeros, always so for q <= 2
    per_e[6, e] = (1 << np.minimum(np.maximum(q - 2, 0), 60)) - 1
    e10 = np.zeros(2048, np.int64)
    e10[e] = q + e2
    common = np.zeros(2048, bool)
    common[e] = True

    # 4-digit groups as 4 ASCII bytes, keeping only the last r digits (r = 0..4).
    digits = np.indices((10, 10, 10, 10), np.uint8).reshape(4, DIGITS4).T
    chars = (np.ascontiguousarray(digits) + np.uint8(ord("0"))).view(np.uint32)
    kept = np.where(np.arange(4) >= 4 - np.arange(5)[:, None], np.uint8(255), np.uint8(0))
    groups = (chars.T & kept.view(np.uint32)).reshape(-1)
    # keep[g, n]: the table for group g of five that hold an n-digit number
    # right-aligned, the one that keeps as many digits as fall in g (a number
    # held in fewer groups uses the last rows)
    keep = np.clip(np.arange(21) - 4 * np.arange(4, -1, -1)[:, None], 0, 4) * DIGITS4

    # The word before each value: its separator (none, " " or "\n") and sign.
    lead = np.zeros((3, 2, 4), np.uint8)
    lead[:, :, 0] = np.array([0, ord(" "), ord("\n")])[:, None]
    lead[:, 1, 1] = ord("-")
    # The exponent text by decpt, "e-XX", "e-XXX" or "e+16" (none in fixed notation).
    tails = (b"e%+03d" % (d - 1) if d <= -4 or d > 16 else b""
             for d in range(-EXP0, 20))
    exponent = np.frombuffer(b"".join(tail.ljust(8, b"\0") for tail in tails), np.uint32)
    tables = SimpleNamespace(
        per_e=per_e, e10=e10, common=common,
        pow10=np.array([10 ** k for k in range(20)], dtype=np.uint64),
        half=np.array([1] + [5 * 10 ** k for k in range(19)], dtype=np.uint64),
        groups=groups, keep=keep,
        lead=lead.view(np.uint32).reshape(-1),
        exponent=exponent.reshape(-1, 2).T.copy(),
    )
    for table in vars(tables).values():
        table.flags.writeable = False
    return tables


def _mul_shift(v, p, up, down):
    """floor(v * P / 2**j) for v < 2**56 and P = sum p[b] 2**(32 b) < 2**125,
    where up = 128 - j and down = j - 96: Ryu's mulShift64, from 32-bit
    halves.  Column k sums the product's terms of weight 2**(32 k); column 0
    never carries, and the result is column 4 and the top of column 3."""
    v0, v1 = v & LOW32, v >> U(32)
    column = v0 * p[0]
    column >>= U(32)                            # column 1's share of v0 p[0]
    product, part = np.empty_like(v), np.empty_like(v)
    for b in range(1, 4):                       # column b, and its carry
        column += np.multiply(v1, p[b - 1], out=product)
        np.multiply(v0, p[b], out=product)
        column += np.bitwise_and(product, LOW32, out=part)
        if b == 3:
            low = column & LOW32
        column >>= U(32)
        column += np.right_shift(product, U(32), out=part)
    column += np.multiply(v1, p[3], out=product)
    column <<= up
    low >>= down
    column += low
    return column


def _shortest_digits(x: np.ndarray, t: SimpleNamespace):
    """Ryu's common path for a float64 array: (covered, digits, e10), with
    |x| = digits * 10**e10 wherever ``covered``."""
    bits = x.view(np.uint64)
    e = (bits >> U(52)).view(np.int64) & 0x7FF
    mantissa = bits & U((1 << 52) - 1)
    *p, up, down, low_bits = t.per_e.take(e, axis=1)
    m2 = mantissa | U(1 << 52)
    covered = t.common.take(e) & ((m2 & low_bits) != U(0))
    # the value and the midpoints to its neighbours, times 4: Ryu's mv, mp, mm
    v = np.empty((3, len(x)), np.uint64)
    np.left_shift(m2, U(2), out=v[0])
    np.add(v[0], U(2), out=v[1])
    np.subtract(v[0], U(1) + ((mantissa != U(0)) | (e == 1)), out=v[2])
    vr, vp, vm = _mul_shift(v, p, up, down)

    # Remove digits while the interval (vm, vp] still holds a shorter number.
    removed = np.zeros(len(x), np.int64)
    hi, lo, more = np.empty_like(vp), np.empty_like(vm), np.empty(len(x), bool)
    for k in range(1, 20):
        np.greater(np.floor_divide(vp, POW10[k], out=hi),
                   np.floor_divide(vm, POW10[k], out=lo), out=more)
        if not more.any():
            break
        removed += more
    scale = t.pow10.take(removed)
    digits = vr // scale
    round_up = vr - digits * scale >= t.half.take(removed)
    digits += (digits == vm // scale) | round_up
    return covered, digits, t.e10.take(e) + removed


def _group_words(value, ndigits, t, out):
    """Fill the rows of ``out`` with the 4-digit groups of ``value``, most
    significant first: its last ``ndigits`` digits, right-aligned, NUL before."""
    k = len(out)
    if not k:
        return
    groups = np.empty((k, len(value)), np.uint64)
    groups[-1] = value
    for r in range(k - 2, -1, -1):
        np.floor_divide(groups[r + 1], POW10[4], out=groups[r])
    groups -= groups // POW10[4] * POW10[4]
    offsets = t.keep[5 - k:].take(ndigits, axis=1)
    t.groups.take(offsets + groups.view(np.int64), out=out)


def _text(x: np.ndarray, before: np.ndarray) -> bytes:
    """The repr text of each value, each after its separator: ``before`` is
    0 for none, 1 for a space and 2 for a newline."""
    t = _tables()
    covered, digits, e10 = _shortest_digits(x, t)
    ndigits = np.searchsorted(t.pow10, digits, side="right")
    decpt = e10 + ndigits
    fixed = (decpt > -4) & (decpt <= 16)
    covered &= ~fixed | (decpt < ndigits)         # no "100.0": repr writes those
    # Stand-ins for the values repr writes, so every index below is in range.
    by_repr = ~covered
    digits[by_repr] = ndigits[by_repr] = decpt[by_repr] = 1
    fixed[by_repr] = True

    split = np.where(fixed, decpt, 1)             # digits before the point; <= 0: "0."
    nint = np.maximum(split, 1)
    nfrac = ndigits - split                       # digits after it, leading zeros included
    scale = t.pow10.take(ndigits - np.maximum(split, 0))
    int_part = digits // scale
    frac_part = digits - int_part * scale

    # One row of 4-byte words per piece, as few as this block needs.
    n_int = -(-int(nint.max()) // 4)
    n_frac = -(-int(nfrac.max()) // 4)
    n_exp = 2 if decpt.min() < -98 else int(not fixed.all())
    dot = 1 + n_int
    exp = dot + 1 + n_frac
    fallback = np.flatnonzero(by_repr)
    words = np.zeros((max(exp + n_exp, 7 if len(fallback) else 0), len(x)), np.uint32)
    t.lead.take(before * 2 + (np.signbit(x) & covered), out=words[0])
    _group_words(int_part, nint, t, words[1:dot])
    words[dot] = (nfrac > 0) * np.uint32(ord("."))
    _group_words(frac_part, nfrac, t, words[dot + 1:exp])
    t.exponent[:n_exp].take(decpt + EXP0, axis=1, out=words[exp:exp + n_exp])
    if len(fallback):
        text = np.array([repr(v) for v in x[fallback].tolist()], dtype="S24")
        words[1:, fallback] = 0
        words[1:7, fallback] = text.view(np.uint32).reshape(-1, 6).T
    return words.T.tobytes().translate(None, b"\0")


def rows_text(rows: np.ndarray) -> bytes:
    """The lines ``" ".join(map(repr, row)) + "\\n"`` of a 2-D float64 array,
    formatted BLOCK values at a time."""
    flat = np.ascontiguousarray(rows, dtype=np.float64).reshape(-1)
    if not flat.size:
        return b"\n" * len(rows)
    before = np.ones(flat.size, np.int64)
    before[::rows.shape[1]] = 2
    before[0] = 0
    return b"".join(_text(flat[k:k + BLOCK], before[k:k + BLOCK])
                    for k in range(0, flat.size, BLOCK)) + b"\n"
