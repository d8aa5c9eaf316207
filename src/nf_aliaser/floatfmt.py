"""Exact vectorized "%.17g": the bytes printf-style formatting gives, without a
Python call per value.

For a finite x != 0, "%.17g" writes the 17 significant digits D of |x|,
rounded half to even from its exact binary value, with the decimal exponent
e10 of the rounded value: in fixed style when -4 <= e10 < 17, otherwise as
d.ddde+XX; trailing zeros of the fraction, and a bare ".", are dropped.

Digits. D = round(|x| * 10**q) with q = 16 - e10, from a table of
th = fl(10**q) and tl = fl(10**q - th). Dekker's product (Veltkamp halves of
|x| and th) gives |x| * th = ph + pl exactly, and D = ph + rint(pl + |x| * tl).
As ph >= 1e16 > 2**53, ph is an even integer, so rint's half-to-even rounding
of the remainder is that of D. For 0 <= q <= 22, tl = 0 and the product is
exact, ties included. Otherwise the |x| * tl term errs by less than 1e-14, and
a value whose remainder lies within 2**-40 of a half is formatted by Python.

Layout. Each value gets _WIDTH byte slots (sign, "0.000" prefix, 18 digit and
point slots, exponent, separator), one (_WIDTH, n) uint8 plane per slot; a zero
byte marks an unused slot. One transpose and one compaction give the text.

Python formats a whole row when one of its values is non-finite, subnormal,
outside [1e-280, 1e280), or near a rounding half as above. Zeros go through
the vectorized path.
"""

from __future__ import annotations

import numpy as np

_SPLIT = 2.0 ** 27 + 1
_MIN, _MAX = 1e-280, 1e280          # |x| range of the vectorized path
_Q_MIN, _Q_MAX = -265, 298          # 10**q needed for that range, with margin
_E_MIN, _E_MAX = -281, 281          # decimal exponents of that range, with margin
_WIDTH = 30


def _split(a):
    """Veltkamp split: a = hi + lo, each half of 26 significant bits or fewer."""
    t = _SPLIT * a
    hi = t - (t - a)
    return hi, a - hi


def _pow10_table() -> np.ndarray:
    """(4, q) rows th, th_hi, th_lo, tl for q in _Q_MIN.._Q_MAX."""
    rows = []
    for q in range(_Q_MIN, _Q_MAX + 1):
        num, den = (10 ** q, 1) if q >= 0 else (1, 10 ** -q)
        th = num / den                      # int / int is correctly rounded
        a, b = th.as_integer_ratio()
        rows.append((th, *_split(th), (num * b - a * den) / (den * b)))
    return np.array(rows).T.copy()


def _layout_table() -> tuple:
    """Per decimal exponent e10: the bytes of the 5 "0.000" prefix slots and
    the 5 exponent slots (10, e), the digit slot of the point, and the count
    of integer digits always shown."""
    affixes, point, whole = [], [], []
    for e in range(_E_MIN, _E_MAX + 1):
        if e < -4 or e >= 17:
            prefix, suffix, p, w = "", f"e{e:+03d}", 1, 1
        elif e < 0:
            prefix, suffix, p, w = "0." + "0" * (-e - 1), "", 17, 0
        else:
            prefix, suffix, p, w = "", "", e + 1, e + 1
        affixes.append(prefix.ljust(5, "\0") + suffix.ljust(5, "\0"))
        point.append(p)
        whole.append(w)
    affix = np.frombuffer("".join(affixes).encode("ascii"), np.uint8).reshape(-1, 10)
    return affix.T.copy(), np.array(point, np.uint8), np.array(whole, np.uint8)


_POW10 = _pow10_table()
_AFFIX, _POINT, _WHOLE = _layout_table()
_SLOT = np.arange(18, dtype=np.uint8)[:, None]
_RANK = np.arange(1, 18, dtype=np.uint8)[:, None]
_SEP = np.array([ord(","), ord("\n")], np.uint8)


def _scaled(a: np.ndarray, e10: np.ndarray) -> tuple:
    """(ph, s, inexact): a * 10**(16 - e10) ~ ph + s, ph = fl(a * th) and s
    its exact remainder pl plus a * tl; inexact where tl != 0."""
    th, th_hi, th_lo, tl = np.take(_POW10, 16 - e10 - _Q_MIN, axis=1)
    ph = a * th
    a_hi, a_lo = _split(a)
    pl = ((a_hi * th_hi - ph) + a_hi * th_lo + a_lo * th_hi) + a_lo * th_lo
    return ph, pl + a * tl, tl != 0


def _decimal(a: np.ndarray) -> tuple:
    """(done, e10, d) for magnitudes a: a ~ d * 10**(e10 - 16) with d the 17
    digits rounded half to even (d = e10 = 0 for a = 0); done is False where
    Python must format."""
    zero = a == 0
    done = (a >= _MIN) & (a < _MAX)
    a = np.where(done, a, 1.0)
    e10 = np.floor(np.log10(a)).astype(np.intp)
    ph, s, inexact = _scaled(a, e10)
    # log10 may be one off next to a power of ten; ph + s decides.
    below = (ph < 1e16) | ((ph == 1e16) & (s < 0))
    above = (ph > 1e17) | ((ph == 1e17) & (s >= 0))
    moved = below | above
    if moved.any():
        e10 += above
        e10 -= below
        ph[moved], s[moved], inexact[moved] = _scaled(a[moved], e10[moved])
    done &= ~inexact | (np.abs(s - np.floor(s) - 0.5) >= 2.0 ** -40)
    d = ph.astype(np.int64) + np.rint(s).astype(np.int64)
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    e10 += carry
    d[zero] = 0
    e10[zero] = 0
    return done | zero, e10, d


def _digit_planes(d: np.ndarray) -> np.ndarray:
    """(19, n) uint8: row 1 + i holds digit i of the 17-digit d; rows 0 and 18
    are 0 (row 18 is the digit of (d mod 1e8) * 10 that fills the 9th slot)."""
    n = len(d)
    planes = np.empty((19, n), np.uint8)
    planes[0] = 0
    halves = planes[1:].reshape(2, 9, n)
    v = np.empty((2, n), np.uint32)
    np.floor_divide(d, 10 ** 8, out=v[0], casting="unsafe")
    v[1] = (d - v[0].astype(np.int64) * 10 ** 8) * 10
    for k in range(8, -1, -1):
        q = v // 10
        halves[:, k] = v - q * 10
        v = q
    return planes


def _value_planes(x: np.ndarray, chars: np.ndarray) -> np.ndarray:
    """Write the "%.17g" bytes of each value of x into the first _WIDTH - 1
    rows of chars, 0 in unused slots; return where that was done."""
    done, e10, d = _decimal(np.abs(x))
    planes = _digit_planes(d)
    significant = ((planes[1:18] != 0).view(np.uint8) * _RANK).max(axis=0)
    planes[1:] += ord("0")

    e = e10 - _E_MIN
    point, whole = _POINT[e], _WHOLE[e]
    np.multiply(np.signbit(x), ord("-"), out=chars[0], casting="unsafe")
    affix = np.take(_AFFIX, e, axis=1)
    chars[1:6] = affix[:5]
    # Digit slot j holds digit j before the point slot and digit j - 1 after it.
    digits = chars[6:24]
    digits[:] = planes[0:18]
    np.copyto(digits, planes[1:19], where=_SLOT < point)
    np.copyto(digits, ord("."), where=_SLOT == point)
    shown = np.maximum(significant, whole) + (significant > point)
    np.copyto(digits, 0, where=_SLOT >= shown)
    chars[24:29] = affix[5:]
    return done


def format_pairs(pairs: np.ndarray) -> bytes:
    """The bytes of "%.17g,%.17g\\n" % (a, b) for each row (a, b) of an (n, 2)
    float array, in row order."""
    pairs = np.ascontiguousarray(pairs, dtype=np.float64)
    x = pairs.ravel()
    chars = np.empty((_WIDTH, len(x)), np.uint8)
    done = _value_planes(x, chars)
    chars[-1].reshape(-1, 2)[:] = _SEP
    rows = np.ascontiguousarray(chars.T).reshape(len(pairs), 2 * _WIDTH)
    python = ~done.reshape(-1, 2).all(axis=1)
    if not python.any():
        return rows[rows != 0].tobytes()
    rows[python] = 0
    ends = np.cumsum(np.count_nonzero(rows, axis=1))
    text = rows[rows != 0].tobytes()
    parts, start = [], 0
    for i in np.flatnonzero(python).tolist():
        parts += [text[start:ends[i]], ("%.17g,%.17g\n" % tuple(pairs[i].tolist())).encode()]
        start = ends[i]
    parts.append(text[start:])
    return b"".join(parts)


def python_formatted(values) -> int:
    """How many of the values lie outside the vectorized path; format_pairs
    has Python format the rows that hold them."""
    done, _, _ = _decimal(np.abs(np.asarray(values, dtype=np.float64).ravel()))
    return int(np.count_nonzero(~done))
