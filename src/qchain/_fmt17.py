"""The bytes of ``"%.17g" % v`` for a block of doubles, from numpy kernels.

A finite double with ``1e-4 <= |v| < 1e17``, or a zero, prints in fixed
notation from its 17 significant digits and its decimal exponent; the
kernel here forms both exactly and places them with slice copies.  Every
other value goes through ``%`` itself.  :func:`_format_17g` is the entry
point; the CSV writer of :mod:`qchain.sim` calls it.
"""

from __future__ import annotations

import numpy as np


def _pow10_ceilings():
    """The smallest double ``>= 10^k`` for ``k = -4..17``."""
    out = []
    for k in range(-4, 18):
        d = float(f"1e{k}")
        num, den = d.as_integer_ratio()
        if k < 0 and num * 10**-k < den:  # the nearest double is below 10^k
            d = float(np.nextafter(d, np.inf))
        out.append(d)
    return np.array(out)


def _veltkamp_split(a, hi=None, lo=None):
    """``hi + lo == a`` with each half fitting in 26 bits (Dekker 1971).

    ``hi`` and ``lo`` may be given as output arrays.
    """
    hi = np.multiply(a, 134217729.0, out=hi)  # c = (2^27 + 1) a
    lo = np.subtract(hi, a, out=lo)
    np.subtract(hi, lo, out=hi)  # c - (c - a)
    np.subtract(a, hi, out=lo)
    return hi, lo


def _digit_words():
    """The four ASCII digits of each ``q < 10^4`` as one ``uint32`` word.

    Entries ``10^4 + q`` hold the same digits with their trailing zeros
    replaced by NUL (all four for ``q = 0``).
    """
    q = np.arange(10**4)
    words = np.empty((2, 10**4, 4), dtype=np.uint8)
    for j in range(4):
        words[:, :, j] = 48 + q // 10 ** (3 - j) % 10
    zeros = sum(q % 10**j == 0 for j in (1, 2, 3, 4))
    words[1] *= np.arange(4) < 4 - zeros[:, None]
    return words.view(np.uint32).ravel()


# Tables of the %.17g kernel: a finite double with 1e-4 <= |x| < 1e17 prints in
# fixed notation, from its 17 significant digits D and its decimal exponent k.
# Tables indexed by k are indexed by k + 4.
_POW10_CEIL = _pow10_ceilings()
# 10^(16 - k), exact: every 10^p with p <= 22 is a double
_SCALE = 10.0 ** np.arange(20, -1, -1)
_SCALE_HI, _SCALE_LO = _veltkamp_split(_SCALE)
_DIGITS4 = _digit_words()
_LEADING_ZEROS = np.frombuffer(b"0.000", dtype=np.uint8)


class _Scratch:
    """Work buffers for :func:`_format_17g` calls of up to ``size`` values.

    Every call overwrites them, so one thread at a time may use a scratch.
    They are views of one arena of 87 bytes per value, laid out as
    ``floats`` (48), ``ints`` (16), ``digits`` (20) and ``bools`` (3), and
    buffers whose lifetimes do not overlap share its bytes.  ``floats``
    serve as ``int64`` temporaries once their values are used up, and hold
    ``placed`` once the digits are split.  ``rows`` span ``ints`` and
    ``digits``, which are spent once the digits are placed, and end before
    ``bools``, whose kernel mask is read last.  ``placed`` also holds the
    mask that drops the NUL padding.
    """

    def __init__(self, size: int):
        self.size = size
        arena = np.empty(87 * size, dtype=np.uint8)
        floats, ints, digits, bools = np.split(arena, np.array([48, 64, 84]) * size)
        self.floats = floats.view(np.float64).reshape(6, size)
        self.ints = ints.view(np.int64).reshape(2, size)
        self.digits = digits.reshape(size, 20)
        self.bools = bools.view(bool).reshape(3, size)
        self.placed = arena[: 25 * size].reshape(size, 25)
        self.rows = arena[48 * size : 73 * size].reshape(size, 25)


def _format_17g(values, seps, scratch: _Scratch) -> np.ndarray:
    """The bytes of ``"%.17g" % v`` for every value, each followed by its separator.

    Returns them as one ``uint8`` array.  ``seps`` holds one ``uint8``
    character per value, and ``scratch`` has room for every value.  Zeros
    and values with ``1e-4 <= |v| < 1e17`` print in fixed notation from
    their 17 significant digits ``D`` and decimal exponent ``k``
    (:func:`_decimal_form`) and are formatted here, exactly.  Every value
    goes through the same steps: one the kernel cannot print gets a
    placeholder row, which ``%`` itself then overwrites, all such values in
    one call.  Values are sorted by ``k``, which fixes where the digits and
    the point go in a row of bytes, so each group is placed with slice
    copies (:func:`_place_digits`).  The rows are scattered back in order
    and get their sign and separator, and the NUL padding is deleted.
    Besides the returned array and the fallback's text, a call allocates
    only the sort key and the sort order; the rest is done in ``scratch``.
    """
    v = np.ravel(values)
    m = v.size
    group, D, fast = _decimal_form(v, scratch)
    order = np.argsort(group.astype(np.int8), kind="stable")
    counts = np.bincount(group, minlength=21)
    # group is used up: it and the spent floats are the digit split's temporaries
    work = [f.view(np.int64) for f in scratch.floats[1:, :m]] + [group]
    sorted_D = np.take(D, order, out=scratch.ints[1, :m], mode="clip")
    digits = _digit_chars(sorted_D, scratch.digits[:m], work, scratch.bools[1:, :m])
    placed = _place_digits(digits, counts, scratch.placed[:m])
    rows = scratch.rows[:m]
    # as one 25-byte item per row: twice as fast as scattering uint8 rows
    rows.view("V25")[order] = placed.view("V25")
    sign = np.signbit(v, out=scratch.bools[1, :m])
    np.multiply(sign.view(np.uint8), np.uint8(45), out=rows[:, 0])
    rows[:, -1] = np.ravel(seps)
    slow = np.flatnonzero(np.logical_not(fast, out=sign))
    if slow.size:
        # one % call, each value padded to 24 bytes: the longest %.17g text
        # is 24 bytes, as in -1.2345678901234567e-308
        slow_v = v[slow].tolist()
        text = ((b"%-24.17g" * len(slow_v)) % tuple(slow_v)).replace(b" ", b"\0")
        rows[slow, :-1] = np.frombuffer(text, dtype=np.uint8).reshape(-1, 24)
    # numpy drops the padding without the interpreter lock; bytes.translate
    # would hold it
    flat = rows.ravel()
    return flat[np.not_equal(flat, 0, out=placed.ravel().view(bool))]


def _decimal_form(v, scratch):
    """``k + 4``, ``D`` and the kernel's mask for the values ``v``, in ``scratch``.

    For zeros and magnitudes ``1e-4 <= x < 1e17``, ``x ~ D 10^(k-16)`` with
    17 significant digits:

    1. ``k = floor(log10 x)``, corrected against the exact powers of ten.
    2. ``x 10^(16-k) = hi + lo`` exactly, by Dekker's two-product.
    3. ``D = hi + rint(lo)`` is ``x 10^(16-k)`` rounded half to even,
       because ``hi >= 2^53`` is an even integer.

    Every other value is read as ``x = 1``, and so is a zero, which then
    gets ``D = 0`` (``k = 0``).  The mask marks the zeros and the values in
    range whose ``D`` lies in ``[10^16, 10^17)``.  No double rounds up to a
    power of ten at 17 digits, so ``D < 10^17`` always; a ``D`` out of range
    would take the fallback.
    """
    m = v.size
    x, t1, t2, t3, t4, t5 = scratch.floats[:, :m]
    group = scratch.ints[0, :m]
    fast, other, zero = scratch.bools[:, :m]
    np.abs(v, out=x)
    np.equal(x, 0.0, out=zero)
    np.greater_equal(x, _POW10_CEIL[0], out=fast)
    np.less(x, 1e17, out=other)
    np.logical_and(fast, other, out=fast)
    np.logical_not(fast, out=other)
    np.copyto(x, 1.0, where=other)
    np.log10(x, out=t1)
    np.floor(t1, out=group, casting="unsafe")
    np.clip(group, -4, 16, out=group)
    group += 4
    np.less(x, np.take(_POW10_CEIL, group, out=t1, mode="clip"), out=other)
    group -= other
    np.greater_equal(x, np.take(_POW10_CEIL[1:], group, out=t1, mode="clip"), out=other)
    group += other
    hi = np.multiply(x, np.take(_SCALE, group, out=t1, mode="clip"), out=t2)
    x_hi, x_lo = _veltkamp_split(x, t1, t3)
    p_hi = np.take(_SCALE_HI, group, out=x, mode="clip")
    p_lo = np.take(_SCALE_LO, group, out=t4, mode="clip")
    # lo = ((x_hi p_hi - hi) + x_hi p_lo + x_lo p_hi) + x_lo p_lo, in that order
    lo = np.multiply(x_hi, p_hi, out=t5)
    lo -= hi
    lo += np.multiply(x_hi, p_lo, out=x_hi)
    lo += np.multiply(x_lo, p_hi, out=p_hi)
    lo += np.multiply(x_lo, p_lo, out=x_lo)
    D = x.view(np.int64)
    np.copyto(D, hi, casting="unsafe")
    rounded = t1.view(np.int64)
    np.copyto(rounded, np.rint(lo, out=lo), casting="unsafe")
    D += rounded
    # 10^16 <= D < 10^17, as one unsigned comparison
    np.subtract(D, 10**16, out=rounded)
    np.less(rounded.view(np.uint64), 9 * 10**16, out=other)
    np.logical_and(fast, other, out=fast)
    np.logical_or(fast, zero, out=fast)
    np.copyto(D, 0, where=zero)  # its x = 1 put it in the k = 0 group
    return group, D, fast


def _digit_chars(D, digits, work, masks):
    """The 17 ASCII digits of each ``D``, trailing zeros NUL, as ``(n, 17)``.

    Fills ``digits``, an ``(n, 20)`` array, using the six ``int64`` arrays
    of ``work`` and the two ``bool`` arrays of ``masks`` as temporaries.
    """
    upper, lower, lead, g1, g3, tmp = work
    tail, zero = masks
    # x // m, then x - q m: a divmod by a Python int costs about four times more
    np.floor_divide(D, 10**8, out=upper)
    np.subtract(D, np.multiply(upper, 10**8, out=tmp), out=lower)
    np.floor_divide(upper, 10**8, out=lead)
    upper -= np.multiply(lead, 10**8, out=tmp)
    np.add(lead, 48, out=digits[:, 3], casting="unsafe")
    np.floor_divide(upper, 10**4, out=g1)
    upper -= np.multiply(g1, 10**4, out=tmp)  # g2
    np.floor_divide(lower, 10**4, out=g3)
    lower -= np.multiply(g3, 10**4, out=tmp)  # g4
    words = digits.view(np.uint32)
    word = lead.view(np.uint32)[: D.size]
    np.equal(lower, 0, out=tail)  # every digit after the current word is zero
    lower += 10**4
    words[:, 4] = np.take(_DIGITS4, lower, out=word, mode="clip")
    for j, g in ((3, g3), (2, upper), (1, g1)):
        np.equal(g, 0, out=zero)
        np.add(g, 10**4, out=g, where=tail)
        words[:, j] = np.take(_DIGITS4, g, out=word, mode="clip")
        tail &= zero
    return digits[:, 3:]


def _place_digits(digits, counts, rows):
    """Fixed-notation rows for digits sorted by ``k``; ``counts[k + 4]`` per group.

    Fills ``rows``, one per digit row.  A row has 25 bytes, room for
    ``-1.2345678901234567e-308`` and its separator.  Column 0 is left for
    the sign and the last for the separator; unused bytes are NUL.
    """
    rows.fill(0)
    stop = 0
    for k, count in zip(range(-4, 17), counts.tolist()):
        group = slice(stop, stop + count)
        stop += count
        if count == 0:
            continue
        if k < 0:  # 0.000ddd
            _items(rows[group, 1 : 2 - k])[...] = _items(_LEADING_ZEROS[None, : 1 - k])
            _items(rows[group, 2 - k : 19 - k])[...] = _items(digits[group])
            continue
        # integer digits keep their zeros; the point only if a fraction
        # follows: min(NUL, '.') is NUL and min(digit, '.') is '.'
        np.maximum(digits[group, : k + 1], 48, out=rows[group, 1 : k + 2])
        if k < 16:
            np.minimum(digits[group, k + 1], 46, out=rows[group, k + 2])
            _items(rows[group, k + 3 : 19])[...] = _items(digits[group, k + 1 :])
    return rows


def _items(a):
    """A 2-D byte array's rows as single items: numpy copies those in one step."""
    return a.view(f"V{a.shape[1]}")
