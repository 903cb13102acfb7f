"""The int kernels of an extension field F_{p^m} = F_p[x]/(M(x)), m >= 2.

:func:`ffequiv.fields._kernels` imports this module when it builds its
first extension field, so a process that works over prime fields only
never compiles it.  Indices, the codec and the kernels' contracts are
those of :mod:`ffequiv.fields`.

Each field first builds a table-free ``mul`` and ``pow`` on indices (see
:func:`_plain_kernels`): a carry-less product of bit patterns in
characteristic 2, a packed product of spread digits in odd characteristic.
Its tables, if any, are built from them, by kind:

* up to order ``PACKED_LIMIT`` = 256, full byte tables: the product row
  x -> c * x of every c, and in odd characteristic the addition table
  ADD[a << 8 | b], both built by ``bytes.translate`` (see
  :func:`_byte_tables`); ``addmul`` is then acc[j] = ADD[acc[j] << 8 |
  row_c[r]], or acc[j] ^= row_c[r] in characteristic 2;
* up to order ``TABLE_LIMIT``, exp/log tables of the smallest primitive
  element; indices add by XOR in characteristic 2 and through a Zech
  logarithm table (Z(d) = log(1 + g^d)) in odd characteristic;
* above it, none: the table-free kernels serve, an inverse is an extended
  Euclid on bit patterns in characteristic 2 and the (q - 2)-th power in
  odd characteristic, where sums add unpacked digits.
"""

from __future__ import annotations

import operator
from array import array

from .fields import PACKED_LIMIT, TABLE_LIMIT, FiniteField, _least_primitive


def _plain_kernels(p: int, modulus: tuple[int, ...]) -> tuple:
    """The table-free ``mul`` and ``pow`` of F_p[x]/(M) on indices, M of
    degree m >= 2; the tables of a small field are built from them.

    In characteristic 2 an index is the bit pattern of its residue, and
    ``mul`` is a carry-less product reduced by the bits of M.  For odd p it
    is a packed product (Kronecker substitution): the base-p digits of each
    index are spread w bits apart, so one integer product holds every
    coefficient of the product polynomial in its own slot; the slot of
    x^(m+k) is read mod p and folded into the low m slots by x^(m+k) mod M,
    and the low slots, read mod p, are the digits of the result.
    """
    m = len(modulus) - 1
    if p == 2:
        top = 1 << m
        bits = sum(c << i for i, c in enumerate(modulus))

        def mul(a, b):
            # XOR a shifted copy of a per set bit of b, then clear the bits
            # from x^(2m-2) down to x^m with shifted M
            r = 0
            while b:
                low = b & -b
                r ^= a * low
                b ^= low
            while r >= top:
                r ^= bits << (r.bit_length() - 1 - m)
            return r

    else:
        # a low slot holds at most m(p-1)^2 from the product and less than
        # m(p-1)^2 from the folds, so w bits never carry into the next one
        w = (2 * m * (p - 1) ** 2).bit_length()
        mask = (1 << w) - 1
        # (shift of the slot of x^(m+k), x^(m+k) mod M spread) for k = 0..m-2
        folds = []
        xm = row = [-c % p for c in modulus[:-1]]
        for k in range(m - 1):
            folds.append((w * (m + k), sum(c << w * i for i, c in enumerate(row))))
            row = [(r + row[-1] * c) % p for r, c in zip([0] + row[:-1], xm)]
        # spread[v]: the digits of v < p^per spread w bits apart; spreading
        # one digit at a time made products about twice as slow, and chunk
        # tables of 256 to 32768 entries measured alike
        per = 1
        while per < m and p ** (per + 1) <= 4096:
            per += 1
        base, step = p**per, w * per
        spread = range(p)  # one digit spreads to itself
        for k in range(1, per):
            spread = [s | d << w * k for d in range(p) for s in spread]
        shifts = range(w * (m - 1), -1, -w)

        def mul(a, b):
            prod = 1
            for v in (a, b):
                s = shift = 0
                while v:
                    v, d = divmod(v, base)
                    s |= spread[d] << shift
                    shift += step
                prod *= s
            for k, r in folds:
                c = (prod >> k & mask) % p
                if c:
                    prod += c * r
            idx = 0
            for k in shifts:
                idx = idx * p + (prod >> k & mask) % p
            return idx

    def power(a, e):
        r = 1
        while e:
            if e & 1:
                r = mul(r, a)
            a = mul(a, a)
            e >>= 1
        return r

    return mul, power


def _exp_log(field: FiniteField, mul, g: int) -> tuple[array, array]:
    """exp[k] = g^k for 0 <= k < 2(q-1), so a sum of two logs needs no
    reduction, and log[g^k] = k (log[0] is unused), for the primitive
    element of index g and the table-free product ``mul``.

    Multiplying by g is F_p-linear, so the image of an index is the
    digitwise sum of the images of its low h digits and of its high m - h
    digits, both looked up.  In characteristic 2 that sum is an XOR.  For
    odd p the images are held with k bits per digit, so that one integer
    addition adds all digits and one masked subtraction takes p from each
    digit that reached p.
    """
    p, m, q = field.p, field.m, field.q
    n = q - 1
    h = m // 2
    ph = p**h
    low = [mul(g, v) for v in range(ph)]
    high = [mul(g, v * ph) for v in range(q // ph)]
    exp = array("I", [0]) * (2 * n)
    log = array("I", [0]) * q
    idx = 1
    if p == 2:
        for e in range(n):
            exp[e] = idx
            log[idx] = e
            idx = low[idx & (ph - 1)] ^ high[idx >> h]
    else:
        k = p.bit_length() + 1

        def spread(v):
            return sum(c << (k * i) for i, c in enumerate(field.unpack(v)))

        low = [spread(v) for v in low]
        high = [spread(v) for v in high]
        top = sum((1 << (k - 1)) << (k * i) for i in range(m))
        bias = top - sum(p << (k * i) for i in range(m))
        kh = k * h
        lmask = (1 << kh) - 1
        lfrom = {spread(v): v for v in range(ph)}
        hfrom = {spread(v * ph) >> kh: v for v in range(q // ph)}
        for e in range(n):
            exp[e] = idx
            log[idx] = e
            hi, lo = divmod(idx, ph)
            t = low[lo] + high[hi]
            t -= (((t + bias) & top) >> (k - 1)) * p
            idx = lfrom[t & lmask] + ph * hfrom[t >> kh]
    exp[n:] = exp[:n]
    return exp, log


def _byte_tables(field: FiniteField, mul, g: int) -> tuple[list[bytes], bytes | None, list[int], list[int]]:
    """For order q <= PACKED_LIMIT: the product rows rows[c][x] = c * x (256
    bytes each), the addition table ADD[a << 8 | b] = a + b (None in
    characteristic 2), and exp[k] = g^k, log[g^k] = k (k < q - 1) for the
    primitive element of index g, from the table-free product ``mul``.  Each
    row is a translation of another: the row of a is the row of a - p^k
    translated by "add 1 to digit k", for the lowest nonzero digit k of a;
    the row of g^k is the row of g^(k-1) translated by the row of g, which
    is F_p-linear in x."""
    p, m, q = field.p, field.m, field.q
    ident = bytes(range(256))
    low = [0] + [p ** next(k for k in range(m) if a // p**k % p) for a in range(1, q)]
    table = None
    if p != 2:
        shift = {s: bytes(b - (p - 1) * s if b // s % p == p - 1 else b + s for b in range(q))
                 + bytes(256 - q) for s in (p**k for k in range(m))}
        add_rows = [ident]
        for a in range(1, q):
            add_rows.append(add_rows[a - low[a]].translate(shift[low[a]]))
        table = b"".join(add_rows)
    image = {s: mul(g, s) for s in set(low[1:])}
    grow = bytearray(256)
    for a in range(1, q):
        b, c = grow[a - low[a]], image[low[a]]
        grow[a] = b ^ c if p == 2 else table[b << 8 | c]
    grow = bytes(grow)
    rows, exp, log = [bytes(256)] * q, [1] * (q - 1), [0] * q
    rows[1], row = ident, grow
    for k in range(1, q - 1):
        rows[row[1]], exp[k], log[row[1]] = row, row[1], k
        row = row.translate(grow)
    return rows, table, exp, log


def tier_kernels(field: FiniteField) -> tuple:
    """The ``add``, ``neg``, ``mul``, ``inv``, ``pow`` and ``addmul``
    kernels of an extension field, of the tier its order selects (see the
    module docstring), and its product rows if it has byte tables, else
    None."""
    p, q = field.p, field.q
    rows = None
    # every extension field starts from its table-free kernels
    mul, power = _plain_kernels(p, field.modulus)
    if p == 2:
        add = operator.xor

        def neg(a):
            return a

    if q <= TABLE_LIMIT:
        n = q - 1
        g = _least_primitive(p, q, power)
        if q <= PACKED_LIMIT:
            rows, table, exp, log = _byte_tables(field, mul, g)

            def mul(a, b):
                return rows[a][b]

        else:
            exp, log = _exp_log(field, mul, g)

            def mul(a, b):
                return exp[log[a] + log[b]] if a and b else 0

        def inv(a):
            return exp[-log[a]]

        def power(a, e):
            if not a:
                return 0 if e else 1
            return exp[log[a] * e % n]

        if p == 2:
            if rows is not None:

                def addmul(acc, c, row, s):
                    mc = rows[c]
                    for j, r in enumerate(row, s):
                        acc[j] ^= mc[r]

            else:

                def addmul(acc, c, row, s):
                    lc = log[c]
                    for j, r in enumerate(row, s):
                        if r:
                            acc[j] ^= exp[lc + log[r]]

        elif rows is not None:
            minus = rows[p - 1]  # the row of -1

            def add(a, b):
                return table[a << 8 | b]

            def neg(a):
                return minus[a]

            def addmul(acc, c, row, s):
                mc = rows[c]
                for j, r in enumerate(row, s):
                    acc[j] = table[acc[j] << 8 | mc[r]]

        else:
            half = n // 2  # g^half = -1
            # zech[d] = log(1 + g^d); 1 + g^half = 0 has no log, and zech[half] is unused
            zech = array("I", [log[e + 1 - p if e % p == p - 1 else e + 1] for e in exp[:n]])

            def add(a, b):
                if not a:
                    return b
                if not b:
                    return a
                la = log[a]
                d = (log[b] - la) % n
                return 0 if d == half else exp[la + zech[d]]

            def neg(a):
                return exp[log[a] + half] if a else 0

            def addmul(acc, c, row, s):
                lc = log[c]
                for j, r in enumerate(row, s):
                    if r:
                        t = lc + log[r]
                        a = acc[j]
                        if a:
                            la = log[a]
                            d = (t - la) % n
                            acc[j] = 0 if d == half else exp[la + zech[d]]
                        else:
                            acc[j] = exp[t]

    else:
        # the closures hold ints and the codec, never the field itself,
        # which they would keep alive in a reference cycle
        if p == 2:
            modulus = field.pack(field.modulus)

            def inv(a):
                # extended Euclid on bit patterns, keeping s*a = u and t*a = v
                # mod M; each step cancels the top bit of u against v
                if not a:
                    raise ZeroDivisionError("zero has no inverse")
                u, v, s, t = a, modulus, 1, 0
                while u != 1:
                    j = u.bit_length() - v.bit_length()
                    if j < 0:
                        u, v, s, t, j = v, u, t, s, -j
                    u ^= v << j
                    s ^= t << j
                return s

        else:
            pack, unpack = field.pack, field.unpack

            def add(a, b):
                return pack([(x + y) % p for x, y in zip(unpack(a), unpack(b))])

            def neg(a):
                return pack([-x % p for x in unpack(a)])

            def inv(a):
                return power(a, q - 2)

        def addmul(acc, c, row, s):
            for j, r in enumerate(row, s):
                if r:
                    acc[j] = add(acc[j], mul(c, r))

    return add, neg, mul, inv, power, addmul, rows
