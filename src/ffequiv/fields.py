"""Exact arithmetic in finite fields F_p and F_{p^m} = F_p[x]/(M(x)).

Field descriptors are immutable and interned while they are in use:
constructing a field that is still alive returns the same object, so
elements built independently interoperate and identity checks are cheap,
and a field nothing holds any more is freed.

An element is encoded by its index sum(c_i * p^i) over the coefficients
c_i of its residue mod M, so the constant k of the prime field is the index
k.  A :class:`FieldElement` holds that index, and the polynomial and matrix
code work on bare indices.  Each field picks int kernels (``add``, ``sub``,
``neg``, ``mul``, ``inv``, ``pow``, ``addmul``: acc[s + j] += c * row[j]
for a nonzero c, and ``divrem``: the quotient and remainder of a
coefficient sequence by one no longer whose last entry is nonzero) when it
is built, by kind:

* a prime field computes with plain ints mod p;
* an extension field of order at most ``PACKED_LIMIT`` = 256 reads full
  byte tables: the product row x -> c * x of every c, and in odd
  characteristic the addition table ADD[a << 8 | b], both built by
  ``bytes.translate`` (see :func:`_byte_tables`); ``addmul`` is then
  acc[j] = ADD[acc[j] << 8 | row_c[r]], or acc[j] ^= row_c[r] in
  characteristic 2;
* one of order at most ``TABLE_LIMIT`` looks products up in exp/log tables
  built from its smallest primitive element; it adds indices by XOR in
  characteristic 2 and through a Zech logarithm table
  (Z(d) = log(1 + g^d)) in odd characteristic;
* a larger extension field of characteristic 2 multiplies indices as bit
  patterns, by shift and XOR, reduced by the bits of M, and inverts them by
  an extended Euclid on the same bits; one of odd characteristic multiplies
  unpacked coefficient vectors.

``divrem`` is a loop of ``addmul`` steps, except in characteristic 2 up to
order ``PACKED_LIMIT``, where it packs one coefficient a byte: the
remainder is one int, so subtracting a multiple of the divisor is one XOR,
and the multiple is the divisor's bytes translated by the product row of
its multiplier.

The kernels hold no reference to their field, so a field that is dropped
is freed at once, without the cycle collector.
"""

from __future__ import annotations

import operator
import weakref
from array import array
from typing import Iterator, Sequence

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The least odd composite that passes Miller-Rabin on every base above
# (Sorenson & Webster, Math. Comp. 86, 2017): below it the test is exact.
PRIME_LIMIT = 3317044064679887385961981
# Largest order of an extension field with exp/log tables (about 16*q bytes).
TABLE_LIMIT = 1 << 16
# Largest order of an extension field with full byte tables (about 2*256*q
# bytes), and of a field of characteristic 2 whose division kernel packs one
# coefficient a byte.
PACKED_LIMIT = 1 << 8


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the prime bases 2..41, exact for
    n < PRIME_LIMIT (about 3.3 * 10^24); a larger n raises ValueError."""
    if n < 2:
        return False
    if n >= PRIME_LIMIT:
        raise ValueError(f"cannot decide whether {n} is prime: the limit is {PRIME_LIMIT}")
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# (p, modulus) -> the field, for as long as anything else holds it
_FIELD_CACHE: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class FiniteField:
    """Descriptor for F_p (m == 1) or F_{p^m} = F_p[x]/(M(x)), M monic irreducible.

    Do not instantiate directly; use :func:`prime_field` or
    :func:`extension_field` so descriptors are validated and interned, for
    as long as anything holds them (a dropped field is freed with its tables).
    ``pack`` and ``unpack`` convert between an index and its m base-p
    digits; they and the int kernels are attributes.
    """

    __slots__ = ("p", "m", "q", "modulus", "_red", "_hash", "pack", "unpack",
                 "add", "sub", "neg", "mul", "inv", "pow", "addmul", "divrem", "__weakref__")

    def __init__(self, p: int, modulus: tuple[int, ...] | None):
        self.p = p
        self.modulus = modulus
        self.m = 1 if modulus is None else len(modulus) - 1
        self.q = p**self.m
        # x^(m+k) mod M for k = 0..m-2, as reduction rows
        if self.m > 1:
            rows = []
            row = [(-c) % p for c in modulus[:-1]]
            rows.append(tuple(row))
            for _ in range(self.m - 2):
                shifted = [0] + row[:-1]
                top = row[-1]
                if top:
                    shifted = [(shifted[i] + top * rows[0][i]) % p for i in range(self.m)]
                row = shifted
                rows.append(tuple(row))
            self._red = tuple(rows)
        else:
            self._red = ()
        self._hash = hash((p, modulus))
        self.pack, self.unpack = _codec(p, self.m)
        for key, fn in _kernels(self).items():
            setattr(self, key, fn)

    @property
    def zero(self) -> FieldElement:
        return FieldElement(self, 0)

    @property
    def one(self) -> FieldElement:
        return FieldElement(self, 1)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FiniteField):
            return NotImplemented
        return self.p == other.p and self.modulus == other.modulus

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.q})"

    def __reduce__(self):
        return (_rebuild_field, (self.p, self.modulus))

    def __call__(self, value: int) -> FieldElement:
        """Embed an integer as a constant: value mod p."""
        return FieldElement(self, value % self.p)

    def from_coeffs(self, coeffs: Sequence[int]) -> FieldElement:
        """Element from its coefficient vector (low degree first, length <= m)."""
        if len(coeffs) > self.m:
            raise ValueError(f"coefficient vector longer than degree {self.m}")
        return FieldElement(self, self.pack([c % self.p for c in coeffs]))

    def from_index(self, index: int) -> FieldElement:
        """Element with the given integer encoding sum(c_i * p^i), 0 <= index < q."""
        if not 0 <= index < self.q:
            raise ValueError(f"index {index} out of range for field of order {self.q}")
        return FieldElement(self, index)

    def elements(self) -> Iterator[FieldElement]:
        """All q elements in index order."""
        for i in range(self.q):
            yield FieldElement(self, i)

    @property
    def gen(self) -> FieldElement:
        """The class of x in F_p[x]/(M); undefined for prime fields."""
        if self.m == 1:
            raise ValueError("prime field has no polynomial generator")
        return self.from_index(self.p)

    def _require_same(self, other: "FiniteField"):
        if self != other:
            raise ValueError(f"field mismatch: {self!r} vs {other!r}")


def _codec(p: int, m: int):
    """pack(digits), the index sum(c_i * p^i) of reduced digits c_0, c_1,
    ... (at most m), and unpack(index), its m base-p digits, low first."""

    def pack(digits: Sequence[int]) -> int:
        idx = 0
        for c in reversed(digits):
            idx = idx * p + c
        return idx

    def unpack(index: int) -> tuple[int, ...]:
        out = []
        for _ in range(m):
            index, c = divmod(index, p)
            out.append(c)
        return tuple(out)

    return pack, unpack


def _vec_mul(p: int, red: Sequence[Sequence[int]], a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Product of two m-digit coefficient vectors over F_p, reduced by the
    rows red[k] = x^(m+k) mod M (a field's ``_red``)."""
    m = len(a)
    prod = [0] * (2 * m - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    for k in range(2 * m - 2, m - 1, -1):
        c = prod[k] % p
        if c:
            row = red[k - m]
            for t in range(m):
                prod[t] += c * row[t]
    return tuple(v % p for v in prod[:m])


def _vec_pow(p: int, red: Sequence[Sequence[int]], a: Sequence[int], e: int) -> tuple[int, ...]:
    """a^e (e >= 0) of a coefficient vector, by square-and-multiply."""
    result = (1,) + (0,) * (len(a) - 1)
    while e:
        if e & 1:
            result = _vec_mul(p, red, result, a)
        a = _vec_mul(p, red, a, a)
        e >>= 1
    return result


def _smallest_generator(field: FiniteField) -> FieldElement:
    """The primitive element of least index: the first g with
    g^((q-1)/l) != 1 for every prime l dividing q - 1."""
    p, q = field.p, field.q
    cofactors = [(q - 1) // l for l in _prime_divisors(q - 1)]
    if field.m == 1:
        for i in range(1, q):
            if all(pow(i, e, p) != 1 for e in cofactors):
                return field.from_index(i)
    else:
        one = field.unpack(1)
        # the constants 1..p-1 have order below q - 1
        for i in range(p, q):
            g = field.unpack(i)
            if all(_vec_pow(p, field._red, g, e) != one for e in cofactors):
                return FieldElement(field, i)
    raise AssertionError("multiplicative group has no generator")  # unreachable


def _exp_log(field: FiniteField) -> tuple[array, array]:
    """exp[k] = g^k for 0 <= k < 2(q-1), so a sum of two logs needs no
    reduction, and log[g^k] = k (log[0] is unused), g the smallest
    primitive element.

    Multiplying by g is F_p-linear, so the image of an index is the
    digitwise sum of the images of its low h digits and of its high m - h
    digits, both looked up.  In characteristic 2 that sum is an XOR.  For
    odd p the images are held with k bits per digit, so that one integer
    addition adds all digits and one masked subtraction takes p from each
    digit that reached p.
    """
    p, m, q = field.p, field.m, field.q
    n = q - 1
    g = field.unpack(_smallest_generator(field).index)
    cols = [g]  # g * x^i
    x = field.unpack(p)
    for _ in range(m - 1):
        cols.append(_vec_mul(p, field._red, cols[-1], x))
    h = m // 2
    ph = p**h

    def images(part, count):
        out = []
        for v in range(count):
            acc = [0] * m
            for col in part:
                v, d = divmod(v, p)
                if d:
                    acc = [(a + d * c) % p for a, c in zip(acc, col)]
            out.append(acc)
        return out

    low, high = images(cols[:h], ph), images(cols[h:], q // ph)
    exp = array("I", [0]) * (2 * n)
    log = array("I", [0]) * q
    idx = 1
    if p == 2:
        low = [field.pack(v) for v in low]
        high = [field.pack(v) for v in high]
        for e in range(n):
            exp[e] = idx
            log[idx] = e
            idx = low[idx & (ph - 1)] ^ high[idx >> h]
    else:
        k = p.bit_length() + 1

        def spread(digits):
            return sum(c << (k * i) for i, c in enumerate(digits))

        low = [spread(v) for v in low]
        high = [spread(v) for v in high]
        top = spread([1 << (k - 1)] * m)
        bias = spread([(1 << (k - 1)) - p] * m)
        kh = k * h
        lmask = (1 << kh) - 1
        lfrom = {spread(field.unpack(v)[:h]): v for v in range(ph)}
        hfrom = {spread(field.unpack(v * ph)[h:]): v for v in range(q // ph)}
        for e in range(n):
            exp[e] = idx
            log[idx] = e
            hi, lo = divmod(idx, ph)
            t = low[lo] + high[hi]
            t -= (((t + bias) & top) >> (k - 1)) * p
            idx = lfrom[t & lmask] + ph * hfrom[t >> kh]
    exp[n:] = exp[:n]
    return exp, log


def _byte_tables(field: FiniteField) -> tuple[list[bytes], bytes | None, list[int], list[int]]:
    """For order q <= PACKED_LIMIT: the product rows rows[c][x] = c * x (256
    bytes each), the addition table ADD[a << 8 | b] = a + b (None in
    characteristic 2), and exp[k] = g^k, log[g^k] = k (k < q - 1) for the
    smallest primitive element g.  Each row is a translation of another:
    the row of a is the row of a - p^k translated by "add 1 to digit k",
    for the lowest nonzero digit k of a; the row of g^k is the row of
    g^(k-1) translated by the row of g, which is F_p-linear in x."""
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
    g = field.unpack(_smallest_generator(field).index)
    image = {s: field.pack(_vec_mul(p, field._red, g, field.unpack(s))) for s in set(low[1:])}
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


def _kernels(field: FiniteField) -> dict:
    """The int kernels of the field (see the module docstring)."""
    p, m, q = field.p, field.m, field.q
    rows = None  # the product rows of a field of order <= PACKED_LIMIT
    if m == 1:

        def add(a, b):
            return (a + b) % p

        def sub(a, b):
            return (a - b) % p

        def neg(a):
            return -a % p

        def mul(a, b):
            return a * b % p

        def inv(a):
            return pow(a, -1, p)

        def power(a, e):
            return pow(a, e, p)

        def addmul(acc, c, row, s):
            for j, r in enumerate(row, s):
                if r:
                    acc[j] = (acc[j] + c * r) % p

        if p == 2:
            rows = [bytes(256), bytes(range(256))]

    elif q <= TABLE_LIMIT:
        n = q - 1
        if q <= PACKED_LIMIT:
            rows, table, exp, log = _byte_tables(field)

            def mul(a, b):
                return rows[a][b]

        else:
            exp, log = _exp_log(field)

            def mul(a, b):
                return exp[log[a] + log[b]] if a and b else 0

        def inv(a):
            return exp[-log[a]]

        def power(a, e):
            if not a:
                return 0 if e else 1
            return exp[log[a] * e % n]

        if p == 2:
            add = sub = operator.xor

            def neg(a):
                return a

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

            def sub(a, b):
                return table[a << 8 | minus[b]]

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

            def sub(a, b):
                return add(a, exp[log[b] + half]) if b else a

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
        # the closures hold ints, the reduction rows and the codec, never
        # the field itself, which they would keep alive in a reference cycle
        if p == 2:
            add = sub = operator.xor
            top = 1 << m
            modulus = field.pack(field.modulus)

            def neg(a):
                return a

            def mul(a, b):
                # carry-less: XOR a shifted copy of a per set bit of b, then
                # clear the bits from x^(2m-2) down to x^m with shifted M
                r = 0
                while b:
                    low = b & -b
                    r ^= a * low
                    b ^= low
                while r >= top:
                    r ^= modulus << (r.bit_length() - 1 - m)
                return r

            def power(a, e):
                r = 1
                while e:
                    if e & 1:
                        r = mul(r, a)
                    a = mul(a, a)
                    e >>= 1
                return r

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
            red = field._red
            pack, unpack = field.pack, field.unpack

            def mul(a, b):
                if not a or not b:
                    return 0
                return pack(_vec_mul(p, red, unpack(a), unpack(b)))

            def power(a, e):
                return pack(_vec_pow(p, red, unpack(a), e))

            def add(a, b):
                return pack([(x + y) % p for x, y in zip(unpack(a), unpack(b))])

            def sub(a, b):
                return pack([(x - y) % p for x, y in zip(unpack(a), unpack(b))])

            def neg(a):
                return pack([-x % p for x in unpack(a)])

            def inv(a):
                return power(a, q - 2)

        def addmul(acc, c, row, s):
            for j, r in enumerate(row, s):
                if r:
                    acc[j] = add(acc[j], mul(c, r))

    if rows is not None and p == 2:
        divrem = _packed_divrem(rows, inv)
    else:

        def divrem(a, b):
            db = len(b) - 1
            rem = list(a)
            lead = b[-1]
            binv = None if lead == 1 else inv(lead)  # monic divisors are the common case
            quot = [0] * (len(rem) - db)
            for k in range(len(rem) - db - 1, -1, -1):
                c = rem[k + db]
                if not c:
                    continue
                qc = c if binv is None else mul(c, binv)
                quot[k] = qc
                addmul(rem, neg(qc), b, k)  # clears rem[k + db]
            return quot, rem[:db]

    return {
        "add": add, "sub": sub, "neg": neg, "mul": mul, "inv": inv, "pow": power,
        "addmul": addmul, "divrem": divrem,
    }


def _packed_divrem(rows: list[bytes], inv):
    """The division kernel of a field of characteristic 2 and order q <=
    PACKED_LIMIT, one byte a coefficient.

    The remainder is one int, coefficient i in byte i, so subtracting a
    multiple of the divisor is one XOR.  The multiple c * b is the divisor's
    bytes translated by rows[c], the product row of c; within one call the
    multiples are kept as ints, so a multiplier costs one translation a call.
    """

    def divrem(a, b):
        db = len(b) - 1
        row = bytes(b)
        lead = b[-1]
        if lead != 1:
            unit = rows[inv(lead)]
            row = row.translate(unit)  # the monic associate of b
        multiples = {1: int.from_bytes(row, "little")}
        rem = int.from_bytes(bytes(a), "little")
        quot = bytearray(len(a) - db)
        shift = 8 * (len(a) - 1)
        for k in range(len(a) - db - 1, -1, -1):
            c = rem >> shift & 0xFF
            shift -= 8
            if c:
                quot[k] = c
                m = multiples.get(c)
                if m is None:
                    m = multiples[c] = int.from_bytes(row.translate(rows[c]), "little")
                rem ^= m << 8 * k  # clears byte k + db
        if lead != 1:
            quot = quot.translate(unit)
        return list(quot), list(rem.to_bytes(db, "little"))

    return divrem


def _rebuild_field(p: int, modulus: tuple[int, ...] | None) -> FiniteField:
    key = (p, modulus)
    field = _FIELD_CACHE.get(key)
    if field is None:
        field = FiniteField(p, modulus)
        _FIELD_CACHE[key] = field
    return field


def prime_field(p: int) -> FiniteField:
    """The prime field F_p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _rebuild_field(p, None)


def _is_irreducible(p: int, coeffs: Sequence[int]) -> bool:
    """Rabin's test on the integer coefficients (low degree first) of a
    monic polynomial over F_p."""
    from .poly import Poly, is_irreducible  # poly imports this module

    return is_irreducible(Poly.from_ints(prime_field(p), coeffs))


def _smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    """The monic irreducible of degree m over F_p whose lower coefficients
    c_0..c_{m-1}, read as the base-p number sum c_i * p^i, are least."""
    for packed in range(p**m):
        coeffs = []
        t = packed
        for _ in range(m):
            coeffs.append(t % p)
            t //= p
        coeffs.append(1)
        if _is_irreducible(p, coeffs):
            return tuple(coeffs)
    raise AssertionError("no irreducible polynomial found")  # unreachable


def extension_field(p: int, modulus: Sequence[int] | None = None, degree: int | None = None) -> FiniteField:
    """F_{p^m} as F_p[x]/(M(x)).

    Either supply ``modulus`` (coefficients low degree first, monic, irreducible
    over F_p, checked by Rabin's test) or a ``degree`` m >= 2, in which case
    the modulus is the one :func:`_smallest_irreducible` picks.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if (modulus is None) == (degree is None):
        raise ValueError("supply exactly one of modulus or degree")
    if modulus is None:
        if degree < 2:
            raise ValueError("extension degree must be at least 2")
        return _rebuild_field(p, _smallest_irreducible(p, degree))
    mod = tuple(c % p for c in modulus)
    while mod and mod[-1] == 0:
        mod = mod[:-1]
    if len(mod) < 3:
        raise ValueError("extension modulus must have degree at least 2")
    if mod[-1] != 1:
        raise ValueError("extension modulus must be monic")
    if not _is_irreducible(p, mod):
        raise ValueError("extension modulus is reducible over the prime field")
    return _rebuild_field(p, mod)


class FieldElement:
    """An element of a FiniteField, held as its index; every operator is
    one call to a kernel of the field."""

    __slots__ = ("field", "index")

    def __init__(self, field: FiniteField, index: int):
        self.field = field
        self.index = index

    @property
    def coeffs(self) -> tuple[int, ...]:
        """The reduced coefficient vector over F_p, low degree first."""
        return self.field.unpack(self.index)

    @property
    def is_zero(self) -> bool:
        return not self.index

    @property
    def is_one(self) -> bool:
        return self.index == 1

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.index == other.index and self.field == other.field

    def __hash__(self):
        return hash(self.index)

    def __bool__(self):
        return bool(self.index)

    def _peer(self, other: "FieldElement") -> int:
        """The index of other, after checking that it lies in this field."""
        if other.field is not self.field:
            self.field._require_same(other.field)
        return other.index

    def __add__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        f = self.field
        return FieldElement(f, f.add(self.index, self._peer(other)))

    def __sub__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        f = self.field
        return FieldElement(f, f.sub(self.index, self._peer(other)))

    def __neg__(self):
        f = self.field
        return FieldElement(f, f.neg(self.index))

    def __mul__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        f = self.field
        return FieldElement(f, f.mul(self.index, self._peer(other)))

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative exponent; use inverse()")
        f = self.field
        return FieldElement(f, f.pow(self.index, e))

    def inverse(self) -> "FieldElement":
        if not self.index:
            raise ZeroDivisionError("zero has no inverse")
        f = self.field
        return FieldElement(f, f.inv(self.index))

    def __truediv__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self * other.inverse()

    def __str__(self):
        if self.field.m == 1:
            return str(self.index)
        coeffs = self.coeffs
        parts = []
        for i in range(self.field.m - 1, -1, -1):
            c = coeffs[i]
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("x" if c == 1 else f"{c}*x")
            else:
                parts.append(f"x^{i}" if c == 1 else f"{c}*x^{i}")
        return "+".join(parts) if parts else "0"

    def __repr__(self):
        return f"{self.field!r}({self})"

    def multiplicative_order(self) -> int:
        """The least n >= 1 with self^n = 1.  It divides q - 1, so start
        there and divide out each prime l while the (n/l)-th power is 1."""
        if self.is_zero:
            raise ValueError("zero has no multiplicative order")
        f = self.field
        n = f.q - 1
        for l in _prime_divisors(n):
            while n % l == 0 and f.pow(self.index, n // l) == 1:
                n //= l
        return n
