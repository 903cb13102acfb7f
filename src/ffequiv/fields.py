"""Exact arithmetic in finite fields F_p and F_{p^m} = F_p[x]/(M(x)).

Field descriptors are immutable and interned: constructing the same field
twice returns the same object, so elements built independently interoperate
and identity checks are cheap.  A :class:`FieldElement` holds its reduced
coefficient vector over F_p; all arithmetic is exact.

The polynomial code works on the integer encoding instead: an element is
its index sum(c_i * p^i), so the constant k of the prime field is the index
k.  Each field picks int kernels (``add``, ``sub``, ``neg``, ``mul``,
``inv``, ``pow`` and ``addmul``: acc[s + j] += c * row[j] for a nonzero c)
when it is built, by kind:

* a prime field computes with plain ints mod p;
* an extension field of order at most ``TABLE_LIMIT`` looks products up in
  exp/log tables built from its smallest primitive element; it adds
  indices by XOR in characteristic 2 and through a Zech logarithm table
  (Z(d) = log(1 + g^d)) in odd characteristic;
* a larger extension field multiplies unpacked coefficient vectors.
"""

from __future__ import annotations

import operator
from array import array
from typing import Iterator, Sequence

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The least odd composite that passes Miller-Rabin on every base above
# (Sorenson & Webster, Math. Comp. 86, 2017): below it the test is exact.
PRIME_LIMIT = 3317044064679887385961981
# Largest order of an extension field with exp/log tables (about 16*q bytes).
TABLE_LIMIT = 1 << 16


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


_FIELD_CACHE: dict[tuple[int, tuple[int, ...] | None], "FiniteField"] = {}


class FiniteField:
    """Descriptor for F_p (m == 1) or F_{p^m} = F_p[x]/(M(x)), M monic irreducible.

    Do not instantiate directly; use :func:`prime_field` or
    :func:`extension_field` so descriptors are validated and interned.
    The int kernels are attributes too.
    """

    __slots__ = ("p", "m", "q", "modulus", "_red", "_hash", "zero", "one",
                 "add", "sub", "neg", "mul", "inv", "pow", "addmul")

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
        self.zero = FieldElement(self, (0,) * self.m)
        self.one = FieldElement(self, (1,) + (0,) * (self.m - 1))
        for key, fn in _kernels(self).items():
            setattr(self, key, fn)

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
        return FieldElement(self, (value % self.p,) + (0,) * (self.m - 1))

    def from_coeffs(self, coeffs: Sequence[int]) -> FieldElement:
        """Element from its coefficient vector (low degree first, length <= m)."""
        if len(coeffs) > self.m:
            raise ValueError(f"coefficient vector longer than degree {self.m}")
        vec = tuple(c % self.p for c in coeffs) + (0,) * (self.m - len(coeffs))
        return FieldElement(self, vec)

    def from_index(self, index: int) -> FieldElement:
        """Element with the given integer encoding sum(c_i * p^i), 0 <= index < q."""
        if not 0 <= index < self.q:
            raise ValueError(f"index {index} out of range for field of order {self.q}")
        return FieldElement(self, self.unpack(index))

    def pack(self, digits: Sequence[int]) -> int:
        """The index sum(c_i * p^i) of reduced digits c_0, c_1, ... (at most m)."""
        p = self.p
        idx = 0
        for c in reversed(digits):
            idx = idx * p + c
        return idx

    def unpack(self, index: int) -> tuple[int, ...]:
        """The m base-p digits of an index, low first."""
        p = self.p
        out = []
        for _ in range(self.m):
            index, c = divmod(index, p)
            out.append(c)
        return tuple(out)

    def elements(self) -> Iterator[FieldElement]:
        """All q elements in index order."""
        for i in range(self.q):
            yield self.from_index(i)

    @property
    def gen(self) -> FieldElement:
        """The class of x in F_p[x]/(M); undefined for prime fields."""
        if self.m == 1:
            raise ValueError("prime field has no polynomial generator")
        return self.from_index(self.p)

    def _require_same(self, other: "FiniteField"):
        if self != other:
            raise ValueError(f"field mismatch: {self!r} vs {other!r}")


def _vec_mul(field: FiniteField, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Product of two coefficient vectors of an extension field."""
    p = field.p
    m = field.m
    prod = [0] * (2 * m - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    for k in range(2 * m - 2, m - 1, -1):
        c = prod[k] % p
        if c:
            row = field._red[k - m]
            for t in range(m):
                prod[t] += c * row[t]
    return tuple(v % p for v in prod[:m])


def _vec_pow(field: FiniteField, a: tuple[int, ...], e: int) -> tuple[int, ...]:
    """a^e (e >= 0) of a coefficient vector, by square-and-multiply."""
    result = field.one.coeffs
    while e:
        if e & 1:
            result = _vec_mul(field, result, a)
        a = _vec_mul(field, a, a)
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
        one = field.one.coeffs
        # the constants 1..p-1 have order below q - 1
        for i in range(p, q):
            g = field.unpack(i)
            if all(_vec_pow(field, g, e) != one for e in cofactors):
                return FieldElement(field, g)
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
    g = _smallest_generator(field).coeffs
    cols = [g]  # g * x^i
    x = field.unpack(p)
    for _ in range(m - 1):
        cols.append(_vec_mul(field, cols[-1], x))
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


def _kernels(field: FiniteField) -> dict:
    """The int kernels of the field (see the module docstring)."""
    p, m, q = field.p, field.m, field.q
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

    elif q <= TABLE_LIMIT:
        n = q - 1
        exp, log = _exp_log(field)

        def mul(a, b):
            return exp[log[a] + log[b]] if a and b else 0

        def inv(a):
            return exp[n - log[a]]

        def power(a, e):
            if not a:
                return 0 if e else 1
            return exp[log[a] * e % n]

        if p == 2:
            add = sub = operator.xor

            def neg(a):
                return a

            def addmul(acc, c, row, s):
                lc = log[c]
                for j, r in enumerate(row, s):
                    if r:
                        acc[j] ^= exp[lc + log[r]]

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
        pack, unpack = field.pack, field.unpack

        def mul(a, b):
            if not a or not b:
                return 0
            return pack(_vec_mul(field, unpack(a), unpack(b)))

        def power(a, e):
            return pack(_vec_pow(field, unpack(a), e))

        def inv(a):
            return power(a, q - 2)

        if p == 2:
            add = sub = operator.xor

            def neg(a):
                return a

        else:

            def add(a, b):
                return pack([(x + y) % p for x, y in zip(unpack(a), unpack(b))])

            def sub(a, b):
                return pack([(x - y) % p for x, y in zip(unpack(a), unpack(b))])

            def neg(a):
                return pack([-x % p for x in unpack(a)])

        def addmul(acc, c, row, s):
            for j, r in enumerate(row, s):
                if r:
                    acc[j] = add(acc[j], mul(c, r))

    return {"add": add, "sub": sub, "neg": neg, "mul": mul, "inv": inv, "pow": power, "addmul": addmul}


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
    """An element of a FiniteField, held as its reduced coefficient vector."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FiniteField, coeffs: tuple[int, ...]):
        self.field = field
        self.coeffs = coeffs

    @property
    def index(self) -> int:
        """Integer encoding sum(c_i * p^i); a total order on the field."""
        return self.field.pack(self.coeffs)

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    @property
    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and not any(self.coeffs[1:])

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.coeffs == other.coeffs and self.field == other.field

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return any(self.coeffs)

    def __add__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        f = self.field
        if other.field is not f:
            f._require_same(other.field)
        p = f.p
        return FieldElement(f, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        f = self.field
        if other.field is not f:
            f._require_same(other.field)
        p = f.p
        return FieldElement(f, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        p = self.field.p
        return FieldElement(self.field, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        f = self.field
        if other.field is not f:
            f._require_same(other.field)
        if f.m == 1:
            return FieldElement(f, ((self.coeffs[0] * other.coeffs[0]) % f.p,))
        return FieldElement(f, _vec_mul(f, self.coeffs, other.coeffs))

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative exponent; use inverse()")
        result = self.field.one
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inverse(self) -> "FieldElement":
        if self.is_zero:
            raise ZeroDivisionError("zero has no inverse")
        f = self.field
        if f.m == 1:
            return FieldElement(f, (pow(self.coeffs[0], f.p - 2, f.p),))
        return f.from_index(f.inv(self.index))

    def __truediv__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self * other.inverse()

    def __str__(self):
        if self.field.m == 1:
            return str(self.coeffs[0])
        parts = []
        for i in range(self.field.m - 1, -1, -1):
            c = self.coeffs[i]
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
        if self.is_zero:
            raise ValueError("zero has no multiplicative order")
        n = 1
        acc = self
        while not acc.is_one:
            acc = acc * self
            n += 1
        return n
