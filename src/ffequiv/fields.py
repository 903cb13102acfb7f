"""Exact arithmetic in finite fields F_p and F_{p^m} = F_p[x]/(M(x)).

Field descriptors are immutable and interned while they are in use:
``FiniteField(p, modulus)`` returns the field for (p, modulus) that is
still alive, if there is one, so the same field is the same object, fields
compare and hash by identity, and a field nothing holds any more is freed.

An element is encoded by its index sum(c_i * p^i) over the coefficients
c_i of its residue mod M, so the constant k of the prime field is the index
k.  A :class:`FieldElement` holds that index, and the polynomial and matrix
code work on bare indices.  Each field picks int kernels (``add``, ``sub``,
``neg``, ``mul``, ``inv``, ``pow``, ``addmul``: acc[s + j] += c * row[j]
for a nonzero c, and ``divrem``: the quotient and remainder of a
coefficient sequence by one no longer whose last entry is nonzero) when it
is built.  A prime field computes with plain ints mod p.  An extension
field takes the kernels of the tier its order selects from
:mod:`ffequiv._extension`, which is imported with the first extension
field, so a process that works over prime fields only never compiles it:
byte tables up to order ``PACKED_LIMIT``, exp/log tables up to order
``TABLE_LIMIT``, and table-free products above it.

``divrem`` is a loop of ``addmul`` steps, except in characteristic 2 up to
order ``PACKED_LIMIT``, where it packs one coefficient a byte: the
remainder is one int, so subtracting a multiple of the divisor is one XOR,
and the multiple is the divisor's bytes translated by the product row of
its multiplier.

The kernels hold no reference to their field, so a field that is dropped
is freed at once, without the cycle collector.
"""

from __future__ import annotations

import weakref
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
# Largest degree that a torsion polynomial or a parsed value may reach
# (twisted.TORSION_LIMIT, exprs.DEGREE_LIMIT): one limit, so that torsion
# output parses again.
DEGREE_LIMIT = 1 << 20


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

    ``FiniteField(p, modulus)`` interns: while a field for (p, modulus) is
    alive it returns that object, so the same field is the same object and
    fields compare and hash by identity.  It trusts its arguments;
    :func:`prime_field` and :func:`extension_field` validate them first.
    ``pack`` and ``unpack`` convert between an index and its m base-p
    digits; they and the int kernels are attributes.
    """

    __slots__ = ("p", "m", "q", "modulus", "pack", "unpack",
                 "add", "sub", "neg", "mul", "inv", "pow", "addmul", "divrem", "__weakref__")

    def __new__(cls, p: int, modulus: tuple[int, ...] | None):
        self = _FIELD_CACHE.get((p, modulus))
        if self is not None:
            return self
        self = super().__new__(cls)
        self.p = p
        self.modulus = modulus
        self.m = 1 if modulus is None else len(modulus) - 1
        self.q = p**self.m
        self.pack, self.unpack = _codec(p, self.m)
        for key, fn in _kernels(self).items():
            setattr(self, key, fn)
        _FIELD_CACHE[p, modulus] = self
        return self

    @property
    def zero(self) -> FieldElement:
        return FieldElement(self, 0)

    @property
    def one(self) -> FieldElement:
        return FieldElement(self, 1)

    def __repr__(self):
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.q})"

    def __reduce__(self):
        return (FiniteField, (self.p, self.modulus))

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
        return FieldElement(self, self._index_of(index))

    def _index_of(self, value) -> int:
        """The index of an entry given as a FieldElement of this field or as
        an index 0 <= value < q: the one check of the constructors of
        polynomials and matrices.  Anything else raises ValueError."""
        if isinstance(value, FieldElement):
            if value.field is not self:
                raise ValueError(f"{value!r} is from a different field than {self!r}")
            return value.index
        if not isinstance(value, int):
            raise ValueError(f"{value!r} is neither a FieldElement nor an index")
        if not 0 <= value < self.q:
            raise ValueError(f"index {value} out of range for field of order {self.q}")
        return value

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
        if self is not other:
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


def _combine(addmul, coeffs: Sequence[int], rows: Sequence[Sequence[int]], n: int) -> list[int]:
    """sum_i coeffs[i] * rows[i] on indices, by a field's ``addmul`` kernel,
    for rows of length at most n: a row times a matrix, untrimmed."""
    acc = [0] * n
    for c, row in zip(coeffs, rows):
        if c:
            addmul(acc, c, row, 0)
    return acc


def _least_primitive(p: int, q: int, power) -> int:
    """The index of the primitive element of least index: the first g with
    power(g, (q-1)/l) != 1 for every prime l dividing q - 1."""
    cofactors = [(q - 1) // l for l in _prime_divisors(q - 1)]
    # above F_p the constants 1..p-1 have order below q - 1
    for g in range(1 if q == p else p, q):
        if all(power(g, e) != 1 for e in cofactors):
            return g
    raise AssertionError("multiplicative group has no generator")  # unreachable


def _kernels(field: FiniteField) -> dict:
    """The int kernels of the field (see the module docstring)."""
    p = field.p
    if field.m > 1:
        from ._extension import tier_kernels  # compiled with the first F_{p^m}

        add, neg, mul, inv, power, addmul, rows = tier_kernels(field)
    else:
        # the product rows of F_2, for the packed division
        rows = [bytes(256), bytes(range(256))] if p == 2 else None

        def add(a, b):
            return (a + b) % p

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
        sub = add
    else:

        def sub(a, b):
            return add(a, neg(b))

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


def prime_field(p: int) -> FiniteField:
    """The prime field F_p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return FiniteField(p, None)


def _is_irreducible(p: int, coeffs: Sequence[int]) -> bool:
    """Ben-Or's test on the integer coefficients (low degree first) of a
    monic polynomial over F_p."""
    from ._dense import Poly  # _dense and poly import this module
    from .poly import is_irreducible

    return is_irreducible(Poly.from_ints(prime_field(p), coeffs))


def _smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    """The monic irreducible of degree m over F_p whose lower coefficients
    c_0..c_{m-1}, read as the base-p number sum c_i * p^i, are least."""
    unpack = _codec(p, m)[1]
    for packed in range(p**m):
        coeffs = unpack(packed) + (1,)
        if _is_irreducible(p, coeffs):
            return coeffs
    raise AssertionError("no irreducible polynomial found")  # unreachable


def extension_field(p: int, modulus: Sequence[int] | None = None, degree: int | None = None) -> FiniteField:
    """F_{p^m} as F_p[x]/(M(x)).

    Either supply ``modulus`` (coefficients low degree first, monic, irreducible
    over F_p, checked by Ben-Or's test) or a ``degree`` m >= 2, in which case
    the modulus is the one :func:`_smallest_irreducible` picks.
    """
    prime_field(p)  # refuses a composite p
    if (modulus is None) == (degree is None):
        raise ValueError("supply exactly one of modulus or degree")
    if modulus is None:
        if degree < 2:
            raise ValueError("extension degree must be at least 2")
        return FiniteField(p, _smallest_irreducible(p, degree))
    mod = tuple(c % p for c in modulus)
    while mod and mod[-1] == 0:
        mod = mod[:-1]
    if len(mod) < 3:
        raise ValueError("extension modulus must have degree at least 2")
    if mod[-1] != 1:
        raise ValueError("extension modulus must be monic")
    if not _is_irreducible(p, mod):
        raise ValueError("extension modulus is reducible over the prime field")
    return FiniteField(p, mod)


def _int_monomials(coeffs: Sequence[int], var: str) -> list[str]:
    """Descending monomial strings c*var^e for nonzero integer coefficients."""
    out = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if c == 0:
            continue
        if e == 0:
            out.append(str(c))
        else:
            v = var if e == 1 else f"{var}^{e}"
            out.append(v if c == 1 else f"{c}*{v}")
    return out


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
        return self.index == other.index and self.field is other.field

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
        return "+".join(_int_monomials(self.coeffs, "x")) or "0"

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
