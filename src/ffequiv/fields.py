"""Exact arithmetic in finite fields F_p and F_{p^m} = F_p[x]/(M(x)).

Field descriptors are immutable and interned: constructing the same field
twice returns the same object, so elements built independently interoperate
and identity checks are cheap.  Elements are stored as reduced coefficient
vectors over F_p; all arithmetic is exact.
"""

from __future__ import annotations

from typing import Iterator, Sequence

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The least odd composite that passes Miller-Rabin on every base above
# (Sorenson & Webster, Math. Comp. 86, 2017): below it the test is exact.
PRIME_LIMIT = 3317044064679887385961981


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


_FIELD_CACHE: dict[tuple[int, tuple[int, ...] | None], "FiniteField"] = {}


class FiniteField:
    """Descriptor for F_p (m == 1) or F_{p^m} = F_p[x]/(M(x)), M monic irreducible.

    Do not instantiate directly; use :func:`prime_field` or
    :func:`extension_field` so descriptors are validated and interned.
    """

    __slots__ = ("p", "m", "q", "modulus", "_red", "_hash", "zero", "one")

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
        coeffs = []
        for _ in range(self.m):
            coeffs.append(index % self.p)
            index //= self.p
        return FieldElement(self, tuple(coeffs))

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
        p = self.field.p
        idx = 0
        for c in reversed(self.coeffs):
            idx = idx * p + c
        return idx

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
        p = f.p
        a = self.coeffs
        b = other.coeffs
        m = f.m
        if m == 1:
            return FieldElement(f, ((a[0] * b[0]) % p,))
        prod = [0] * (2 * m - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        for k in range(2 * m - 2, m - 1, -1):
            c = prod[k] % p
            if c:
                row = f._red[k - m]
                for t in range(m):
                    prod[t] += c * row[t]
        return FieldElement(f, tuple(v % p for v in prod[:m]))

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
        return self ** (f.q - 2)

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
