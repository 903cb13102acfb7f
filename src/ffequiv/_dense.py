"""The dense polynomial ring: the arithmetic that parsing, torsion and every
other polynomial computation here share.

One dense class, ``_Dense``, holds the arithmetic of every polynomial ring
here, reaches the coefficients through kernels named as a field's, and
converts them at its boundary through two hooks, ``_entries`` and ``_out``.  A
:class:`Poly` holds each coefficient as its integer index in the field
(see :mod:`ffequiv.fields`), and its field's int kernels are those of the
coefficient ring; the rings over F_q[T] live in :mod:`ffequiv.twisted`.
The gcd, Ben-Or's test, factorization, the sieve and sampling live in
:mod:`ffequiv.poly`, so a process that only parses or builds torsion
polynomials never compiles them.
"""

from __future__ import annotations

import struct
from typing import Iterable, Sequence

from .fields import FieldElement, FiniteField


class _Dense:
    """Dense polynomial over a coefficient ring; coeffs low degree first,
    trailing zeros trimmed.

    The zero polynomial is the empty coefficient tuple and reports the
    sentinel degree -1.  Sums, differences, negation, scaling and products
    reach the coefficients only through the ring's kernels, named as a
    field's: ``add``, ``sub``, ``neg``, ``mul`` and ``addmul`` (acc[s + j]
    += c * row[j] for a nonzero c).  A subclass supplies ``_ring``, the
    object holding those kernels (None: the field itself, on indices),
    ``_czero``/``_cone``, the coefficient zero and one as functions of the
    field, and ``_scalar``, the coefficient type that ``*`` treats as a
    scalar.  ``_twist(c, i)`` moves a coefficient c past the i-th power of
    the variable; it is None in a commutative ring.

    Coefficients cross the boundary through two hooks: ``_entries(field,
    coeffs)`` is the checked list that the constructor stores and ``scale``
    multiplies by, and ``_out(field, c)`` is a stored coefficient as
    ``leading`` and ``coeff`` return it.
    """

    __slots__ = ("field", "coeffs")
    _ring = None
    _scalar: type | tuple = ()
    _twist = None
    _entries = staticmethod(lambda field, coeffs: list(coeffs))
    _out = staticmethod(lambda field, c: c)

    def __init__(self, field: FiniteField, coeffs: Iterable = ()):
        self.field = field
        self.coeffs = tuple(_trim(self._entries(field, coeffs)))

    @classmethod
    def _make(cls, field: FiniteField, cs: list):
        """The polynomial with coefficient list cs, trimmed in place and
        not checked."""
        out = object.__new__(cls)
        out.field = field
        out.coeffs = tuple(_trim(cs))
        return out

    @classmethod
    def zero(cls, field: FiniteField):
        return cls(field, ())

    @classmethod
    def one(cls, field: FiniteField):
        return cls(field, (cls._cone(field),))

    @classmethod
    def x(cls, field: FiniteField):
        """The variable itself."""
        return cls(field, (cls._czero(field), cls._cone(field)))

    @classmethod
    def constant(cls, field: FiniteField, c):
        return cls(field, (c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_one(self) -> bool:
        return self.coeffs == (self._cone(self.field),)

    @property
    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self._out(self.field, self.coeffs[-1])

    def coeff(self, i: int):
        c = self.coeffs[i] if 0 <= i < len(self.coeffs) else self._czero(self.field)
        return self._out(self.field, c)

    def _check(self, other: "_Dense"):
        self.field._require_same(other.field)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.coeffs == other.coeffs and self.field == other.field

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        f = self.field
        if other.field is not f:
            self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        add = (self._ring or f).add
        out = list(a)
        for i, c in enumerate(b):
            if c:
                out[i] = add(out[i], c)
        return self._make(f, out)

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        f = self.field
        if other.field is not f:
            self._check(other)
        a, b = self.coeffs, other.coeffs
        sub = (self._ring or f).sub
        out = list(a) + [self._czero(f)] * (len(b) - len(a))
        for i, c in enumerate(b):
            if c:
                out[i] = sub(out[i], c)
        return self._make(f, out)

    def __neg__(self):
        f = self.field
        neg = (self._ring or f).neg
        return self._make(f, [neg(c) for c in self.coeffs])

    def scale(self, c):
        """Coefficient-wise product with the scalar c."""
        if c.field != self.field:
            raise ValueError("scalar from a different field")
        return self._scale(self._entries(self.field, (c,))[0])

    def _scale(self, c):
        f = self.field
        if c == self._cone(f):
            return self
        if not c:
            return self._make(f, [])
        mul = (self._ring or f).mul
        return self._make(f, [mul(a, c) for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, self._scalar):
            return self.scale(other)
        if not isinstance(other, type(self)):
            return NotImplemented
        f = self.field
        if other.field is not f:
            self._check(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return self._make(f, [])
        return self._make(f, _product((self._ring or f).addmul, a, b, self._czero(f), self._twist))

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative exponent")
        result = type(self).one(self.field)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:  # no squaring after the last bit
                base = base * base
        return result

    def derivative(self):
        f = self.field
        return type(self)(f, [self.coeffs[i] * f(i) for i in range(1, len(self.coeffs))])

    def __repr__(self):
        return f"{type(self).__name__}[{', '.join(repr(c) for c in self.coeffs)}]"


class Poly(_Dense):
    """Polynomial with coefficients in a finite field.

    ``coeffs`` holds each coefficient's integer index in the field, and
    the field's int kernels are the coefficient ring's.  The constructor
    takes indices or FieldElements of the field, each through the field's
    entry check (``FiniteField._index_of``, as ``_entries``); ``leading``
    and ``coeff`` (through ``_out``) and evaluation give FieldElements back.
    """

    __slots__ = ()
    _czero = staticmethod(lambda field: 0)
    _cone = staticmethod(lambda field: 1)
    _scalar = FieldElement
    _entries = staticmethod(lambda field, coeffs: list(map(field._index_of, coeffs)))
    _out = staticmethod(FiniteField.from_index)

    @classmethod
    def from_ints(cls, field: FiniteField, ints: Sequence[int]) -> "Poly":
        """Coefficients given as integers, embedded as constants mod p."""
        p = field.p
        return _mk(field, [v % p for v in ints])

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __mul__(self, other):
        if isinstance(other, Poly) and other.field is self.field:
            return _mk(self.field, _mul(self.field, self.coeffs, other.coeffs))
        return _Dense.__mul__(self, other)

    # Set on this class itself, so a wrapper (perfbench/tracer.py) can
    # replace Poly's reflected product alone.
    __rmul__ = __mul__

    def __divmod__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        f = self.field
        if len(self.coeffs) < len(other.coeffs):
            return _mk(f, []), self
        quot, rem = f.divrem(self.coeffs, other.coeffs)
        return _mk(f, quot), _mk(f, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero:
            raise ValueError("cannot normalize the zero polynomial")
        return _mk(self.field, _monic(self.field, list(self.coeffs)))

    def derivative(self) -> "Poly":
        return _mk(self.field, _derivative(self.field, self.coeffs))

    def __call__(self, x: FieldElement) -> FieldElement:
        f = self.field
        if x.field != f:
            raise ValueError("evaluation point from a different field")
        return f.from_index(_horner(f, self.coeffs, x.index))


_mk = Poly._make  # the Poly with coefficient indices cs, trimmed in place


def _product(addmul, a: Sequence, b: Sequence, zero=0, twist=None) -> list:
    """The product loop of every ring here: one ``addmul`` per nonzero
    coefficient of a; ``twist(r, i)`` moves r past the i-th power of the
    variable in a skew ring."""
    out = [zero] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            addmul(out, c, b if twist is None else [twist(r, i) for r in b], i)
    return out


def _int_convolve(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """Exact convolution of small nonnegative sequences via one big-integer
    multiply; each 32-bit slot holds one coefficient, carry-free by the
    caller's bound check."""
    n = len(a) + len(b) - 1
    pa = int.from_bytes(b"".join(c.to_bytes(4, "little") for c in a), "little")
    pb = int.from_bytes(b"".join(c.to_bytes(4, "little") for c in b), "little")
    raw = (pa * pb).to_bytes(4 * (n + 1), "little")
    return [c % p for c in struct.unpack_from(f"<{n}I", raw)]


# ---------------------------------------------------------------------------
# the list core that Poly's methods call: coefficient index lists over one
# field, low degree first and trimmed (the zero polynomial is []); the
# algorithms of ffequiv.poly run on the same lists


def _trim(cs: list) -> list:
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _mul(K: FiniteField, a: Sequence[int], b: Sequence[int]) -> list[int]:
    """a * b, ahead of the shared loop (handed the sparser factor first) with
    two shortcuts: squaring is additive in characteristic 2, and a large
    product over a prime field is one big-integer multiply."""
    if not a or not b:
        return []
    if a is b and K.p == 2:
        mul = K.mul
        out = [0] * (2 * len(a) - 1)
        out[::2] = [mul(c, c) for c in a]
        return out
    na, nb = len(a) - a.count(0), len(b) - b.count(0)
    if K.m == 1 and na * nb > 4096 and (K.p - 1) ** 2 * min(len(a), len(b)) < (1 << 32):
        return _int_convolve(a, b, K.p)
    if nb < na:
        a, b = b, a
    return _product(K.addmul, a, b)


def _monic(K: FiniteField, a: list[int]) -> list[int]:
    lead = a[-1]
    if lead == 1:
        return a
    mul, u = K.mul, K.inv(lead)
    return [mul(c, u) for c in a]


def _horner(K: FiniteField, a: Sequence[int], x: int) -> int:
    """a(x) in K, by Horner's rule with one product for each run of zero
    coefficients, by x^(k+1) for a run of k: a sparse a costs a product per
    term, not per degree."""
    add, mul, power = K.add, K.mul, K.pow
    acc, k = 0, 1  # k: the products by x owed, one more than the zeros passed
    for c in reversed(a):
        if c:
            acc, k = add(mul(acc, x if k == 1 else power(x, k)), c) if acc else c, 1
        else:
            k += 1
    return mul(acc, power(x, k - 1)) if acc and k > 1 else acc


def _derivative(K: FiniteField, a: Sequence[int]) -> list[int]:
    p, mul = K.p, K.mul
    return _trim([mul(c, i % p) for i, c in enumerate(a) if i])

