"""Univariate polynomial arithmetic over a finite field.

Covers ring operations, gcd, irreducibility testing (Ben-Or), complete
factorization (squarefree / distinct-degree / equal-degree), and enumeration
of monic irreducibles.  Instantiated over F_q with the variable read as T,
this ring is A = F_q[T]; instantiated over a residue field with variable y it
is where reductions get factored.

One dense class, ``_Dense``, holds the arithmetic of every polynomial ring
here and reaches the coefficients through kernels named as a field's.  A
:class:`Poly` holds each coefficient as its integer index in the field
(see :mod:`ffequiv.fields`), and its field's int kernels are those of the
coefficient ring; the rings over F_q[T] live in :mod:`ffequiv.twisted`.

Remainders, gcds, derivatives, Frobenius powers and the whole factorization
run on coefficient lists (``_trim`` to ``_ddf``, then squarefree and
equal-degree splitting), which the Poly functions wrap: ``factor`` builds a
Poly only for each factor it returns.  :mod:`ffequiv.splitting` calls
``_gcd``, ``_derivative`` and ``_ddf`` directly, so ``split-check`` and
``factor`` share them.  Frobenius is m = log_p q steps of the additive p-th
power map (von zur Gathen & Shoup, "Computing Frobenius maps and factoring
polynomials", Comput. Complexity 2, 1992); squarefree and equal-degree
splitting are Musser's and Cantor-Zassenhaus's (von zur Gathen & Gerhard,
*Modern Computer Algebra*, 14.3-14.4).
"""

from __future__ import annotations

import itertools
import random
import struct
from array import array
from typing import Container, Generator, Iterable, Iterator, Sequence

from . import _Record
from .fields import PACKED_LIMIT, TABLE_LIMIT, FieldElement, FiniteField, _codec, _combine


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
    """

    __slots__ = ("field", "coeffs")
    _ring = None
    _scalar: type | tuple = ()
    _twist = None

    def __init__(self, field: FiniteField, coeffs: Iterable = ()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def _make(cls, field: FiniteField, cs: list):
        """The polynomial with coefficient list cs, trimmed in place and
        not checked."""
        while cs and not cs[-1]:
            cs.pop()
        out = object.__new__(cls)
        out.field = field
        out.coeffs = tuple(cs)
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
        return self.coeffs[-1]

    def coeff(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self._czero(self.field)

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
        return self._scale(c)

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
    entry check (``FiniteField._index_of``); ``leading``, ``coeff`` and
    evaluation give FieldElements back.
    """

    __slots__ = ()
    _czero = staticmethod(lambda field: 0)
    _cone = staticmethod(lambda field: 1)
    _scalar = FieldElement

    def __init__(self, field: FiniteField, coeffs: Iterable = ()):
        super().__init__(field, map(field._index_of, coeffs))

    @classmethod
    def from_ints(cls, field: FiniteField, ints: Sequence[int]) -> "Poly":
        """Coefficients given as integers, embedded as constants mod p."""
        p = field.p
        return _mk(field, [v % p for v in ints])

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    @property
    def leading(self) -> FieldElement:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.field.from_index(self.coeffs[-1])

    def coeff(self, i: int) -> FieldElement:
        return self.field.from_index(self.coeffs[i] if 0 <= i < len(self.coeffs) else 0)

    def scale(self, c: FieldElement) -> "Poly":
        """Coefficient-wise product with the scalar c."""
        if c.field != self.field:
            raise ValueError("scalar from a different field")
        return self._scale(c.index)

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
# the list core: coefficient index lists over one field, low degree first and
# trimmed (the zero polynomial is []); the Poly functions below wrap it


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


def _rem(K: FiniteField, a: list[int], f: list[int]) -> list[int]:
    """a mod f, f nonzero."""
    if len(a) < len(f):
        return a
    return _trim(K.divrem(a, f)[1])


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


def _gcd(K: FiniteField, a: list[int], b: list[int]) -> list[int]:
    """The monic gcd of a and b, not both zero."""
    while b:
        a, b = b, _rem(K, a, b)
    return _monic(K, a)


def _minus_x(K: FiniteField, h: list[int]) -> list[int]:
    out = h + [0] * (2 - len(h))
    out[1] = K.sub(out[1], 1)
    return _trim(out)


def _pow_mod(K: FiniteField, a: list[int], e: int, f: list[int]) -> list[int]:
    """a^e mod f for a reduced a, by left-to-right square-and-multiply: for
    e >= 1, bit_length(e) - 1 squarings and popcount(e) - 1 products."""
    if e == 0:
        return [1]
    out = a
    for bit in bin(e)[3:]:
        out = _rem(K, _mul(K, out, out), f)
        if bit == "1":
            out = _rem(K, _mul(K, out, a), f)
    return out


def _pth_rows(K: FiniteField, f: list[int]) -> list[list[int]]:
    """y^(p*i) mod f for i < deg f: each row is the last shifted by p and
    reduced, or, for p > 2 deg f, the last times y^p mod f."""
    p, n = K.p, len(f) - 1
    rows = [[1]]
    if p > 2 * n:
        yp = _pow_mod(K, _rem(K, [0, 1], f), p, f)
        for _ in range(n - 1):
            rows.append(_rem(K, _mul(K, rows[-1], yp), f))
    else:
        for _ in range(n - 1):
            rows.append(_rem(K, [0] * p + rows[-1], f) if rows[-1] else [])
    return rows


def _frobenius_powers(K: FiniteField, f: list[int]) -> Generator[list[int], list[int] | None, None]:
    """y^q, y^(q^2), ... mod the monic f, for a caller that takes at most
    deg f // 2 of them; it may ``send`` a monic divisor of f in place of
    calling ``next``, and that power and all later ones are then mod it.

    A step h -> h^q is m = log_p q steps of the p-th power map
    h -> sum_i h_i^p * y^(p*i) mod f (a squaring in characteristic 2).  As
    h -> h^q is F_q-linear, a step can also be h^q = sum_i h_i * y^(q*i),
    half a product, once those rows are built for n - 2 products mod f.
    They are built when the p-th power steps have cost as much (m/2
    products a step, m in characteristic 2), so that no input pays much
    over twice the cheaper route, and only if the powers still wanted can
    repay them.  Over a prime field the p-th power rows are those rows.
    """
    p, m, power, addmul = K.p, K.m, K.pow, K.addmul
    pth = None if p == 2 else _pth_rows(K, f)
    rows = pth if m == 1 else None

    def frob(h):
        for _ in range(m):
            if pth is None:
                h = _rem(K, _mul(K, h, h), f)
            else:
                h = h if m == 1 else [power(c, p) for c in h]
                h = _trim(_combine(addmul, h, pth, len(f) - 1))
        return h

    cost = m if p == 2 else m / 2  # products mod f in one step
    h = yq = frob(_rem(K, [0, 1], f))
    spent = cost
    taken = 1
    while True:
        divisor = yield h
        if divisor is not None and len(divisor) < len(f):
            f = divisor
            n = len(f) - 1
            h, yq = _rem(K, h, f), _rem(K, yq, f)
            if rows is not None:  # pth is no longer used
                rows = [_rem(K, r, f) for r in rows[:n]]
            elif pth is not None:
                pth = [_rem(K, r, f) for r in pth[:n]]
        n = len(f) - 1
        if rows is None and spent >= n - 2 and (n // 2 - taken) * (cost - 0.5) > n - 2:
            rows = [[1], yq]
            for _ in range(n - 2):
                rows.append(_rem(K, _mul(K, rows[-1], yq), f))
        if rows is None:
            h = frob(h)
            spent += cost
        else:
            h = _trim(_combine(addmul, h, rows, n))
        taken += 1


def _ddf(K: FiniteField, f: list[int]) -> Iterator[tuple[int, list[int]]]:
    """f monic squarefree -> (d, product of its degree-d factors), ascending
    d.  For any monic f the first d is the least degree of a factor, as
    y^(q^d) - y is the product of the monic irreducibles of degree | d."""
    powers = _frobenius_powers(K, f)  # degrees up to deg f / 2
    rest = None  # what is left of f, once a factor is split off
    d = 0
    while len(f) > 2 * (d + 1):
        d += 1
        g = _gcd(K, f, _minus_x(K, powers.send(rest)))
        if len(g) > 1:
            yield d, g
            f = rest = K.divrem(f, g)[0]
    if len(f) > 1:
        yield len(f) - 1, f


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd; gcd(a, 0) = monic(a).  Both zero is an error."""
    a._check(b)
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    return _mk(a.field, _gcd(a.field, list(a.coeffs), list(b.coeffs)))


def pow_mod(base: Poly, e: int, mod: Poly) -> Poly:
    """base^e mod mod by left-to-right square-and-multiply: for e >= 1,
    bit_length(e) - 1 squarings and popcount(e) - 1 products."""
    if e < 0:
        raise ValueError("negative exponent")
    base = base % mod
    return _mk(base.field, _pow_mod(base.field, list(base.coeffs), e, list(mod.coeffs)))


def is_irreducible(f: Poly) -> bool:
    """Ben-Or's test, the first step of ``_ddf``: a reducible f is rejected
    at the least degree of its factors, which is at most n / 2."""
    n = f.degree
    if n < 1:
        raise ValueError("irreducibility is undefined for constants")
    K = f.field
    return next(_ddf(K, _monic(K, list(f.coeffs))))[0] == n


# ---------------------------------------------------------------------------
# factorization

class Factorization(_Record):
    """unit * prod(factor^multiplicity); factors monic irreducible, pairwise
    distinct, sorted by (degree, coefficients from the leading end)."""

    __slots__ = ("unit", "factors")

    def expand(self) -> Poly:
        acc = Poly.constant(self.unit.field, self.unit)
        for p_, e in self.factors:
            acc = acc * p_**e
        return acc

    def degrees(self) -> list[int]:
        """Residue degrees with multiplicity, ascending."""
        return sorted(d for p_, e in self.factors for d in [p_.degree] * e)

    @property
    def max_multiplicity(self) -> int:
        return max((e for _, e in self.factors), default=0)

    def __iter__(self):
        return iter(self.factors)


def _canon_key(p: Poly):
    return (p.degree, p.coeffs[::-1])


def _pth_root(K: FiniteField, g: list[int]) -> list[int]:
    """p-th root of a polynomial with zero derivative (finite fields are
    perfect, so the root always exists)."""
    p = K.p
    if any(c for i, c in enumerate(g) if i % p):
        raise ValueError("not a p-th power")
    e, power = p ** (K.m - 1), K.pow
    return [power(c, e) for c in g[::p]]


def _squarefree_parts(K: FiniteField, f: list[int]) -> list[tuple[int, list[int]]]:
    """f monic -> [(multiplicity, product of its multiplicity-m irreducible
    factors)], ascending, omitting trivial parts."""
    p, divrem = K.p, K.divrem
    out: dict[int, list[int]] = {}

    def rec(g: list[int], scale: int):
        dg = _derivative(K, g)
        if not dg:
            rec(_pth_root(K, g), scale * p)
            return
        c = _gcd(K, g, dg)
        w = divrem(g, c)[0]
        i = 1
        while len(w) > 1:
            y = _gcd(K, w, c)
            part = divrem(w, y)[0]
            if len(part) > 1:
                out[i * scale] = _mul(K, out.get(i * scale, [1]), part)
            w = y
            c = divrem(c, y)[0]
            i += 1
        if len(c) > 1:
            rec(_pth_root(K, c), scale * p)

    rec(f, 1)
    return sorted(out.items())


def _equal_degree(K: FiniteField, f: list[int], d: int, rng: random.Random) -> list[list[int]]:
    """Cantor-Zassenhaus split of a monic squarefree product of degree-d
    irreducibles; trace-map variant in characteristic 2."""
    n, q = len(f) - 1, K.q
    if n == d:
        return [f]
    while True:
        u = _trim([rng.randrange(q) for _ in range(n)])
        if len(u) < 2:
            continue
        # u need not be coprime to f: a u sharing a factor with f is rare,
        # and the trace (the power, for odd p) splits f through gcd(v, f)
        if K.p == 2:
            # absolute trace of u in F_{q^d} = F_2[x]/..., summed Frobenius
            # orbit; u and each term are below deg f, so their sum is too
            v = u + [0] * (n - len(u))
            acc = u
            for _ in range(K.m * d - 1):
                acc = _rem(K, _mul(K, acc, acc), f)
                K.addmul(v, 1, acc, 0)
            _trim(v)
        else:
            v = _pow_mod(K, u, (q**d - 1) // 2, f)
            v = _trim([K.sub(v[0] if v else 0, 1), *v[1:]])
        if not v:
            continue
        g = _gcd(K, v, f)
        if 1 < len(g) < len(f):
            return _equal_degree(K, g, d, rng) + _equal_degree(K, K.divrem(f, g)[0], d, rng)


def factor(f: Poly, seed: int = 0) -> Factorization:
    """Complete factorization; deterministic for a given (f, seed)."""
    if f.degree < 1:
        raise ValueError("cannot factor a constant polynomial")
    K = f.field
    check_factor(K.p, K.m, f.degree)
    rng = random.Random(seed)
    found = [(_mk(K, h), mult)
             for mult, part in _squarefree_parts(K, _monic(K, list(f.coeffs)))
             for d, prod in _ddf(K, part)
             for h in _equal_degree(K, prod, d, rng)]
    found.sort(key=lambda fe: _canon_key(fe[0]))
    return Factorization(f.leading, tuple(found))


# Most work one factor call takes: n^3 * b * w for degree n over F_q, with
# q <= 2^b, b = m * ceil(log2 p), and w a weight for the kernels of F_q
# (splitting two factors of degree n/2 takes about n/2 * log2 q products of
# degree n).  Sized from the slowest of dense, sparse and two-factor inputs
# in each tier, so that the limit takes about a minute.
FACTOR_WORK_LIMIT = 1 << 32


def check_factor(p: int, m: int, n: int) -> None:
    """Refuse factoring a polynomial of degree n over F_q, q = p^m, when its
    work n^3 * b * w passes FACTOR_WORK_LIMIT (b and w as described there).
    q is formed only for m <= 16, so this can run before F_q is built."""
    bits = m * (p - 1).bit_length()
    q = p**m if m <= 16 else TABLE_LIMIT + 1  # beyond m = 16, q > TABLE_LIMIT for any p
    if q <= PACKED_LIMIT:
        weight = 1 if p == 2 else 32  # byte tables, and packed division in characteristic 2
    elif q <= TABLE_LIMIT or p == 2 or m == 1:
        weight = 128  # exp/log tables, carry-less products, or ints mod a large p
    else:
        weight = 4096  # packed products, unpacked sums
    work = n**3 * bits * weight
    if work > FACTOR_WORK_LIMIT:
        name = p if m == 1 else f"{p}^{m}"
        raise ValueError(
            f"factoring a polynomial of degree {n} over GF({name}) is above the work "
            f"limit of one factorization (degree^3 * bits of q * weight = {n}^3 * {bits} * "
            f"{weight} = {work} > {FACTOR_WORK_LIMIT})"
        )


# ---------------------------------------------------------------------------
# enumeration of monic irreducibles

SIEVE_LIMIT = 1 << 20  # most candidates (q^d) that monic_irreducibles sieves: 10-23 s


def check_sieve(p: int, m: int, d: int) -> None:
    """Refuse listing the monic irreducibles of degree d over F_q, q = p^m,
    when the sieve would mark more than SIEVE_LIMIT candidates (q^d).  q is
    never formed, so this can run before F_q is built and its modulus
    tested."""
    e = m * d
    # at e >= 21 digits p^e > 2^20
    if e >= SIEVE_LIMIT.bit_length() or p**e > SIEVE_LIMIT:
        name, base = (p, p) if m == 1 else (f"{p}^{m}", f"({p}^{m})")
        raise ValueError(
            f"listing degree-{d} irreducibles over GF({name}) sieves {base}^{d} candidates, "
            f"more than the limit of {SIEVE_LIMIT}"
        )


def _irr_packed(field: FiniteField, d: int) -> array:
    """The monic irreducibles of degree d, each packed as the base-q number
    of its lower coefficients (c_0..c_{d-1}, leading 1 implied), found by
    sieving out products of lower-degree monic polynomials.  Ascending, so
    sorted by coefficients from the leading end.  Nothing is kept: a lower
    degree is sieved again, at most q^(d/2) candidates."""
    q = field.q
    add, mul, addmul = field.add, field.mul, field.addmul
    mark = bytearray(q**d)
    for e in range(1, d // 2 + 1):
        de = d - e
        pack, unpack = _codec(q, e)
        for packed in _irr_packed(field, e):
            if e == 1:
                cc = packed
                for v in itertools.product(range(q), repeat=de):
                    # (x + c) * (v + x^de), leading digit dropped
                    idx = add(v[de - 1], cc)
                    for j in range(de - 1, 0, -1):
                        idx = idx * q + add(v[j - 1], mul(cc, v[j]))
                    idx = idx * q + mul(cc, v[0])
                    mark[idx] = 1
            else:
                uu = unpack(packed) + (1,)
                for v in itertools.product(range(q), repeat=de):
                    mark[pack(_product(addmul, uu, v + (1,))[:d])] = 1
    return array("I", (idx for idx in range(q**d) if not mark[idx]))


def monic_irreducibles(field: FiniteField, d: int) -> list[Poly]:
    """All monic irreducibles of degree exactly d, sorted by coefficients
    from the leading end."""
    if d < 1:
        raise ValueError("degree must be positive")
    check_sieve(field.p, field.m, d)
    unpack = _codec(field.q, d)[1]
    return [_mk(field, [*unpack(idx), 1]) for idx in _irr_packed(field, d)]


def _random_irreducibles(field: FiniteField, d: int, rng: random.Random,
                         known: Container | None = None) -> Iterator[Poly]:
    """Distinct monic irreducibles of degree d, drawn from rng by rejection;
    a candidate already yielded is rejected before Ben-Or's test.  known, if
    given, holds the coefficient tuples of every monic irreducible of degree
    d, and membership there replaces the test; the draws are the same."""
    q = field.q
    seen = set()
    while True:
        cand = _mk(field, [rng.randrange(q) for _ in range(d)] + [1])
        if cand not in seen and (is_irreducible(cand) if known is None else cand.coeffs in known):
            seen.add(cand)
            yield cand


def random_irreducible(field: FiniteField, d: int, seed: int = 0) -> Poly:
    """Rejection-sample a monic irreducible of degree d; deterministic for a
    given seed."""
    if d < 1:
        raise ValueError("degree must be positive")
    return next(_random_irreducibles(field, d, random.Random(seed)))
