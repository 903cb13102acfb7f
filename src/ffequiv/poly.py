"""Univariate polynomial arithmetic over a finite field.

Covers ring operations, gcd, irreducibility testing (Rabin), complete
factorization (squarefree / distinct-degree / equal-degree), and enumeration
of monic irreducibles.  Instantiated over F_q with the variable read as T,
this ring is A = F_q[T]; instantiated over a residue field with variable y it
is where reductions get factored.

One dense class, ``_Dense``, holds the arithmetic of every polynomial ring
here and reaches the coefficients through kernels named as a field's.  A
:class:`Poly` holds each coefficient as its integer index in the field
(see :mod:`ffequiv.fields`), and its field's int kernels are those of the
coefficient ring; the rings over F_q[T] live in :mod:`ffequiv.twisted`.

Remainders, gcds, Frobenius powers and distinct-degree factorization run on
coefficient lists (``_trim`` to ``_ddf``), which the Poly functions wrap and
:mod:`ffequiv.splitting` calls directly.  Frobenius is m = log_p q steps of
the additive p-th power map (von zur Gathen & Shoup, "Computing Frobenius
maps and factoring polynomials", Comput. Complexity 2, 1992).
"""

from __future__ import annotations

import itertools
import random
import sys
from array import array
from typing import Container, Generator, Iterable, Iterator, Sequence

from . import _Record
from .fields import FieldElement, FiniteField, _prime_divisors


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
        if self.field != other.field:
            raise ValueError(f"field mismatch: {self.field!r} vs {other.field!r}")

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
            base = base * base
            e >>= 1
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
    also takes FieldElements; ``leading``, ``coeff`` and evaluation give
    FieldElements back.
    """

    __slots__ = ()
    _czero = staticmethod(lambda field: 0)
    _cone = staticmethod(lambda field: 1)
    _scalar = FieldElement

    def __init__(self, field: FiniteField, coeffs: Iterable = ()):
        cs = []
        q = field.q
        for c in coeffs:
            if isinstance(c, FieldElement):
                if c.field != field:
                    raise ValueError(f"coefficient from {c.field!r}, not {field!r}")
                c = c.index
            elif not isinstance(c, int):
                raise ValueError(f"coefficient {c!r} is neither a FieldElement nor an index")
            elif not 0 <= c < q:
                raise ValueError(f"index {c} out of range for field of order {q}")
            cs.append(c)
        super().__init__(field, cs)

    @classmethod
    def from_ints(cls, field: FiniteField, ints: Sequence[int]) -> "Poly":
        """Coefficients given as integers, embedded as constants mod p."""
        p = field.p
        return _mk(field, [v % p for v in ints])

    @classmethod
    def from_indices(cls, field: FiniteField, idxs: Sequence[int]) -> "Poly":
        """Coefficients given by their integer encoding in the field."""
        return cls(field, idxs)

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
        lead = self.coeffs[-1]
        return self if lead == 1 else self._scale(self.field.inv(lead))

    def derivative(self) -> "Poly":
        f = self.field
        p, mul = f.p, f.mul
        return _mk(f, [mul(c, i % p) for i, c in enumerate(self.coeffs) if i])

    def __call__(self, x: FieldElement) -> FieldElement:
        f = self.field
        if x.field != f:
            raise ValueError("evaluation point from a different field")
        xi = x.index
        add, mul = f.add, f.mul
        acc = 0
        for c in reversed(self.coeffs):
            acc = add(mul(acc, xi), c)
        return f.from_index(acc)

    def __repr__(self):
        if self.is_zero:
            return "Poly(0)"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            cs = str(self.field.from_index(c))
            var = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
            if i == 0:
                parts.append(cs)
            elif c == 1:
                parts.append(var)
            else:
                parts.append(f"{cs}*{var}" if "+" not in cs else f"({cs})*{var}")
        return "Poly(" + " + ".join(parts) + ")"


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


_U32_OK = array("I").itemsize == 4


def _int_convolve(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """Exact convolution of small nonnegative sequences via one big-integer
    multiply; each 32-bit slot holds one coefficient, carry-free by the
    caller's bound check."""
    n = len(a) + len(b) - 1
    pa = int.from_bytes(b"".join(c.to_bytes(4, "little") for c in a), "little")
    pb = int.from_bytes(b"".join(c.to_bytes(4, "little") for c in b), "little")
    raw = (pa * pb).to_bytes(4 * (n + 1), "little")
    if _U32_OK:
        slots = array("I")
        slots.frombytes(raw)
        if sys.byteorder != "little":
            slots.byteswap()
        return [slots[i] % p for i in range(n)]
    return [int.from_bytes(raw[4 * i : 4 * i + 4], "little") % p for i in range(n)]


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


def _linear(K: FiniteField, h: list[int], rows: list[list[int]], n: int) -> list[int]:
    """sum_i h_i * rows[i], for rows of length at most n."""
    addmul = K.addmul
    out = [0] * n
    for c, row in zip(h, rows):
        if c:
            addmul(out, c, row, 0)
    return _trim(out)


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


def _frobenius_powers(K: FiniteField, f: list[int], per: int = 1) -> Generator[list[int], list[int] | None, None]:
    """y^q, y^(q^2), ... mod the monic f, for a caller that takes at most
    deg f // per of them; it may ``send`` a monic divisor of f in place of
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
    p, m, power = K.p, K.m, K.pow
    pth = None if p == 2 else _pth_rows(K, f)
    rows = pth if m == 1 else None

    def frob(h):
        for _ in range(m):
            if pth is None:
                h = _rem(K, _mul(K, h, h), f)
            else:
                h = _linear(K, h if m == 1 else [power(c, p) for c in h], pth, len(f) - 1)
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
        if rows is None and spent >= n - 2 and (n // per - taken) * (cost - 0.5) > n - 2:
            rows = [[1], yq]
            for _ in range(n - 2):
                rows.append(_rem(K, _mul(K, rows[-1], yq), f))
        if rows is None:
            h = frob(h)
            spent += cost
        else:
            h = _linear(K, h, rows, n)
        taken += 1


def _ddf(K: FiniteField, f: list[int]) -> list[tuple[int, list[int]]]:
    """f monic squarefree -> [(d, product of its degree-d factors)]."""
    powers = _frobenius_powers(K, f, 2)  # degrees up to deg f / 2
    rest = None  # what is left of f, once a factor is split off
    out = []
    d = 0
    while len(f) > 2 * (d + 1):
        d += 1
        g = _gcd(K, f, _minus_x(K, powers.send(rest)))
        if len(g) > 1:
            out.append((d, g))
            f = rest = K.divrem(f, g)[0]
    if len(f) > 1:
        out.append((len(f) - 1, f))
    return out


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
    """Rabin's test: f | x^{q^n} - x and gcd(x^{q^{n/l}} - x, f) = 1 for
    every prime l dividing n."""
    n = f.degree
    if n < 1:
        raise ValueError("irreducibility is undefined for constants")
    if n == 1:
        return True
    K = f.field
    cs = _monic(K, list(f.coeffs))
    need = {n // l for l in _prime_divisors(n)}
    for i, h in enumerate(itertools.islice(_frobenius_powers(K, cs), n), 1):
        if i in need and len(_gcd(K, cs, _minus_x(K, h))) != 1:
            return False
    return h == [0, 1]


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


def _pth_root(g: Poly) -> Poly:
    """p-th root of a polynomial with zero derivative (finite fields are
    perfect, so the root always exists)."""
    field = g.field
    p = field.p
    e = field.p ** (field.m - 1)
    power = field.pow
    cs = []
    for i, c in enumerate(g.coeffs):
        if i % p == 0:
            cs.append(power(c, e))
        elif c:
            raise ValueError("not a p-th power")
    return _mk(field, cs)


def _squarefree_parts(f: Poly) -> list[tuple[int, Poly]]:
    """f monic -> [(multiplicity, product of its multiplicity-m irreducible
    factors)], ascending, omitting trivial parts."""
    p = f.field.p
    out: dict[int, Poly] = {}

    def put(mult: int, g: Poly):
        if g.degree > 0:
            out[mult] = out[mult] * g if mult in out else g

    def rec(g: Poly, scale: int):
        dg = g.derivative()
        if dg.is_zero:
            rec(_pth_root(g), scale * p)
            return
        c = poly_gcd(g, dg)
        w = g // c
        i = 1
        while w.degree > 0:
            y = poly_gcd(w, c)
            put(i * scale, w // y)
            w = y
            c = c // y
            i += 1
        if c.degree > 0:
            rec(_pth_root(c), scale * p)

    rec(f, 1)
    return sorted(out.items())


def _distinct_degree(f: Poly) -> list[tuple[int, Poly]]:
    """f monic squarefree -> [(d, product of its degree-d factors)]."""
    K = f.field
    return [(d, _mk(K, g)) for d, g in _ddf(K, list(f.coeffs))]


def _equal_degree(f: Poly, d: int, rng: random.Random) -> list[Poly]:
    """Cantor-Zassenhaus split of a monic squarefree product of degree-d
    irreducibles; trace-map variant in characteristic 2."""
    if f.degree == d:
        return [f]
    field = f.field
    q = field.q
    while True:
        u = _mk(field, [rng.randrange(q) for _ in range(f.degree)])
        if u.degree < 1:
            continue
        # u need not be coprime to f: a u sharing a factor with f is rare,
        # and the trace (the power, for odd p) splits f through gcd(v, f)
        if field.p == 2:
            # absolute trace of u in F_{q^d} = F_2[x]/..., summed Frobenius
            # orbit; u and each term are below deg f, so their sum is too
            v = acc = u
            for _ in range(field.m * d - 1):
                acc = acc * acc % f
                v = v + acc
        else:
            v = pow_mod(u, (q**d - 1) // 2, f) - Poly.one(field)
        if v.is_zero:
            continue
        g = poly_gcd(v, f)
        if 0 < g.degree < f.degree:
            return _equal_degree(g, d, rng) + _equal_degree(f // g, d, rng)


def factor(f: Poly, seed: int = 0) -> Factorization:
    """Complete factorization; deterministic for a given (f, seed)."""
    if f.degree < 1:
        raise ValueError("cannot factor a constant polynomial")
    rng = random.Random(seed)
    unit = f.leading
    found: list[tuple[Poly, int]] = []
    for mult, part in _squarefree_parts(f.monic()):
        for d, prod in _distinct_degree(part):
            if prod.degree == d:
                found.append((prod, mult))
            else:
                found.extend((h, mult) for h in _equal_degree(prod, d, rng))
    found.sort(key=lambda fe: _canon_key(fe[0]))
    return Factorization(unit, tuple(found))


# ---------------------------------------------------------------------------
# enumeration of monic irreducibles

SIEVE_LIMIT = 1 << 24  # most candidates (q^d) that monic_irreducibles sieves
# packed lower coefficients sum(c_i * q^i), i < d, of the degree-d monic irreducibles
_IRR_PACKED: dict[tuple[FiniteField, int], array] = {}


def _digits(idx: int, q: int, d: int) -> list[int]:
    out = []
    for _ in range(d):
        idx, c = divmod(idx, q)
        out.append(c)
    return out


def _irr_packed(field: FiniteField, d: int) -> array:
    """The monic irreducibles of degree d, each packed as the base-q number
    of its lower coefficients (c_0..c_{d-1}, leading 1 implied), found by
    sieving out products of lower-degree monic polynomials.  Ascending, so
    sorted by coefficients from the leading end."""
    key = (field, d)
    got = _IRR_PACKED.get(key)
    if got is not None:
        return got
    q = field.q
    if q**d > SIEVE_LIMIT:
        raise ValueError(
            f"listing degree-{d} irreducibles over GF({q}) sieves {q}^{d} candidates, "
            f"more than the limit of {SIEVE_LIMIT}"
        )
    if d == 1:
        res = _IRR_PACKED[key] = array("I", range(q))
        return res
    add, mul, addmul = field.add, field.mul, field.addmul
    mark = bytearray(q**d)
    for e in range(1, d // 2 + 1):
        de = d - e
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
                uu = _digits(packed, q, e) + [1]
                for v in itertools.product(range(q), repeat=de):
                    vv = v + (1,)
                    acc = [0] * (d + 1)
                    for i, ui in enumerate(uu):
                        if ui:
                            addmul(acc, ui, vv, i)
                    idx = 0
                    for c in reversed(acc[:d]):
                        idx = idx * q + c
                    mark[idx] = 1
    res = _IRR_PACKED[key] = array("I", (idx for idx in range(q**d) if not mark[idx]))
    return res


def monic_irreducibles(field: FiniteField, d: int) -> list[Poly]:
    """All monic irreducibles of degree exactly d, sorted by coefficients
    from the leading end."""
    if d < 1:
        raise ValueError("degree must be positive")
    q = field.q
    return [_mk(field, _digits(idx, q, d) + [1]) for idx in _irr_packed(field, d)]


def _random_irreducibles(field: FiniteField, d: int, rng: random.Random,
                         known: Container | None = None) -> Iterator[Poly]:
    """Distinct monic irreducibles of degree d, drawn from rng by rejection;
    a candidate already yielded is rejected before Rabin's test.  known, if
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
