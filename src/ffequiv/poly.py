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
"""

from __future__ import annotations

import itertools
import random
import sys
from array import array
from dataclasses import dataclass
from typing import Generator, Iterable, Iterator, Sequence

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
        addmul = (self._ring or f).addmul
        twist = self._twist
        out = [self._czero(f)] * (len(a) + len(b) - 1)
        for i, c in enumerate(a):
            if c:
                addmul(out, c, b if twist is None else [twist(r, i) for r in b], i)
        return self._make(f, out)

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
        # two shortcuts for products of nonzero polynomials, ahead of the
        # shared product loop, which is handed the sparser factor first
        if isinstance(other, Poly) and other.field is self.field and self.coeffs and other.coeffs:
            f = self.field
            a, b = self.coeffs, other.coeffs
            if a is b and f.p == 2:  # squaring is additive in characteristic 2
                mul = f.mul
                out = [0] * (2 * len(a) - 1)
                out[::2] = [mul(c, c) for c in a]
                return _mk(f, out)
            na, nb = len(a) - a.count(0), len(b) - b.count(0)
            if f.m == 1 and na * nb > 4096 and (f.p - 1) ** 2 * min(len(a), len(b)) < (1 << 32):
                return _mk(f, _int_convolve(a, b, f.p))
            if nb < na:  # one addmul per nonzero of the first factor
                return _Dense.__mul__(other, self)
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


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd; gcd(a, 0) = monic(a).  Both zero is an error."""
    a._check(b)
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def pow_mod(base: Poly, e: int, mod: Poly) -> Poly:
    """base^e mod mod by left-to-right square-and-multiply: for e >= 1,
    bit_length(e) - 1 squarings and popcount(e) - 1 products."""
    if e < 0:
        raise ValueError("negative exponent")
    base = base % mod
    if e == 0:
        return Poly.one(base.field)
    result = base
    for bit in bin(e)[3:]:
        result = result * result % mod
        if bit == "1":
            result = result * base % mod
    return result


def _frobenius_powers(f: Poly) -> Generator[Poly, Poly | None, None]:
    """x^q, x^(q^2), x^(q^3), ... mod the monic f, without end.

    A caller may ``send`` a monic divisor of f in place of calling ``next``;
    that power and all later ones are then reduced mod the divisor.

    The first power is a ``pow_mod``.  Since h -> h^q is F_q-linear on
    F_q[y]/(f), a later one can be the matrix-vector product
    h^q = sum_i h_i * x^(q*i) mod f.  Building those n = deg f rows costs
    n - 2 products mod f, so ``pow_mod`` steps go on until they have cost
    that much, and only a caller that wants more powers pays for the rows:
    no input costs much over twice what ``pow_mod`` alone would.
    """
    field = f.field
    q = field.q
    step = q.bit_length() + bin(q).count("1") - 2  # products in one pow_mod
    xq = h = pow_mod(Poly.x(field), q, f)
    spent = step
    rows = None
    while True:
        divisor = yield h
        if divisor is not None and divisor.degree < f.degree:
            f = divisor
            h, xq = h % f, xq % f
            if rows is not None:
                rows = [r % f for r in rows[: f.degree]]
        n = f.degree
        if rows is None and spent >= n - 2:
            rows = [Poly.one(field), xq]
            for _ in range(n - 2):
                rows.append(rows[-1] * xq % f)
        if rows is None:
            h = pow_mod(h, q, f)
            spent += step
            continue
        addmul = field.addmul
        out = [0] * n
        for c, row in zip(h.coeffs, rows):
            if c:
                addmul(out, c, row.coeffs, 0)
        h = _mk(field, out)


def is_irreducible(f: Poly) -> bool:
    """Rabin's test: f | x^{q^n} - x and gcd(x^{q^{n/l}} - x, f) = 1 for
    every prime l dividing n."""
    n = f.degree
    if n < 1:
        raise ValueError("irreducibility is undefined for constants")
    if n == 1:
        return True
    f = f.monic()
    x = Poly.x(f.field)
    need = {n // l for l in _prime_divisors(n)}
    for i, h in enumerate(itertools.islice(_frobenius_powers(f), n), 1):
        if i in need and poly_gcd(h - x, f).degree != 0:
            return False
    return h == x


# ---------------------------------------------------------------------------
# factorization

@dataclass(frozen=True)
class Factorization:
    """unit * prod(factor^multiplicity); factors monic irreducible, pairwise
    distinct, sorted by (degree, coefficients from the leading end)."""

    unit: FieldElement
    factors: tuple[tuple[Poly, int], ...]

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
    x = Poly.x(f.field)
    powers = _frobenius_powers(f)
    rest = None  # what is left of f, once a factor is split off
    out = []
    d = 0
    while f.degree >= 2 * (d + 1):
        d += 1
        g = poly_gcd(powers.send(rest) - x, f)
        if g.degree > 0:
            out.append((d, g))
            f = rest = f // g
    if f.degree > 0:
        out.append((f.degree, f))
    return out


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


def _random_irreducibles(field: FiniteField, d: int, rng: random.Random) -> Iterator[Poly]:
    """Distinct monic irreducibles of degree d, drawn from rng by rejection;
    a candidate already yielded is rejected before Rabin's test."""
    q = field.q
    seen = set()
    while True:
        cand = _mk(field, [rng.randrange(q) for _ in range(d)] + [1])
        if cand not in seen and is_irreducible(cand):
            seen.add(cand)
            yield cand


def random_irreducible(field: FiniteField, d: int, seed: int = 0) -> Poly:
    """Rejection-sample a monic irreducible of degree d; deterministic for a
    given seed."""
    if d < 1:
        raise ValueError("degree must be positive")
    return next(_random_irreducibles(field, d, random.Random(seed)))
