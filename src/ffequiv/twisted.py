"""The twisted polynomial ring F_q[T]<tau> and Drinfeld modules over it.

tau does not commute with coefficients: tau * a = a^q * tau, so the product
law reads (a*tau^i)(b*tau^j) = a*b^{q^i}*tau^{i+j}.  Raising b in F_q[T] to
the power q^i is exponent spreading, since the coefficients are fixed by the
Frobenius map.  A Drinfeld module is determined by the image of T, a twisted
polynomial of positive tau-degree with constant coefficient exactly T; its
torsion operators flatten to ordinary polynomials in y via tau^i -> y^{q^i}.
"""

from __future__ import annotations

import operator
from typing import Iterable

from ._dense import Poly, _Dense, _mk
from .fields import DEGREE_LIMIT, FiniteField


def _frob_power(b: Poly, i: int) -> Poly:
    """b^(q^i) in F_q[T]: coefficient c_j is Frobenius-fixed, so it just
    moves to position j*q^i."""
    if i == 0 or b.degree < 1:
        return b
    step = b.field.q**i
    out = [0] * (b.degree * step + 1)
    out[::step] = b.coeffs
    return _mk(b.field, out)


class _FqT:
    """F_q[T] as a coefficient ring: a field's kernels, on Poly operands,
    computed by Poly's operators."""

    add, sub, neg, mul = operator.add, operator.sub, operator.neg, operator.mul

    @staticmethod
    def addmul(acc, c, row, s):
        for j, r in enumerate(row, s):
            if r:
                acc[j] = acc[j] + c * r


class _OverFqT(_Dense):
    """Dense polynomial with coefficients in F_q[T], each checked to lie
    over the ring's field."""

    __slots__ = ()
    _ring = _FqT
    _czero = Poly.zero
    _cone = Poly.one

    @staticmethod
    def _entries(field: FiniteField, coeffs: Iterable[Poly]) -> list:
        cs = list(coeffs)
        if any(c.field is not field for c in cs):
            raise ValueError("coefficient from a different field")
        return cs


class TwistedPoly(_OverFqT):
    """Sum a_i * tau^i with a_i in F_q[T]; coefficients indexed by tau-degree."""

    __slots__ = ()
    _twist = staticmethod(_frob_power)
    # Set on this class itself, so a wrapper (perfbench/tracer.py) can
    # replace the twisted product alone.
    __mul__ = _Dense.__mul__

    @classmethod
    def tau(cls, field: FiniteField) -> "TwistedPoly":
        return cls.x(field)


class YPoly(_OverFqT):
    """Polynomial in y with coefficients in F_q[T]; commutative, used for
    torsion polynomials and their reductions.  ``YPoly * Poly`` scales by
    the T-polynomial."""

    __slots__ = ()
    _scalar = Poly

    @classmethod
    def y(cls, field: FiniteField) -> "YPoly":
        return cls.x(field)


class DrinfeldModule:
    """Determined by the image of T: positive tau-degree, constant
    coefficient exactly T."""

    __slots__ = ("field", "image_of_T")

    def __init__(self, image_of_T: TwistedPoly):
        if image_of_T.degree < 1:
            raise ValueError("image of T must have positive tau-degree")
        if image_of_T.coeff(0) != Poly.x(image_of_T.field):
            raise ValueError("a_0 must equal T")
        self.field = image_of_T.field
        self.image_of_T = image_of_T

    @property
    def rank(self) -> int:
        return self.image_of_T.degree

    def __repr__(self):
        return f"DrinfeldModule(rank={self.rank}, q={self.field.q})"


def carlitz(field: FiniteField) -> DrinfeldModule:
    """The rank-1 module sending T to tau + T."""
    return DrinfeldModule(TwistedPoly(field, (Poly.x(field), Poly.one(field))))


def rho_eval(rho: DrinfeldModule, u: Poly) -> TwistedPoly:
    """The operator rho_u, by Horner evaluation of u at the image of T.
    Constant coefficients commute with everything (they are Frobenius-fixed),
    so the evaluation order is immaterial."""
    rho.field._require_same(u.field)
    f = rho.field
    acc = TwistedPoly.zero(f)
    for c in reversed(u.coeffs):
        acc = acc * rho.image_of_T + TwistedPoly.constant(f, Poly.constant(f, c))
    return acc


TORSION_LIMIT = DEGREE_LIMIT  # largest y-degree q^(rank*deg a) that torsion_polynomial builds


def torsion_polynomial(rho: DrinfeldModule, a: Poly, strip_trivial_root: bool = False) -> YPoly:
    """The polynomial in y whose roots are the a-torsion points: tau^i maps
    to y^{q^i}.  With strip_trivial_root the known root y = 0 is divided out
    once, lowering the degree from q^{r*deg a} to q^{r*deg a} - 1 and leaving
    constant term a(T)."""
    if a.degree < 1:
        raise ValueError("torsion requires a nonconstant polynomial")
    f = rho.field
    q = f.q
    if q ** (rho.rank * a.degree) > TORSION_LIMIT:
        raise ValueError(
            f"the a-torsion polynomial has degree {q}^{rho.rank * a.degree}, "
            f"more than the limit of {TORSION_LIMIT}"
        )
    op = rho_eval(rho, a)
    coeffs = [Poly.zero(f)] * (q**op.degree + 1)
    for i, b in enumerate(op.coeffs):
        coeffs[q**i] = b
    if strip_trivial_root:
        assert coeffs[0].is_zero, "additive operator has no constant term"
        coeffs = coeffs[1:]
    return YPoly(f, coeffs)
