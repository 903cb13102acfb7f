"""Splitting types of polynomials modulo primes of F_q[T] and batch comparison.

Reducing a y-polynomial modulo a monic irreducible P pushes its coefficients
into the residue field F_q[T]/(P); the multiset of factor degrees of the
reduction is the splitting type at P.  Primes where the reduction drops
degree or acquires a repeated factor are classified Bad and excluded from
comparison, everything else is Good and contributes an equal/unequal row.

Every reduction is an evaluation: f mod P is read as the image of f under
T -> alpha for a root alpha of P in a field K of order p^d, d = deg P, an
isomorphism from F_p[T]/(P) onto K.  Every residue field of a prime of
degree d is F_{p^d}, so a comparison builds one table per degree, K_d and a
root of each prime, by one walk over its Frobenius orbits: an orbit of size
d is the root set of one prime P.  The table lists, samples and reduces the
degree's primes, and goes when the comparison returns.  Where a sampled
degree has no tables, or too few primes to repay the walk, K is F_p[T]/(P),
with the class of T as its root, and is freed when the prime is done.

Evaluation is Horner's rule on indices of K, with one product for each run
of zero coefficients.  A sampled selection with a table accepts a random
candidate by looking it up in the table, not by Ben-Or's test.

A Good reduction is squarefree, so its splitting type follows from
distinct-degree factorization alone, run on coefficient lists by the
algorithms of :mod:`ffequiv.poly`; no factor is ever split further and
nothing on this path is randomized.
"""

from __future__ import annotations

import os
import random
from typing import Union

from . import _Record
from ._dense import Poly, _derivative, _horner, _mk, _monic
from .exprs import render_tpoly
from .fields import TABLE_LIMIT, FiniteField, _prime_divisors, _rebuild_field, extension_field, prime_field
from .poly import _ddf, _gcd, _random_irreducibles, check_factor, is_irreducible
from .twisted import YPoly


class SplitType(_Record):
    """Sorted multiset of residue degrees."""

    __slots__ = ("degrees",)

    def __init__(self, degrees):
        super().__init__(tuple(sorted(degrees)))

    def __str__(self):
        return "[" + ",".join(str(d) for d in self.degrees) + "]"


class SideResult(_Record):
    """Outcome of split_type on one polynomial: Bad with a reason, or a type."""

    __slots__ = ("bad_reason", "split")

    @property
    def is_bad(self) -> bool:
        return self.bad_reason is not None


class PrimeVerdict(_Record):
    __slots__ = ("prime", "type_f", "type_g", "bad_reason")

    @property
    def is_bad(self) -> bool:
        return self.bad_reason is not None

    @property
    def equal(self) -> bool:
        if self.is_bad:
            raise ValueError("Bad primes carry no equality verdict")
        return self.type_f == self.type_g

    @property
    def status(self) -> str:
        if self.is_bad:
            return f"bad:{self.bad_reason}"
        return "equal" if self.equal else "UNEQUAL"


class Exhaustive(_Record):
    """All monic irreducibles of degree 1..max_degree, in canonical order."""

    __slots__ = ("max_degree",)


class Sampled(_Record):
    """count distinct random monic irreducibles of the given degree, drawn
    with the seed passed to compare_split_types."""

    __slots__ = ("count", "degree")


PrimeSelection = Union[Exhaustive, Sampled]


def _check_prime(f: YPoly, P: Poly):
    if not P.is_monic:
        raise ValueError("P must be monic")
    check_factor(P.field.p, P.field.m, P.degree)  # Ben-Or's test of P costs a factorization's DDF
    if not is_irreducible(P):
        raise ValueError("P must be irreducible")
    if P.field is not f.field:
        raise ValueError("P must live over the same base field as f")
    _check_base(f.field)


def _check_base(field: FiniteField):
    """Refuse a base field F_{p^m}, m > 1: the residue fields, F_p[T]/(P)
    or the orbit walk's K_d, are built over F_p only."""
    if field.m != 1:
        raise ValueError("reduction is implemented over prime base fields only")


# K_d and {P.coeffs: the index of a root of P in K_d} for the primes P of degree d
_Table = tuple[FiniteField, dict[tuple[int, ...], int]]


def _orbit_roots(p: int, d: int) -> _Table:
    """K_d = F_{p^d} and a root in it of every monic irreducible P of
    degree d over F_p, keyed by P.coeffs.

    A Frobenius orbit {b, b^p, b^(p^2), ...} of size d in K_d is the root
    set of exactly one such P, the product of (y - c) over the orbit, whose
    coefficients are prime-field constants, so one walk over K_d finds every
    P with a root.
    """
    K = prime_field(p) if d == 1 else extension_field(p, degree=d)
    power, neg, addmul = K.pow, K.neg, K.addmul
    roots = {}
    seen = bytearray(K.q)
    for b in range(K.q):
        if seen[b]:
            continue
        orbit = [b]
        c = power(b, p)
        while c != b:
            orbit.append(c)
            c = power(c, p)
        for c in orbit:
            seen[c] = 1
        if len(orbit) == d:  # a smaller orbit lies in a proper subfield
            prod = [1]
            for c in orbit:
                out = [0] + prod
                if c:
                    addmul(out, neg(c), prod, 0)
                prod = out
            roots[tuple(prod)] = b
    return K, roots


def _root(P: Poly, table: _Table | None) -> tuple[FiniteField, int]:
    """A field K of order p^d and the index of a root of P in it, for a
    prime P of degree d over a prime field: K_d and P's root from the table
    of its degree, or without one, F_p[T]/(P), where the class of T is a
    root, or the base field, where -c_0 is the root of T + c_0.  P and its
    base field are not tested here: every caller has checked them."""
    if table is not None:
        K, roots = table
        return K, roots[P.coeffs]
    base = P.field
    if P.degree == 1:
        return base, base.neg(P.coeffs[0])
    return _rebuild_field(base.p, P.coeffs), base.p


def _evaluate(f: YPoly, K: FiniteField, alpha: int) -> Poly:
    """The image of f under T -> alpha, by Horner on indices of K, one
    product per run of zero coefficients.  For a root alpha of the prime P,
    T -> alpha is an isomorphism from F_p[T]/(P) onto K, so the image is
    f mod P up to that isomorphism."""
    return _mk(K, [_horner(K, c.coeffs, alpha) for c in f.coeffs])


def _classify(f: YPoly, r: Poly) -> SideResult:
    """Bad reason or split type of f at a prime, from its image r there."""
    if f.is_zero:
        raise ValueError("cannot take the splitting type of the zero polynomial")
    if r.degree < f.degree:
        return SideResult("leading_coeff_vanishes", None)
    if r.degree < 1:
        raise ValueError("cannot take the splitting type of a constant polynomial")
    K, cs = r.field, list(r.coeffs)
    dr = _derivative(K, cs)
    if not dr or len(_gcd(K, cs, dr)) > 1:
        return SideResult("repeated_factor", None)
    degrees = [d for d, g in _ddf(K, _monic(K, cs)) for _ in range((len(g) - 1) // d)]
    return SideResult(None, SplitType(tuple(degrees)))


def reduce_mod_prime(f: YPoly, P: Poly) -> Poly:
    """Map each coefficient of f into F_q[T]/(P) and return the image of f.

    The result is a univariate polynomial over the residue field; its degree
    drops when the leading coefficient of f lies in (P).
    """
    _check_prime(f, P)
    return _evaluate(f, *_root(P, None))


def split_type(f: YPoly, P: Poly) -> SideResult:
    """Classify one side at one prime: Bad reason or sorted degree multiset."""
    return _classify(f, reduce_mod_prime(f, P))


def _orbits_pay(p: int, d: int, count: int) -> bool:
    """Whether count primes of degree d over F_p cost less through
    _orbit_roots than through a residue field each.  Only a field with
    tables qualifies, for a cheap Frobenius.  Building K_d and walking its
    orbits, about d/2 multiply-adds per element, costs as much as 2 (5^4) to
    11 (2^16) residue-field builds of order p^d, roughly 1 + d/2 of them,
    and each prime's reduction is cheaper on the orbit route."""
    return p**d <= TABLE_LIMIT and 2 * count >= d + 2


def _verdict_at(f: YPoly, g: YPoly, P: Poly, table: _Table | None) -> PrimeVerdict:
    """The verdict at P, from f and g evaluated at the root _root gives."""
    K, alpha = _root(P, table)
    rf = _classify(f, _evaluate(f, K, alpha))
    rg = _classify(g, _evaluate(g, K, alpha))
    reason = None  # a degree drop on either side outranks a repeated factor
    for why in ("leading_coeff_vanishes", "repeated_factor"):
        for side, r in (("f", rf), ("g", rg)):
            if reason is None and r.bad_reason == why:
                reason = f"{why}_{side}"
    return PrimeVerdict(P, rf.split, rg.split, reason)


def irreducible_count(q: int, d: int) -> int:
    """Number of monic irreducibles of degree d over F_q, by Moebius
    inversion: only the squarefree divisors e of d have mu(e) != 0."""
    terms = [(1, 1)]  # (e, mu(e)) over the squarefree divisors e of d
    for l in _prime_divisors(d):
        terms += [(e * l, -mu) for e, mu in terms]
    return sum(mu * q ** (d // e) for e, mu in terms) // d


# Most primes one comparison takes.  Once the root map of its degree is
# built, a prime whose field has tables takes 2.5 ms (3^10) to 4.4 ms (2^16),
# under a minute for all of them.  A sampled prime of a degree above the
# tables takes about 30 ms over F_3 (3^11 to 3^13, its draw included),
# about 5 minutes in all.
PRIME_COUNT_LIMIT = 10_000
# Most work one sample takes, in units of count * degree^3.  A sampled prime
# costs its draw, Ben-Or's test on about d candidates (a reducible one is
# rejected at the least degree of its factors, the prime after d/2 gcds),
# and its verdict, and from degree 32 on that grows about as d^3: over F_3
# and F_5, 2 to 8 us times d^3 a prime (0.13 to 0.26 s at degree 32, 0.55
# to 1 s at 64, 3 s at 128 over F_3).  The limit is 100 primes of degree
# 64, 1 to 2 minutes; up to degree 13 PRIME_COUNT_LIMIT binds first.
SAMPLED_WORK_LIMIT = 100 * 64**3

def _select_primes(field: FiniteField, selection: PrimeSelection,
                   seed: int) -> tuple[list[Poly], dict[int, _Table]]:
    """The primes of the selection, and the tables of their degrees.  Every
    degree >= 2 that PRIME_COUNT_LIMIT admits has p^d <= TABLE_LIMIT."""
    _check_base(field)
    if isinstance(selection, Exhaustive):
        if selection.max_degree < 1:
            raise ValueError("empty prime selection")
        total = sum(irreducible_count(field.q, d) for d in range(1, selection.max_degree + 1))
        if total > PRIME_COUNT_LIMIT:
            raise ValueError(
                f"{total} primes have degree <= {selection.max_degree} over GF({field.q}), "
                f"more than the limit of {PRIME_COUNT_LIMIT} for one comparison"
            )
        primes, tables = [], {}
        for d in range(1, selection.max_degree + 1):
            tables[d] = table = _orbit_roots(field.p, d)
            # ordered as monic_irreducibles lists them, from the leading end
            primes.extend(_mk(field, list(c)) for c in sorted(table[1], key=lambda c: c[::-1]))
        return primes, tables
    if isinstance(selection, Sampled):
        if selection.count < 1:
            raise ValueError("empty prime selection")
        if selection.degree < 1:
            raise ValueError("prime degree must be positive")
        work = selection.count * selection.degree**3
        if work > SAMPLED_WORK_LIMIT:
            raise ValueError(
                f"{selection.count} sampled primes of degree {selection.degree} are above the "
                f"work limit of one comparison (count * degree^3 = {work} > {SAMPLED_WORK_LIMIT})"
            )
        available = irreducible_count(field.q, selection.degree)
        if selection.count > available:
            raise ValueError(
                f"requested {selection.count} primes of degree {selection.degree} "
                f"but only {available} exist"
            )
        if selection.count > PRIME_COUNT_LIMIT:
            raise ValueError(
                f"{selection.count} sampled primes are more than the limit of "
                f"{PRIME_COUNT_LIMIT} for one comparison"
            )
        rng = random.Random(seed)
        d = selection.degree
        tables = {d: _orbit_roots(field.p, d)} if _orbits_pay(field.p, d, selection.count) else {}
        # with a table, its root map decides irreducibility
        draws = _random_irreducibles(field, d, rng, tables[d][1] if tables else None)
        return [next(draws) for _ in range(selection.count)], tables
    raise TypeError(f"unknown prime selection {selection!r}")


_WORK: dict = {}


def _init_worker(f, g, tables):
    _WORK["args"] = (f, g, tables)


def _run_worker(P):
    f, g, tables = _WORK["args"]
    return _verdict_at(f, g, P, tables.get(P.degree))


class EquivalenceReport(_Record):
    __slots__ = ("verdicts",)

    @property
    def good(self) -> int:
        return sum(1 for v in self.verdicts if not v.is_bad)

    @property
    def equal_count(self) -> int:
        return sum(1 for v in self.verdicts if not v.is_bad and v.equal)

    @property
    def unequal_count(self) -> int:
        return sum(1 for v in self.verdicts if not v.is_bad and not v.equal)

    @property
    def bad(self) -> int:
        return sum(1 for v in self.verdicts if v.is_bad)

    @property
    def overall(self) -> str:
        return "refuted" if self.unequal_count else "consistent"

    def render(self) -> str:
        lines = []
        for v in self.verdicts:
            lines.append(
                "\t".join(
                    [
                        render_tpoly(v.prime),
                        str(v.prime.degree),
                        str(v.type_f) if v.type_f is not None else "-",
                        str(v.type_g) if v.type_g is not None else "-",
                        v.status,
                    ]
                )
            )
        lines.append(
            f"good={self.good} equal={self.equal_count} "
            f"unequal={self.unequal_count} bad={self.bad} overall={self.overall}"
        )
        return "\n".join(lines)


def compare_split_types(
    f: YPoly,
    g: YPoly,
    selection: PrimeSelection,
    seed: int = 0,
    jobs: int = 1,
) -> EquivalenceReport:
    """Compare splitting types of f and g over a selection of primes.

    The report is deterministic for fixed (f, g, selection, seed), whatever
    the value of jobs: seed only drives a Sampled selection, the per-prime
    work has no random step, and verdicts are assembled in selection order.
    At most min(jobs, number of primes, CPU count) worker processes run.
    """
    if f.field is not g.field:
        raise ValueError("f and g must share a base field")
    primes, tables = _select_primes(f.field, selection, seed)
    workers = min(jobs, len(primes), os.cpu_count() or 1)
    if workers > 1:
        # imported here: it loads multiprocessing, which one worker never needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(f, g, tables)
        ) as pool:
            verdicts = tuple(pool.map(_run_worker, primes))
    else:
        verdicts = tuple(_verdict_at(f, g, P, tables.get(P.degree)) for P in primes)
    return EquivalenceReport(verdicts)
