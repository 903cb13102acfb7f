"""Splitting types of polynomials modulo primes of F_q[T] and batch comparison.

Reducing a y-polynomial modulo a monic irreducible P pushes its coefficients
into the residue field F_q[T]/(P); the multiset of factor degrees of the
reduction is the splitting type at P.  Primes where the reduction drops
degree or acquires a repeated factor are classified Bad and excluded from
comparison, everything else is Good and contributes an equal/unequal row.

Every reduction is an evaluation: f mod P is read as the image of f under
T -> alpha for a root alpha of P in a field K of order p^d, d = deg P, an
isomorphism from F_p[T]/(P) onto K.  Every residue field of a prime of
degree d is F_{p^d}, so a batch comparison builds one field K_d per degree
and walks its Frobenius orbits once: an orbit of size d is the root set of
one prime P.  Where K_d has no tables, or too few primes share it to repay
the walk, K is F_p[T]/(P) itself, with the class of T as its root, and is
freed when the prime is done.

Evaluation is Horner's rule on indices of K, with one product for each run
of zero coefficients.  A sampled selection on a degree that takes the orbit
route accepts a random candidate by looking it up in the root map, not by
Rabin's test.

A Good reduction is squarefree, so its splitting type follows from
distinct-degree factorization alone, run on coefficient lists by the list
core of :mod:`ffequiv.poly`; no factor is ever split further and nothing on
this path is randomized.
"""

from __future__ import annotations

import os
import random
from collections import Counter
from typing import Union

from . import _Record
from .exprs import render_tpoly
from .fields import TABLE_LIMIT, FiniteField, _rebuild_field, extension_field, prime_field
from .poly import (Poly, _ddf, _gcd, _mk, _monic, _random_irreducibles, is_irreducible,
                   monic_irreducibles)
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
    _defaults = {"bad_reason": None}

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
    """count distinct random monic irreducibles of the given degree.

    seed=None defers to the global seed passed to compare_split_types.
    """

    __slots__ = ("count", "degree", "seed")
    _defaults = {"seed": None}


PrimeSelection = Union[Exhaustive, Sampled]


def _check_prime(f: YPoly, P: Poly):
    if not P.is_monic:
        raise ValueError("P must be monic")
    if not is_irreducible(P):
        raise ValueError("P must be irreducible")
    if P.field is not f.field:
        raise ValueError("P must live over the same base field as f")


# (p, d) -> (K_d, {P.coeffs: the index of a root of P in K_d})
_ORBIT_ROOTS: dict[tuple[int, int], tuple[FiniteField, dict[tuple[int, ...], int]]] = {}


def _orbit_roots(p: int, d: int) -> tuple[FiniteField, dict[tuple[int, ...], int]]:
    """K_d = F_{p^d} and a root in it of every monic irreducible P of
    degree d over F_p, keyed by P.coeffs.

    A Frobenius orbit {b, b^p, b^(p^2), ...} of size d in K_d is the root
    set of exactly one such P, the product of (y - c) over the orbit, whose
    coefficients are prime-field constants, so one walk over K_d finds every
    P with a root.  Cached per (p, d): K_d is interned and built once.
    """
    key = (p, d)
    got = _ORBIT_ROOTS.get(key)
    if got is not None:
        return got
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
    got = _ORBIT_ROOTS[key] = (K, roots)
    return got


def _root(P: Poly, by_orbit: bool) -> tuple[FiniteField, int]:
    """A field K of order p^d and the index of a root of P in it, for a
    prime P of degree d over a prime field.  by_orbit takes K_d and the root
    from _orbit_roots; otherwise K is F_p[T]/(P), where the class of T is a
    root, or the base field, where -c_0 is the root of T + c_0.  P is not
    tested here: every caller has a prime already."""
    base = P.field
    if base.m != 1:
        raise ValueError("reduction is implemented over prime base fields only")
    if by_orbit:
        K, roots = _orbit_roots(base.p, P.degree)
        return K, roots[P.coeffs]
    if P.degree == 1:
        return base, base.neg(P.coeffs[0])
    return _rebuild_field(base.p, P.coeffs), base.p


def _evaluate(f: YPoly, K: FiniteField, alpha: int) -> Poly:
    """The image of f under T -> alpha, by Horner on indices of K.  For a
    root alpha of the prime P, T -> alpha is an isomorphism from
    F_p[T]/(P) onto K, so the image is f mod P up to that isomorphism.

    A run of k zero coefficients costs one product, by alpha^(k+1), so a
    sparse coefficient costs a product per term, not per degree."""
    add, mul, power = K.add, K.mul, K.pow
    out = []
    for c in f.coeffs:
        acc, k = 0, 1  # k: the products by alpha owed, one more than the zeros passed
        for a in reversed(c.coeffs):
            if a:
                acc, k = add(mul(acc, alpha if k == 1 else power(alpha, k)), a) if acc else a, 1
            else:
                k += 1
        out.append(mul(acc, power(alpha, k - 1)) if acc and k > 1 else acc)
    return _mk(K, out)


def _classify(f: YPoly, r: Poly) -> SideResult:
    """Bad reason or split type of f at a prime, from its image r there."""
    if f.is_zero:
        raise ValueError("cannot take the splitting type of the zero polynomial")
    if r.degree < f.degree:
        return SideResult("leading_coeff_vanishes", None)
    if r.degree < 1:
        raise ValueError("cannot take the splitting type of a constant polynomial")
    K, cs, dr = r.field, list(r.coeffs), list(r.derivative().coeffs)
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
    return _evaluate(f, *_root(P, False))


def split_type(f: YPoly, P: Poly) -> SideResult:
    """Classify one side at one prime: Bad reason or sorted degree multiset."""
    _check_prime(f, P)
    return _classify(f, _evaluate(f, *_root(P, False)))


def _orbits_pay(p: int, d: int, count: int) -> bool:
    """Whether count primes of degree d over F_p cost less through
    _orbit_roots than through a residue field each.  Only a field with
    tables qualifies, for a cheap Frobenius.  Building K_d and walking its
    orbits, about d/2 multiply-adds per element, costs as much as 2 (5^4) to
    11 (2^16) residue-field builds of order p^d, roughly 1 + d/2 of them,
    and each prime's reduction is cheaper on the orbit route."""
    return p**d <= TABLE_LIMIT and 2 * count >= d + 2


def _verdict_at(f: YPoly, g: YPoly, P: Poly, by_orbit: bool) -> PrimeVerdict:
    """The verdict at P, from f and g evaluated at the root _root gives."""
    K, alpha = _root(P, by_orbit)
    rf = _classify(f, _evaluate(f, K, alpha))
    rg = _classify(g, _evaluate(g, K, alpha))
    reason = None  # a degree drop on either side outranks a repeated factor
    for why in ("leading_coeff_vanishes", "repeated_factor"):
        for side, r in (("f", rf), ("g", rg)):
            if reason is None and r.bad_reason == why:
                reason = f"{why}_{side}"
    return PrimeVerdict(P, rf.split, rg.split, reason)


def _mobius(n: int) -> int:
    out = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    if n > 1:
        out = -out
    return out


def irreducible_count(q: int, d: int) -> int:
    """Number of monic irreducibles of degree d over F_q."""
    total = 0
    for e in range(1, d + 1):
        if d % e == 0:
            total += _mobius(e) * q ** (d // e)
    return total // d


# Most primes one comparison takes.  Once the root map of its degree is
# built, a prime whose field has tables takes 2.5 ms (3^10) to 4.4 ms (2^16),
# under a minute for all of them.  A sampled prime of a degree above the
# tables takes about 150 ms over F_3 (3^11 to 3^13), about 25 minutes in all.
PRIME_COUNT_LIMIT = 10_000

def _select_primes(field: FiniteField, selection: PrimeSelection, seed: int) -> list[Poly]:
    if isinstance(selection, Exhaustive):
        if selection.max_degree < 1:
            raise ValueError("empty prime selection")
        total = sum(irreducible_count(field.q, d) for d in range(1, selection.max_degree + 1))
        if total > PRIME_COUNT_LIMIT:
            raise ValueError(
                f"{total} primes have degree <= {selection.max_degree} over GF({field.q}), "
                f"more than the limit of {PRIME_COUNT_LIMIT} for one comparison"
            )
        out = []
        for d in range(1, selection.max_degree + 1):
            out.extend(monic_irreducibles(field, d))
        return out
    if isinstance(selection, Sampled):
        if selection.count < 1:
            raise ValueError("empty prime selection")
        if selection.degree < 1:
            raise ValueError("prime degree must be positive")
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
        rng = random.Random(seed if selection.seed is None else selection.seed)
        known = None  # on the orbit route, the root map decides irreducibility
        if field.m == 1 and _orbits_pay(field.p, selection.degree, selection.count):
            known = _orbit_roots(field.p, selection.degree)[1]
        draws = _random_irreducibles(field, selection.degree, rng, known)
        return [next(draws) for _ in range(selection.count)]
    raise TypeError(f"unknown prime selection {selection!r}")


_WORK: dict = {}


def _init_worker(f, g, by_orbit):
    _WORK["args"] = (f, g, by_orbit)


def _run_worker(P):
    f, g, by_orbit = _WORK["args"]
    return _verdict_at(f, g, P, P.degree in by_orbit)


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
    primes = _select_primes(f.field, selection, seed)
    if not primes:
        raise ValueError("empty prime selection")
    # the degrees whose primes share one field and one root map
    counts = Counter(P.degree for P in primes)
    by_orbit = frozenset(d for d, n in counts.items() if _orbits_pay(f.field.p, d, n))
    workers = min(jobs, len(primes), os.cpu_count() or 1)
    if workers > 1:
        # imported here: it loads multiprocessing, which one worker never needs
        from concurrent.futures import ProcessPoolExecutor

        # each worker builds the root map of a degree once, when it first needs it
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(f, g, by_orbit)
        ) as pool:
            verdicts = tuple(pool.map(_run_worker, primes))
    else:
        verdicts = tuple(_verdict_at(f, g, P, P.degree in by_orbit) for P in primes)
    return EquivalenceReport(verdicts)
