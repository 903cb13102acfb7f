"""Algorithms on univariate polynomials over a finite field.

Covers gcd, modular exponentiation, irreducibility testing (Ben-Or),
complete factorization (squarefree / distinct-degree / equal-degree), and
enumeration of monic irreducibles.  Instantiated over F_q with the variable
read as T, the ring is A = F_q[T]; instantiated over a residue field with
variable y it is where reductions get factored.  The ring itself, ``Poly``
and the dense class that every polynomial ring here shares, lives in
:mod:`ffequiv._dense` with the list helpers its methods call, so parsing
and torsion never compile this module; the names used here are imported
from there and can be reached as ``poly.Poly``, ``poly._mul`` and so on.

Remainders, gcds, Frobenius powers and the whole factorization run on
coefficient lists (``_rem`` to ``_ddf``, then squarefree and equal-degree
splitting), which the Poly functions wrap: ``factor`` builds a Poly only
for each factor it returns.  :mod:`ffequiv.splitting` calls ``_gcd`` and
``_ddf`` directly, so ``split-check`` and ``factor`` share them.  Frobenius
is m = log_p q steps of the additive p-th power map (von zur Gathen &
Shoup, "Computing Frobenius maps and factoring polynomials", Comput.
Complexity 2, 1992).  Squarefree splitting is Musser's, and equal-degree
splitting takes traces of fixed candidates (Berlekamp, "Factoring
polynomials over large finite fields", Math. Comp. 24, 1970; von zur
Gathen & Gerhard, *Modern Computer Algebra*, ch. 14): ``factor`` draws no
random numbers.
"""

from __future__ import annotations

import itertools
import random
from array import array
from typing import Container, Generator, Iterator

from . import _Record
from ._dense import Poly, _derivative, _mk, _monic, _mul, _product, _trim
from .fields import PACKED_LIMIT, TABLE_LIMIT, FiniteField, _codec, _combine


def _rem(K: FiniteField, a: list[int], f: list[int]) -> list[int]:
    """a mod f, f nonzero."""
    if len(a) < len(f):
        return a
    return _trim(K.divrem(a, f)[1])


def _gcd(K: FiniteField, a: list[int], b: list[int]) -> list[int]:
    """The monic gcd of a and b, not both zero."""
    while b:
        a, b = b, _rem(K, a, b)
    return _monic(K, a)


def _minus_y(K: FiniteField, h: list[int], i: int) -> list[int]:
    out = h + [0] * (i + 1 - len(h))
    out[i] = K.sub(out[i], 1)
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


def _pth_power(K: FiniteField, h: list[int], f: list[int], pth: list | None, steps: int) -> list[int]:
    """h^(p^steps) mod f for a reduced h, by steps of the p-th power map: a
    squaring in characteristic 2 (pth None), else sum_i h_i^p * y^(p*i) on
    the rows pth of ``_pth_rows(K, f)``."""
    for _ in range(steps):
        if pth is None:
            h = _rem(K, _mul(K, h, h), f)
        else:
            h = h if K.m == 1 else [K.pow(c, K.p) for c in h]
            h = _trim(_combine(K.addmul, h, pth, len(f) - 1))
    return h


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
    p, m, addmul = K.p, K.m, K.addmul
    pth = None if p == 2 else _pth_rows(K, f)
    rows = pth if m == 1 else None
    cost = m if p == 2 else m / 2  # products mod f in one step
    h = yq = _pth_power(K, _rem(K, [0, 1], f), f, pth, m)
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
            h = _pth_power(K, h, f, pth, m)
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
        g = _gcd(K, f, _minus_y(K, powers.send(rest), 1))
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


def _trace(K: FiniteField, b: list[int], f: list[int], terms: int, steps: int, pth) -> list[int]:
    """sum_{i < terms} b^(e^i) mod f for a reduced b, e = p^steps, pth as in
    ``_pth_power``."""
    t, h = b + [0] * (len(f) - 1 - len(b)), b
    for _ in range(terms - 1):
        h = _pth_power(K, h, f, pth, steps)
        K.addmul(t, 1, h, 0)
    return _trim(t)


def _equal_degree(K: FiniteField, f: list[int], d: int, j=1, k=0, u=None) -> list[list[int]]:
    """Berlekamp's trace split of a monic squarefree product of degree-d
    irreducibles.  In R = F_q[y]/(f), a product of copies of F_{q^d}, the
    traces t to F_p of the F_p-basis x^k * y^j separate every two factors;
    they are tried in turn from (j, k), skipping j = 0 mod p (a p-th power
    of a trace before it) and a constant t.  t = Tr_{q/p}(x^k * u) for
    u = Tr_{q^d/q}(y^j), so a constant u skips every k.  gcd(f, t) splits f
    in characteristic 2; for odd p, gcd(f, (t + c)^((p-1)/2) - 1) does for
    some c < p, tried from 0 up: without GRH no bound below p on the tries
    is proven.  Both parts go on from (j, k), each with u mod itself."""
    if len(f) - 1 == d:
        return [f]
    p, m, mul = K.p, K.m, K.mul
    pth = _pth_rows(K, f) if p > 2 and m * d > 1 else None
    while True:
        u = _trace(K, _rem(K, [0] * j + [1], f), f, d, m, pth) if u is None else u
        t = _trace(K, [mul(c, p**k) for c in u], f, m, 1, pth) if len(u) > 1 else []
        if len(t) > 1:
            break
        k += 1
        if k == m or len(u) < 2:
            j, k, u = j + 1 + ((j + 1) % p == 0), 0, None
    if p == 2:
        g = _gcd(K, f, t)
    else:
        for c in range(p):
            v = _minus_y(K, _pow_mod(K, [K.add(t[0], c), *t[1:]], (p - 1) // 2, f), 0)
            if len(v) > 1 and len(g := _gcd(K, f, v)) > 1:
                break
    h = K.divrem(f, g)[0]
    return _equal_degree(K, g, d, j, k, _rem(K, u, g)) + _equal_degree(K, h, d, j, k, _rem(K, u, h))


def factor(f: Poly) -> Factorization:
    """Complete factorization: Musser's squarefree split, distinct-degree
    split and Berlekamp's trace split, none of them random."""
    if f.degree < 1:
        raise ValueError("cannot factor a constant polynomial")
    K = f.field
    check_factor(K.p, K.m, f.degree)
    found = [(_mk(K, h), mult)
             for mult, part in _squarefree_parts(K, _monic(K, list(f.coeffs)))
             for d, prod in _ddf(K, part)
             for h in _equal_degree(K, prod, d)]
    found.sort(key=lambda fe: (fe[0].degree, fe[0].coeffs[::-1]))
    return Factorization(f.leading, tuple(found))


# Most work one factor call takes: n^3 * b * w for degree n over F_q, with
# q <= 2^b, b = m * ceil(log2 p), and w a weight for the kernels of F_q
# (splitting two factors of degree n/2 takes about n/2 * log2 q products of
# degree n).  The slowest inputs timed at the limit (see the README) took
# 38 s over F_256, 17 s over F_9, 66-88 s over F_{2^20} and 6 s over
# F_{3^11}, but over 9 minutes over F_{2^256}: a carry-less product is O(m).
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
