import random
import re

import pytest

from ffequiv import poly
from ffequiv.fields import extension_field, prime_field
from ffequiv.poly import (
    Factorization,
    Poly,
    factor,
    is_irreducible,
    monic_irreducibles,
    _ddf,
    _pth_root,
    poly_gcd,
    pow_mod,
    random_irreducible,
)

F2 = prime_field(2)
F3 = prime_field(3)
F4 = extension_field(2, degree=2)
F9 = extension_field(3, degree=2)
F243 = extension_field(3, degree=5)
F8 = extension_field(2, degree=3)
F256 = extension_field(2, degree=8)
F1024 = extension_field(2, degree=10)
F2_17 = extension_field(2, degree=17)  # too large for tables: vector kernels
F25 = extension_field(5, degree=2)
F49 = extension_field(7, degree=2)
F125 = extension_field(5, degree=3)
F3_7 = extension_field(3, degree=7)  # Zech tables; seven p-th power steps per Frobenius step
F3_11 = extension_field(3, degree=11)  # vector kernels; the DDF switches to q-linear rows
F10007 = prime_field(10007)  # p > 2n: the p-th power rows are products with y^p


def P(field, *ints):
    """Polynomial from integer coefficients, low degree first."""
    return Poly.from_ints(field, ints)


def _digits(packed, q, d):
    """The d base-q digits of packed, least significant first."""
    return [packed // q**i % q for i in range(d)]


def test_ring_ops_examples():
    # (T+1)(T+2) = T^2 + 2 over F_3
    assert P(F3, 1, 1) * P(F3, 2, 1) == P(F3, 2, 0, 1)
    # characteristic 2 doubling
    assert P(F2, 1, 1, 1) + P(F2, 1, 1, 1) == Poly.zero(F2)
    # long division oracle: T^3 = (T+1)(T^2+2T+1) + 2
    q, r = divmod(P(F3, 0, 0, 0, 1), P(F3, 1, 1))
    assert q == P(F3, 1, 2, 1)
    assert r == P(F3, 2)
    # a FieldElement factor scales, if it lies in the same field
    assert P(F3, 1, 1) * F3(2) == P(F3, 2, 2)
    with pytest.raises(ValueError, match="different field"):
        _ = P(F3, 1, 1) * F2.one


def test_degree_sentinel_and_basics():
    assert Poly.zero(F3).degree == -1
    assert Poly.one(F3).degree == 0
    assert Poly.x(F3).degree == 1
    assert not Poly.zero(F3)
    assert P(F3, 0, 0, 0).is_zero
    assert P(F3, 2, 1).leading == F3(1)
    with pytest.raises(ValueError):
        _ = Poly.zero(F3).leading
    with pytest.raises(ValueError, match="zero polynomial"):
        Poly.zero(F3).monic()
    with pytest.raises(ZeroDivisionError):
        divmod(Poly.x(F3), Poly.zero(F3))
    with pytest.raises(ValueError):
        _ = Poly.x(F3) + Poly.x(F2)


def test_constructor_rejects_non_index_coefficients():
    for field in (prime_field(5), F9):
        for bad in (1.5, "1", None):
            with pytest.raises(ValueError, match="neither a FieldElement nor an index"):
                Poly(field, [bad, 2])
        with pytest.raises(ValueError, match="different field"):
            Poly(field, [F2.one, 2])
        for bad in (field.q, -1):
            with pytest.raises(ValueError, match="out of range"):
                Poly(field, [bad, 2])


def test_divmod_round_trip_random():
    rng = random.Random(7)
    for field in (F2, F3, F4, F9):
        for _ in range(60):
            a = Poly(field, [rng.randrange(field.q) for _ in range(rng.randrange(1, 10))])
            b = Poly(field, [rng.randrange(field.q) for _ in range(rng.randrange(1, 6))])
            if b.is_zero:
                continue
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.degree < b.degree


@pytest.mark.parametrize("field", [F2, F4, F8, F256, F3], ids=repr)
def test_divmod_kernel_checked_by_products(field):
    # characteristic 2 up to order 256 divides one byte a coefficient; F_3
    # keeps the generic loop.  Products and sums run on addmul, never on
    # divmod, so a == quot * b + rem checks the kernel independently.
    packed = field.p == 2 and field.q <= 256
    assert ("_packed_divrem" in field.divrem.__qualname__) == packed
    rng = random.Random(field.q)
    q = field.q

    def rand(deg, monic=False):
        lead = 1 if monic else rng.randrange(1, q)
        return Poly(field, [rng.randrange(q) for _ in range(deg)] + [lead])

    cases = []
    for _ in range(150):
        b = rand(rng.randrange(0, 25), monic=rng.random() < 0.3)  # degree 0 included
        cases.append((rand(rng.randrange(0, 60)), b))
    b, c = rand(7), rand(12)
    cases += [
        (rand(3), b),  # dividend shorter than the divisor
        (Poly.zero(field), b),
        (c * b, b),  # zero remainder
        (rand(30), rand(0)),  # a unit divisor
        (b, b),
    ]
    for a, d in cases:
        quot, rem = divmod(a, d)
        assert quot * d + rem == a
        assert rem.degree < d.degree
        assert (a // d, a % d) == (quot, rem)
    assert divmod(c * b, b) == (c, Poly.zero(field))


def test_big_multiply_matches_convolution():
    # the packed-integer product path must agree with a direct convolution
    rng = random.Random(11)
    for field in (F2, F3, prime_field(5)):
        p = field.p
        ai = [rng.randrange(p) for _ in range(150)]
        bi = [rng.randrange(p) for _ in range(130)]
        prod = Poly.from_ints(field, ai) * Poly.from_ints(field, bi)
        n = len(ai) + len(bi) - 1
        ref = [0] * n
        for i, a in enumerate(ai):
            for j, b in enumerate(bi):
                ref[i + j] = (ref[i + j] + a * b) % p
        assert prod == Poly.from_ints(field, ref)


def test_product_loops_over_sparser_factor(monkeypatch):
    # one addmul per nonzero coefficient of the sparser factor, in either order
    calls = []
    addmul = F2.addmul

    def counting(*args):
        calls.append(args)
        return addmul(*args)

    monkeypatch.setattr(F2, "addmul", counting)
    dense = Poly.from_ints(F2, [1] * 50)
    x1000 = Poly.from_ints(F2, [0] * 1000 + [1])
    want = Poly.from_ints(F2, [0] * 1000 + [1] * 50)
    assert dense * x1000 == want
    assert len(calls) == 1
    assert x1000 * dense == want
    assert len(calls) == 2


def test_evaluate_and_derivative():
    f = P(F3, 2, 0, 1)  # T^2 + 2
    assert f(F3(1)) == F3(0)
    assert f(F3(0)) == F3(2)
    with pytest.raises(ValueError, match="different field"):
        f(F2.one)
    # sparse coefficients with long zero runs, each run crossed by one power
    # of x, against a plain Horner loop: over a prime field, byte tables,
    # exp/log tables and the table-free kernels
    rng = random.Random(5)
    for field in (prime_field(7), F9, F1024, F3_11, F2_17):
        for _ in range(3):
            cs = [0] * 400
            for i in rng.sample(range(400), 4) + [0]:
                cs[i] = rng.randrange(1, field.q)
            g = Poly(field, cs)
            points = [field.from_index(rng.randrange(2, field.q)) for _ in range(2)]
            for x in [field.zero, field.one, *points]:
                want = field.zero
                for c in reversed(cs):
                    want = want * x + field.from_index(c)
                assert g(x) == want
    assert f.derivative() == P(F3, 0, 2)
    # derivative kills p-th powers, whose p-th roots the factorization takes
    assert P(F3, 1, 0, 0, 1).derivative() == Poly.zero(F3)
    assert _pth_root(F3, [1, 0, 0, 1]) == [1, 1]
    with pytest.raises(ValueError, match="not a p-th power"):
        _pth_root(F3, [1, 1, 0, 1])


def test_gcd_examples():
    # gcd(T^2 - 1, T - 1) over F_3, monic output
    assert poly_gcd(P(F3, 2, 0, 1), P(F3, 2, 1)) == P(F3, 2, 1)
    a = P(F3, 2, 1, 2)
    assert poly_gcd(a, a) == a.monic()
    assert poly_gcd(a, Poly.zero(F3)) == a.monic()
    with pytest.raises(ValueError):
        poly_gcd(Poly.zero(F3), Poly.zero(F3))
    # f = y^8 + 2y^2 + 2 over F_3 is separable
    f = P(F3, 2, 0, 2, 0, 0, 0, 0, 0, 1)
    assert poly_gcd(f, f.derivative()).is_one


def test_is_irreducible_examples():
    assert is_irreducible(P(F3, 2, 0, 2, 0, 0, 0, 0, 0, 1))  # y^8 + 2y^2 + 2
    assert is_irreducible(P(F3, 1, 0, 1))                    # T^2 + 1
    assert not is_irreducible(P(F3, 1, 2, 1))                # (T+1)^2
    assert is_irreducible(P(F2, 1, 1, 1))
    assert not is_irreducible(P(F2, 1, 0, 1))                # (T+1)^2
    with pytest.raises(ValueError):
        is_irreducible(Poly.one(F3))
    # the test against the sieve on every monic polynomial of degree 8 over
    # F_2, 6 over F_3 and 5 over F_4: both the pow_mod and the matrix
    # Frobenius steps run, and over F_4 a step is two p-th power steps
    for field, d in ((F2, 8), (F3, 6), (F4, 5)):
        irreducibles = set(monic_irreducibles(field, d))
        for packed in range(field.q**d):
            f = Poly(field, _digits(packed, field.q, d) + [1])
            assert is_irreducible(f) == (f in irreducibles), f


def test_factor_small_examples():
    fac = factor(P(F3, 2, 0, 2, 0, 0, 0, 0, 0, 1), seed=1)
    assert len(fac.factors) == 1
    assert fac.factors[0][1] == 1
    assert fac.factors[0][0].degree == 8
    fac = factor(P(F2, 0, 0, 1), seed=1)  # y^2 = y * y
    assert fac.factors == ((Poly.x(F2), 2),)
    # unit handling: 2*(T+1)^2 over F_3
    f = P(F3, 1, 1) * P(F3, 1, 1) * P(F3, 2)
    fac = factor(f, seed=3)
    assert fac.unit == F3(2)
    assert fac.factors == ((P(F3, 1, 1), 2),)
    with pytest.raises(ValueError):
        factor(P(F3, 2))


def _oracle_factor(f):
    """Independent trial-division factorization for cross-checking."""
    unit = f.leading
    rem = f.monic()
    out = []
    d = 1
    while rem.degree > 0 and 2 * d <= rem.degree:
        for p_ in monic_irreducibles(rem.field, d):
            e = 0
            while rem.degree >= d and (rem % p_).is_zero:
                rem = rem // p_
                e += 1
            if e:
                out.append((p_, e))
        d += 1
    if rem.degree > 0:
        out.append((rem, 1))
    return unit, out


def test_factor_agrees_with_trial_division_exhaustively():
    # every monic polynomial of degree <= 5 over F_2 and F_3
    for field in (F2, F3):
        q = field.q
        for deg in range(1, 6):
            for packed in range(q**deg):
                idxs = []
                t = packed
                for _ in range(deg):
                    idxs.append(t % q)
                    t //= q
                f = Poly(field, idxs + [1])
                unit, pairs = _oracle_factor(f)
                fac = factor(f, seed=packed)
                assert fac.unit == unit
                assert set(fac.factors) == set(pairs), f"mismatch for {f!r}"


def test_factor_reassembly_random():
    rng = random.Random(20260822)
    for field in (F2, F3, F4, F8, F9):
        for trial in range(500):
            deg = rng.randrange(1, 13)
            idxs = [rng.randrange(field.q) for _ in range(deg)] + [rng.randrange(1, field.q)]
            f = Poly(field, idxs)
            fac = factor(f, seed=trial)
            assert fac.expand() == f
            assert sum(p_.degree * e for p_, e in fac.factors) == f.degree
            for p_, _ in fac.factors:
                assert p_.is_monic
                assert is_irreducible(p_)
            # canonical ordering: sorted by degree then coefficients from the top
            keys = [(p_.degree, tuple(c for c in reversed(p_.coeffs))) for p_, _ in fac.factors]
            assert keys == sorted(keys)
            assert len(set(p_ for p_, _ in fac.factors)) == len(fac.factors)


def test_factor_refuses_work_that_cannot_finish(monkeypatch):
    # refused before the squarefree split; the weight of each kernel tier
    # shows in the message
    def refuse(*args):
        raise AssertionError("factorization started")

    monkeypatch.setattr(poly, "_squarefree_parts", refuse)
    for field, n, name, work in ((F2, 1626, "GF(2)", "1626^3 * 1 * 1"),
                                 (F9, 323, "GF(3^2)", "323^3 * 4 * 32"),
                                 (F2_17, 126, "GF(2^17)", "126^3 * 17 * 128"),
                                 (F3_11, 37, "GF(3^11)", "37^3 * 22 * 4096")):
        with pytest.raises(ValueError, match=rf"over {re.escape(name)} .* = {re.escape(work)} = "):
            factor(Poly(field, [1] * n + [1]))
        with pytest.raises(AssertionError, match="factorization started"):
            factor(Poly(field, [1] * (n - 1) + [1]))
    assert poly.FACTOR_WORK_LIMIT == 1 << 32


def test_factor_deterministic_given_seed():
    rng = random.Random(4)
    f = Poly(F9, [rng.randrange(9) for _ in range(10)] + [1])
    assert factor(f, seed=123) == factor(f, seed=123)


def _necklace(q, d):
    def mobius(n):
        result, k = 1, 2
        while k * k <= n:
            if n % k == 0:
                n //= k
                if n % k == 0:
                    return 0
                result = -result
            k += 1
        if n > 1:
            result = -result
        return result

    total = 0
    e = 1
    while e <= d:
        if d % e == 0:
            total += mobius(e) * q ** (d // e)
        e += 1
    return total // d


def test_monic_irreducibles_small_listings():
    assert monic_irreducibles(F3, 1) == [P(F3, 0, 1), P(F3, 1, 1), P(F3, 2, 1)]
    quads = monic_irreducibles(F3, 2)
    assert len(quads) == 3
    assert P(F3, 1, 0, 1) in quads
    assert len(monic_irreducibles(F2, 4)) == 3
    with pytest.raises(ValueError):
        monic_irreducibles(F3, 0)


def test_monic_irreducibles_counts_match_necklace_formula():
    for field in (F2, F3, F4, F9):
        for d in range(1, 7):
            polys = monic_irreducibles(field, d)
            assert len(polys) == _necklace(field.q, d), (field.q, d)


def test_monic_irreducibles_are_irreducible_and_sorted():
    for field in (F2, F3, F9):
        for d in (1, 2, 3):
            polys = monic_irreducibles(field, d)
            keys = [tuple(c for c in reversed(p_.coeffs)) for p_ in polys]
            assert keys == sorted(keys)
            for p_ in polys:
                assert p_.is_monic and p_.degree == d
                assert is_irreducible(p_)


def test_monic_irreducibles_gf1024_degree_two():
    # GF(1024) = F_2[x]/(x^10 + x^3 + 1): sieved with the field's int
    # kernels, where q x q sum and product tables would hold 2 * 2^20 entries
    field = extension_field(2, modulus=[1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1])
    polys = monic_irreducibles(field, 2)
    assert len(polys) == _necklace(1024, 2) == 523776
    keys = [p_.coeffs[::-1] for p_ in polys]
    assert keys == sorted(set(keys))
    for p_ in random.Random(4).sample(polys, 20):
        assert p_.degree == 2 and is_irreducible(p_)


def test_random_irreducible():
    assert random_irreducible(F3, 1, seed=9) in monic_irreducibles(F3, 1)
    assert random_irreducible(F2, 2, seed=5) == P(F2, 1, 1, 1)
    assert random_irreducible(F9, 3, seed=1) == random_irreducible(F9, 3, seed=1)
    for s in range(5):
        assert is_irreducible(random_irreducible(F3, 4, seed=s))
    with pytest.raises(ValueError, match="degree must be positive"):
        random_irreducible(F3, 0)


def test_pow_mod():
    f = P(F3, 1, 0, 1)
    assert pow_mod(Poly.x(F3), 9, f) == Poly.x(F3) % f  # Frobenius fixes F_9
    assert pow_mod(Poly.x(F3), 0, f).is_one
    with pytest.raises(ValueError, match="negative exponent"):
        pow_mod(Poly.x(F3), -1, f)
    with pytest.raises(ValueError, match="negative exponent"):
        _ = Poly.x(F3) ** -1
    rng = random.Random(5)
    for field in (F2, F3, F9):
        for _ in range(2):
            m = Poly(field, [rng.randrange(field.q) for _ in range(4)] + [rng.randrange(1, field.q)])
            b = Poly(field, [rng.randrange(field.q) for _ in range(3)])
            for e in range(41):
                assert pow_mod(b, e, m) == (b**e) % m, (field, e)


def _pow_mod_reference(base, e, mod):
    """Right-to-left square-and-multiply, as pow_mod was first written."""
    result = Poly.one(base.field)
    base = base % mod
    while e:
        if e & 1:
            result = result * base % mod
        base = base * base % mod
        e >>= 1
    return result


def _distinct_degree_reference(f):
    """Distinct-degree factorization with one square-and-multiply
    Frobenius step per degree, reduced mod the shrinking f; each product
    as its coefficient list, as ``_ddf`` gives it."""
    q = f.field.q
    x = Poly.x(f.field)
    out = []
    h = x % f
    d = 0
    while f.degree >= 2 * (d + 1):
        d += 1
        h = _pow_mod_reference(h, q, f)
        g = poly_gcd(h - x, f)
        if g.degree > 0:
            out.append((d, g))
            f = f // g
            h = h % f
    if f.degree > 0:
        out.append((f.degree, f))
    return [(d, list(g.coeffs)) for d, g in out]


def test_distinct_degree_matches_reference():
    rng = random.Random(3)
    for field, n, trials in ((F3, 8, 40), (F9, 8, 20), (F243, 8, 4), (F1024, 15, 2), (F2_17, 6, 2),
                             (F25, 8, 6), (F49, 8, 4), (F125, 8, 4), (F3_7, 8, 2), (F3_11, 8, 1),
                             (F10007, 8, 3)):
        done = 0
        while done < trials:
            f = Poly(field, [rng.randrange(field.q) for _ in range(n)] + [1])
            if not poly_gcd(f, f.derivative()).is_one:
                continue
            assert list(_ddf(field, list(f.coeffs))) == _distinct_degree_reference(f), f
            assert factor(f).expand() == f, f
            done += 1
    # shrinking moduli: products of irreducibles of mixed degrees
    for field, degs in ((F9, (1, 2, 12)), (F243, (2, 3, 6)), (F1024, (1, 1, 5, 8)),
                        (F3_7, (1, 2, 9)), (F10007, (1, 3, 4))):
        f = Poly.one(field)
        for s, d in enumerate(degs):
            f = f * random_irreducible(field, d, seed=s)
        assert list(_ddf(field, list(f.coeffs))) == _distinct_degree_reference(f), f


def _least_factor_degree(f, irreducibles):
    """The least degree of a monic irreducible dividing f, by trial division
    by the sieve's listings, cached in irreducibles by (field, degree)."""
    for d in range(1, f.degree // 2 + 1):
        key = (f.field, d)
        if key not in irreducibles:
            irreducibles[key] = monic_irreducibles(f.field, d)
        if any((f % g).is_zero for g in irreducibles[key]):
            return d
    return f.degree


def test_ddf_first_degree_is_least_factor_degree():
    # for any monic f, squarefree or not, the first degree _ddf yields is
    # the least degree of an irreducible factor, which is_irreducible reads
    rng = random.Random(5)
    irreducibles = {}
    cases = []
    for field, top, trials in ((F2, 10, 60), (F3, 10, 40), (F4, 10, 30), (F9, 10, 20), (F1024, 3, 10)):
        for _ in range(trials):
            n = rng.randint(1, top)
            cases.append(Poly(field, [rng.randrange(field.q) for _ in range(n)] + [1]))
    # squares and cubes: not squarefree, so the later pairs may be wrong
    for field, dg, dh in ((F2, 3, 2), (F3, 2, 3), (F4, 1, 3), (F9, 2, 1), (F1024, 1, 1)):
        g, h = random_irreducible(field, dg, seed=1), random_irreducible(field, dh, seed=2)
        cases += [g * g * h, g * g * g]
    for f in cases:
        d = next(_ddf(f.field, list(f.coeffs)))[0]
        assert d == _least_factor_degree(f, irreducibles), f
        assert is_irreducible(f) == (d == f.degree), f


def test_factorization_degrees():
    f = P(F3, 1, 1) * P(F3, 1, 1) * P(F3, 1, 0, 1)
    fac = factor(f, seed=0)
    assert fac.degrees() == [1, 1, 2]
    assert fac.max_multiplicity == 2
