import concurrent.futures
import gc
import json
import os
import pickle
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from ffequiv import fields, splitting
from ffequiv.cli import _read_pair_source, load_pair
from ffequiv.exprs import parse, render_residue_poly
from ffequiv.fields import TABLE_LIMIT, extension_field, is_prime, prime_field
from ffequiv.poly import (Poly, _mk, factor, is_irreducible, monic_irreducibles, poly_gcd,
                          random_irreducible)
from ffequiv.splitting import (
    Exhaustive,
    Sampled,
    SplitType,
    compare_split_types,
    irreducible_count,
    reduce_mod_prime,
    split_type,
)
from ffequiv.twisted import YPoly

F3 = prime_field(3)
F5 = prime_field(5)

F1_STR = "y^8 + T*y^2 + T"
G1_STR = (
    "y^8 + T^2*y^6 + (2*T^6 + T^4 + T^3)*y^5 + (2*T^5 + 2*T^3)*y^4"
    " + (2*T^9 + 2*T^6 + 2*T^5)*y^3"
    " + (T^16 + 2*T^13 + T^10 + 2*T^9 + T^8 + 2*T^6 + T^5)*y^2"
    " + (T^17 + 2*T^13 + T^10 + 2*T^9 + 2*T^8 + 2*T^7 + T^6)*y"
    " + T^21 + T^15 + T^14 + T^13 + 2*T^12 + T^11 + 2*T^10 + 2*T^9 + 2*T^7 + T^6"
)


def P(field, *ints):
    return Poly.from_ints(field, ints)


@pytest.fixture(scope="module")
def pair1():
    return parse(F1_STR, "y_poly", F3), parse(G1_STR, "y_poly", F3)


def test_reduce_degree_one(pair1):
    f, _ = pair1
    red = reduce_mod_prime(f, P(F3, 1, 1))
    assert red.field is F3
    assert red == Poly.from_ints(F3, [2, 0, 2, 0, 0, 0, 0, 0, 1])


def test_reduce_degree_one_g(pair1):
    _, g = pair1
    red = reduce_mod_prime(g, P(F3, 1, 1))
    assert red == Poly.from_ints(F3, [1, 0, 0, 1, 2, 2, 1, 0, 1])


def test_reduce_degree_two(pair1):
    f, _ = pair1
    red = reduce_mod_prime(f, P(F3, 1, 0, 1))
    f9 = extension_field(3, modulus=[1, 0, 1])
    assert red.field is f9
    t = f9.from_coeffs([0, 1])
    assert red.coeff(0) == t
    assert red.coeff(2) == t
    assert red.coeff(8) == f9.one
    assert red.degree == 8


def test_reduce_degree_drop():
    f = YPoly(F3, [Poly.zero(F3), Poly.one(F3), P(F3, 1, 1)])
    red = reduce_mod_prime(f, P(F3, 1, 1))
    assert red == Poly.from_ints(F3, [0, 1])


def test_reduce_validates_prime(pair1):
    f, _ = pair1
    with pytest.raises(ValueError, match="monic"):
        reduce_mod_prime(f, P(F3, 1, 2))
    with pytest.raises(ValueError, match="irreducible"):
        reduce_mod_prime(f, P(F3, 2, 0, 1))
    F4 = extension_field(2, degree=2)
    with pytest.raises(ValueError, match="prime base fields only"):
        reduce_mod_prime(parse("y^2 + T", "y_poly", F4), Poly.x(F4))


def test_split_type_goldens(pair1):
    f, g = pair1
    assert split_type(f, P(F3, 1, 1)).split == SplitType((8,))
    assert split_type(f, P(F3, 1, 0, 1)).split == SplitType((2, 6))
    assert split_type(g, P(F3, 1, 0, 1)).split == SplitType((2, 6))
    assert split_type(g, P(F3, 1, 1)).split == SplitType((8,))


def test_factor_lists_mod_quadratic(pair1):
    f, g = pair1
    Q = P(F3, 1, 0, 1)
    fac_f = factor(reduce_mod_prime(f, Q))
    assert [render_residue_poly(h) for h, _ in fac_f] == [
        "y^2 + T + 1",
        "y^6 + (2*T + 2)*y^4 + 2*T*y^2 + 2*T + 2",
    ]
    fac_g = factor(reduce_mod_prime(g, Q))
    assert [render_residue_poly(h) for h, _ in fac_g] == [
        "y^2 + (2*T + 1)*y + 2*T + 2",
        "y^6 + (T + 2)*y^5 + 2*T*y^4 + y^3 + (2*T + 2)*y + 2*T + 1",
    ]


def test_compare_pair1_small(pair1):
    f, g = pair1
    report = compare_split_types(f, g, Exhaustive(2))
    assert report.overall == "consistent"
    by_prime = {v.prime: v for v in report.verdicts}
    v1 = by_prime[P(F3, 1, 1)]
    assert (v1.type_f, v1.type_g, v1.status) == (SplitType((8,)), SplitType((8,)), "equal")
    v2 = by_prime[P(F3, 1, 0, 1)]
    assert (v2.type_f, v2.type_g, v2.status) == (
        SplitType((2, 6)),
        SplitType((2, 6)),
        "equal",
    )
    assert len(report.verdicts) == 6
    for v in report.verdicts:
        if not v.is_bad:
            assert sum(v.type_f.degrees) == 8
            assert sum(v.type_g.degrees) == 8


def test_self_comparison(pair1):
    f, _ = pair1
    report = compare_split_types(f, f, Exhaustive(3))
    assert report.overall == "consistent"
    assert report.unequal_count == 0
    assert any(v.is_bad for v in report.verdicts)
    for v in report.verdicts:
        if not v.is_bad:
            assert v.equal
        else:
            with pytest.raises(ValueError, match="no equality verdict"):
                _ = v.equal


def test_refuted_pair():
    f = parse("y^2 + 2*T", "y_poly", F3)
    g = parse("y^2 + 2*T + 2", "y_poly", F3)
    report = compare_split_types(f, g, Exhaustive(1))
    assert report.overall == "refuted"
    by_prime = {v.prime: v for v in report.verdicts}
    assert by_prime[P(F3, 0, 1)].status == "bad:repeated_factor_f"
    assert by_prime[P(F3, 1, 1)].status == "bad:repeated_factor_g"
    w = by_prime[P(F3, 2, 1)]
    assert w.status == "UNEQUAL"
    assert w.type_f == SplitType((1, 1))
    assert w.type_g == SplitType((2,))
    assert (report.good, report.equal_count, report.unequal_count, report.bad) == (1, 0, 1, 2)


def test_symmetry(pair1):
    f, g = pair1
    fg = compare_split_types(f, g, Exhaustive(2), seed=9)
    gf = compare_split_types(g, f, Exhaustive(2), seed=9)
    assert fg.overall == gf.overall
    for a, b in zip(fg.verdicts, gf.verdicts):
        assert a.prime == b.prime
        assert a.type_f == b.type_g and a.type_g == b.type_f
        if a.is_bad:
            assert b.is_bad
    f2 = parse("y^2 + 2*T", "y_poly", F3)
    g2 = parse("y^2 + 2*T + 2", "y_poly", F3)
    r = compare_split_types(g2, f2, Exhaustive(1))
    by_prime = {v.prime: v for v in r.verdicts}
    assert by_prime[P(F3, 0, 1)].status == "bad:repeated_factor_g"
    assert by_prime[P(F3, 1, 1)].status == "bad:repeated_factor_f"
    assert r.overall == "refuted"


def test_determinism_and_jobs(pair1):
    f, g = pair1
    a = compare_split_types(f, g, Exhaustive(2), seed=3)
    b = compare_split_types(f, g, Exhaustive(2), seed=3)
    assert a.render() == b.render()
    c = compare_split_types(f, g, Exhaustive(2), seed=3, jobs=2)
    assert c.render() == a.render()
    # a prime pickled back from a worker lies over f's field, not a copy
    assert all(v.prime.field is f.field for v in c.verdicts)


def test_render_format():
    f = parse("y^2 + 2*T", "y_poly", F3)
    g = parse("y^2 + 2*T + 2", "y_poly", F3)
    report = compare_split_types(f, g, Exhaustive(1))
    lines = report.render().split("\n")
    assert lines[0] == "T\t1\t-\t[1,1]\tbad:repeated_factor_f"
    assert lines[1] == "T + 1\t1\t[2]\t-\tbad:repeated_factor_g"
    assert lines[2] == "T + 2\t1\t[1,1]\t[2]\tUNEQUAL"
    assert lines[3] == "good=1 equal=0 unequal=1 bad=2 overall=refuted"


def test_bad_classification_consistency(pair1):
    # a side is Bad iff its reduction drops degree or is inseparable
    f, g = pair1
    report = compare_split_types(f, g, Exhaustive(2))
    for v in report.verdicts:
        for side, poly in (("f", f), ("g", g)):
            drop = (poly.leading % v.prime).is_zero
            if drop:
                expect_bad = True
            else:
                red = reduce_mod_prime(poly, v.prime)
                der = red.derivative()
                expect_bad = der.is_zero or poly_gcd(red, der).degree > 0
            r = split_type(poly, v.prime)
            assert r.is_bad == expect_bad


def _oracle_split(f: YPoly, P1: Poly):
    """Degree-1 oracle: evaluate coefficients at the root, trial-divide."""
    field = f.field
    root = -P1.coeff(0)
    red = Poly(field, [c(root) for c in f.coeffs])
    if red.degree < f.degree:
        return None
    degs = []
    rem = red.monic()
    d = 1
    while rem.degree > 0:
        hit = False
        for cand in _monic_of_degree(field, d):
            q, r = divmod(rem, cand)
            if r.is_zero and is_irreducible(cand):
                degs.append(d)
                rem = q
                hit = True
                break
        if not hit:
            d += 1
            assert d <= red.degree, "oracle stuck"
    return sorted(degs)


def _digits(n, q, d):
    out = []
    for _ in range(d):
        out.append(n % q)
        n //= q
    return out


def _monic_of_degree(field, d):
    return [
        Poly(field, [field.from_index(c) for c in _digits(n, field.q, d)] + [field.one])
        for n in range(field.q**d)
    ]


def test_degree_one_oracle(pair1):
    f, g = pair1
    rng = random.Random(1)
    polys = [f, g]
    for _ in range(6):
        cs = [
            Poly(F3, [rng.randrange(3) for _ in range(3)]) for _ in range(4)
        ]
        if all(c.is_zero for c in cs):
            continue
        polys.append(YPoly(F3, cs))
    for yp in polys:
        for a in range(3):
            P1 = Poly.from_ints(F3, [a, 1])
            oracle = _oracle_split(yp, P1)
            got = split_type(yp, P1)
            if oracle is None:
                assert got.bad_reason == "leading_coeff_vanishes"
                continue
            if got.is_bad:
                assert got.bad_reason == "repeated_factor"
                # oracle sees the same degrees ignoring multiplicity collapse
                red = reduce_mod_prime(yp, P1)
                assert poly_gcd(red, red.derivative()).degree > 0 or red.derivative().is_zero
            else:
                assert list(got.split.degrees) == oracle


def test_selection_errors(pair1):
    f, g = pair1
    with pytest.raises(ValueError, match="empty"):
        compare_split_types(f, g, Exhaustive(0))
    with pytest.raises(ValueError, match="only 3 exist"):
        compare_split_types(f, g, Sampled(100, 1))
    h = parse("y^2 + T", "y_poly", F5)
    with pytest.raises(ValueError, match="share a base field"):
        compare_split_types(f, h, Exhaustive(1))
    # F_3 built by the constructor is the F_3 that f lies over
    h = parse(G1_STR, "y_poly", fields.FiniteField(3, None))
    assert compare_split_types(f, h, Exhaustive(1)).verdicts
    with pytest.raises(ValueError, match="more than the limit"):
        compare_split_types(f, g, Sampled(splitting.PRIME_COUNT_LIMIT + 1, 12))
    with pytest.raises(TypeError, match="unknown prime selection"):
        compare_split_types(f, g, SplitType((1,)))
    # the orbit walk lists primes over F_p only, never over an extension
    F4 = extension_field(2, modulus=[1, 1, 1])
    f4 = parse("y^2 + T", "y_poly", F4)
    for selection in (Exhaustive(2), Sampled(3, 2)):
        with pytest.raises(ValueError, match="prime base fields only"):
            compare_split_types(f4, f4, selection)


INTERN_PROBE = """
import json
from ffequiv import fields, splitting
from ffequiv.cli import _read_pair_source, load_pair

pair = load_pair(_read_pair_source("gl2_f3_deg8"))
out = {}
for name, selection, seed in (("exhaustive", splitting.Exhaustive(5), 0),
                              ("sampled", splitting.Sampled(2, 7), 1)):
    before = set(fields._FIELD_CACHE)
    report = splitting.compare_split_types(pair.f, pair.g, selection, seed=seed)
    out[name] = {
        "primes": len(report.verdicts),
        "degrees": [len(mod) - 1 for p, mod in fields._FIELD_CACHE if (p, mod) not in before],
    }
print(json.dumps(out))
"""


def test_comparison_interns_no_residue_field():
    # In a fresh interpreter, so that no earlier test has interned a field:
    # the table of a degree goes with its comparison, and a per-prime
    # residue field goes when its prime is done.
    env = dict(os.environ, PYTHONPATH=str(Path(splitting.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", INTERN_PROBE], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    exhaustive = got["exhaustive"]
    assert exhaustive["primes"] == 80
    assert exhaustive["degrees"] == []
    assert got["sampled"] == {"primes": 2, "degrees": []}


@pytest.mark.parametrize("p", [2, 3])
def test_orbit_roots_cover_every_prime(p):
    base = prime_field(p)
    for d in range(1, 7):
        K, roots = splitting._orbit_roots(p, d)
        assert K.q == p**d
        assert len(roots) == irreducible_count(p, d)
        assert splitting._orbit_roots(p, d) == (K, roots)
        for key, alpha in roots.items():
            P = Poly(base, key)
            assert P.is_monic and P.degree == d
            assert is_irreducible(P)
            assert Poly(K, key)(K.from_index(alpha)).is_zero, (P, alpha)


def test_exhaustive_degrees_have_tables():
    # an Exhaustive selection walks the Frobenius orbits of every degree it
    # lists, which is cheap only in a field with tables
    for p in filter(is_prime, range(2, 10_000)):
        total, d = p, 1
        while True:
            d += 1
            total += irreducible_count(p, d)
            if total > splitting.PRIME_COUNT_LIMIT:
                break
            assert p**d <= TABLE_LIMIT, (p, d)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_exhaustive_listing_matches_sieve(p):
    # the orbit walk lists each degree in the order of monic_irreducibles
    base = prime_field(p)
    top = max(d for d in range(1, 13) if p**d <= 4096)
    primes, tables = splitting._select_primes(base, Exhaustive(top), 0)
    assert sorted(tables) == list(range(1, top + 1))
    assert primes == [P for d in range(1, top + 1) for P in monic_irreducibles(base, d)]


def test_fields_freed_with_their_results():
    # no module cache holds a field: once the results of a comparison or a
    # listing are dropped, every field built for them is freed by refcount
    base = prime_field(13)
    f, g = parse("y^2 + T", "y_poly", base), parse("y^2 + 2*T", "y_poly", base)

    def extensions():
        return [mod for p, mod in fields._FIELD_CACHE if p == 13 and mod is not None]

    gc.collect()
    gc.disable()
    try:
        for selection in (Exhaustive(2), Sampled(3, 3)):
            assert compare_split_types(f, g, selection).verdicts
            assert extensions() == [], selection
        K = extension_field(13, degree=2)
        ref = weakref.ref(K)
        assert len(monic_irreducibles(K, 2)) == irreducible_count(169, 2)
        del K
        assert ref() is None
    finally:
        gc.enable()


def test_orbit_route_only_where_it_pays():
    assert not splitting._orbits_pay(3, 10, 3)  # --samples 3 --degree 10
    assert splitting._orbits_pay(3, 10, 40)
    assert splitting._orbits_pay(3, 5, irreducible_count(3, 5))
    assert not splitting._orbits_pay(3, 11, 10_000)  # above the tables
    assert not splitting._orbits_pay(2, 17, 10_000)


@pytest.mark.parametrize("name", ["gl2_f3_deg8", "gl2_f4_deg15"])
def test_orbit_route_agrees_with_residue_fields(name):
    # evaluation at a root in the field of P's degree and at the class of T
    # in F_p[T]/(P), against each coefficient reduced mod P in that field
    pair = load_pair(_read_pair_source(name))
    base = pair.field
    tables = {d: splitting._orbit_roots(base.p, d) for d in range(1, 6)}
    for d in range(1, 6):
        for prime in monic_irreducibles(base, d):
            res = base if d == 1 else extension_field(base.p, modulus=prime.coeffs)
            want = []
            for h in (pair.f, pair.g):
                red = _mk(res, [res.pack((c % prime).coeffs) for c in h.coeffs])
                assert reduce_mod_prime(h, prime) == red, prime
                want.append(splitting._classify(h, red))
            by_orbit = splitting._verdict_at(pair.f, pair.g, prime, tables[d])
            per_prime = splitting._verdict_at(pair.f, pair.g, prime, None)
            assert by_orbit == per_prime, prime
            assert (by_orbit.type_f, by_orbit.type_g) == (want[0].split, want[1].split)
            assert by_orbit.is_bad == (want[0].is_bad or want[1].is_bad), prime


def test_records_are_frozen_values():
    v = splitting.PrimeVerdict(P(F3, 1, 1), SplitType((6, 2)), SplitType([2, 6]), None)
    assert v.type_f.degrees == (2, 6) and v.bad_reason is None
    assert v == splitting.PrimeVerdict(prime=P(F3, 1, 1), type_g=SplitType((6, 2)),
                                       type_f=SplitType((2, 6)), bad_reason=None)
    assert hash(v) == hash(splitting.PrimeVerdict(P(F3, 1, 1), v.type_f, v.type_g, None))
    assert v != splitting.PrimeVerdict(P(F3, 1, 1), v.type_f, v.type_g, "repeated_factor_f")
    assert SplitType((1,)) != splitting.Exhaustive((1,))  # same values, other class
    assert pickle.loads(pickle.dumps(v)) == v
    assert repr(Sampled(3, 4)) == "Sampled(count=3, degree=4)"
    with pytest.raises(AttributeError):
        v.bad_reason = "x"
    with pytest.raises(AttributeError):
        del v.prime
    with pytest.raises(TypeError):
        Sampled(3)
    with pytest.raises(TypeError):
        splitting.PrimeVerdict(P(F3, 1, 1), v.type_f, v.type_g)  # every field is given
    with pytest.raises(TypeError):
        Sampled(3, 4, count=3)
    with pytest.raises(TypeError):
        Sampled(3, 4, seed=1)  # the draw is seeded by compare_split_types alone
    with pytest.raises(TypeError):
        Exhaustive(1, 2)


def test_evaluate_skips_zero_runs(monkeypatch):
    # Above the tables in odd characteristic every kernel mul is a digit-
    # vector product.  Horner crosses the 6560 zeros of T^6561 + 1 with one
    # product by alpha^6561 (K.pow), and a dense coefficient costs one mul a
    # step; each image must equal the coefficient reduced mod P.
    calls = []
    build = fields._kernels

    def counting(field):
        kernels = build(field)
        mul = kernels["mul"]

        def counted(a, b):
            calls.append((a, b))
            return mul(a, b)

        kernels["mul"] = counted
        return kernels

    prime = random_irreducible(F3, 11, seed=0)
    monkeypatch.setattr(fields, "_kernels", counting)
    sparse = Poly.from_ints(F3, [1] + [0] * 6560 + [1])
    mixed = Poly.from_ints(F3, [2] + [0] * 99 + [1] + [0] * 6460 + [1])
    dense = Poly.from_ints(F3, [1, 2, 0, 1, 1])
    f = YPoly(F3, [sparse, mixed, dense, Poly.one(F3)])
    red = reduce_mod_prime(f, prime)
    K = red.field
    assert K.q == 3**11 and K.q > fields.TABLE_LIMIT
    assert red.coeffs == tuple(K.pack((c % prime).coeffs) for c in f.coeffs)
    # one mul for sparse, two for mixed, three for dense (its top term needs none)
    assert len(calls) == 6


def test_reductions_keep_no_residue_field(pair1):
    # a residue field stays interned only while something holds it
    f, _ = pair1
    start = len(fields._FIELD_CACHE)
    for prime in monic_irreducibles(F3, 6)[:25] + monic_irreducibles(F3, 7)[:25]:
        split_type(f, prime)
        reduce_mod_prime(f, prime)
    assert len(fields._FIELD_CACHE) == start


def test_sampled_selection(pair1):
    f, g = pair1
    r1 = compare_split_types(f, g, Sampled(4, 3), seed=7)
    r2 = compare_split_types(f, g, Sampled(4, 3), seed=7)
    assert r1.render() == r2.render()
    assert len(r1.verdicts) == 4
    assert len({v.prime for v in r1.verdicts}) == 4
    for v in r1.verdicts:
        assert v.prime.degree == 3
        assert is_irreducible(v.prime)
    # another seed draws other primes
    r3 = compare_split_types(f, g, Sampled(4, 3), seed=8)
    assert {v.prime for v in r3.verdicts} != {v.prime for v in r1.verdicts}


def test_irreducible_count_matches_listing():
    for q, build in ((2, prime_field(2)), (3, F3), (4, extension_field(2, degree=2))):
        for d in range(1, 5):
            assert irreducible_count(q, d) == len(monic_irreducibles(build, d))


def test_irreducible_count_satisfies_gauss_identity():
    # x^(q^d) - x is the product of the monic irreducibles of degree e | d:
    # the sum over e | d of e * N(q, e) is q^d, squareful d included
    for q in (2, 3, 4, 5, 7, 9):
        for d in range(1, 41):
            assert sum(e * irreducible_count(q, e) for e in range(1, d + 1) if d % e == 0) == q**d


@pytest.mark.parametrize("name", ["gl2_f3_deg8", "gl2_f4_deg15"])
def test_split_type_agrees_with_full_factorization(name):
    # split types come from squarefree test + DDF; factor also runs EDF
    pair = load_pair(_read_pair_source(name))
    for d in range(1, 4):
        for prime in monic_irreducibles(pair.field, d):
            for h in (pair.f, pair.g):
                got = split_type(h, prime)
                red = reduce_mod_prime(h, prime)
                if red.degree < h.degree:
                    assert got.bad_reason == "leading_coeff_vanishes"
                    continue
                fac = factor(red)
                if fac.max_multiplicity > 1:
                    assert got.bad_reason == "repeated_factor"
                else:
                    assert not got.is_bad
                    assert list(got.split.degrees) == fac.degrees()


def test_prime_validated_only_at_public_entry_points(pair1, monkeypatch):
    f, g = pair1
    calls = []

    def counting(P):
        calls.append(P)
        return is_irreducible(P)

    monkeypatch.setattr(splitting, "is_irreducible", counting)
    report = compare_split_types(f, g, Exhaustive(3))
    assert len(report.verdicts) == 14
    assert calls == []
    with pytest.raises(ValueError, match="irreducible"):
        split_type(f, P(F3, 2, 0, 1))
    assert len(calls) == 1
    with pytest.raises(ValueError, match="irreducible"):
        reduce_mod_prime(f, P(F3, 2, 0, 1))
    assert len(calls) == 2


def test_split_type_input_errors(pair1):
    f, _ = pair1
    with pytest.raises(ValueError, match="zero polynomial"):
        split_type(YPoly(F3, []), P(F3, 1, 1))
    with pytest.raises(ValueError, match="constant"):
        split_type(YPoly(F3, [P(F3, 1, 1)]), P(F3, 0, 1))
    with pytest.raises(ValueError, match="monic"):
        split_type(f, P(F3, 1, 2))
    with pytest.raises(ValueError, match="irreducible"):
        split_type(f, P(F3, 2, 0, 1))
    with pytest.raises(ValueError, match="same base field"):
        split_type(f, P(F5, 1, 1))


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs in-process."""

    created: list = []

    def __init__(self, max_workers, initializer, initargs):
        self.created.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize(
    "jobs, cpus, workers",
    [(8, 2, 2), (8, 64, 6), (3, 64, 3), (8, 1, None), (8, None, None), (1, 64, None)],
)
def test_jobs_capped_by_primes_and_cpus(pair1, monkeypatch, jobs, cpus, workers):
    f, g = pair1
    monkeypatch.setattr(_RecordingPool, "created", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(splitting.os, "cpu_count", lambda: cpus)
    report = compare_split_types(f, g, Exhaustive(2), jobs=jobs)  # 6 primes
    assert _RecordingPool.created == ([] if workers is None else [workers])
    assert report.render() == compare_split_types(f, g, Exhaustive(2)).render()
