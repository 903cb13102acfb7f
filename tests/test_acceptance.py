"""Acceptance gate: every release criterion, each reporting one line.

Each test records a criterion verdict into RESULTS; the conftest summary
hook replays them after the run so the lines survive output capture.
Timing bounds are part of the criteria and are asserted, not advisory.
"""

import functools
import random
import time

from ffequiv.cli import _read_pair_source, load_pair
from ffequiv.cli import main as cli_main
from ffequiv.exprs import parse, render_residue_poly, render_twisted, render_ypoly
from ffequiv.fields import extension_field, prime_field
from ffequiv.gassmann import (
    build_gl,
    example1_subgroups,
    permutation_character_fixpoints,
    stabilizer_pair,
    verify_gassmann,
)
from ffequiv.poly import Poly, factor, monic_irreducibles
from ffequiv.splitting import Exhaustive, compare_split_types, reduce_mod_prime
from ffequiv.twisted import (
    DrinfeldModule,
    TwistedPoly,
    carlitz,
    rho_eval,
    torsion_polynomial,
)

RESULTS: list[tuple[str, bool, str]] = []


def criterion(name):
    """Record exactly one pass/fail entry for the wrapped test."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except AssertionError as e:
                RESULTS.append((name, False, str(e).splitlines()[0] if str(e) else ""))
                raise
            except Exception as e:
                RESULTS.append((name, False, f"error: {e}"))
                raise
            RESULTS.append((name, True, detail or ""))

        return wrapper

    return deco


def best_ms(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1000.0


_TRIPLES = {}


def triple(key):
    if key not in _TRIPLES:
        if key == "gl2_f3_example1":
            H, Hp = example1_subgroups(prime_field(3))
            G = H.parent
        elif key == "gl2_f4":
            G = build_gl(2, extension_field(2, degree=2))
            H, Hp = stabilizer_pair(G)
        elif key == "gl3_f2":
            G = build_gl(3, prime_field(2))
            H, Hp = stabilizer_pair(G)
        elif key == "gl2_f2":
            G = build_gl(2, prime_field(2))
            H, Hp = stabilizer_pair(G)
        else:
            raise KeyError(key)
        _TRIPLES[key] = (G, H, Hp)
    return _TRIPLES[key]


@criterion("1")
def test_criterion_1_carlitz_operator():
    field = prime_field(3)
    rho = carlitz(field)
    a = parse("T^2 + 1", "t_poly", field)
    out = render_twisted(rho_eval(rho, a))
    assert out == "tau^2 + (T^3 + T)*tau + T^2 + 1", f"got {out!r}"
    ms = best_ms(lambda: render_twisted(rho_eval(rho, a)))
    assert ms < 1.0, f"{ms:.3f} ms >= 1 ms"
    return f"exact render; {ms:.3f} ms < 1 ms"


@criterion("2")
def test_criterion_2_torsion_deg8():
    field = prime_field(3)
    rho = DrinfeldModule(parse("tau^2 + T*tau + T", "twisted", field))
    a = parse("T", "t_poly", field)
    out = render_ypoly(torsion_polynomial(rho, a, strip_trivial_root=True))
    assert out == "y^8 + T*y^2 + T", f"got {out!r}"
    ms = best_ms(
        lambda: render_ypoly(torsion_polynomial(rho, a, strip_trivial_root=True))
    )
    assert ms < 1.0, f"{ms:.3f} ms >= 1 ms"
    return f"byte-exact; {ms:.3f} ms < 1 ms"


@criterion("3")
def test_criterion_3_torsion_deg15():
    field = prime_field(2)
    rho = DrinfeldModule(parse("tau^2 + tau + T", "twisted", field))
    a = parse("T^2 + T + 1", "t_poly", field)
    out = render_ypoly(torsion_polynomial(rho, a, strip_trivial_root=True))
    assert out == "y^15 + (T^4 + T)*y^3 + (T^2 + T + 1)*y + T^2 + T + 1", f"got {out!r}"
    ms = best_ms(
        lambda: render_ypoly(torsion_polynomial(rho, a, strip_trivial_root=True))
    )
    assert ms < 1.0, f"{ms:.3f} ms >= 1 ms"
    return f"exact; {ms:.3f} ms < 1 ms"


@criterion("4")
def test_criterion_4_factorization_goldens():
    pair = load_pair(_read_pair_source("gl2_f3_deg8"))
    field = pair.field
    p1 = parse("T + 1", "t_poly", field)
    p2 = parse("T^2 + 1", "t_poly", field)

    def factors(h, P):
        fac = factor(reduce_mod_prime(h, P))
        assert fac.max_multiplicity == 1, "unexpected repeated factor"
        return [render_residue_poly(q) for q, _ in fac.factors]

    t0 = time.perf_counter()
    got = (
        factors(pair.f, p1),
        factors(pair.g, p1),
        factors(pair.f, p2),
        factors(pair.g, p2),
    )
    dt = time.perf_counter() - t0
    assert got[0] == ["y^8 + 2*y^2 + 2"], got[0]
    assert got[1] == ["y^8 + y^6 + 2*y^5 + 2*y^4 + y^3 + 1"], got[1]
    assert got[2] == ["y^2 + T + 1", "y^6 + (2*T + 2)*y^4 + 2*T*y^2 + 2*T + 2"], got[2]
    assert got[3] == [
        "y^2 + (2*T + 1)*y + 2*T + 2",
        "y^6 + (T + 2)*y^5 + 2*T*y^4 + y^3 + (2*T + 2)*y + 2*T + 1",
    ], got[3]
    assert dt < 0.1, f"{dt * 1000:.1f} ms >= 100 ms"
    return f"4 coefficient-exact factorizations; {dt * 1000:.1f} ms < 100 ms"


@criterion("5")
def test_criterion_5_pair1_desk_scale():
    pair = load_pair(_read_pair_source("gl2_f3_deg8"))
    t0 = time.perf_counter()
    report = compare_split_types(pair.f, pair.g, Exhaustive(4), seed=0, jobs=1)
    dt = time.perf_counter() - t0
    assert len(report.verdicts) == 32, f"{len(report.verdicts)} primes"
    assert report.unequal_count == 0, f"{report.unequal_count} UNEQUAL rows"
    assert report.bad * 2 < len(report.verdicts), f"bad={report.bad} not a minority"
    assert report.overall == "consistent"
    assert dt < 60.0, f"{dt:.1f} s >= 60 s"
    return f"32 primes, unequal=0, bad={report.bad}; {dt:.2f} s < 60 s"


@criterion("6")
def test_criterion_6_pair2_desk_scale():
    pair = load_pair(_read_pair_source("gl2_f4_deg15"))
    t0 = time.perf_counter()
    report = compare_split_types(pair.f, pair.g, Exhaustive(5), seed=0, jobs=1)
    dt = time.perf_counter() - t0
    assert len(report.verdicts) == 14, f"{len(report.verdicts)} primes"
    assert report.unequal_count == 0, f"{report.unequal_count} UNEQUAL rows"
    assert report.overall == "consistent"
    assert dt < 120.0, f"{dt:.1f} s >= 120 s"
    return f"14 primes, unequal=0, bad={report.bad}; {dt:.2f} s < 120 s"


@criterion("7a")
def test_criterion_7a_gl2_f3_example1():
    t0 = time.perf_counter()
    G, H, Hp = triple("gl2_f3_example1")
    cert = verify_gassmann(G, H, Hp)
    dt = time.perf_counter() - t0
    assert cert.is_gassmann and cert.is_nontrivial, "not a nontrivial triple"
    assert cert.index == 8, f"index {cert.index}"
    assert dt < 10.0, f"{dt:.1f} s >= 10 s"
    return f"gassmann=true nontrivial=true index=8; {dt:.2f} s < 10 s"


@criterion("7b")
def test_criterion_7b_gl2_f4_stabilizers():
    t0 = time.perf_counter()
    G, H, Hp = triple("gl2_f4")
    cert = verify_gassmann(G, H, Hp)
    dt = time.perf_counter() - t0
    assert cert.is_gassmann and cert.is_nontrivial, "not a nontrivial triple"
    assert cert.index == 15, f"index {cert.index}"
    assert dt < 10.0, f"{dt:.1f} s >= 10 s"
    return f"index=15 nontrivial; {dt:.2f} s < 10 s"


@criterion("7c")
def test_criterion_7c_gl3_f2_stabilizers():
    t0 = time.perf_counter()
    G, H, Hp = triple("gl3_f2")
    cert = verify_gassmann(G, H, Hp)
    dt = time.perf_counter() - t0
    assert cert.is_gassmann and cert.is_nontrivial, "not a nontrivial triple"
    assert cert.index == 7, f"index {cert.index}"
    assert dt < 10.0, f"{dt:.1f} s >= 10 s"
    return f"index=7 nontrivial; {dt:.2f} s < 10 s"


@criterion("7d")
def test_criterion_7d_gl2_f2_negative_control():
    t0 = time.perf_counter()
    G, H, Hp = triple("gl2_f2")
    cert = verify_gassmann(G, H, Hp)
    dt = time.perf_counter() - t0
    assert cert.is_gassmann, "fixpoint tables differ"
    assert not cert.is_nontrivial, "conjugate pair not detected"
    assert dt < 10.0, f"{dt:.1f} s >= 10 s"
    return f"gassmann=true nontrivial=false; {dt:.2f} s < 10 s"


def _random_poly(rng, field, max_deg, nonconstant=False):
    while True:
        coeffs = [
            field.from_index(rng.randrange(field.q))
            for _ in range(rng.randrange(max_deg + 1) + 1)
        ]
        p = Poly(field, coeffs)
        if nonconstant and p.degree < 1:
            continue
        return p


def _check_homomorphism_laws():
    for p in (2, 3):
        field = prime_field(p)
        rho = carlitz(field)
        rng = random.Random(77 + p)
        for _ in range(100):
            a = _random_poly(rng, field, 4)
            b = _random_poly(rng, field, 4)
            ra, rb = rho_eval(rho, a), rho_eval(rho, b)
            assert rho_eval(rho, a + b) == ra + rb
            assert rho_eval(rho, a * b) == ra * rb
    return 200


def _check_additive_shape():
    checked = 0
    for p in (2, 3):
        field = prime_field(p)
        T = Poly.x(field)
        rng = random.Random(31 + p)
        for _ in range(25):
            rank = rng.randrange(1, 3)
            coeffs = [T]
            for i in range(rank):
                c = _random_poly(rng, field, 2)
                if i == rank - 1:
                    while c.is_zero:
                        c = _random_poly(rng, field, 2)
                coeffs.append(c)
            rho = DrinfeldModule(TwistedPoly(field, coeffs))
            a = _random_poly(rng, field, 2, nonconstant=True)
            tors = torsion_polynomial(rho, a)
            q_powers = {field.q**j for j in range(rank * a.degree + 1)}
            for k, c in enumerate(tors.coeffs):
                if not c.is_zero:
                    assert k in q_powers, f"exponent {k} is not a q-power"
            assert tors.coeff(1) == a
            stripped = torsion_polynomial(rho, a, strip_trivial_root=True)
            for k, c in enumerate(stripped.coeffs):
                if not c.is_zero:
                    assert k + 1 in q_powers
            checked += 2
    return checked


def _check_reassembly():
    for p in (2, 3):
        field = prime_field(p)
        rng = random.Random(1000 + p)
        for _ in range(500):
            f = _random_poly(rng, field, 8, nonconstant=True)
            rng.randrange(2**30)  # a draw kept so that the inputs after it stay the same
            fac = factor(f)
            assert fac.expand() == f, f"reassembly failed for {f!r}"
            assert fac.unit == f.leading


def _trial_division(f):
    g = f.monic()
    out = {}
    d = 1
    while g.degree > 0:
        assert d <= g.degree, "trial division ran past the degree"
        for P in monic_irreducibles(g.field, d):
            mult = 0
            while True:
                quo, rem = divmod(g, P)
                if not rem.is_zero:
                    break
                g = quo
                mult += 1
            if mult:
                out[P] = mult
        d += 1
    return out


def _check_oracle_agreement():
    # every monic polynomial of degree 1..5
    checked = 0
    for p in (2, 3):
        field = prime_field(p)
        for d in range(1, 6):
            for idx in range(field.q**d):
                coeffs = []
                k = idx
                for _ in range(d):
                    coeffs.append(field.from_index(k % field.q))
                    k //= field.q
                coeffs.append(field.one)
                f = Poly(field, coeffs)
                fac = factor(f)
                assert dict(fac.factors) == _trial_division(f), f"disagree on {f!r}"
                checked += 1
    return checked


def _check_burnside():
    for key in ("gl2_f3_example1", "gl2_f4", "gl3_f2", "gl2_f2"):
        G, H, Hp = triple(key)
        for S in (H, Hp):
            fix = permutation_character_fixpoints(G, S)
            classes = G.conjugacy_classes()
            orbit_mass = sum(size * f for (_, size, _), f in zip(classes, fix))
            assert orbit_mass == len(G), f"orbit count != 1 for {key}"


@criterion("8")
def test_criterion_8_property_suites():
    pairs = _check_homomorphism_laws()
    shapes = _check_additive_shape()
    _check_reassembly()
    oracle = _check_oracle_agreement()
    _check_burnside()
    return (
        f"homomorphism {pairs} pairs, {shapes} torsion shapes, "
        f"1000 reassemblies, {oracle} oracle comparisons, burnside ok"
    )


@criterion("9")
def test_criterion_9_jobs_determinism(capsys):
    argv = ["split-check", "--pair", "gl2_f3_deg8", "--max-degree", "4"]
    rc1 = cli_main(argv + ["--jobs", "1"])
    out1 = capsys.readouterr().out
    rc2 = cli_main(argv + ["--jobs", "8"])
    out2 = capsys.readouterr().out
    assert rc1 == 0 and rc2 == 0, f"exit codes {rc1}, {rc2}"
    assert out1 == out2, "reports differ between --jobs 1 and --jobs 8"
    return f"byte-identical reports with --jobs 1 and --jobs 8 ({len(out1)} bytes)"
