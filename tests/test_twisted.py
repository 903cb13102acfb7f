import random

import pytest

from ffequiv.fields import extension_field, prime_field
from ffequiv.poly import Poly
from ffequiv.twisted import (
    DrinfeldModule,
    TwistedPoly,
    YPoly,
    carlitz,
    rho_eval,
    torsion_polynomial,
)

F2 = prime_field(2)
F3 = prime_field(3)
F4 = extension_field(2, degree=2)


def P(field, *ints):
    return Poly.from_ints(field, ints)


def TW(field, *tpolys):
    return TwistedPoly(field, tpolys)


def test_twisted_mul_golden():
    # (tau + T)^2 = tau^2 + (T^3 + T)*tau + T^2 over F_3
    u = TW(F3, P(F3, 0, 1), P(F3, 1))
    sq = u * u
    assert sq == TW(F3, P(F3, 0, 0, 1), P(F3, 0, 1, 0, 1), P(F3, 1))


def test_power_squares_only_below_the_top_bit(monkeypatch):
    # 13 = 0b1101: three products into the result and three squarings, no
    # fourth squaring after the top bit
    f = YPoly(F3, [P(F3, 0, 1), P(F3, 1), P(F3, 2, 1)])
    want = YPoly.one(F3)
    for _ in range(13):
        want = want * f
    products = []
    mul = YPoly.__mul__
    monkeypatch.setattr(YPoly, "__mul__", lambda a, b: products.append(b) or mul(a, b))
    assert f**13 == want
    assert len(products) == 6
    products.clear()
    assert f**1 == f and f**0 == YPoly.one(F3)
    assert len(products) == 1


def test_commutation_rule():
    tau = TwistedPoly.tau(F3)
    t_const = TwistedPoly.constant(F3, Poly.x(F3))
    # tau * T = T^3 * tau
    assert tau * t_const == TW(F3, Poly.zero(F3), P(F3, 0, 0, 0, 1))
    assert t_const * tau == TW(F3, Poly.zero(F3), P(F3, 0, 1))
    assert tau * t_const != t_const * tau
    tau2 = TwistedPoly.tau(F2)
    t2 = TwistedPoly.constant(F2, Poly.x(F2))
    assert tau2 * t2 != t2 * tau2


def test_identity_and_zero():
    rng = random.Random(3)
    one = TwistedPoly.one(F3)
    zero = TwistedPoly.zero(F3)
    u = _random_twisted(F3, rng)
    assert u * one == u
    assert one * u == u
    assert (u * zero).is_zero
    assert (zero * u).is_zero
    assert not zero and one


def _random_twisted(field, rng, max_tau_deg=2, max_coeff_deg=2):
    cs = []
    for _ in range(rng.randrange(1, max_tau_deg + 2)):
        cs.append(
            Poly(field, [rng.randrange(field.q) for _ in range(max_coeff_deg + 1)])
        )
    return TwistedPoly(field, cs)


def test_ring_laws_random():
    for field in (F2, F3, F4):
        rng = random.Random(field.q)
        for _ in range(200):
            u = _random_twisted(field, rng)
            v = _random_twisted(field, rng)
            w = _random_twisted(field, rng)
            assert (u * v) * w == u * (v * w)
            assert u * (v + w) == u * v + u * w
            assert (u + v) * w == u * w + v * w
        u = _random_twisted(field, rng)
        power = TwistedPoly.one(field)
        for e in range(7):
            assert u**e == power
            power = power * u


def test_tau_degree_additive():
    rng = random.Random(17)
    for field in (F2, F3, F4):
        for _ in range(50):
            u = _random_twisted(field, rng)
            v = _random_twisted(field, rng)
            if u.is_zero or v.is_zero:
                continue
            assert (u * v).degree == u.degree + v.degree


def test_drinfeld_module_validation():
    with pytest.raises(ValueError, match="a_0 must equal T"):
        DrinfeldModule(TW(F3, Poly.one(F3), P(F3, 1)))
    with pytest.raises(ValueError, match="positive tau-degree"):
        DrinfeldModule(TwistedPoly.constant(F3, Poly.x(F3)))
    with pytest.raises(ValueError, match="different field"):
        TW(F3, P(F3, 0, 1), P(F2, 1))
    rho = carlitz(F3)
    assert rho.rank == 1
    with pytest.raises(ValueError, match="field mismatch"):
        rho_eval(rho, P(F2, 1, 1))
    assert rho.image_of_T == TW(F3, P(F3, 0, 1), P(F3, 1))
    assert carlitz(F2).rank == 1


def test_rho_eval_carlitz_golden():
    # rho_{T^2+1} = tau^2 + (T^3 + T)*tau + T^2 + 1 over F_3
    rho = carlitz(F3)
    got = rho_eval(rho, P(F3, 1, 0, 1))
    assert got == TW(F3, P(F3, 1, 0, 1), P(F3, 0, 1, 0, 1), P(F3, 1))


def test_rho_eval_rank2_golden():
    # rho_T = tau^2 + tau + T over F_2, u = T^2 + T + 1
    rho = DrinfeldModule(TW(F2, P(F2, 0, 1), P(F2, 1), P(F2, 1)))
    got = rho_eval(rho, P(F2, 1, 1, 1))
    expected = TW(
        F2,
        P(F2, 1, 1, 1),            # T^2 + T + 1
        P(F2, 1, 1, 1),            # T^2 + T + 1
        P(F2, 0, 1, 0, 0, 1),      # T^4 + T
        Poly.zero(F2),
        P(F2, 1),
    )
    assert got == expected


def test_rho_eval_on_generator_is_image():
    for field in (F2, F3):
        rho = carlitz(field)
        assert rho_eval(rho, Poly.x(field)) == rho.image_of_T


def test_rho_eval_homomorphism_carlitz():
    for field in (F2, F3):
        rng = random.Random(100 + field.q)
        rho = carlitz(field)
        for _ in range(100):
            u = Poly(field, [rng.randrange(field.q) for _ in range(5)])
            v = Poly(field, [rng.randrange(field.q) for _ in range(5)])
            assert rho_eval(rho, u + v) == rho_eval(rho, u) + rho_eval(rho, v)
            assert rho_eval(rho, u * v) == rho_eval(rho, u) * rho_eval(rho, v)


def test_rho_eval_homomorphism_rank2():
    rho = DrinfeldModule(TW(F3, P(F3, 0, 1), P(F3, 1), P(F3, 1)))
    rng = random.Random(55)
    for _ in range(20):
        u = Poly(F3, [rng.randrange(3) for _ in range(3)])
        v = Poly(F3, [rng.randrange(3) for _ in range(3)])
        assert rho_eval(rho, u + v) == rho_eval(rho, u) + rho_eval(rho, v)
        assert rho_eval(rho, u * v) == rho_eval(rho, u) * rho_eval(rho, v)


def test_torsion_golden_rank2_f3():
    # rho_T = tau^2 + T*tau + T over F_3, a = T, stripped: y^8 + T*y^2 + T
    rho = DrinfeldModule(TW(F3, P(F3, 0, 1), P(F3, 0, 1), P(F3, 1)))
    tor = torsion_polynomial(rho, Poly.x(F3), strip_trivial_root=True)
    assert tor.degree == 8
    expected = YPoly(
        F3,
        [P(F3, 0, 1), Poly.zero(F3), P(F3, 0, 1)] + [Poly.zero(F3)] * 5 + [Poly.one(F3)],
    )
    assert tor == expected


def test_torsion_golden_rank2_f2():
    # rho_T = tau^2 + tau + T over F_2, a = T^2+T+1, stripped:
    # y^15 + (T^4 + T)y^3 + (T^2 + T + 1)y + T^2 + T + 1
    rho = DrinfeldModule(TW(F2, P(F2, 0, 1), P(F2, 1), P(F2, 1)))
    tor = torsion_polynomial(rho, P(F2, 1, 1, 1), strip_trivial_root=True)
    assert tor.degree == 15
    assert tor.coeff(0) == P(F2, 1, 1, 1)
    assert tor.coeff(1) == P(F2, 1, 1, 1)
    assert tor.coeff(3) == P(F2, 0, 1, 0, 0, 1)
    assert tor.coeff(15) == Poly.one(F2)
    assert sum(1 for c in tor.coeffs if not c.is_zero) == 4


def test_torsion_carlitz_unstripped():
    tor = torsion_polynomial(carlitz(F3), Poly.x(F3))
    assert tor == YPoly(F3, [Poly.zero(F3), Poly.x(F3), Poly.zero(F3), Poly.one(F3)])
    assert torsion_polynomial(carlitz(F3), P(F3, 1, 0, 1)).degree == 9
    with pytest.raises(ValueError):
        torsion_polynomial(carlitz(F3), Poly.one(F3))


def _random_module(field, rng, max_rank=2):
    r = rng.randrange(1, max_rank + 1)
    cs = [Poly.x(field)]
    for _ in range(r - 1):
        cs.append(Poly(field, [rng.randrange(field.q) for _ in range(2)]))
    cs.append(Poly(field, [rng.randrange(1, field.q)]))
    return DrinfeldModule(TwistedPoly(field, cs))


def test_torsion_additive_shape_random():
    for field in (F2, F3, F4):
        rng = random.Random(field.q * 7)
        q = field.q
        for _ in range(25):
            rho = _random_module(field, rng)
            deg_a = rng.randrange(1, 3)
            a = Poly(
                field, [rng.randrange(q) for _ in range(deg_a)] + [rng.randrange(1, q)]
            )
            tor = torsion_polynomial(rho, a)
            assert tor.degree == q ** (rho.rank * a.degree)
            powers = {q**i for i in range(rho.rank * a.degree + 1)}
            for k, c in enumerate(tor.coeffs):
                if not c.is_zero:
                    assert k in powers
            # the y-coefficient is a(T) itself, and equals the derivative
            assert tor.coeff(1) == a
            assert tor.derivative() == YPoly.constant(field, a)
            stripped = torsion_polynomial(rho, a, strip_trivial_root=True)
            assert stripped.coeffs == tor.coeffs[1:]
            assert stripped.coeff(0) == a


def test_ypoly_ring_basics():
    y = YPoly.y(F3)
    t = YPoly.constant(F3, Poly.x(F3))
    f = y**2 + t * y + YPoly.one(F3)
    assert f.degree == 2
    assert f.coeff(1) == Poly.x(F3)
    assert (y + t) * (y - t) == y**2 - t * t
    assert (f - f).is_zero
    with pytest.raises(ValueError):
        _ = y + YPoly.y(F2)
    with pytest.raises(ValueError, match="different field"):
        YPoly(F3, [Poly.x(F3), Poly.one(F2)])
    assert y * Poly.x(F3) == t * y
    with pytest.raises(ValueError, match="different field"):
        _ = y * Poly.x(F2)
    with pytest.raises(ValueError, match="no leading coefficient"):
        _ = YPoly.zero(F3).leading
    tau = TwistedPoly.tau(F3)
    x = Poly.x(F3)
    for a, b in ((x, y), (y, tau), (tau, y), (x, tau), (tau, x)):
        with pytest.raises(TypeError):
            _ = a + b
        with pytest.raises(TypeError):
            _ = a * b
