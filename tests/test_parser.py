import random

import pytest

from ffequiv.exprs import (
    DEGREE_LIMIT,
    MAX_NESTING,
    ParseError,
    parse,
    parse_element,
    parse_modulus,
    render_residue_poly,
    render_tpoly,
    render_twisted,
    render_ypoly,
)
from ffequiv.fields import extension_field, prime_field
from ffequiv.poly import Poly
from ffequiv.twisted import TORSION_LIMIT, TwistedPoly, YPoly

F2 = prime_field(2)
F3 = prime_field(3)
F5 = prime_field(5)


def P(field, *ints):
    return Poly.from_ints(field, ints)


def test_tpoly_basics():
    assert parse("T^2 + 2*T + 1", "t_poly", F3) == P(F3, 1, 2, 1)
    assert parse("T^2+2*T+1", "t_poly", F3) == P(F3, 1, 2, 1)
    assert parse(" ( T + 1 ) * ( T + 2 ) ", "t_poly", F3) == P(F3, 2, 0, 1)
    assert parse("0", "t_poly", F3).is_zero
    assert parse("7", "t_poly", F5) == P(F5, 2)


def test_coefficient_reduction():
    assert parse("3*T", "t_poly", F3).is_zero
    assert parse("4", "t_poly", F3) == Poly.one(F3)


def test_unary_minus_binds_before_pow():
    # "-T^2" is (-T)^2 by the grammar, so it is +T^2
    assert parse("-T^2", "t_poly", F3) == P(F3, 0, 0, 1)
    assert parse("-(T^2)", "t_poly", F3) == P(F3, 0, 0, 2)
    assert parse("-T^3", "t_poly", F3) == P(F3, 0, 0, 0, 2)
    assert parse("1 - T", "t_poly", F3) == P(F3, 1, 2)
    assert parse("--T", "t_poly", F3) == P(F3, 0, 1)


def test_ypoly_parse():
    got = parse("y^8 + T*y^2 + T", "y_poly", F3)
    expected = YPoly(
        F3,
        [P(F3, 0, 1), Poly.zero(F3), P(F3, 0, 1)] + [Poly.zero(F3)] * 5 + [Poly.one(F3)],
    )
    assert got == expected
    quad = parse("y^2 + (2*T + 1)*y + 2*T + 2", "y_poly", F3)
    assert quad.coeff(2) == Poly.one(F3)
    assert quad.coeff(1) == P(F3, 1, 2)
    assert quad.coeff(0) == P(F3, 2, 2)
    prod = parse("(y + T)*(y + 2*T)", "y_poly", F3)
    assert prod == parse("y^2 + 2*T^2", "y_poly", F3)


def test_twisted_parse():
    got = parse("tau^2 + T*tau + T", "twisted", F3)
    assert got == TwistedPoly(F3, [P(F3, 0, 1), P(F3, 0, 1), Poly.one(F3)])
    assert parse("2*tau - tau", "twisted", F3) == TwistedPoly(F3, [Poly.zero(F3), Poly.one(F3)])
    assert parse("-tau^2", "twisted", F3).coeff(2) == Poly.one(F3)
    assert parse("-(tau^2)", "twisted", F3).coeff(2) == P(F3, 2)
    assert parse("tau^0", "twisted", F3) == TwistedPoly.one(F3)
    assert parse("(T^2 + 1)*tau^3", "twisted", F3).coeff(3) == P(F3, 1, 0, 1)


def test_twisted_rejects_nonmonomial_tau():
    for bad in ("tau*T", "(tau + T)*T", "T*(tau + 1)", "(T*tau)^2", "tau*tau"):
        with pytest.raises(ParseError):
            parse(bad, "twisted", F3)


def test_degree_limit():
    # the limit is the torsion limit, so that torsion output parses again
    assert DEGREE_LIMIT == TORSION_LIMIT == 1 << 20
    assert parse("T^1048576", "t_poly", F2).degree == DEGREE_LIMIT
    refused = [
        ("T^1048577", "t_poly", 1),
        ("(T^1024)^1025", "t_poly", 8),
        ("T^1048576*T", "t_poly", 9),
        ("x^1048577", "x_poly", 1),
        ("y^1048577 + 1", "y_poly", 1),
        ("(T^1024*y)^1025", "y_poly", 10),
        ("T^1048576*y*T", "y_poly", 11),
        ("tau^1048577 + T", "twisted", 3),
        ("(T^1024)^1025*tau", "twisted", 8),
    ]
    for text, mode, pos in refused:
        with pytest.raises(ParseError, match=f"degree above the limit of {DEGREE_LIMIT} \\(position {pos}\\)"):
            parse(text, mode, F3)
    # field elements have no degree: a large power is one kernel call
    F9 = extension_field(3, degree=2)
    assert parse_element("x^999999999", F9) == F9.gen ** 999999999


def test_mode_symbol_errors():
    with pytest.raises(ParseError, match="not allowed in t_poly mode"):
        parse("y + 1", "t_poly", F3)
    with pytest.raises(ParseError, match="not allowed in y_poly mode"):
        parse("tau", "y_poly", F3)
    with pytest.raises(ParseError, match="not allowed in twisted mode"):
        parse("y*tau", "twisted", F3)
    with pytest.raises(ValueError, match="unknown parse mode"):
        parse("T", "z_poly", F3)


def test_syntax_errors_report_position():
    with pytest.raises(ParseError, match="position 0"):
        parse("z + 1", "t_poly", F3)
    with pytest.raises(ParseError, match="trailing input"):
        parse("2T", "t_poly", F3)
    with pytest.raises(ParseError, match="exponent"):
        parse("T^-2", "t_poly", F3)
    with pytest.raises(ParseError, match="expected '\\)'"):
        parse("(T + 1", "t_poly", F3)
    with pytest.raises(ParseError, match="expected a value"):
        parse("", "t_poly", F3)
    with pytest.raises(ParseError, match="expected a value"):
        parse("T + ", "t_poly", F3)
    err = None
    try:
        parse("T + @", "t_poly", F3)
    except ParseError as e:
        err = e
    assert err is not None and err.position == 4


def test_parse_modulus_and_element():
    assert parse_modulus("x^2 + 1", 3) == [1, 0, 1]
    assert parse_modulus("x^2+x+1", 2) == [1, 1, 1]
    f9 = extension_field(3, degree=2)
    a = parse_element("x + 2", f9)
    assert a == f9.gen + f9(2)
    assert parse_element("2", f9) == f9(2)
    assert parse_element("x^2", f9) == f9.gen * f9.gen
    with pytest.raises(ParseError, match=r"symbol 'T' is not allowed in x_poly mode \(position 4\)"):
        parse_element("x + T", f9)


def test_parse_element_over_a_prime_field_names_the_field():
    # x is the generator of an extension field; a prime field has none
    assert parse_element("2 + 3", F3) == F3(2)
    with pytest.raises(ParseError) as exc:
        parse_element("1 + x", F3)
    assert str(exc.value) == (
        "symbol 'x' is not allowed over GF(3): a prime field has no generator x, "
        "only integers (position 4)"
    )


def test_render_tpoly():
    assert render_tpoly(Poly.zero(F3)) == "0"
    assert render_tpoly(P(F3, 2, 1)) == "T + 2"
    assert render_tpoly(P(F3, 0, 0, 2)) == "2*T^2"
    assert render_tpoly(P(F5, 1, 0, 3, 1)) == "T^3 + 3*T^2 + 1"
    with pytest.raises(ValueError, match="prime base field"):
        render_tpoly(Poly.x(extension_field(2, degree=2)))


def test_render_ypoly_goldens():
    f = YPoly(
        F3,
        [P(F3, 0, 1), Poly.zero(F3), P(F3, 0, 1)] + [Poly.zero(F3)] * 5 + [Poly.one(F3)],
    )
    assert render_ypoly(f) == "y^8 + T*y^2 + T"
    coeffs = [P(F2, 1, 1, 1), P(F2, 1, 1, 1), Poly.zero(F2), P(F2, 0, 1, 0, 0, 1)]
    coeffs += [Poly.zero(F2)] * 11 + [Poly.one(F2)]
    g = YPoly(F2, coeffs)
    assert render_ypoly(g) == "y^15 + (T^4 + T)*y^3 + (T^2 + T + 1)*y + T^2 + T + 1"
    assert render_ypoly(YPoly.zero(F3)) == "0"
    with pytest.raises(ValueError, match="prime base field"):
        render_ypoly(YPoly.y(extension_field(2, degree=2)))


def test_render_twisted_goldens():
    rho = TwistedPoly(F3, [P(F3, 0, 1), P(F3, 0, 1), Poly.one(F3)])
    assert render_twisted(rho) == "tau^2 + T*tau + T"
    sq = TwistedPoly(F3, [P(F3, 1, 0, 1), P(F3, 0, 1, 0, 1), Poly.one(F3)])
    assert render_twisted(sq) == "tau^2 + (T^3 + T)*tau + T^2 + 1"
    assert render_twisted(TwistedPoly.zero(F2)) == "0"
    assert render_twisted(TwistedPoly.tau(F2)) == "tau"


def test_render_residue_poly():
    f9 = extension_field(3, modulus=[1, 0, 1])
    pol = Poly(
        f9,
        [f9.from_coeffs([2, 2]), f9.from_coeffs([1, 2]), f9.one],
    )
    assert render_residue_poly(pol) == "y^2 + (2*T + 1)*y + 2*T + 2"
    assert render_residue_poly(Poly.from_ints(prime_field(3), (1, 1))) == "y + 1"
    assert render_residue_poly(Poly.zero(f9)) == "0"


def _rand_tpoly(field, rng, dmax=6):
    return Poly(field, [rng.randrange(field.q) for _ in range(dmax + 1)])


def test_roundtrip_tpoly():
    for field in (F2, F3, F5):
        rng = random.Random(field.p)
        for _ in range(500):
            v = _rand_tpoly(field, rng)
            assert parse(render_tpoly(v), "t_poly", field) == v


def test_symbol_powers_match_ring_powers():
    # a bare symbol to a power is built as a monomial, not by repeated squaring
    f4 = extension_field(2, degree=2)
    for field in (F2, F3, f4):
        T = Poly.x(field)
        cases = [
            ("t_poly", "T", T),
            ("x_poly", "x", T),
            ("y_poly", "y", YPoly.x(field)),
            ("y_poly", "T", YPoly.constant(field, T)),
            ("twisted", "tau", TwistedPoly.x(field)),
            ("twisted", "T", TwistedPoly.constant(field, T)),
        ]
        for mode, name, var in cases:
            for e in (0, 1, 2, 3, 13, 44):
                got = parse(f"{name}^{e}", mode, field)
                assert type(got) is type(var)
                assert got == var**e, (mode, name, e)
        assert parse("T^3*y^2 + T^0*y^0", "y_poly", field) == YPoly(field, [T**0, Poly.zero(field), T**3])
        assert parse_element("x^5", f4) == f4.gen**5


def test_roundtrip_ypoly():
    for field in (F2, F3, F5):
        rng = random.Random(field.p + 10)
        for _ in range(500):
            cs = [_rand_tpoly(field, rng, 3) for _ in range(rng.randrange(1, 6))]
            v = YPoly(field, cs)
            assert parse(render_ypoly(v), "y_poly", field) == v


def test_roundtrip_twisted():
    for field in (F2, F3, F5):
        rng = random.Random(field.p + 20)
        for _ in range(500):
            cs = [_rand_tpoly(field, rng, 3) for _ in range(rng.randrange(1, 5))]
            v = TwistedPoly(field, cs)
            assert parse(render_twisted(v), "twisted", field) == v


def test_roundtrip_residue():
    f9 = extension_field(3, degree=2)
    modulus = Poly.from_ints(F3, f9.modulus)
    rng = random.Random(9)
    for _ in range(200):
        v = Poly(f9, [f9.from_index(rng.randrange(9)) for _ in range(rng.randrange(1, 6))])
        back = parse(render_residue_poly(v), "y_poly", F3)
        lifted = [c % modulus for c in back.coeffs]
        redone = [f9.from_coeffs(c.coeffs) for c in lifted]
        assert Poly(f9, redone) == v


def test_nesting_limit():
    ok = "(" * MAX_NESTING + "T" + ")" * MAX_NESTING
    assert parse(ok, "t_poly", F3) == Poly.x(F3)
    assert parse("-" * MAX_NESTING + "T", "t_poly", F3) == Poly.x(F3)
    for deep in ("(" * (MAX_NESTING + 1) + "T" + ")" * (MAX_NESTING + 1), "-" * 3000 + "T"):
        with pytest.raises(ParseError, match="nesting deeper"):
            parse(deep, "t_poly", F3)


def test_long_flat_expressions():
    # a sum or product is one node, however many terms it has
    assert parse(" + ".join(["T"] * 3001), "t_poly", F5) == Poly.x(F5)
    assert parse(" - ".join(["y"] * 3001), "y_poly", F5) == parse("-2999*y", "y_poly", F5)
    assert parse("*".join(["T"] * 1500), "t_poly", F5) == Poly.x(F5) ** 1500
    twisted = " + ".join(["T*tau"] * 3001)
    assert parse(twisted, "twisted", F5) == parse("T*tau", "twisted", F5)
