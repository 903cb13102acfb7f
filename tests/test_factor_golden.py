"""Byte-exact `ffequiv factor` reports.

Characteristic 2: the stripped (T^4 + T + 1)-torsion polynomial of
T -> tau^2 + tau + T (degree 255), factored at a prime of F_2[T] of degree 2,
whose residue field is F_4, and at one of degree 8, whose residue field is
F_256.  These two were recorded while division still ran on the
coefficient-by-coefficient loop, so they pin the byte-packed division.

Characteristic 3: the stripped (T^2 + 1)-torsion polynomial of
T -> tau^2 + T*tau + T (degree 80), at T (ten factors of degree 8) and at a
prime of degree 3, whose residue field is F_27 (equal-degree splitting in
degrees 1 and 4 over it); and a polynomial in y^3 whose factors are all
cubed, which takes p-th roots.  These three were recorded while `factor`
still ran on Poly objects.

Odd characteristic, recorded while equal-degree splitting was still
Cantor-Zassenhaus's: y^343 - y over F_7 (every monic irreducible of degree
1 or 3), and six linear factors, two of them squared, over F_1000000007,
where the trace split tries the shifts c = 0, 1, ... of F_p in turn.
"""

from pathlib import Path

import pytest

from ffequiv import poly
from ffequiv.cli import main
from ffequiv.exprs import parse
from ffequiv.fields import prime_field
from ffequiv.poly import Poly
from ffequiv.splitting import reduce_mod_prime
from ffequiv.twisted import DrinfeldModule, torsion_polynomial

GOLDEN = Path(__file__).resolve().parent / "golden" / "factor"

F4_TORSION = ("tau^2 + tau + T", "T^4 + T + 1")  # (rho, a): the stripped a-torsion of rho
F3_TORSION = ("tau^2 + T*tau + T", "T^2 + 1")

CASES = [
    # (golden file, p, prime, a torsion (rho, a) or the polynomial itself)
    ("f4_torsion", "2", "T^2 + T + 1", F4_TORSION),
    ("f256_torsion", "2", "T^8 + T^6 + T^5 + T^3 + 1", F4_TORSION),
    ("f3_torsion", "3", "T", F3_TORSION),
    ("f27_torsion", "3", "T^3 + 2*T^2 + 2*T + 2", F3_TORSION),
    ("f3_cubes", "3", "T + 1", "y^27 + T*y^9 + T^2*y^3 + 2"),
    ("f7_frobenius", "7", "T + 3", "y^343 + 6*y"),
    ("p1e9_linears", "1000000007", "T + 1", "(y + 1)*(y + 2)*(y + 3)*(y + T)*(y^2 + T)*(y^2 + 5)"),
]


@pytest.mark.parametrize("name,p,prime,source", CASES, ids=[c[0] for c in CASES])
def test_factor_golden(capsys, tmp_path, name, p, prime, source):
    if isinstance(source, tuple):
        rho, a = source
        assert main(["torsion", "--p", p, "--rho", rho, "--a", a, "--strip"]) == 0
        torsion = tmp_path / "torsion.out"
        torsion.write_text(capsys.readouterr().out, "utf-8")
        source = f"@{torsion}"
    rc = main(["factor", "--p", p, "--prime", prime, "--poly", source])
    cap = capsys.readouterr()
    assert rc == 0
    assert cap.out == (GOLDEN / f"{name}.out").read_text("utf-8")
    assert cap.err == ""


def _reduced(p, prime, source):
    """The image at the prime of the torsion polynomial or of the polynomial."""
    field = prime_field(int(p))
    if isinstance(source, tuple):
        rho, a = source
        f = torsion_polynomial(DrinfeldModule(parse(rho, "twisted", field)), parse(a, "t_poly", field),
                               strip_trivial_root=True)
    else:
        f = parse(source, "y_poly", field)
    return reduce_mod_prime(f, parse(prime, "t_poly", field))


def _refuse(*args, **kwargs):
    raise AssertionError("factor reached the Poly arithmetic")


CORE_CASES = [c for c in CASES if c[0] in ("f4_torsion", "f3_torsion", "f3_cubes")]


@pytest.mark.parametrize("name,p,prime,source", CORE_CASES, ids=[c[0] for c in CORE_CASES])
def test_factor_runs_on_the_list_core(monkeypatch, name, p, prime, source):
    """From the coefficients of its input to the factors it wraps, `factor`
    calls no Poly operator and neither poly_gcd nor pow_mod."""
    red = _reduced(p, prime, source)
    want = poly.factor(red)
    for op in ("__divmod__", "__mul__", "__rmul__", "__add__", "__sub__", "__neg__", "__pow__",
               "derivative", "monic"):
        monkeypatch.setattr(Poly, op, _refuse)
    monkeypatch.setattr(poly, "poly_gcd", _refuse)
    monkeypatch.setattr(poly, "pow_mod", _refuse)
    assert poly.factor(red) == want
