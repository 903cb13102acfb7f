"""Byte-exact `ffequiv factor` reports in characteristic 2.

Both files under golden/factor/ factor the stripped (T^4 + T + 1)-torsion
polynomial of T -> tau^2 + tau + T (degree 255) at a prime of F_2[T]: one of
degree 2, whose residue field is F_4, and one of degree 8, whose residue
field is F_256.  They were recorded while division still ran on the
coefficient-by-coefficient loop, so they pin the byte-packed division.
"""

from pathlib import Path

import pytest

from ffequiv.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "factor"

CASES = [
    # (golden file, prime)
    ("f4_torsion", "T^2 + T + 1"),
    ("f256_torsion", "T^8 + T^6 + T^5 + T^3 + 1"),
]


@pytest.mark.parametrize("name,prime", CASES, ids=[c[0] for c in CASES])
def test_factor_golden(capsys, tmp_path, name, prime):
    assert main(["torsion", "--p", "2", "--rho", "tau^2 + tau + T", "--a", "T^4 + T + 1", "--strip"]) == 0
    torsion = tmp_path / "torsion.out"
    torsion.write_text(capsys.readouterr().out, "utf-8")
    rc = main(["factor", "--p", "2", "--prime", prime, "--poly", f"@{torsion}"])
    cap = capsys.readouterr()
    assert rc == 0
    assert cap.out == (GOLDEN / f"{name}.out").read_text("utf-8")
    assert cap.err == ""
