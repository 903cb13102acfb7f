"""Byte-exact reports and exit codes of `ffequiv split-check`.

Each file under golden/split/ is the stdout of the command next to it.  The
first three were recorded while every residue field was still built for its
own prime, the next three while a prime off the orbit route was still
reduced by polynomial remainders, f5_deg3 while Frobenius was still
square-and-multiply, and f5_s2_d8 while odd residue fields above the tables
still multiplied unpacked digit vectors; f3_s2_d30 and f4_s3_d24 while
sampled primes above the tables were still drawn through Rabin's
irreducibility test.  Each route must leave every report as it is.
"""

from pathlib import Path

import pytest

from ffequiv.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "split"

CASES = [
    # (golden file, exit code, arguments after "split-check")
    ("f3_deg7", 0, "--pair gl2_f3_deg8 --max-degree 7"),
    ("f4_deg9", 0, "--pair gl2_f4_deg15 --max-degree 9"),
    ("f3_s40_d10", 0, "--pair gl2_f3_deg8 --samples 40 --degree 10 --seed 0"),
    # too few primes of a tabled degree to repay its orbit walk
    ("f3_s3_d10", 0, "--pair gl2_f3_deg8 --samples 3 --degree 10"),
    # degrees above fields.TABLE_LIMIT, in odd characteristic and in 2
    ("f3_s3_d11", 0, "--pair gl2_f3_deg8 --samples 3 --degree 11"),
    ("f4_s4_d17", 0, "--pair gl2_f4_deg15 --samples 4 --degree 17"),
    # composite degrees above the tables, each candidate tested for
    # irreducibility: gcds at every degree up to 15 and 12
    ("f3_s2_d30", 0, "--pair gl2_f3_deg8 --samples 2 --degree 30"),
    ("f4_s3_d24", 0, "--pair gl2_f4_deg15 --samples 3 --degree 24"),
    # p = 5: the p-th power map and the odd byte tables of F_25 and F_125
    ("f5_deg3", 0, f"--pair {GOLDEN / 'gl2_f5_deg24.pair'} --max-degree 3"),
    # p = 5 above fields.TABLE_LIMIT: residue fields of order 5^8
    ("f5_s2_d8", 0, f"--pair {GOLDEN / 'gl2_f5_deg24.pair'} --samples 2 --degree 8"),
]


@pytest.mark.parametrize("name,code,args", CASES, ids=[c[0] for c in CASES])
def test_split_check_golden(capsys, name, code, args):
    rc = main(["split-check", *args.split()])
    cap = capsys.readouterr()
    assert rc == code
    assert cap.out == (GOLDEN / f"{name}.out").read_text("utf-8")
    assert cap.err == ""
