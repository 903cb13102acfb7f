"""Byte-exact certificates and exit codes of `ffequiv gassmann`.

Each file under golden/gassmann/ is the stdout of the command next to it,
recorded before conjugacy classes and the conjugator search moved to index
tables (stab_f2_n4 and stab_f4_n3 before enumeration moved to row codes); a
change to the group code must leave every one of them as it is.  stab_f4_n3,
GL_3(F_4) with 181 440 elements, takes seconds, so CI diffs it from the CLI
instead of listing it here.  Example 1 is the n = 2 stabilizer pair over
F_p, so `--construction stabilizers` prints the ex1 goldens too; those rows
are told apart by a construction suffix on their ids.
"""

from pathlib import Path

import pytest

from ffequiv.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "gassmann"

CASES = [
    # (golden file, exit code, arguments after "gassmann")
    ("ex1_p3", 0, "--p 3 --n 2 --construction example1"),
    ("ex1_p5", 0, "--p 5 --n 2 --construction example1"),
    ("ex1_p7", 0, "--p 7 --n 2 --construction example1"),
    ("ex1_p3", 0, "--p 3 --n 2 --construction stabilizers"),
    ("ex1_p5", 0, "--p 5 --n 2 --construction stabilizers"),
    ("ex1_p7", 0, "--p 7 --n 2 --construction stabilizers"),
    ("stab_f2_n2", 1, "--p 2 --n 2 --construction stabilizers"),
    ("stab_f2_n3", 0, "--p 2 --n 3 --construction stabilizers"),
    ("stab_f2_n4", 0, "--p 2 --n 4 --construction stabilizers"),
    ("stab_f4", 0, "--p 2 --ext-modulus x^2+x+1 --n 2 --construction stabilizers"),
    ("stab_f8", 0, "--p 2 --ext-modulus x^3+x+1 --n 2 --construction stabilizers"),
    ("scal_f3_2", 1, "--p 3 --n 2 --construction stabilizers --scalar-subgroup 2"),
    ("scal_f5_4", 0, "--p 5 --n 2 --construction stabilizers --scalar-subgroup 4"),
    ("scal_f7_6", 0, "--p 7 --n 2 --construction stabilizers --scalar-subgroup 6"),
    ("gl3_f3_pm1", 0, "--p 3 --n 3 --construction stabilizers --scalar-subgroup 2"),
    ("f9_x", 0, "--p 3 --ext-modulus x^2+1 --n 2 --construction stabilizers --scalar-subgroup x"),
]


IDS = [
    f"{name}_stabilizers" if name.startswith("ex1") and "stabilizers" in args else name
    for name, _, args in CASES
]


@pytest.mark.parametrize("name,code,args", CASES, ids=IDS)
def test_gassmann_golden(capsys, name, code, args):
    rc = main(["gassmann", *args.split()])
    cap = capsys.readouterr()
    assert rc == code
    assert cap.out == (GOLDEN / f"{name}.out").read_text("utf-8")
    assert cap.err == ""
