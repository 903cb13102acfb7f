"""Exit codes, byte-exact stdout, and pair-file handling of the CLI."""

import subprocess
import sys
import time

import pytest

from ffequiv import fields, gassmann, poly, splitting, twisted
from ffequiv.cli import _read_pair_source, load_pair, main

DEG8_REPORT = """\
T\t1\t-\t-\tbad:repeated_factor_f
T + 1\t1\t[8]\t[8]\tequal
T + 2\t1\t[1,1,3,3]\t-\tbad:repeated_factor_g
T^2 + 1\t2\t[2,6]\t[2,6]\tequal
T^2 + T + 2\t2\t[1,1,2,2,2]\t-\tbad:repeated_factor_g
T^2 + 2*T + 2\t2\t[8]\t[8]\tequal
good=3 equal=3 unequal=0 bad=3 overall=consistent
"""


def run(capsys, argv):
    rc = main(argv)
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def test_torsion_golden_deg8(capsys):
    rc, out, err = run(
        capsys, ["torsion", "--p", "3", "--rho", "tau^2 + T*tau + T", "--a", "T", "--strip"]
    )
    assert rc == 0
    assert out == "y^8 + T*y^2 + T\n"
    assert err == ""


def test_torsion_golden_deg15(capsys):
    rc, out, _ = run(
        capsys,
        ["torsion", "--p", "2", "--rho", "tau^2 + tau + T", "--a", "T^2 + T + 1", "--strip"],
    )
    assert rc == 0
    assert out == "y^15 + (T^4 + T)*y^3 + (T^2 + T + 1)*y + T^2 + T + 1\n"


def test_torsion_without_strip(capsys):
    rc, out, _ = run(capsys, ["torsion", "--p", "3", "--rho", "tau + T", "--a", "T"])
    assert rc == 0
    assert out == "y^3 + T*y\n"


def test_torsion_invariant_violation(capsys):
    rc, out, err = run(
        capsys, ["torsion", "--p", "3", "--rho", "tau^2 + T*tau + 1", "--a", "T", "--strip"]
    )
    assert rc == 2
    assert out == ""
    assert "a_0 must equal T" in err


def test_torsion_parse_error(capsys, monkeypatch):
    rc, _, err = run(capsys, ["torsion", "--p", "3", "--rho", "tau^2 +", "--a", "T"])
    assert rc == 2
    assert err.startswith("error:")

    # an oversized torsion degree is refused before rho_a is evaluated
    def refuse(*args):
        raise AssertionError("rho_eval started")

    monkeypatch.setattr(twisted, "rho_eval", refuse)
    for p, a in (("3", "T^40"), ("2", "T^11")):
        rc, out, err = run(capsys, ["torsion", "--p", p, "--rho", "tau^2 + T*tau + T", "--a", a])
        assert rc == 2
        assert out == ""
        assert err.startswith("error: the a-torsion polynomial has degree")
        assert err.count("\n") == 1


def test_deeply_nested_expression_is_bad_input(capsys):
    deep = "(" * 3000 + "T" + ")" * 3000
    rc, out, err = run(capsys, ["torsion", "--p", "3", "--rho", "tau + T", "--a", deep])
    assert rc == 2
    assert out == ""
    assert err.startswith("error: nesting deeper than 100 levels")
    assert err.count("\n") == 1


def test_oversized_degrees_are_bad_input(capsys):
    # each would otherwise build a polynomial of degree near 10^9
    for argv in (
        ["torsion", "--p", "3", "--rho", "tau^2 + T*tau + T", "--a", "T^999999999"],
        ["factor", "--p", "3", "--prime", "T+1", "--poly", "y^999999999"],
        ["torsion", "--p", "3", "--rho", "tau^999999999 + T", "--a", "T"],
    ):
        start = time.monotonic()
        rc, out, err = run(capsys, argv)
        assert time.monotonic() - start < 5, argv
        assert rc == 2
        assert out == ""
        assert err.startswith("error: degree above the limit of 1048576")
        assert err.count("\n") == 1


def test_factor_inert_prime(capsys):
    rc, out, _ = run(
        capsys, ["factor", "--p", "3", "--prime", "T + 1", "--poly", "y^8 + T*y^2 + T"]
    )
    assert rc == 0
    assert out == "y^8 + 2*y^2 + 2\ntype=[8]\n"


def test_factor_refuses_work_that_cannot_finish(capsys, monkeypatch):
    # each ran for minutes: refused before the residue field is built
    def refuse(*args):
        raise AssertionError("reduction started")

    monkeypatch.setattr(splitting, "reduce_mod_prime", refuse)
    for p, prime, poly_, refused in (
        ("2", "T", "y^4000 + y + 1", "4000 over GF(2)"),
        ("3", "T^11 + T^2 + 2", "y^100 + y + T + 1", "100 over GF(3^11)"),
    ):
        rc, out, err = run(capsys, ["factor", "--p", p, "--prime", prime, "--poly", poly_])
        assert rc == 2
        assert out == ""
        assert err.startswith(f"error: factoring a polynomial of degree {refused} is above the work")
        assert err.count("\n") == 1
    # the largest degree admitted over F_2, and the benchmark's input over F_4
    for argv in (["--p", "2", "--prime", "T", "--poly", "y^1625 + y + 1"],
                 ["--p", "2", "--prime", "T^2 + T + 1", "--poly", "y^255 + y + 1"]):
        with pytest.raises(AssertionError, match="reduction started"):
            main(["factor", *argv])
    rc, _, err = run(capsys, ["factor", "--p", "2", "--prime", "T", "--poly", "y^1626 + y + 1"])
    assert rc == 2
    assert err.startswith("error: factoring a polynomial of degree 1626 over GF(2)")


def test_factor_refuses_a_prime_above_the_work_limit(capsys, monkeypatch):
    # Ben-Or's test of P is a DDF prefix, bounded as a factorization of
    # degree deg P: at degree 2281 over F_2 it ran for 52 s
    def refuse(*args):
        raise AssertionError("irreducibility tested")

    monkeypatch.setattr(splitting, "is_irreducible", refuse)
    rc, out, err = run(capsys, ["factor", "--p", "2", "--prime", "T^2281+T^715+1", "--poly", "y+1"])
    assert rc == 2
    assert out == ""
    assert err.startswith("error: factoring a polynomial of degree 2281 over GF(2) is above the work")
    assert err.count("\n") == 1
    # a prime of degree 1279 is admitted and tested
    with pytest.raises(AssertionError, match="irreducibility tested"):
        main(["factor", "--p", "2", "--prime", "T^1279+T^216+1", "--poly", "y+1"])


def test_factor_split_prime(capsys):
    rc, out, _ = run(
        capsys, ["factor", "--p", "3", "--prime", "T^2 + 1", "--poly", "y^8 + T*y^2 + T"]
    )
    assert rc == 0
    assert out == (
        "y^2 + T + 1\n"
        "y^6 + (2*T + 2)*y^4 + 2*T*y^2 + 2*T + 2\n"
        "type=[2,6]\n"
    )


def test_factor_repeated_factors(capsys):
    rc, out, _ = run(
        capsys, ["factor", "--p", "3", "--prime", "T", "--poly", "y^8 + T*y^2 + T"]
    )
    assert rc == 0
    assert out == "(y)^8\ntype=[1,1,1,1,1,1,1,1]\n"


def test_factor_unit_line(capsys):
    rc, out, _ = run(
        capsys, ["factor", "--p", "3", "--prime", "T + 1", "--poly", "2*y^2 + T"]
    )
    assert rc == 0
    assert out == "unit=2\ny^2 + 1\ntype=[2]\n"


def test_factor_poly_from_file(capsys, tmp_path):
    src = tmp_path / "f.txt"
    src.write_text("y^8 + T*y^2 + T\n")
    rc, out, _ = run(
        capsys, ["factor", "--p", "3", "--prime", "T + 1", "--poly", f"@{src}"]
    )
    assert rc == 0
    assert out == "y^8 + 2*y^2 + 2\ntype=[8]\n"


def test_factor_reducible_prime(capsys):
    rc, out, err = run(
        capsys, ["factor", "--p", "3", "--prime", "T^2 + 2", "--poly", "y^8 + T*y^2 + T"]
    )
    assert rc == 2
    assert out == ""
    assert "must be irreducible" in err


def test_split_check_shipped_pair(capsys):
    rc, out, _ = run(capsys, ["split-check", "--pair", "gl2_f3_deg8", "--max-degree", "2"])
    assert rc == 0
    assert out == DEG8_REPORT


def test_split_check_accepts_suffix(capsys):
    rc, out, _ = run(
        capsys, ["split-check", "--pair", "gl2_f3_deg8.pair", "--max-degree", "2"]
    )
    assert rc == 0
    assert out == DEG8_REPORT


def test_split_check_refuted(capsys, tmp_path):
    pf = tmp_path / "bad.pair"
    pf.write_text("p = 3\nf = y^8 + T*y^2 + T\ng = y^8 + T*y^2 + T + 1\n")
    rc, out, _ = run(capsys, ["split-check", "--pair", str(pf), "--max-degree", "2"])
    assert rc == 1
    assert out.strip().splitlines()[-1].endswith("overall=refuted")
    assert "UNEQUAL" in out


def test_split_check_identical_pair(capsys, tmp_path):
    pf = tmp_path / "same.pair"
    pf.write_text("p = 3\nf = y^2 + T\ng = y^2 + T\n")
    rc, out, _ = run(capsys, ["split-check", "--pair", str(pf), "--max-degree", "1"])
    assert rc == 0
    assert "UNEQUAL" not in out


def test_split_check_sampled(capsys):
    rc, out, _ = run(
        capsys,
        ["split-check", "--pair", "gl2_f3_deg8", "--samples", "3", "--degree", "3"],
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert lines[-1].endswith("overall=consistent")


def test_split_check_samples_need_degree(capsys):
    rc, _, err = run(capsys, ["split-check", "--pair", "gl2_f3_deg8", "--samples", "3"])
    assert rc == 2
    assert "--samples requires --degree" in err


def test_split_check_degree_needs_samples(capsys):
    rc, _, err = run(
        capsys,
        ["split-check", "--pair", "gl2_f3_deg8", "--max-degree", "1", "--degree", "2"],
    )
    assert rc == 2
    assert "--degree only applies to --samples" in err


def test_split_check_selection_flags_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["split-check", "--pair", "gl2_f3_deg8", "--max-degree", "1", "--samples", "2"])
    assert exc.value.code == 2


def test_split_check_prime_count_cap(capsys, monkeypatch):
    # 533 830 primes of degree <= 14 over F_3: refused before any listing
    def refuse(*args):
        raise AssertionError("listing started")

    monkeypatch.setattr(splitting, "_orbit_roots", refuse)
    rc, out, err = run(capsys, ["split-check", "--pair", "gl2_f3_deg8", "--max-degree", "14"])
    assert rc == 2
    assert out == ""
    assert err == (
        "error: 533830 primes have degree <= 14 over GF(3), "
        f"more than the limit of {splitting.PRIME_COUNT_LIMIT} for one comparison\n"
    )


def test_split_check_sampled_work_cap(capsys, monkeypatch):
    # a degree-999 prime, or 10 000 of degree 64, would take hours: refused
    # before any draw
    def refuse(*args):
        raise AssertionError("drawing started")

    monkeypatch.setattr(splitting, "_random_irreducibles", refuse)
    limit = splitting.SAMPLED_WORK_LIMIT
    for count, degree in ((3, 999), (10_000, 64), (101, 64)):
        rc, out, err = run(capsys, ["split-check", "--pair", "gl2_f3_deg8", "--samples",
                                    str(count), "--degree", str(degree)])
        assert rc == 2
        assert out == ""
        assert err == (
            f"error: {count} sampled primes of degree {degree} are above the work limit of "
            f"one comparison (count * degree^3 = {count * degree**3} > {limit})\n"
        )
    # the limit itself is admitted, and 3 primes of degree 40
    assert limit == 100 * 64**3
    for count, degree in ((100, 64), (3, 40)):
        with pytest.raises(AssertionError, match="drawing started"):
            main(["split-check", "--pair", "gl2_f3_deg8", "--samples", str(count),
                  "--degree", str(degree)])


def test_split_check_unknown_pair(capsys):
    rc, _, err = run(capsys, ["split-check", "--pair", "nope", "--max-degree", "1"])
    assert rc == 2
    assert "no such pair file" in err


def test_split_check_jobs_invariant(capsys):
    rc1, out1, _ = run(
        capsys, ["split-check", "--pair", "gl2_f3_deg8", "--max-degree", "2", "--jobs", "1"]
    )
    rc2, out2, _ = run(
        capsys, ["split-check", "--pair", "gl2_f3_deg8", "--max-degree", "2", "--jobs", "2"]
    )
    assert (rc1, out1) == (rc2, out2)


def test_gassmann_example1(capsys):
    rc, out, _ = run(capsys, ["gassmann", "--p", "3", "--n", "2", "--construction", "example1"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "gassmann=true nontrivial=true index=8"
    assert len(lines) == 9  # 8 conjugacy classes of GL_2(F_3) plus the verdict


def test_gassmann_trivial_pair(capsys):
    rc, out, _ = run(
        capsys, ["gassmann", "--p", "2", "--n", "2", "--construction", "stabilizers"]
    )
    assert rc == 1
    assert out.strip().splitlines()[-1] == "gassmann=true nontrivial=false index=3"


def test_gassmann_extension_field(capsys):
    rc, out, _ = run(
        capsys,
        [
            "gassmann",
            "--p", "2",
            "--ext-modulus", "x^2+x+1",
            "--n", "2",
            "--construction", "stabilizers",
        ],
    )
    assert rc == 0
    assert out.strip().splitlines()[-1] == "gassmann=true nontrivial=true index=15"


def test_gassmann_cap_exceeded(capsys):
    rc, _, err = run(
        capsys,
        ["gassmann", "--p", "3", "--n", "2", "--construction", "stabilizers", "--cap", "10"],
    )
    assert rc == 2
    assert "enumeration cap exceeded" in err
    # over F_10007^4 the order bound refuses before x^4 + x + 6 is tested
    rc, _, err = run(
        capsys,
        [
            "gassmann",
            "--p", "10007",
            "--ext-modulus", "x^4+x+6",
            "--n", "2",
            "--construction", "stabilizers",
            "--cap", "1000",
        ],
    )
    assert rc == 2
    assert err.startswith("error: enumeration cap exceeded")
    assert len(err.splitlines()) == 1


def test_gassmann_cap_message_for_a_huge_order(capsys):
    # |GL_200(F_7)| has over 30 000 digits, more than Python converts to text
    rc, out, err = run(capsys, ["gassmann", "--p", "7", "--n", "200", "--construction", "stabilizers"])
    assert rc == 2
    assert out == ""
    assert err.startswith("error: enumeration cap exceeded: group order of 112")
    assert len(err.splitlines()) == 1


def test_gassmann_cap_refuses_before_the_order(capsys, monkeypatch):
    # |GL_100000(F_2)| has about 10^10 bits: a lower bound refuses it at once
    def refuse(*args):
        raise AssertionError("exact group order computed")

    monkeypatch.setattr(gassmann, "_gl_order", refuse)
    rc, out, err = run(capsys, ["gassmann", "--p", "2", "--n", "100000", "--construction", "stabilizers"])
    assert rc == 2
    assert out == ""
    assert err.startswith("error: enumeration cap exceeded: group order of over ")
    assert len(err.splitlines()) == 1


def _refuse_extension_field(*args, **kwargs):
    raise AssertionError("extension modulus tested")


def test_gassmann_refuses_before_the_modulus(capsys, monkeypatch):
    # Ben-Or's test of a degree-4000 modulus would come first and take seconds
    monkeypatch.setattr(fields, "extension_field", _refuse_extension_field)
    argv = ["gassmann", "--p", "2", "--ext-modulus", "x^4000+x+1", "--construction", "stabilizers"]
    for n, message in [
        ("2", "enumeration cap exceeded: group order of over 7998 bits > cap 1000000"),
        ("1", "stabilizer pair needs dimension at least 2"),
    ]:
        rc, out, err = run(capsys, argv + ["--n", n])
        assert rc == 2
        assert out == ""
        assert err == f"error: {message}\n"


def test_gassmann_example1_needs_prime_field(capsys, monkeypatch):
    monkeypatch.setattr(fields, "extension_field", _refuse_extension_field)
    rc, _, err = run(
        capsys,
        [
            "gassmann",
            "--p", "2",
            "--ext-modulus", "x^2+x+1",
            "--n", "2",
            "--construction", "example1",
        ],
    )
    assert rc == 2
    assert "prime field" in err
    # F_2 is refused once it is built, before GL_2(F_2) is listed
    rc, out, err = run(capsys, ["gassmann", "--p", "2", "--n", "2", "--construction", "example1"])
    assert rc == 2
    assert out == ""
    assert err == "error: example 1 requires a prime field with p > 2\n"


def test_gassmann_example1_honours_the_cap(capsys):
    # example1 builds GL_2(F_p) as stabilizers does, so --cap bounds both alike
    for args, message in [
        ("--p 7 --cap 10", "group order 2016 > cap 10"),
        ("--p 3 --cap 128", "group order 48 and 81 table entries > cap 128"),
        ("--p 101 --cap 1000", "group order 103020000 > cap 1000"),
    ]:
        outcomes = [
            run(capsys, ["gassmann", "--n", "2", "--construction", c, *args.split()])
            for c in ("example1", "stabilizers")
        ]
        assert outcomes[0] == outcomes[1] == (2, "", f"error: enumeration cap exceeded: {message}\n")
    # a larger cap admits a larger group
    rc, out, _ = run(capsys, ["gassmann", "--p", "3", "--n", "2", "--construction", "example1", "--cap", "129"])
    assert rc == 0
    assert out.endswith("gassmann=true nontrivial=true index=8\n")


def test_gassmann_scalar_generator_over_a_prime_field(capsys):
    # x names the generator of an extension field, and GF(3) has none
    rc, out, err = run(capsys, ["gassmann", "--p", "3", "--n", "2", "--construction", "stabilizers",
                                "--scalar-subgroup", "x"])
    assert (rc, out) == (2, "")
    assert err == (
        "error: symbol 'x' is not allowed over GF(3): a prime field has no generator x, "
        "only integers (position 0)\n"
    )


def test_gassmann_bad_construction(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gassmann", "--p", "3", "--n", "2", "--construction", "mystery"])
    assert exc.value.code == 2


def test_primes_degree_one(capsys):
    rc, out, _ = run(capsys, ["primes", "--p", "3", "--degree", "1"])
    assert rc == 0
    assert out == "T\nT + 1\nT + 2\ncount=3\n"


def test_primes_counts(capsys):
    rc, out, _ = run(capsys, ["primes", "--p", "3", "--degree", "2"])
    assert rc == 0
    assert out.strip().splitlines()[-1] == "count=3"
    rc, out, _ = run(capsys, ["primes", "--p", "2", "--degree", "4"])
    assert rc == 0
    assert out.strip().splitlines()[-1] == "count=3"


def test_primes_extension_field(capsys):
    rc, out, _ = run(
        capsys, ["primes", "--p", "2", "--ext-modulus", "x^2+x+1", "--degree", "2"]
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "count=6"  # (16 - 4) / 2
    assert lines[0] == "T^2 + T + 2"


def test_primes_sieve_bound_before_the_modulus(capsys, monkeypatch):
    # Ben-Or's test of a degree-999999 modulus would come first and not end
    monkeypatch.setattr(fields, "extension_field", _refuse_extension_field)
    rc, out, err = run(capsys, ["primes", "--p", "2", "--ext-modulus", "x^999999+1", "--degree", "1"])
    assert rc == 2
    assert out == ""
    assert err == (
        "error: listing degree-1 irreducibles over GF(2^999999) sieves (2^999999)^1 "
        "candidates, more than the limit of 1048576\n"
    )


def test_primes_refuses_a_sieve_that_cannot_finish(capsys, monkeypatch):
    # 4^12 = 2^24 candidates sieved for minutes: refused before the field is
    # built, and nothing is sieved
    def refuse(*args):
        raise AssertionError("sieving started")

    monkeypatch.setattr(poly, "_irr_packed", refuse)
    # the limit itself is admitted
    assert poly.SIEVE_LIMIT == 1 << 20
    for argv in (["--p", "2", "--degree", "20"],
                 ["--p", "2", "--ext-modulus", "x^2+x+1", "--degree", "10"]):
        with pytest.raises(AssertionError, match="sieving started"):
            main(["primes", *argv])
    monkeypatch.setattr(fields, "extension_field", _refuse_extension_field)
    for argv, listing in (
        (["--p", "2", "--ext-modulus", "x^2+x+1", "--degree", "12"],
         "degree-12 irreducibles over GF(2^2) sieves (2^2)^12"),
        (["--p", "2", "--degree", "21"], "degree-21 irreducibles over GF(2) sieves 2^21"),
        (["--p", "3", "--degree", "13"], "degree-13 irreducibles over GF(3) sieves 3^13"),
    ):
        rc, out, err = run(capsys, ["primes", *argv])
        assert rc == 2
        assert out == ""
        assert err == f"error: listing {listing} candidates, more than the limit of 1048576\n"


def test_primes_bad_degree(capsys):
    rc, _, err = run(capsys, ["primes", "--p", "3", "--degree", "0"])
    assert rc == 2
    assert "degree must be at least 1" in err
    # 2^40 sieve entries: refused before anything is allocated
    rc, _, err = run(capsys, ["primes", "--p", "2", "--degree", "40"])
    assert rc == 2
    assert err == (
        "error: listing degree-40 irreducibles over GF(2) sieves 2^40 candidates, "
        "more than the limit of 1048576\n"
    )
    # a prime p above the sieve limit, found prime at once by Miller-Rabin
    rc, _, err = run(capsys, ["primes", "--p", "1000000000000000003", "--degree", "1"])
    assert rc == 2
    assert err == (
        "error: listing degree-1 irreducibles over GF(1000000000000000003) sieves "
        "1000000000000000003^1 candidates, more than the limit of 1048576\n"
    )
    # a p whose primality Miller-Rabin on bases 2..41 does not decide
    rc, _, err = run(capsys, ["primes", "--p", str(10**30 + 57), "--degree", "1"])
    assert rc == 2
    assert err == (
        f"error: cannot decide whether {10**30 + 57} is prime: "
        "the limit is 3317044064679887385961981\n"
    )


def test_no_subcommand():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_pair_file_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown key"):
        load_pair("p = 3\nf = y\ng = y\nh = y\n")


def test_pair_file_rejects_duplicate_key():
    with pytest.raises(ValueError, match="duplicate key"):
        load_pair("p = 3\np = 5\nf = y\ng = y\n")


def test_pair_file_requires_fg():
    with pytest.raises(ValueError, match="missing required key"):
        load_pair("p = 3\nf = y^2 + T\n")


def test_pair_file_rejects_bare_line():
    with pytest.raises(ValueError, match="expected key = value"):
        load_pair("p = 3\nstray\nf = y\ng = y\n")


def test_pair_file_comments_and_description():
    pair = load_pair("# heading\np = 3  # trailing\nf = y^2 + T\ng = y^2 + T\ndescription = demo\n")
    assert pair.field.p == 3
    assert pair.description == "demo"


@pytest.mark.parametrize(
    "name,argv",
    [
        (
            "gl2_f3_deg8",
            ["torsion", "--p", "3", "--rho", "tau^2 + T*tau + T", "--a", "T", "--strip"],
        ),
        (
            "gl2_f4_deg15",
            ["torsion", "--p", "2", "--rho", "tau^2 + tau + T", "--a", "T^2 + T + 1", "--strip"],
        ),
    ],
)
def test_shipped_f_matches_generated_torsion(capsys, name, argv):
    source = _read_pair_source(name)
    stored = next(
        line.partition("=")[2].strip()
        for line in source.splitlines()
        if line.startswith("f =")
    )
    rc, out, _ = run(capsys, argv)
    assert rc == 0
    assert out == stored + "\n"


def test_console_entry_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "ffequiv.cli", "primes", "--p", "3", "--degree", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "T\nT + 1\nT + 2\ncount=3\n"
