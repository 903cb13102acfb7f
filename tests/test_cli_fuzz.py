"""Seeded fuzz of the CLI's exit-code contract.

About 500 command lines are built from a small grammar over the five
subcommands: each option is left out, given a valid value, an edge value or
a malformed one, and now and then a flag is unknown or repeated.  Every
input is bounded so that an admitted run takes milliseconds (expression
degrees at most 3, at most 3 samples, --cap at most 1000, --jobs only 0, 1
or -1, so that no worker process starts); an oversized value is one the
program must refuse before the work.  Each line runs in-process under a
3-second alarm and must end in exit 0, 1 or 2 without a traceback, and on
exit 2 with an empty stdout and one ``error:`` line on stderr (after
argparse's usage lines, if any).
"""

import random
import signal
from pathlib import Path

import pytest

from ffequiv.cli import main

pytestmark = pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")

CASES = 500
SEED = 2021
ALARM_S = 3

GOLDEN_PAIR = str(Path(__file__).resolve().parent / "golden" / "split" / "gl2_f5_deg24.pair")

# each option: (flag, valid values, edge or malformed values, chance of
# leaving it out); a valid value is well-formed and small, not always
# admissible (a reducible --prime, an --n that example1 refuses)
P = ("--p", ["2", "3", "5", "7"], ["0", "1", "-3", "4", "9", "1000000007", str(10**30 + 57), "2.5", "x", ""], 0.05)
T_POLY = (["T", "T + 1", "T^2 + 1", "T^2 + T + 2", "T^3 + T + 1", "T^3 + 2", "(T + 1)^3", "2*T + 1"],
          ["T^2", "0", "1", "", "T^", "(T + 1", "T^-1", "T + + 1", "y", "x", "T^1048577", "T^999999999"])
Y_POLY = (["y^3 + T", "y^2 + y + 1", "y^3 + T*y + 1", "y^2 - T", "(y + T)^2", "y^3 + (T + 1)*y^2 + T^2"],
          ["y", "T", "0", "1", "", "y^", "y^1048577", "tau + T", "y^2 + @"])
RHO = (["tau^2 + T*tau + T", "tau + T", "tau^2 + tau + T", "tau^3 + T", "tau^3 + T*tau^2 + tau + T"],
       ["tau^2 + T*tau + 1", "T*tau^2 + T", "T", "0", "", "tau^", "tau^-1", "y + T", "tau^1048577 + T",
        "tau^999999999 + T"])
MODULUS = (["x^2 + x + 1", "x^2 + 1", "x^2 + 2"],
           ["x^3 + x + 1", "x^2", "x + 1", "x", "1", "0", "", "x^", "y^2 + 1", "x^1048577", "x^2 + x + 1 + T"])
COUNT = (["1", "2", "3"], ["0", "-1", "", "abc", "1.5"])
SEED_OPT = ("--seed", ["0", "1", "7"], ["-1", "", "abc", "99999999999999999999999"], 0.5)

COMMANDS = {
    "torsion": [P, ("--rho", *RHO, 0.05), ("--a", *T_POLY, 0.05), ("--strip", None, None, 0.5)],
    "factor": [P, ("--prime", *T_POLY, 0.05), ("--poly", *Y_POLY, 0.05), SEED_OPT],
    "gassmann": [P, ("--ext-modulus", *MODULUS, 0.8), ("--n", ["2", "2", "3"], ["0", "1", "-1", "abc"], 0.05),
                 ("--construction", ["example1", "stabilizers"], ["other", ""], 0.05),
                 ("--scalar-subgroup", ["1", "2", "x", "x + 1"], ["0", "-1", "", "abc", "x^"], 0.7),
                 ("--cap", ["100", "200", "1000"], ["0", "1", "-1", "abc"], 0)],
    "primes": [P, ("--ext-modulus", *MODULUS, 0.6), ("--degree", ["1", "2"], ["3", "0", "-1", "25", "abc"], 0.05)],
}


def _split_check(rng):
    options = [("--pair", [], [], 0.05), SEED_OPT, ("--jobs", ["1"], ["0", "-1"], 0.5)]
    # the selection: exhaustive, sampled, both (refused) or neither (refused)
    kind = rng.choices(range(4), weights=(4, 4, 1, 1))[0]
    if kind in (0, 2):
        options.append(("--max-degree", *COUNT, 0))
    if kind in (1, 2):
        options.append(("--samples", *COUNT, 0.05))
    if kind == 1 or rng.random() < 0.1:
        options.append(("--degree", *COUNT, 0.05))
    return options


def _command_line(rng, files):
    """A command line; files maps --pair and --poly to (valid, edge) values
    that name files."""
    name = rng.choice(["split-check", *COMMANDS])
    options = _split_check(rng) if name == "split-check" else COMMANDS[name]
    argv = [name]
    for flag, valid, edge, omit in options:
        if rng.random() < omit:
            continue
        if valid is None:
            argv.append(flag)
            continue
        if flag in files:
            valid, edge = valid + files[flag][0], edge + files[flag][1]
        argv += [flag, rng.choice(valid if rng.random() < 0.85 else edge)]
    if rng.random() < 0.05:
        argv.append(rng.choice(["--bogus", "--p", "extra", "--jobs=1"]))
    return argv


def _files(tmp_path):
    """The file-backed values of --pair and --poly: {flag: (valid, edge)}."""
    texts = {
        "refuted": "p = 3\nf = y^2 + T\ng = y^2 + T + 1\n",
        "identical": "p = 2\nf = y^3 + y + T\ng = y^3 + y + T\n",
        "big_p": "p = 1000000007\nf = y^2 + T\ng = y^2 + 2*T\n",
        "missing_g": "p = 3\nf = y^2 + T\n",
        "bad_key": "p = 3\nf = y\ng = y\nh = y\n",
        "bad_p": "p = 4\nf = y^2 + T\ng = y^2 + T\n",
        "bad_f": "p = 3\nf = y^2 +\ng = y\n",
        "constant": "p = 3\nf = 1\ng = T\n",
        "bare": "p 3\n",
    }
    pairs = {}
    for name, text in texts.items():
        pairs[name] = str(tmp_path / f"{name}.pair")
        Path(pairs[name]).write_text(text, encoding="utf-8")
    poly = tmp_path / "poly.txt"
    poly.write_text("y^3 + T*y + 1\n", encoding="utf-8")
    return {
        "--pair": (["gl2_f3_deg8", "gl2_f4_deg15", "gl2_f4_deg15.pair", GOLDEN_PAIR,
                    pairs.pop("refuted"), pairs.pop("identical")],
                   [*pairs.values(), "no_such_pair", "", str(tmp_path)]),
        "--poly": ([f"@{poly}"], [f"@{tmp_path / 'missing.txt'}", f"@{tmp_path}", "@"]),
    }


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def _fault(argv, capsys):
    """What breaks the contract on this command line, or None."""
    signal.alarm(ALARM_S)
    try:
        rc = main(argv)
    except SystemExit as e:
        rc = e.code
    except _Timeout:
        return f"no exit within {ALARM_S} s"
    except Exception as e:  # a traceback, had it run as a program
        return f"uncaught {type(e).__name__}: {e}"
    finally:
        signal.alarm(0)
    out, err = capsys.readouterr()
    if rc not in (0, 1, 2):
        return f"exit code {rc!r}"
    if "Traceback" in err:
        return "traceback on stderr"
    if rc == 2:
        lines = err.splitlines()
        if out:
            return f"exit 2 with stdout {out!r}"
        if not lines or "error:" not in lines[-1] or any("error:" in line for line in lines[:-1]):
            return f"exit 2 without one closing error line: {err!r}"
        if len(lines) > 1 and not lines[0].startswith("usage:"):
            return f"exit 2 with more than the error line: {err!r}"
    return None


def test_cli_exit_code_contract(capsys, tmp_path):
    rng = random.Random(SEED)
    files = _files(tmp_path)
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        faults = []
        for _ in range(CASES):
            argv = _command_line(rng, files)
            fault = _fault(argv, capsys)
            if fault is not None:
                faults.append((argv, fault))
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert not faults, faults[:5]
