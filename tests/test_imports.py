"""The lazy package exports and the modules each subcommand loads.

The footprint cases count modules in a fresh interpreter; they time nothing.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ffequiv

SRC = Path(__file__).resolve().parent.parent / "src"

ALL = [
    "DrinfeldModule",
    "EquivalenceReport",
    "Exhaustive",
    "Factorization",
    "FieldElement",
    "FiniteField",
    "GassmannCertificate",
    "MatElem",
    "MatGroup",
    "ParseError",
    "Poly",
    "PrimeVerdict",
    "Sampled",
    "SideResult",
    "SplitType",
    "Subgroup",
    "TwistedPoly",
    "YPoly",
    "build_gl",
    "carlitz",
    "compare_split_types",
    "conjugacy_classes",
    "example1_subgroups",
    "extension_field",
    "factor",
    "irreducible_count",
    "is_irreducible",
    "monic_irreducibles",
    "parse",
    "parse_element",
    "parse_modulus",
    "permutation_character_fixpoints",
    "prime_field",
    "random_irreducible",
    "reduce_mod_prime",
    "render_residue_poly",
    "render_tpoly",
    "render_twisted",
    "render_ypoly",
    "rho_eval",
    "split_type",
    "stabilizer_pair",
    "torsion_polynomial",
    "verify_gassmann",
]

# Runs argv through cli.main (None: only import ffequiv) and prints, as JSON,
# the exit code, the loaded ffequiv modules, whether the pool's module is in,
# and which of the slow standard modules dataclasses and inspect are in.
PROBE = """
import json, sys
argv = json.loads(sys.argv[1])
code = None
if argv is None:
    import ffequiv
else:
    from ffequiv import cli
    try:
        code = cli.main(argv)
    except SystemExit as e:
        code = e.code
print(json.dumps({
    "code": code,
    "modules": sorted(k for k in sys.modules if k.split(".")[0] == "ffequiv"),
    "pool": "concurrent.futures.process" in sys.modules,
    "slow": [m for m in ("dataclasses", "inspect") if m in sys.modules],
}))
"""


def _footprint(argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argv)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _names(*modules):
    return ["ffequiv"] + [f"ffequiv.{m}" for m in modules]


@pytest.mark.parametrize(
    "argv, code, modules",
    [
        (None, None, _names()),
        (
            ["gassmann", "--p", "2", "--n", "2", "--construction", "stabilizers"],
            1,
            _names("cli", "fields", "gassmann"),
        ),
        (
            ["torsion", "--p", "3", "--rho", "tau^2 + T*tau + T", "--a", "T"],
            0,
            _names("cli", "exprs", "fields", "poly", "twisted"),
        ),
        (
            ["factor", "--p", "3", "--prime", "T + 1", "--poly", "y^2 + T"],
            0,
            _names("cli", "exprs", "fields", "poly", "splitting", "twisted"),
        ),
        (
            ["split-check", "--pair", "gl2_f3_deg8", "--max-degree", "1", "--jobs", "1"],
            0,
            _names("cli", "exprs", "fields", "poly", "splitting", "twisted"),
        ),
        (
            ["primes", "--p", "3", "--degree", "2"],
            0,
            _names("cli", "exprs", "fields", "poly", "twisted"),
        ),
        (["gassmann", "--p", "2"], 2, _names("cli")),
    ],
    ids=["import", "gassmann", "torsion", "factor", "split-check", "primes", "usage-error"],
)
def test_subcommand_import_footprint(argv, code, modules):
    got = _footprint(argv)
    assert got["code"] == code
    assert got["modules"] == modules
    assert got["pool"] is False
    # importing dataclasses loads inspect, ast, dis and tokenize: about 13 ms
    # of every start-up
    assert got["slow"] == []


def test_all_is_the_golden_list():
    assert ffequiv.__all__ == ALL


@pytest.mark.parametrize("name", ALL)
def test_export_is_the_object_of_its_home_module(name):
    value = getattr(ffequiv, name)
    assert value.__module__.startswith("ffequiv.")
    assert getattr(importlib.import_module(value.__module__), name) is value


def test_dir_and_star_import_cover_every_name():
    assert set(ALL) <= set(dir(ffequiv))
    namespace = {}
    exec("from ffequiv import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(ALL)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        ffequiv.no_such_name
