"""Command-line driver tying the pipeline together.

Subcommands: torsion (build a torsion polynomial), factor (factor a
y-polynomial modulo a prime of F_p[T]), split-check (batch splitting
comparison of a shipped or user pair), gassmann (certificate for a
subgroup pair in GL_n), primes (list monic irreducibles).

Data goes to standard output, diagnostics to standard error.  Exit codes
are a contract: 0 success (consistent report, nontrivial triple), 1 a
mathematical negative (refuted report, trivial or failed triple), 2 bad
input or usage.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING

from . import _Record

# Annotations only: each command imports what it runs, so that a start-up
# loads no module the chosen command does not use, and argparse loads only
# to parse a command line.
if TYPE_CHECKING:
    import argparse

    from .fields import FiniteField

PAIR_KEYS = frozenset({"p", "f", "g", "description"})


class PairData(_Record):
    __slots__ = ("field", "f", "g", "description")


def load_pair(text: str) -> PairData:
    """Parse a pair file: `key = value` lines, # comments, keys p/f/g/description."""
    data: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ValueError(f"pair file line {lineno}: expected key = value")
        key = key.strip()
        if key not in PAIR_KEYS:
            raise ValueError(f"pair file line {lineno}: unknown key {key!r}")
        if key in data:
            raise ValueError(f"pair file line {lineno}: duplicate key {key!r}")
        data[key] = value.strip()
    for key in ("p", "f", "g"):
        if key not in data:
            raise ValueError(f"pair file is missing required key {key!r}")
    from .exprs import parse
    from .fields import prime_field

    field = prime_field(int(data["p"]))
    f = parse(data["f"], "y_poly", field)
    g = parse(data["g"], "y_poly", field)
    return PairData(field, f, g, data.get("description", ""))


def _read_pair_source(name: str) -> str:
    """Resolve --pair: a filesystem path, else a shipped pair by name."""
    from importlib import resources
    from pathlib import Path

    path = Path(name)
    if path.is_file():
        return path.read_text(encoding="utf-8")
    root = resources.files(__package__) / "pairs"
    for candidate in (name, name + ".pair"):
        res = root / candidate
        if res.is_file():
            return res.read_text(encoding="utf-8")
    raise ValueError(f"no such pair file: {name}")


def _modulus(args) -> list[int] | None:
    """The coefficients of --ext-modulus, low degree first; None without it."""
    if not args.ext_modulus:
        return None
    from .exprs import parse_modulus

    return parse_modulus(args.ext_modulus, args.p)


def _field_for(p: int, modulus: list[int] | None) -> FiniteField:
    """F_p, or F_p[x]/(modulus) once Ben-Or's test accepts the modulus."""
    if modulus is not None:
        from .fields import extension_field

        return extension_field(p, modulus=modulus)
    from .fields import prime_field

    return prime_field(p)


def cmd_torsion(args) -> int:
    from .exprs import parse, render_ypoly
    from .fields import prime_field
    from .twisted import DrinfeldModule, torsion_polynomial

    field = prime_field(args.p)
    rho = DrinfeldModule(parse(args.rho, "twisted", field))
    a = parse(args.a, "t_poly", field)
    tors = torsion_polynomial(rho, a, strip_trivial_root=args.strip)
    print(render_ypoly(tors))
    return 0


def cmd_factor(args) -> int:
    from .exprs import parse, render_residue_poly
    from .fields import prime_field
    from .poly import Poly, check_factor, factor
    from .splitting import reduce_mod_prime

    field = prime_field(args.p)
    P = parse(args.prime, "t_poly", field)
    text = args.poly
    if text.startswith("@"):
        from pathlib import Path

        text = Path(text[1:]).read_text(encoding="utf-8").strip()
    f = parse(text, "y_poly", field)
    # the work bound, checked before the residue field is built
    check_factor(args.p, P.degree, f.degree)
    red = reduce_mod_prime(f, P)
    fac = factor(red, seed=args.seed)
    if fac.unit != red.field.one:
        print(f"unit={render_residue_poly(Poly.constant(red.field, fac.unit))}")
    for h, mult in fac.factors:
        line = render_residue_poly(h)
        print(line if mult == 1 else f"({line})^{mult}")
    print(f"type=[{','.join(str(d) for d in fac.degrees())}]")
    return 0


def cmd_split_check(args) -> int:
    from .splitting import Exhaustive, Sampled, compare_split_types

    pair = load_pair(_read_pair_source(args.pair))
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1")
    if args.samples is not None:
        if args.degree is None:
            raise ValueError("--samples requires --degree")
        selection = Sampled(args.samples, args.degree)
    else:
        if args.degree is not None:
            raise ValueError("--degree only applies to --samples")
        selection = Exhaustive(args.max_degree)
    report = compare_split_types(pair.f, pair.g, selection, seed=args.seed, jobs=args.jobs)
    print(report.render())
    return 0 if report.overall == "consistent" else 1


def cmd_gassmann(args) -> int:
    from .gassmann import build_gl, check_cap, example1_subgroups, stabilizer_pair, verify_gassmann

    # every refusal that needs no field comes before the modulus is tested
    if args.construction == "example1":
        # Example 1 is the stabilizer pair of GL_2(F_p), p > 2
        if args.n != 2:
            raise ValueError("example1 is a GL_2 construction; use --n 2")
        if args.ext_modulus:
            raise ValueError("example1 runs over a prime field")
        if args.scalar_subgroup != "1":
            raise ValueError("example1 uses the trivial scalar subgroup")
    elif args.n < 2:
        raise ValueError("stabilizer pair needs dimension at least 2")
    modulus = _modulus(args)
    if modulus is not None:
        check_cap(args.p, len(modulus) - 1, args.n, args.cap)
    field = _field_for(args.p, modulus)
    if args.construction == "example1":
        H, Hp = example1_subgroups(field, cap=args.cap)
    else:
        gen = None
        if args.scalar_subgroup != "1":
            from .exprs import parse_element

            gen = parse_element(args.scalar_subgroup, field)
        H, Hp = stabilizer_pair(build_gl(args.n, field, scalar_generator=gen, cap=args.cap))
    cert = verify_gassmann(H.parent, H, Hp)
    print(cert.render())
    return 0 if cert.is_gassmann and cert.is_nontrivial else 1


def cmd_primes(args) -> int:
    if args.degree < 1:
        raise ValueError("degree must be at least 1")
    from .fields import _int_monomials
    from .poly import check_sieve, monic_irreducibles

    modulus = _modulus(args)
    if modulus is not None:
        # the sieve's bound, checked before Ben-Or's test of the modulus
        check_sieve(args.p, len(modulus) - 1, args.degree)
    primes = monic_irreducibles(_field_for(args.p, modulus), args.degree)
    for P in primes:
        # a coefficient is shown by its element index, its value in a prime field
        print(" + ".join(_int_monomials(P.coeffs, "T")))
    print(f"count={len(primes)}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="ffequiv",
        description="Split equivalence of function fields: torsion polynomials, "
        "prime splitting reports, Gassmann certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the options that several subcommands share, each declared once
    char = argparse.ArgumentParser(add_help=False)
    char.add_argument("--p", type=int, required=True, help="characteristic")
    ext = argparse.ArgumentParser(add_help=False)
    ext.add_argument("--ext-modulus", help="modulus in x for a coefficient field F_{p^m}")

    t = sub.add_parser("torsion", parents=[char], help="torsion polynomial of a Drinfeld module")
    t.add_argument(
        "--rho", required=True, help="image of T, e.g. 'tau^2 + T*tau + T'"
    )
    t.add_argument("--a", required=True, help="torsion parameter, a polynomial in T")
    t.add_argument(
        "--strip", action="store_true", help="divide out the trivial root y"
    )
    t.set_defaults(func=cmd_torsion)

    fa = sub.add_parser("factor", parents=[char], help="factor a y-polynomial modulo a prime")
    fa.add_argument("--prime", required=True, help="monic irreducible in T")
    fa.add_argument(
        "--poly", required=True, help="y-polynomial expression, or @file to read one"
    )
    fa.add_argument("--seed", type=int, default=0)
    fa.set_defaults(func=cmd_factor)

    sc = sub.add_parser("split-check", help="compare splitting behaviour of a pair")
    sc.add_argument(
        "--pair", required=True, help="pair file path, or the name of a shipped pair"
    )
    sel = sc.add_mutually_exclusive_group(required=True)
    sel.add_argument(
        "--max-degree", type=int, help="run all primes of degree up to this"
    )
    sel.add_argument("--samples", type=int, help="number of random primes to draw")
    sc.add_argument(
        "--degree", type=int, help="degree of sampled primes (with --samples)"
    )
    sc.add_argument("--seed", type=int, default=0, help="seed of the --samples draw")
    sc.add_argument("--jobs", type=int, default=1, help="parallel workers")
    sc.set_defaults(func=cmd_split_check)

    ga = sub.add_parser("gassmann", parents=[char, ext], help="verify a Gassmann pair of subgroups")
    ga.add_argument("--n", type=int, required=True, help="matrix dimension")
    ga.add_argument(
        "--construction", choices=["example1", "stabilizers"], required=True
    )
    ga.add_argument(
        "--scalar-subgroup",
        default="1",
        help="generator of the central scalar subgroup, or 1 for trivial",
    )
    ga.add_argument("--cap", type=int, default=10**6, help="enumeration cap")
    ga.set_defaults(func=cmd_gassmann)

    pr = sub.add_parser("primes", parents=[char, ext], help="list monic irreducibles of one degree")
    pr.add_argument("--degree", type=int, required=True)
    pr.set_defaults(func=cmd_primes)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
