"""Exact arithmetic tooling for comparing function fields through the
splitting behaviour of Drinfeld-module torsion polynomials, plus group-side
Gassmann-triple certification.

The exported names are resolved on first use: ``import ffequiv`` loads no
submodule, and ``ffequiv.X`` or ``from ffequiv import X`` imports X's home
module then.
"""

from importlib import import_module

# Each exported name and the module that defines it.
_HOME_OF = {
    "DrinfeldModule": "twisted",
    "EquivalenceReport": "splitting",
    "Exhaustive": "splitting",
    "Factorization": "poly",
    "FieldElement": "fields",
    "FiniteField": "fields",
    "GassmannCertificate": "gassmann",
    "MatElem": "gassmann",
    "MatGroup": "gassmann",
    "ParseError": "exprs",
    "Poly": "poly",
    "PrimeVerdict": "splitting",
    "Sampled": "splitting",
    "SideResult": "splitting",
    "SplitType": "splitting",
    "Subgroup": "gassmann",
    "TwistedPoly": "twisted",
    "YPoly": "twisted",
    "build_gl": "gassmann",
    "carlitz": "twisted",
    "compare_split_types": "splitting",
    "conjugacy_classes": "gassmann",
    "example1_subgroups": "gassmann",
    "extension_field": "fields",
    "factor": "poly",
    "irreducible_count": "splitting",
    "is_irreducible": "poly",
    "monic_irreducibles": "poly",
    "parse": "exprs",
    "parse_element": "exprs",
    "parse_modulus": "exprs",
    "permutation_character_fixpoints": "gassmann",
    "prime_field": "fields",
    "random_irreducible": "poly",
    "reduce_mod_prime": "splitting",
    "render_residue_poly": "exprs",
    "render_tpoly": "exprs",
    "render_twisted": "exprs",
    "render_ypoly": "exprs",
    "rho_eval": "twisted",
    "split_type": "splitting",
    "stabilizer_pair": "gassmann",
    "torsion_polynomial": "twisted",
    "verify_gassmann": "gassmann",
}

__all__ = sorted(_HOME_OF)


def __getattr__(name: str):
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
