"""Exact arithmetic tooling for comparing function fields through the
splitting behaviour of Drinfeld-module torsion polynomials, plus group-side
Gassmann-triple certification.

The exported names are resolved on first use: ``import ffequiv`` loads no
submodule, and ``ffequiv.X`` or ``from ffequiv import X`` imports X's home
module then.
"""

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
    "Poly": "_dense",
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
    # __import__, not importlib.import_module: the import statement's path,
    # which -X importtime reports
    value = getattr(__import__(f"{__name__}.{module}", fromlist=[name]), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Record:
    """Base of the immutable value records: a subclass names its fields in
    ``__slots__`` and the defaults of trailing ones in ``_defaults``.
    Records are built from positional or keyword arguments, compare and
    hash by class and values, refuse assignment, and pickle through their
    constructor.  Not ``dataclasses``, which loads ``inspect`` at start-up.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        given = dict(zip(names, args), **kwargs)
        if len(args) > len(names) or len(given) < len(args) + len(kwargs) or not (
                set(names) - self._defaults.keys() <= given.keys() <= set(names)):
            raise TypeError(f"{type(self).__name__} takes the fields {names}")
        for name in names:
            object.__setattr__(self, name, given[name] if name in given else self._defaults[name])

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()
