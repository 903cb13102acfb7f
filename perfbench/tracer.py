"""Spans and call counts around ffequiv's public API, installed from outside.

The program is not edited: `install` replaces functions and methods of the
ffequiv modules with wrappers.  A module-level function is replaced in every
ffequiv namespace that holds it (``splitting.factor`` as well as
``poly.factor``), so calls made through any import are seen.

Spans are aggregated while they close, per (parent span, span) edge, so a
traced run keeps a few hundred numbers in memory instead of one record per
call.  Self time is a span's duration minus the time covered by its child
spans; counted (unspanned) calls are charged to whichever span encloses them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

MODULES = ("exprs", "fields", "poly", "twisted", "splitting", "gassmann", "cli")

# (module, attribute, span name).  "Class.method" patches the class.
SPANS = (
    ("cli", "main", "cli"),
    ("exprs", "parse", "exprs.parse"),
    ("exprs", "parse_element", "exprs.parse"),
    ("exprs", "parse_modulus", "exprs.parse"),
    ("exprs", "render_tpoly", "exprs.render"),
    ("exprs", "render_ypoly", "exprs.render"),
    ("exprs", "render_twisted", "exprs.render"),
    ("exprs", "render_residue_poly", "exprs.render"),
    ("poly", "Poly.__mul__", "poly.mul"),
    ("poly", "Poly.__rmul__", "poly.mul"),
    ("poly", "Poly.__divmod__", "poly.divmod"),
    ("poly", "poly_gcd", "poly.gcd"),
    ("poly", "pow_mod", "poly.pow_mod"),
    ("poly", "is_irreducible", "poly.is_irreducible"),
    ("poly", "factor", "poly.factor"),
    ("poly", "monic_irreducibles", "poly.monic_irreducibles"),
    ("twisted", "rho_eval", "twisted.rho_eval"),
    ("twisted", "torsion_polynomial", "twisted.torsion"),
    ("splitting", "compare_split_types", "splitting.compare"),
    ("splitting", "split_type", "splitting.split_type"),
    ("splitting", "reduce_mod_prime", "splitting.reduce"),
    ("gassmann", "build_gl", "gassmann.build_gl"),
    ("gassmann", "Subgroup.__init__", "gassmann.subgroup"),
    # keeps the subgroup filters out of the CLI's self time
    ("gassmann", "example1_subgroups", "gassmann.choose_subgroups"),
    ("gassmann", "stabilizer_pair", "gassmann.choose_subgroups"),
    ("gassmann", "MatGroup.conjugacy_classes", "gassmann.classes"),
    ("gassmann", "permutation_character_fixpoints", "gassmann.fixpoints"),
    ("gassmann", "verify_gassmann", "gassmann.verify"),
)

# Calls too frequent to span (over 10^6 per workload): counted only.
COUNTS = (
    ("fields", "FieldElement.__mul__", "fields.mul"),
    ("fields", "FieldElement.__add__", "fields.add"),
    ("fields", "FieldElement.__sub__", "fields.add"),
    ("fields", "FieldElement.inverse", "fields.inv"),
    ("twisted", "TwistedPoly.__mul__", "twisted.mul"),
    ("gassmann", "MatElem.mul", "gassmann.matmul"),
)

ROOT = "<root>"


class Tracer:
    """Holds the open-span stack, the per-edge aggregates and the counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = [[ROOT, 0.0]]  # frames: [span name, time covered by children]
        self.edges: dict[tuple[str, str], list] = {}  # -> [calls, total_s, self_s]
        self.counts: dict[str, list[int]] = {}

    def span(self, name: str, fn):
        clock, stack, edges = self.clock, self.stack, self.edges

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                parent[1] += dur
                edge = edges.get((parent[0], name))
                if edge is None:
                    edge = edges[(parent[0], name)] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += dur
                edge[2] += dur - frame[1]

        return wrapper

    def count(self, name: str, fn):
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def snapshot(self) -> dict:
        """Aggregates as plain JSON-ready data."""
        if len(self.stack) != 1:
            raise RuntimeError(f"{len(self.stack) - 1} spans still open")
        return {
            "edges": [[p, n, c, t, s] for (p, n), (c, t, s) in sorted(self.edges.items())],
            "counts": {k: v[0] for k, v in sorted(self.counts.items())},
        }


def _patch_function(modname: str, attr: str, wrap) -> None:
    orig = getattr(importlib.import_module(f"ffequiv.{modname}"), attr)
    wrapped = wrap(orig)
    holders = [m for k, m in list(sys.modules.items()) if k == "ffequiv" or k.startswith("ffequiv.")]
    for mod in holders:
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapped)


def _patch_method(modname: str, attr: str, wrap) -> None:
    cls_name, meth = attr.split(".")
    cls = getattr(importlib.import_module(f"ffequiv.{modname}"), cls_name)
    setattr(cls, meth, wrap(cls.__dict__[meth]))


def install(tracer: Tracer) -> None:
    """Import every traced ffequiv module and patch in the wrappers."""
    for modname in MODULES:
        importlib.import_module(f"ffequiv.{modname}")
    for table, make in ((SPANS, tracer.span), (COUNTS, tracer.count)):
        for modname, attr, name in table:
            patch = _patch_method if "." in attr else _patch_function
            patch(modname, attr, functools.partial(make, name))
