"""Parsing and canonical rendering of polynomial expressions.

The accepted language covers polynomials in T (t_poly mode), polynomials
in y with T-polynomial coefficients (y_poly mode), and twisted polynomials
in tau (twisted mode).  One grammar serves all modes:

    expr   := term (("+"|"-") term)*
    term   := factor ("*" factor)*
    factor := atom ("^" nat)?
    atom   := nat | symbol | "(" expr ")" | "-" atom

Whitespace is ignored, "*" is mandatory (no implicit multiplication), and
exponents are literal non-negative integers.  Parentheses and unary minus
nest at most MAX_NESTING levels deep.  Every mode evaluates with the ring
operators of its values, and refuses a product or power whose degree in
y, tau or T would pass DEGREE_LIMIT before computing it.  In twisted mode
each term must first be checked to have the shape coefficient * tau^i,
with the tau power as the trailing factor; anything that would need the
commutation rule to normalize, such as "tau*T" or "(tau + T)*T", is
rejected instead of silently rewritten.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING

from .fields import DEGREE_LIMIT, FieldElement, FiniteField, _int_monomials, prime_field

# Annotations only: parse imports each ring when it builds a value in it, so
# that parse_element compiles no polynomial code.
if TYPE_CHECKING:
    from ._dense import Poly
    from .twisted import TwistedPoly, YPoly

_SYMBOLS = ("T", "y", "tau", "x")
MAX_NESTING = 100
_MODE_SYMBOLS = {
    "t_poly": ("T",),
    "y_poly": ("T", "y"),
    "twisted": ("T", "tau"),
    "x_poly": ("x",),
}


class ParseError(ValueError):
    """Syntax or symbol error, with the offending position attached."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


def _tokenize(text: str):
    toks = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("nat", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            name = text[i:j]
            if name not in _SYMBOLS:
                raise ParseError(f"unknown symbol '{name}'", i)
            toks.append(("sym", name, i))
            i = j
            continue
        if ch in "+-*^()":
            toks.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character '{ch}'", i)
    toks.append(("end", "", n))
    return toks


class _Parser:
    """Recursive descent over the token stream, producing a plain AST.

    Nodes are tuples (kind, position, *payload) with kinds nat, sym, sum,
    prod, pow, neg.  A sum or prod holds all its operands (a subtracted term
    as a neg), so a long flat expression stays one level deep.  Parentheses
    only group; they leave no node.
    """

    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def parse(self):
        node = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError("trailing input", pos)
        return node

    def expr(self):
        terms = [self.term()]
        while self.peek()[0] in ("+", "-"):
            op, _, pos = self.next()
            rhs = self.term()
            terms.append(rhs if op == "+" else ("neg", pos, rhs))
        return terms[0] if len(terms) == 1 else ("sum", pos, tuple(terms))

    def term(self):
        factors = [self.factor()]
        while self.peek()[0] == "*":
            _, _, pos = self.next()
            factors.append(self.factor())
        return factors[0] if len(factors) == 1 else ("prod", pos, tuple(factors))

    def factor(self):
        node = self.atom()
        if self.peek()[0] == "^":
            _, _, pos = self.next()
            kind, value, vpos = self.peek()
            if kind != "nat":
                raise ParseError("exponent must be a non-negative integer", vpos)
            self.next()
            node = ("pow", pos, node, value)
        return node

    def atom(self):
        kind, value, pos = self.next()
        if kind == "nat":
            return ("nat", pos, value)
        if kind == "sym":
            return ("sym", pos, value)
        if kind == "-":
            return ("neg", pos, self.nested(self.atom, pos))
        if kind == "(":
            node = self.nested(self.expr, pos)
            k2, _, p2 = self.next()
            if k2 != ")":
                raise ParseError("expected ')'", p2)
            return node
        raise ParseError(f"expected a value, found '{value or 'end of input'}'", pos)

    def nested(self, rule, pos):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", pos)
        node = rule()
        self.depth -= 1
        return node


def _not_allowed(name: str, mode: str, pos: int) -> ParseError:
    return ParseError(f"symbol '{name}' is not allowed in {mode} mode", pos)


def _over_t_degrees(value) -> tuple[int, int]:
    """The degree of a YPoly or TwistedPoly in y or tau and the largest
    T-degree of its coefficients."""
    return value.degree, max((len(c.coeffs) for c in value.coeffs), default=0) - 1


def _within_limit(degrees, pos: int):
    if max(degrees) > DEGREE_LIMIT:
        raise ParseError(f"degree above the limit of {DEGREE_LIMIT}", pos)


def _monomial(var, e: int):
    """var**e for the value of a symbol, built directly: var is the variable
    of its ring, or T as a constant of y or tau."""
    c = var.coeffs[-1]
    if var.degree == 0:
        return var._make(var.field, [_monomial(c, e)])
    return var._make(var.field, [var.coeffs[0]] * e + [c])


def _eval_commutative(node, consts, env, mode, degrees):
    """Evaluate the AST with the ring operators of the values; before each
    product and power, refuse a result above DEGREE_LIMIT.  degrees(value)
    is the degree of a value in its variable (y, tau or T) and the largest
    T-degree of its coefficients."""
    kind = node[0]
    if kind == "nat":
        return consts(node[2])
    if kind == "sym":
        name = node[2]
        if name not in env:
            raise _not_allowed(name, mode, node[1])
        return env[name]
    if kind in ("sum", "prod"):
        vals = (_eval_commutative(t, consts, env, mode, degrees) for t in node[2])
        acc = next(vals)
        for v in vals:
            if kind == "sum":
                acc = acc + v
            else:
                _within_limit(map(operator.add, degrees(acc), degrees(v)), node[1])
                acc = acc * v
        return acc
    if kind == "pow":
        base, e = _eval_commutative(node[2], consts, env, mode, degrees), node[3]
        _within_limit((d * e for d in degrees(base)), node[1])
        if node[2][0] == "sym" and not isinstance(base, FieldElement):
            return _monomial(base, e)
        return base**e
    if kind == "neg":
        return -_eval_commutative(node[2], consts, env, mode, degrees)
    raise AssertionError(f"unhandled node {kind}")


def _flatten(node, kinds) -> list:
    """The operands of node, read through nested nodes of the given kinds."""
    kind = node[0]
    if kind not in kinds:
        return [node]
    children = node[2] if kind in ("sum", "prod") else (node[2],)  # pow, neg: one
    return [leaf for child in children for leaf in _flatten(child, kinds)]


def _check_twisted(ast):
    """Accept only terms of the shape coefficient * tau^i: tau may appear
    only as the trailing, possibly negated, plain power of its term.  The
    first fault in the order of terms and factors is reported, a foreign
    symbol in a coefficient among them."""
    for term in _flatten(ast, ("sum", "neg")):
        factors = _flatten(term, ("prod",))
        for idx, fct in enumerate(factors):
            leaves = _flatten(fct, ("sum", "prod", "pow", "neg"))
            syms = [leaf for leaf in leaves if leaf[0] == "sym"]
            if all(name != "tau" for _, _, name in syms):
                for _, pos, name in syms:
                    if name != "T":
                        raise _not_allowed(name, "twisted", pos)
                continue
            if idx != len(factors) - 1:
                raise ParseError("tau power must be the trailing factor of its term", fct[1])
            base = fct[2] if fct[0] == "pow" else fct
            while base[0] == "neg":
                base = base[2]
            if base[0] != "sym" or base[2] != "tau":
                raise ParseError(
                    "tau may only appear as a plain power, not inside a product "
                    "or parenthesized expression",
                    fct[1],
                )


def parse(text: str, mode: str, field: FiniteField):
    """Parse text into a Poly, YPoly, or TwistedPoly over the given field.

    mode is one of t_poly, y_poly, twisted.  Integer literals are reduced
    into the field; symbols outside the mode's alphabet are rejected with
    the position where they occur.
    """
    if mode not in _MODE_SYMBOLS:
        raise ValueError(f"unknown parse mode {mode!r}")
    ast = _Parser(text).parse()
    from ._dense import Poly

    if mode in ("t_poly", "x_poly"):
        (var,) = _MODE_SYMBOLS[mode]
        return _eval_commutative(
            ast, lambda n: Poly.constant(field, field(n)), {var: Poly.x(field)}, mode,
            lambda v: (v.degree, 0),
        )
    from .twisted import TwistedPoly, YPoly

    if mode == "twisted":
        _check_twisted(ast)
        ring, var = TwistedPoly, "tau"
    else:
        ring, var = YPoly, "y"
    env = {"T": ring.constant(field, Poly.x(field)), var: ring.x(field)}
    return _eval_commutative(
        ast, lambda n: ring.constant(field, Poly.constant(field, field(n))), env, mode,
        _over_t_degrees,
    )


def parse_modulus(text: str, p: int) -> list[int]:
    """Parse a polynomial in x over F_p and return its integer coefficients."""
    poly = parse(text, "x_poly", prime_field(p))
    return list(poly.coeffs)


def parse_element(text: str, field: FiniteField) -> FieldElement:
    """Parse an expression in x as an element of the given field.

    x stands for the field generator; integers embed via the prime subfield.
    """
    ast = _Parser(text).parse()
    env = {"x": field.gen} if field.m > 1 else {}
    return _eval_commutative(ast, field, env, "x_poly", lambda v: (0, 0))


def render_tpoly(poly: Poly, var: str = "T") -> str:
    """Canonical rendering of a polynomial over a prime field."""
    if poly.field.m != 1:
        raise ValueError("render_tpoly requires a prime base field")
    parts = _int_monomials(poly.coeffs, var)
    return " + ".join(parts) if parts else "0"


def _graded_render(coeffs, outer: str, monomials, is_one) -> str:
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        terms = monomials(c)
        if not terms:
            continue
        if k == 0:
            parts.extend(terms)
            continue
        ov = outer if k == 1 else f"{outer}^{k}"
        if is_one(c):
            parts.append(ov)
        elif len(terms) == 1:
            parts.append(f"{terms[0]}*{ov}")
        else:
            parts.append(f"({' + '.join(terms)})*{ov}")
    return " + ".join(parts) if parts else "0"


def _render_over_t(poly, outer: str, name: str) -> str:
    if poly.field.m != 1:
        raise ValueError(f"{name} requires a prime base field")
    return _graded_render(
        poly.coeffs,
        outer,
        lambda c: _int_monomials(c.coeffs, "T"),
        lambda c: c.is_one,
    )


def render_ypoly(poly: YPoly) -> str:
    """Canonical rendering with T-polynomial coefficients, e.g. y^8 + T*y^2 + T."""
    return _render_over_t(poly, "y", "render_ypoly")


def render_twisted(poly: TwistedPoly) -> str:
    """Canonical rendering in tau, e.g. tau^2 + T*tau + T."""
    return _render_over_t(poly, "tau", "render_twisted")


def render_residue_poly(poly: Poly, var: str = "y") -> str:
    """Render a polynomial whose coefficients live in a residue field F_p[T]/(P).

    Field elements are written as polynomials in T; a degree-1 modulus
    collapses them to plain integers.
    """
    f = poly.field
    return _graded_render(
        poly.coeffs,
        var,
        lambda c: _int_monomials(f.unpack(c), "T"),
        lambda c: c == 1,
    )
