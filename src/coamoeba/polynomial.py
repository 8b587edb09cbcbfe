"""Sparse multivariate polynomials over the rationals.

Terms map exponent vectors to nonzero Fraction coefficients; exponents are
nonnegative.  The canonical term order is graded lexicographic (total degree
first, then the exponent vector), descending, which makes ``format`` a
stable serialization: ``parse(format(p)) == p``.

Grammar accepted by ``parse``::

    poly   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor (('*')? factor)*          # juxtaposition multiplies
    factor := coeff | var ['^' int | '**' int]
    coeff  := int [ '/' int ]                  # e.g. 3, -7, 3/4

Variables are single tokens.  When a variable list is supplied, a run of
letters such as ``qr`` is split greedily against it, so displays like
``16q^3r^2`` parse as written; without a declared list each maximal
name run is one variable, collected in order of first appearance.

Initial forms use the MIN convention: the terms whose exponent vector
minimizes the pairing with the given weight (inner normals to a face of the
Newton polytope).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import PolySyntaxError, UnknownVariable, WrongLength

Exponents = tuple[int, ...]


@dataclass(frozen=True)
class SparsePoly:
    variables: tuple[str, ...]
    terms: tuple[tuple[Exponents, Fraction], ...]

    def __post_init__(self):
        nv = len(self.variables)
        clean = {}
        for exps, coeff in self.terms:
            exps = tuple(int(e) for e in exps)
            if len(exps) != nv or any(e < 0 for e in exps):
                raise ValueError("bad exponent vector")
            coeff = Fraction(coeff)
            if coeff:
                clean[exps] = clean.get(exps, Fraction(0)) + coeff
        ordered = tuple(
            (e, c)
            for e, c in sorted(clean.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)
            if c
        )
        object.__setattr__(self, "terms", ordered)

    # -- construction ----------------------------------------------------------

    @staticmethod
    def from_dict(variables, mapping) -> "SparsePoly":
        return SparsePoly(tuple(variables), tuple(mapping.items()))

    @staticmethod
    def zero(variables) -> "SparsePoly":
        return SparsePoly(tuple(variables), ())

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _var_index(self, var: str) -> int:
        try:
            return self.variables.index(var)
        except ValueError:
            raise UnknownVariable(f"unknown variable {var!r}") from None

    # -- arithmetic (only what the library needs) --------------------------------

    def __mul__(self, other: "SparsePoly") -> "SparsePoly":
        if self.variables != other.variables:  # exponents pair by position
            raise WrongLength(f"variables {self.variables} and {other.variables} differ")
        out: dict[Exponents, Fraction] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return SparsePoly.from_dict(self.variables, out)

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        if self.variables != other.variables:  # exponents pair by position
            raise WrongLength(f"variables {self.variables} and {other.variables} differ")
        out = dict(self.terms)
        for e, c in other.terms:
            out[e] = out.get(e, Fraction(0)) - c
        return SparsePoly.from_dict(self.variables, out)


def _cleared(p: SparsePoly):
    """p with its coefficient denominators cleared, for ``_term_values``.

    Returns (L, terms, degrees): L is the lcm of the coefficient
    denominators, terms pairs each exponent vector with the integer L * c,
    and degrees holds the top exponent of each variable.
    """
    lcm = math.lcm(*(c.denominator for _, c in p.terms))
    terms = tuple((e, c.numerator * (lcm // c.denominator)) for e, c in p.terms)
    degrees = tuple(map(max, zip(*(e for e, _ in terms))))  # empty for p = 0
    return lcm, terms, degrees


def _term_values(cleared, nums, dens) -> tuple[list[int], int]:
    """Each term of p at the point nums[j] / dens[j], times K, and K.

    With K = L * prod_j dens[j]^deg_j, term c * y^e times K is the integer
    (L * c) * prod_j nums[j]^e_j * dens[j]^(deg_j - e_j).  Each coordinate
    gets one table of those factors for e_j = 0 .. deg_j, so each factor is
    computed once per point, not once per term.  The dens must be nonzero.
    """
    scale, terms, degrees = cleared
    tables = []
    for num, den, k in zip(nums, dens, degrees):
        tables.append([num**e * den ** (k - e) for e in range(k + 1)])
        scale *= den**k
    values = []
    for exps, value in terms:
        for e, table in zip(exps, tables):
            value *= table[e]
        values.append(value)
    return values, scale


def evaluate_exact(p: SparsePoly, point) -> Fraction:
    """Exact value at a rational point (length must match the variables)."""
    pt = [Fraction(x) for x in point]
    if len(pt) != len(p.variables):
        raise WrongLength("point length must match the number of variables")
    values, scale = _term_values(
        _cleared(p), [x.numerator for x in pt], [x.denominator for x in pt]
    )
    return Fraction(sum(values), scale)


def partial_derivative(p: SparsePoly, var: str) -> SparsePoly:
    j = p._var_index(var)
    out: dict[Exponents, Fraction] = {}
    for exps, coeff in p.terms:
        if exps[j] == 0:
            continue
        e = list(exps)
        c = coeff * e[j]
        e[j] -= 1
        out[tuple(e)] = out.get(tuple(e), Fraction(0)) + c
    return SparsePoly.from_dict(p.variables, out)


def initial_form(p: SparsePoly, w) -> SparsePoly:
    """Terms minimizing <w, exponent>; the face of the Newton polytope w exposes."""
    if not p.terms:
        return p
    wv = [Fraction(x) for x in w]
    if len(wv) != len(p.variables):
        raise WrongLength("weight length must match the number of variables")
    vals = [sum(a * b for a, b in zip(wv, exps)) for exps, _ in p.terms]
    lo = min(vals)
    kept = {exps: c for (exps, c), v in zip(p.terms, vals) if v == lo}
    return SparsePoly.from_dict(p.variables, kept)


# -- text format ----------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+\s*/\s*\d+|\d+)|([A-Za-z_]\w*)|(\*\*|[-+*^()]))")


def _tokenize(text: str, variables) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise PolySyntaxError(f"unexpected character at position {pos}: {text[pos]!r}")
        pos = m.end()
        num, name, op = m.groups()
        if num is not None:
            tokens.append(("num", num.replace(" ", "")))
        elif name is not None:
            if variables is not None and name not in variables:
                # split a letter run like "qr" greedily against declared names
                rest = name
                while rest:
                    hit = next(
                        (v for v in sorted(variables, key=len, reverse=True) if rest.startswith(v)),
                        None,
                    )
                    if hit is None:
                        raise PolySyntaxError(f"unknown name {rest!r} in {name!r}")
                    tokens.append(("var", hit))
                    rest = rest[len(hit):]
            else:
                tokens.append(("var", name))
        else:
            tokens.append(("op", "^" if op == "**" else op))
    return tokens


class _Parser:
    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.i = 0
        self.variables = variables  # list, grows when inferring

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def parse_poly(self):
        terms: dict[tuple, Fraction] = {}
        sign = 1
        kind, val = self.peek()
        if kind == "op" and val in "+-":
            self.take()
            sign = -1 if val == "-" else 1
        while True:
            coeff, exps = self.parse_term()
            key = tuple(exps)
            terms[key] = terms.get(key, Fraction(0)) + sign * coeff
            kind, val = self.peek()
            if kind is None:
                break
            if kind == "op" and val in "+-":
                self.take()
                sign = -1 if val == "-" else 1
            else:
                raise PolySyntaxError(f"expected + or - before token {val!r}")
        return terms

    def parse_term(self):
        coeff = Fraction(1)
        powers: dict[str, int] = {}
        saw_factor = False
        expect_factor = False
        while True:
            kind, val = self.peek()
            if kind == "num":
                self.take()
                coeff *= Fraction(val)
                saw_factor = True
                expect_factor = False
            elif kind == "var":
                self.take()
                exp = 1
                k2, v2 = self.peek()
                if k2 == "op" and v2 == "^":
                    self.take()
                    k3, v3 = self.take()
                    if k3 != "num" or "/" in v3:
                        raise PolySyntaxError("exponent must be a nonnegative integer")
                    exp = int(v3)
                powers[val] = powers.get(val, 0) + exp
                saw_factor = True
                expect_factor = False
            elif kind == "op" and val == "*" and saw_factor and not expect_factor:
                self.take()
                expect_factor = True
            else:
                break
        if expect_factor:
            raise PolySyntaxError("dangling '*' without a following factor")
        if not saw_factor:
            raise PolySyntaxError("empty term")
        for v in powers:
            if v not in self.variables:
                self.variables.append(v)
        exps = [powers.get(v, 0) for v in self.variables]
        return coeff, exps


def parse(text: str, variables=None) -> SparsePoly:
    """Parse the documented grammar into a SparsePoly.

    With ``variables`` given, the variable set and order are fixed (and
    letter runs split against it); otherwise variables are collected in
    order of first appearance.
    """
    declared = list(variables) if variables is not None else None
    tokens = _tokenize(text, declared)
    parser = _Parser(tokens, declared if declared is not None else [])
    raw = parser.parse_poly()
    final_vars = tuple(parser.variables)
    terms = {}
    for exps, coeff in raw.items():
        padded = tuple(exps) + (0,) * (len(final_vars) - len(exps))
        terms[padded] = terms.get(padded, Fraction(0)) + coeff
    return SparsePoly.from_dict(final_vars, terms)


def format_poly(p: SparsePoly) -> str:
    """Canonical graded-lex rendering; inverse of ``parse`` for this format."""
    if not p.terms:
        return "0"
    pieces = []
    for exps, coeff in p.terms:
        body = []
        for v, e in zip(p.variables, exps):
            if e == 1:
                body.append(v)
            elif e > 1:
                body.append(f"{v}^{e}")
        mag = abs(coeff)
        if not body:
            body_txt = str(mag)
        elif mag == 1:
            body_txt = "*".join(body)
        else:
            body_txt = "*".join([str(mag)] + body)
        pieces.append(("-" if coeff < 0 else "+", body_txt))
    sign0, body0 = pieces[0]
    out = ("-" if sign0 == "-" else "") + body0
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


def read_polynomial_file(path) -> SparsePoly:
    """Plain-text polynomial file: variables on line 1, the polynomial after."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.read().splitlines()
        except UnicodeDecodeError as exc:
            raise PolySyntaxError(f"{path} is not UTF-8 text: {exc}") from exc
    if not lines:
        raise PolySyntaxError("empty polynomial file")
    variables = lines[0].replace(",", " ").split()
    body = " ".join(lines[1:]).strip()
    if not body:
        raise PolySyntaxError("polynomial file has no body")
    return parse(body, variables)
