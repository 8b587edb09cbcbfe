"""Sparse multivariate polynomials over the rationals.

Terms map exponent vectors to nonzero Fraction coefficients; exponents are
nonnegative.  The canonical term order is graded lexicographic (total degree
first, then the exponent vector), descending, which makes ``format`` a
stable serialization: ``parse(format(p)) == p``.

Grammar accepted by ``parse``::

    poly   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor (('*')? factor)*          # juxtaposition multiplies
    factor := coeff | var ['^' int | '**' int]
    coeff  := int ['/' nonzero int]            # e.g. 3, 3/4

An int is a run of the ASCII digits 0-9, and ``parse`` refuses a
coefficient or exponent of more than ``MAX_EXACT_BITS`` bits.  Variables are
single tokens.  When a variable list is supplied, a run of letters such as
``qr`` is split greedily against it, so displays like ``16q^3r^2`` parse as
written; without a declared list each maximal name run is one variable,
collected in order of first appearance.

The ``SparsePoly`` constructor alone merges terms: it sums the coefficients
of equal exponent vectors and drops zeros, so ``parse``, the arithmetic and
``partial_derivative`` hand it raw (exponents, coefficient) pairs.

Initial forms use the MIN convention: the terms whose exponent vector
minimizes the pairing with the given weight (inner normals to a face of the
Newton polytope).
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import PolySyntaxError, TooLarge, UnknownVariable, WrongLength

Exponents = tuple[int, ...]


@dataclass(frozen=True)
class SparsePoly:
    """Terms in canonical order, equal exponent vectors merged, zeros dropped."""

    variables: tuple[str, ...]
    terms: tuple[tuple[Exponents, Fraction], ...]

    def __post_init__(self):
        nv = len(self.variables)
        clean = {}
        for exps, coeff in self.terms:
            exps = tuple(int(e) for e in exps)
            if len(exps) != nv or any(e < 0 for e in exps):
                raise ValueError("bad exponent vector")
            clean[exps] = clean.get(exps, 0) + Fraction(coeff)
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
        return SparsePoly(
            self.variables,
            tuple(
                (tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
                for e1, c1 in self.terms
                for e2, c2 in other.terms
            ),
        )

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        if self.variables != other.variables:  # exponents pair by position
            raise WrongLength(f"variables {self.variables} and {other.variables} differ")
        return SparsePoly(self.variables, self.terms + tuple((e, -c) for e, c in other.terms))


# The most bits an exact value may take: a number in a parsed polynomial, a
# coordinate of psi, or f's terms and Euler sums at a point (``TooLarge``
# past it).  An int of 14 000 bits has at most 4215 decimal digits, inside
# Python's 4300-digit limit on converting an int to a string.
MAX_EXACT_BITS = 14_000


def _require_bits(bits: int, what: str) -> None:
    if bits > MAX_EXACT_BITS:
        raise TooLarge(f"{what} would take up to {bits} bits, past the bound of {MAX_EXACT_BITS}")


def _cleared(p: SparsePoly):
    """p with its coefficient denominators cleared, for ``_term_block``.

    Returns (L, coeffs, exps, columns): L is the lcm of the coefficient
    denominators, coeffs the integers L * c and exps the exponent vectors,
    in object arrays of Python ints, and columns per variable its top
    exponent (0 for p = 0), the exponents p uses, sorted, and their indices.
    """
    lcm = math.lcm(*(c.denominator for _, c in p.terms))
    coeffs = np.array([c.numerator * (lcm // c.denominator) for _, c in p.terms], dtype=object)
    exps = np.array([e for e, _ in p.terms], dtype=object).reshape(len(p.terms), len(p.variables))
    used = [(np.array(sorted(set(c)), dtype=object), c) for c in exps.T.tolist()]
    columns = ((max(u, default=0), u, np.searchsorted(u, c)) for u, c in used)
    return lcm, coeffs, exps, tuple(columns)


def _value_bits(cleared, logs) -> int:
    """A bound on the bits of ``_term_block``'s values and scales and of their
    Euler sums, at points whose coordinate j is a numerator over a
    denominator, each at most 2^logs[j] in size."""
    lcm, coeffs, _, columns = cleared
    degrees = [deg for deg, _, _ in columns]
    head = max([lcm, *map(abs, coeffs)]).bit_length() + len(coeffs).bit_length()
    return head + max(degrees, default=0).bit_length() + sum(map(operator.mul, degrees, logs))


def _term_block(cleared, nums, dens) -> tuple[np.ndarray, np.ndarray]:
    """Each term of p at each point nums[i] / dens[i], times K_i, and each K_i.

    With K_i = L * prod_j dens[i, j]^deg_j, term c * y^e times K_i is the
    integer (L * c) * prod_j nums[i, j]^e_j * dens[i, j]^(deg_j - e_j).
    Each variable gets one table of those factors at the exponents p uses,
    and the term values are the (points x terms) product of its columns
    picked by the terms.  Values are Python ints in object arrays (complex
    where nums are); dens must be nonzero.
    """
    lcm, coeffs, _, columns = cleared
    values = np.repeat(coeffs[None], len(nums), axis=0)
    scale = np.full(len(nums), lcm, dtype=object)
    for j, (deg, used, index) in enumerate(columns):
        table = nums[:, j, None] ** used * dens[:, j, None] ** (deg - used)
        values *= table[:, index]
        scale *= dens[:, j] ** deg
    return values, scale


def evaluate_exact(p: SparsePoly, point) -> Fraction:
    """Exact value at a rational point (length must match the variables)."""
    pt = [Fraction(x) for x in point]
    if len(pt) != len(p.variables):
        raise WrongLength("point length must match the number of variables")
    parts = np.array([[x.numerator for x in pt], [x.denominator for x in pt]], dtype=object)
    values, scale = _term_block(_cleared(p), parts[:1], parts[1:])
    return Fraction(sum(values[0]), scale[0])


def partial_derivative(p: SparsePoly, var: str) -> SparsePoly:
    j = p._var_index(var)
    return SparsePoly(
        p.variables,
        tuple((e[:j] + (e[j] - 1,) + e[j + 1:], c * e[j]) for e, c in p.terms if e[j]),
    )

def initial_form(p: SparsePoly, w) -> SparsePoly:
    """Terms minimizing <w, exponent>; the face of the Newton polytope w exposes."""
    if not p.terms:
        return p
    wv = [Fraction(x) for x in w]
    if len(wv) != len(p.variables):
        raise WrongLength("weight length must match the number of variables")
    vals = [sum(a * b for a, b in zip(wv, exps)) for exps, _ in p.terms]
    lo = min(vals)
    return SparsePoly(p.variables, tuple(t for t, v in zip(p.terms, vals) if v == lo))


# -- text format ----------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:([0-9]+\s*/\s*[0-9]+|[0-9]+)|([A-Za-z_]\w*)|(\*\*|[-+*^()]))")


def _tokenize(text: str, variables) -> list[tuple[str, str]]:
    tokens = []
    longest_first = sorted(variables or (), key=len, reverse=True)
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
                    hit = next((v for v in longest_first if rest.startswith(v)), None)
                    if hit is None:
                        raise PolySyntaxError(f"unknown name {rest!r} in {name!r}")
                    tokens.append(("var", hit))
                    rest = rest[len(hit):]
            else:
                tokens.append(("var", name))
        else:
            tokens.append(("op", "^" if op == "**" else op))
    return tokens


def parse(text: str, variables=None) -> SparsePoly:
    """Parse the documented grammar into a SparsePoly.

    With ``variables`` given, the variable set and order are fixed (and
    letter runs split against it); the names must be nonempty and distinct.
    Otherwise variables are collected in order of first appearance.
    """
    names = list(variables) if variables is not None else []
    if "" in names:
        raise PolySyntaxError("empty variable name")
    if len(set(names)) < len(names):
        repeated = next(v for i, v in enumerate(names) if v in names[:i])
        raise PolySyntaxError(f"repeated variable name {repeated!r}")
    tokens = _tokenize(text, None if variables is None else names)
    if tokens[:1] not in ([("op", "+")], [("op", "-")]):
        tokens.insert(0, ("op", "+"))  # the leading sign is optional
    tokens.append(("op", "+"))  # each sign closes the term before it
    terms = []  # (coefficient, powers) of each closed term
    sign = None  # the open term's sign, None before the first sign
    coeff, powers, factor, star, last = Fraction(1), {}, False, False, None
    it = iter(tokens)
    for kind, val in it:
        if kind == "num":
            try:
                coeff *= Fraction(val)
            except ZeroDivisionError:
                raise PolySyntaxError(f"coefficient {val} has a zero denominator") from None
            except ValueError as exc:  # past Python's limit on the digits of an int
                raise PolySyntaxError(f"coefficient: {exc}") from None
            factor, star, last = True, False, None
        elif kind == "var":
            powers[val] = powers.get(val, 0) + 1
            if val not in names:
                names.append(val)
            factor, star, last = True, False, val
        elif val == "^" and last is not None:
            kind, val = next(it)  # the closing sign guarantees a token
            if kind != "num" or "/" in val:
                raise PolySyntaxError("exponent must be a nonnegative integer")
            try:
                powers[last] += int(val) - 1
            except ValueError as exc:  # past Python's limit on the digits of an int
                raise PolySyntaxError(f"exponent: {exc}") from None
            last = None
        elif val == "*" and factor and not star:
            star, last = True, None
        elif val in ("+", "-"):
            if sign is not None:
                if star or not factor:
                    raise PolySyntaxError("dangling '*'" if star else "empty term")
                terms.append((sign * coeff, powers))
            sign = -1 if val == "-" else 1
            coeff, powers, factor, star, last = Fraction(1), {}, False, False, None
        else:
            raise PolySyntaxError(f"unexpected {val!r}")
    poly = SparsePoly(
        tuple(names), tuple((tuple(p.get(v, 0) for v in names), c) for c, p in terms)
    )
    numbers = (max(abs(c.numerator), c.denominator, *e) for e, c in poly.terms)
    if max(numbers, default=0).bit_length() > MAX_EXACT_BITS:
        raise PolySyntaxError(f"a coefficient or exponent passes {MAX_EXACT_BITS} bits")
    return poly


def format_poly(p: SparsePoly) -> str:
    """Canonical graded-lex rendering; inverse of ``parse`` for this format."""
    if not p.terms:
        return "0"
    text = " ".join(
        f"{'-' if c < 0 else '+'} {_monomial(p.variables, e, abs(c))}" for e, c in p.terms
    )
    return text[2:] if text[0] == "+" else "-" + text[2:]


def _monomial(variables, exps, mag: Fraction) -> str:
    factors = [v if e == 1 else f"{v}^{e}" for v, e in zip(variables, exps) if e]
    return "*".join(factors if mag == 1 and factors else [str(mag), *factors])


def read_polynomial_file(data: bytes, source) -> SparsePoly:
    """A plain-text polynomial file's UTF-8 ``data``, read from ``source``:
    variables on line 1, the polynomial after."""
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise PolySyntaxError(f"{source} is not UTF-8 text: {exc}") from exc
    if not lines:
        raise PolySyntaxError("empty polynomial file")
    variables = lines[0].replace(",", " ").split()
    body = " ".join(lines[1:]).strip()
    if not body:
        raise PolySyntaxError("polynomial file has no body")
    return parse(body, variables)
