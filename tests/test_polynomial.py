"""Sparse polynomial parsing, evaluation, derivatives, initial forms."""

import random
import re
from fractions import Fraction

import pytest

from coamoeba.catalog import SIXLINE_DISCRIMINANT_TEXT
from coamoeba.errors import PolySyntaxError, UnknownVariable
from coamoeba.polynomial import (
    SparsePoly,
    evaluate_exact,
    format_poly,
    initial_form,
    parse,
    partial_derivative,
)


def test_parse_simple():
    p = parse("x+y+1")
    assert len(p.terms) == 3
    assert p.variables == ("x", "y")


def test_parse_zero():
    assert len(parse("0").terms) == 0
    assert format_poly(parse("0", ("x",))) == "0"


def test_discriminant_term_count_independent_tally(big_d):
    # independent oracle: count sign-separated monomials in the raw text
    text = SIXLINE_DISCRIMINANT_TEXT
    monomials = [t for t in re.split(r"(?=[+-])", text) if t.strip()]
    assert len(monomials) == 40
    assert len(big_d.terms) == 40
    assert big_d.variables == ("p", "q", "r")


def test_format_parse_roundtrip(big_d):
    assert parse(format_poly(big_d), big_d.variables) == big_d
    rng = random.Random(17)
    for _ in range(40):
        nv = rng.randint(1, 3)
        variables = tuple("xyz"[:nv])
        terms = {}
        for _ in range(rng.randint(0, 6)):
            exps = tuple(rng.randint(0, 4) for _ in range(nv))
            terms[exps] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        p = SparsePoly.from_dict(variables, terms)
        assert parse(format_poly(p), variables) == p


def test_evaluate_simple():
    assert evaluate_exact(parse("x+y+1"), (1, 1)) == 3


def test_evaluate_discriminant_independent_order(big_d):
    # oracle: term-by-term summation in reversed canonical order
    point = (Fraction(1), Fraction(1), Fraction(1))
    total = Fraction(0)
    for exps, coeff in reversed(big_d.terms):
        v = coeff
        for x, e in zip(point, exps):
            v *= x**e
        total += v
    assert evaluate_exact(big_d, point) == total


def test_evaluate_product_property():
    rng = random.Random(23)
    for _ in range(25):
        nv = rng.randint(1, 3)
        variables = tuple("abc"[:nv])

        def rand_poly():
            terms = {}
            for _ in range(rng.randint(1, 4)):
                exps = tuple(rng.randint(0, 4) for _ in range(nv))
                terms[exps] = Fraction(rng.randint(-5, 5))
            return SparsePoly.from_dict(variables, terms)

        p, q = rand_poly(), rand_poly()
        point = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(nv))
        assert evaluate_exact(p * q, point) == evaluate_exact(p, point) * evaluate_exact(
            q, point
        )


def test_derivatives():
    assert format_poly(partial_derivative(parse("x+y+1"), "x")) == "1"
    assert format_poly(partial_derivative(parse("x^2*y"), "y")) == "x^2"
    with pytest.raises(UnknownVariable):
        partial_derivative(parse("x+1"), "z")


def test_derivative_degree_drop(big_d):
    dp = partial_derivative(big_d, "p")
    j = big_d.variables.index("p")
    assert max(e[j] for e, _ in dp.terms) == max(e[j] for e, _ in big_d.terms) - 1


def test_initial_form_matches_printed_factored_display(big_d):
    # the hyperplane-direction initial form: q^2 r^2 times a quintic-ish factor
    expected = parse(
        "q^2r^2", ("p", "q", "r")
    ) * parse(
        "3125q^2r^2-1024r^3+4000qr^2+768r^2-200qr-192r+16q+16", ("p", "q", "r")
    )
    assert initial_form(big_d, (1, 0, 0)) == expected
    assert format_poly(initial_form(big_d, (1, 0, 0))) == format_poly(expected)


def test_initial_form_crossing_ray(big_d):
    expected = parse("16q^3r^2+16q^2r^2+16p^2q^2+16p^2q", ("p", "q", "r"))
    got = initial_form(big_d, (1, 0, 1))
    assert got == expected
    factored = (
        parse("16q", ("p", "q", "r"))
        * parse("q+1", ("p", "q", "r"))
        * parse("qr^2+p^2", ("p", "q", "r"))
    )
    assert got == factored


def test_initial_form_point_flacet_rays_factor(big_d):
    cube = lambda t: t * t * t  # noqa: E731
    expect124 = parse("16q^2r^2", ("p", "q", "r")) * cube(parse("1-4r", ("p", "q", "r")))
    expect236 = parse("16p^2q^2", ("p", "q", "r")) * cube(parse("1-4p", ("p", "q", "r")))
    assert initial_form(big_d, (2, 3, 0)) == expect124
    assert initial_form(big_d, (0, -1, 2)) == expect236


def test_initial_form_properties(big_d):
    rng = random.Random(31)
    for _ in range(20):
        w = tuple(rng.randint(-3, 3) for _ in range(3))
        ini = initial_form(big_d, w)
        assert initial_form(ini, w) == ini
        c = rng.randint(1, 4)
        assert initial_form(big_d, tuple(c * x for x in w)) == ini
    assert initial_form(big_d, (0, 0, 0)) == big_d


def test_parse_errors():
    with pytest.raises(PolySyntaxError):
        parse("x +* y")
    with pytest.raises(PolySyntaxError):
        parse("x + ")
    with pytest.raises(PolySyntaxError):
        parse("16qz^2", ("q", "r"))


def test_juxtaposition_and_rational_coefficients():
    p = parse("3/4x^2y - 2y + x*y", ("x", "y"))
    assert dict(p.terms) == {
        (2, 1): Fraction(3, 4),
        (0, 1): Fraction(-2),
        (1, 1): Fraction(1),
    }
