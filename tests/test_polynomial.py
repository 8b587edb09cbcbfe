"""Sparse polynomial parsing, evaluation, derivatives, initial forms."""

import random
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from coamoeba.catalog import SIXLINE_DISCRIMINANT_TEXT
from coamoeba.errors import InputError, PolySyntaxError, TooLarge, UnknownVariable, WrongLength
from coamoeba.discriminant import log_gauss
from coamoeba.polynomial import (
    SparsePoly,
    _cleared,
    _euler_sums,
    _term_block,
    evaluate_exact,
    format_poly,
    initial_form,
    parse,
    partial_derivative,
)
from oracles import (
    euler_sums_by_matmul,
    evaluate_by_fractions,
    format_by_pieces,
    log_gauss_by_partials,
    parse_by_descent,
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


def test_evaluate_refuses_a_value_past_the_bound():
    # 2^20000 + 1 takes 20001 bits; the estimate refuses before building it
    with pytest.raises(TooLarge, match="the value at this point"):
        evaluate_exact(parse("x^20000 + y"), (2, 1))
    assert evaluate_exact(parse("x^10000 + y"), (2, 1)) == 2**10000 + 1


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
    with pytest.raises(PolySyntaxError, match="zero denominator"):
        parse("x + 1/0*y", ("x", "y"))


def test_declared_names_are_nonempty_and_distinct():
    # an empty name matches every letter run without consuming it
    with pytest.raises(PolySyntaxError, match="empty variable name"):
        parse("x", ("", "y"))
    with pytest.raises(PolySyntaxError, match="repeated variable name 'x'"):
        parse("x*x+1", ("x", "x"))


# whole factors, then single tokens of the grammar's alphabet swapped in
_FACTORS = ("x", "y^2", "z**3", "q", "r", "p^0", "x1", "qr", "w", "x^10",
            "3", "3/4", "0", "12 / 5", "0/7", "1/0", "2 3")
_TOKENS = ("x", "y", "p", "1", "0", "/", "^", "**", "*", "+", "-", " ", "(", ")", "\t", "_", ".")
_VARIABLE_LISTS = (None, ("x", "y", "z"), ("q", "r", "p"), ("x", "x1", "y"))


def _poly_text(rng) -> str:
    pieces = [rng.choice("+-")] if rng.random() < 0.3 else []
    for k in range(rng.randint(1, 3)):
        if k:
            pieces.append(rng.choice(("+", "-", " + ", " -")))
        for f in range(rng.randint(1, 3)):
            if f:
                pieces.append(rng.choice(("", "*", " ")))
            pieces.append(rng.choice(_FACTORS))
    for _ in range(rng.choice((0, 0, 1, 2))):
        pieces[rng.randrange(len(pieces))] = rng.choice(_TOKENS)
    return "".join(pieces)


def _outcome(fn, *args):
    """The polynomial fn returns, the InputError it raises, or ZeroDivisionError."""
    try:
        return fn(*args)
    except InputError as exc:
        return exc
    except ZeroDivisionError:
        return ZeroDivisionError


def test_parse_matches_descent_parser():
    rng = random.Random(20)
    seen = Counter()
    for _ in range(100_000):
        text = _poly_text(rng)
        for variables in _VARIABLE_LISTS:
            new = _outcome(parse, text, variables)
            old = _outcome(parse_by_descent, text, variables)
            case = (text, variables)
            if isinstance(old, SparsePoly):
                assert new == old, case
                seen["equal"] += 1
            elif old is ZeroDivisionError:  # the only allowed difference
                assert isinstance(new, PolySyntaxError), case
                assert "zero denominator" in str(new), case
                seen["zero denominator"] += 1
            else:
                assert isinstance(new, InputError), case
                seen["both raise"] += 1
    assert min(seen.values()) >= 10_000, seen


def test_format_matches_pieces(big_d):
    rng = random.Random(21)
    polys = [big_d, SparsePoly.zero(("x",))]
    for _ in range(10_000):
        variables = ("x", "y", "z")[: rng.randint(0, 3)]
        terms = [
            (
                tuple(rng.choice((0, 0, 1, 1, 2, 11)) for _ in variables),
                Fraction(rng.randint(-12, 12), rng.choice((1, 1, 2, 7))),
            )
            for _ in range(rng.randint(0, 5))
        ]
        polys.append(SparsePoly(variables, tuple(terms)))
    for p in polys:
        assert format_poly(p) == format_by_pieces(p)


def test_juxtaposition_and_rational_coefficients():
    p = parse("3/4x^2y - 2y + x*y", ("x", "y"))
    assert dict(p.terms) == {
        (2, 1): Fraction(3, 4),
        (0, 1): Fraction(-2),
        (1, 1): Fraction(1),
    }


@pytest.mark.parametrize(
    "left, right",
    [
        (("x", ["x"]), ("x*y+1", ["x", "y"])),
        (("x*y+1", ["x", "y"]), ("x", ["x"])),
        (("x+2*y", ["x", "y"]), ("x+2*y", ["y", "x"])),
    ],
)
def test_arithmetic_refuses_different_variables(left, right):
    p, q = parse(*left), parse(*right)
    for op in (SparsePoly.__mul__, SparsePoly.__sub__):
        with pytest.raises(WrongLength) as info:
            op(p, q)
        assert str(p.variables) in str(info.value) and str(q.variables) in str(info.value)


def test_sparse_high_degree_builds_only_the_powers_it_uses():
    # x^5000 + y: one table column per exponent f uses, not 5001 of them
    f = parse("x^5000 + 3/7*x^17*y^2 - y")
    _, _, _, columns = _cleared(f)
    tables = [(deg, list(used)) for deg, used, _ in columns]
    assert tables == [(5000, [0, 17, 5000]), (2, [0, 1, 2])]
    for point in [(2, 1), (Fraction(-1, 2), Fraction(5, 7)), (1, 0), (-2, -3)]:
        assert evaluate_exact(f, point) == evaluate_by_fractions(f, point)
        assert log_gauss(f, point) == log_gauss_by_partials(f, point)


def test_euler_sums_match_exponent_matmul():
    # per exponent group the values are summed once, then multiplied by the
    # exponent; on ints that is the product with the exponent matrix exactly
    rng = random.Random(32)
    polys = [
        parse(SIXLINE_DISCRIMINANT_TEXT, ("p", "q", "r")),
        SparsePoly.zero(("x", "y")),
        parse("5", ("x", "y")),
        parse("x^3*y + 2*y^3 - 1/2", ("x", "y", "z")),  # z unused
        parse("x^2*y + x^2*y^3 + x^5*y", ("x", "y")),  # every term uses both variables
    ]
    for _ in range(30):
        names = [f"x{i}" for i in range(rng.randint(1, 4))]
        terms = {}
        for _ in range(rng.randint(1, 12)):
            exps = tuple(rng.randint(0, 5) for _ in names)
            terms[exps] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        polys.append(SparsePoly.from_dict(names, terms))
    blocks = 0
    for f in polys:
        cleared, matmul = _cleared(f), euler_sums_by_matmul(f)
        for k in (0, 1, 7):
            shape = (k, len(f.variables))
            nums = np.array([rng.randint(-50, 50) for _ in range(k * shape[1])], dtype=object)
            dens = np.array([rng.randint(1, 50) for _ in range(k * shape[1])], dtype=object)
            nums, dens = nums.reshape(shape), dens.reshape(shape)
            values, _ = _term_block(cleared, nums, dens)
            got, want = _euler_sums(cleared, values), matmul(cleared, values)
            assert got.shape == want.shape == shape
            assert got.tolist() == want.tolist() and all(type(v) is int for v in got.flat)
            blocks += k > 0
            # complex values are summed in another order, so they agree to rounding
            values, _ = _term_block(cleared, nums + 0.5j, dens)
            size = 5 * sum(map(abs, values.flat))
            got, want = _euler_sums(cleared, values), matmul(cleared, values)
            assert all(abs(g - w) <= 1e-12 * size for g, w in zip(got.flat, want.flat))
    assert blocks == 2 * len(polys)


def test_parse_reads_ascii_digits_only():
    # "٣" is ARABIC-INDIC DIGIT THREE, which int() and \d would read as 3
    for text in ("٣x + 1", "x^٣ + 1", "x + 1/٣"):
        with pytest.raises(PolySyntaxError):
            parse(text, ["x"])


def test_parse_refuses_numbers_past_the_bit_bound():
    digits = "7" * 5000  # past Python's 4300-digit limit on reading an int
    three_k = "9" * 3000  # under it, but its square passes MAX_EXACT_BITS
    for text in (f"{digits}*x + 1", f"x^{digits}", f"x + 1/{digits}", f"{three_k}*{three_k}*x"):
        with pytest.raises(PolySyntaxError, match="bits|digits"):
            parse(text, ["x"])
    assert parse(f"{three_k}*x").terms[0][1] == int(three_k)


@pytest.mark.parametrize("bad", (1.5, Fraction(1, 2), "1"))
def test_non_integral_exponents_are_refused_not_truncated(bad):
    # int(e) read 1.5 as 1, so x^1.5 + y^2/2 became x + y^2/2
    with pytest.raises(InputError, match="are not all integers"):
        SparsePoly.from_dict(("x", "y"), {(bad, 0): 1, (0, 2): Fraction(1, 2)})


def test_integer_exponents_pass():
    # ints, bools and numpy integers read as the ints they are
    want = SparsePoly.from_dict(("x", "y"), {(1, 2): 3, (0, 1): 1})
    for exps in ((True, np.int64(2)), (np.int32(1), 2), (1, np.uint8(2))):
        got = SparsePoly.from_dict(("x", "y"), {exps: 3, (False, True): 1})
        assert got == want
        assert all(type(x) is int for exps, _ in got.terms for x in exps)
