"""Exact lattice linear algebra: HNF, kernels, rational solves."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from coamoeba import intlinalg as la
from coamoeba.errors import InputError
from oracles import is_saturated, rank_reference, solve_reference


def test_rank_identity():
    assert la.rank_rational(la.identity(3)) == 3


def test_rank_sixline_b(b6):
    assert la.rank_rational(b6.matrix) == 3


def test_rank_proportional_rows():
    assert la.rank_rational([[1, 2], [2, 4]]) == 1


def test_hnf_identity():
    h, u = la.hermite_normal_form(la.identity(3))
    assert h == la.identity(3)
    assert u == la.identity(3)


def _det2(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def _is_canonical_hnf(h):
    """Row-echelon, positive pivots, entries above each pivot in [0, pivot)."""
    pivots = []
    last = -1
    for row in h:
        nz = [j for j, x in enumerate(row) if x]
        if not nz:
            continue
        j = nz[0]
        if j <= last or row[j] <= 0:
            return False
        pivots.append((len(pivots), j, row[j]))
        last = j
    for r, j, p in pivots:
        for i in range(r):
            if not (0 <= h[i][j] < p):
                return False
    return True


def test_hnf_2x2_exhaustive_unimodular_oracle():
    # all canonical forms reachable from [[2,4],[1,3]] by unimodular row ops
    m = ((2, 4), (1, 3))
    reachable = set()
    rng = range(-6, 7)
    for a, b, c, d in itertools.product(rng, repeat=4):
        if a * d - b * c not in (1, -1):
            continue
        cand = (
            (a * m[0][0] + b * m[1][0], a * m[0][1] + b * m[1][1]),
            (c * m[0][0] + d * m[1][0], c * m[0][1] + d * m[1][1]),
        )
        if _is_canonical_hnf(cand):
            reachable.add(cand)
    assert reachable == {((1, 1), (0, 2))}
    h, u = la.hermite_normal_form(m)
    assert h == ((1, 1), (0, 2))
    assert la.mat_mul(u, m) == h
    assert _det2(u) in (1, -1)


def test_hnf_already_echelon():
    h, _ = la.hermite_normal_form([[0, 3], [0, 0]])
    assert h == ((0, 3), (0, 0))


def test_hnf_random_properties():
    rng = random.Random(20240817)
    for _ in range(60):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = la.as_matrix(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        )
        h, u = la.hermite_normal_form(m)
        assert la.mat_mul(u, m) == h
        assert _is_canonical_hnf(h)
        assert la.row_lattice_basis(m) == la.row_lattice_basis(h)


def test_kernel_identity_empty():
    assert la.integer_kernel(la.identity(2)) == ()


def test_kernel_of_sixline_a_is_column_span_of_b(a6, b6):
    kern = la.integer_kernel(a6.matrix)
    assert la.row_lattice_basis(kern) == la.row_lattice_basis(la.transpose(b6.matrix))


def test_kernel_1x2_brute_force():
    # independent oracle: enumerate small integer vectors in ker [[1, 1]]
    small = [
        (x, y)
        for x in range(-3, 4)
        for y in range(-3, 4)
        if x + y == 0 and (x, y) != (0, 0)
    ]
    primitive_dirs = {la.primitive(v) for v in small}
    assert primitive_dirs == {(1, -1), (-1, 1)}
    k = la.integer_kernel([[1, 1]])
    assert len(k) == 1
    assert k[0] in ((1, -1), (-1, 1))


def test_kernel_orthogonality_and_rank(a6):
    rng = random.Random(5)
    mats = [a6.matrix]
    for _ in range(40):
        rows, cols = rng.randint(1, 3), rng.randint(1, 5)
        mats.append(
            la.as_matrix(
                [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
            )
        )
    for m in mats:
        k = la.integer_kernel(m)
        for v in k:
            assert all(x == 0 for x in la.mat_vec(m, v))
        cols = len(m[0])
        assert len(k) + la.rank_rational(m) == cols
        # saturation: double kernel reproduces the same lattice
        assert is_saturated(k, cols)


# The quotient chart Z^d -> Z^d / S of a saturated sublattice S is the kernel
# of S: Matroid.restrict_to_flat uses exactly this as each flat's chart.


def test_quotient_projection_drop_coordinate():
    assert la.integer_kernel(((1, 0, 0),), cols=3) == ((0, 1, 0), (0, 0, 1))


def test_quotient_projection_contract():
    rng = random.Random(11)
    for _ in range(40):
        amb = rng.randint(1, 4)
        raw = [[rng.randint(-3, 3) for _ in range(amb)] for _ in range(rng.randint(0, amb))]
        kern = la.integer_kernel(la.as_matrix(raw), cols=amb)
        sub = la.integer_kernel(kern, cols=amb)  # saturated by construction
        assert is_saturated(sub, amb)
        proj = la.integer_kernel(sub, cols=amb)
        assert len(proj) == amb - len(sub)
        for v in sub:
            assert all(x == 0 for x in la.mat_vec(proj, v))
        if proj:
            # surjectivity: the columns of the chart generate the target lattice
            h, _ = la.hermite_normal_form(la.transpose(proj))
            basis = tuple(row for row in h if any(row))
            assert basis == la.identity(len(proj))


def _random_low_rank(rng, rows, cols):
    """Integer combinations of a few random rows, some columns zeroed out.

    Zero and dependent columns leave pivot columns skipped mid-elimination,
    where an inexact fraction-free division would silently floor.
    """
    k = rng.randint(0, max(rows, 1))
    basis = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(k)]
    dead = {j for j in range(cols) if rng.random() < 0.25}
    return [
        [
            0 if j in dead else sum(c * b[j] for c, b in zip(coeffs, basis))
            for j in range(cols)
        ]
        for coeffs in ([rng.randint(-3, 3) for _ in range(k)] for _ in range(rows))
    ]


def _near_1e20(rng, m):
    """m with each column scaled by +-10**20 plus a small offset: the same
    rank, and its entries are multiples of numbers near +-10**20."""
    scale = [rng.choice((-1, 1)) * 10**20 + rng.randint(-9, 9) for _ in (m[0] if m else ())]
    return [[x * s for x, s in zip(row, scale)] for row in m]


def test_rank_matches_gauss_jordan_reference():
    rng = random.Random(2024)
    deficient = 0
    for _ in range(3000):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        m = _random_low_rank(rng, rows, cols)
        r = la.rank_rational(m)
        assert r == rank_reference(m), m
        deficient += r < min(rows, cols)
    assert deficient > 1000
    for _ in range(500):  # entries near +-10**20, where a float rank is wrong
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        m = _near_1e20(rng, _random_low_rank(rng, rows, cols))
        assert la.rank_rational(m) == rank_reference(m), m
    big = 10**20
    assert la.rank_rational([[big, big + 1], [big - 1, big]]) == 2  # determinant 1
    assert la.rank_rational([[big + 1, -big], [2 * big + 2, -2 * big]]) == 1


def test_rank_with_skipped_pivot_column():
    # column 1 is a multiple of column 0, so the second pivot sits in column 2
    assert la.rank_rational([[1, 2, 3], [2, 4, 7], [3, 6, 1]]) == 2
    assert la.rank_rational([[0, 0, 2], [0, 0, 3], [0, 5, 1]]) == 2


def test_solve_matches_gauss_jordan_reference():
    rng = random.Random(7)
    outcomes = {"solved": 0, "none": 0, "dependent": 0}
    for trial in range(3600):
        big = trial >= 3000  # the last 600 systems have entries near +-10**20
        cols = rng.randint(1, 5)
        if rng.random() < 0.2:
            m = _random_low_rank(rng, cols + rng.randint(0, 2), cols)
            m = _near_1e20(rng, m) if big else m
        else:
            rows = cols + rng.randint(0, 2)
            m = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
            if big:
                m = [[x + rng.choice((-1, 1)) * 10**20 for x in row] for row in m]
        x = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(cols)]
        den = 1
        for c in x:
            den *= c.denominator
        v = [int(den * sum(a * c for a, c in zip(row, x))) for row in m]
        if rng.random() < 0.3:
            v[rng.randrange(len(v))] += 1
        try:
            want = solve_reference(m, v)
        except ValueError:
            with pytest.raises(ValueError):
                la.solve_unique_rational(m, v)
            outcomes["dependent"] += 1
            continue
        got = la.solve_unique_rational(m, v)
        assert got == want, (m, v)
        assert got is None or all(isinstance(c, Fraction) for c in got)
        outcomes["solved" if got is not None else "none"] += 1
    assert min(outcomes.values()) > 100


def test_solve_inconsistent_system_returns_none():
    assert la.solve_unique_rational([[1], [1]], (1, 2)) is None
    assert la.solve_unique_rational([[1, 0], [0, 1], [1, 1]], (1, 1, 3)) is None
    assert la.solve_unique_rational([[1, 0], [0, 1], [1, 1]], (1, 1, 2)) == (1, 1)


def test_solve_dependent_columns_raise():
    with pytest.raises(ValueError):
        la.solve_unique_rational([[1, 2], [2, 4]], (1, 2))
    with pytest.raises(ValueError):  # dependence is reported before consistency
        la.solve_unique_rational([[1, 2], [2, 4]], (1, 3))


NON_INTEGERS = (0.5, Fraction(1, 2), "1")


@pytest.mark.parametrize("bad", NON_INTEGERS)
@pytest.mark.parametrize(
    "call",
    [
        la.as_matrix,
        la.hermite_normal_form,
        la.integer_kernel,
        la.row_lattice_basis,
        la.rank_rational,
        lambda m: la.solve_unique_rational(m, (1, 1)),
        lambda m: la.solve_unique_rational([[1, 0], [0, 1]], m[0]),
    ],
)
def test_non_integer_entries_are_refused_not_truncated(call, bad):
    with pytest.raises(InputError, match="is not an integer"):
        call([[bad, 1], [1, 0]])


def test_integer_like_entries_pass():
    assert la.as_matrix([[True, False], [0, -3]]) == ((1, 0), (0, -3))
    frozen = la.as_matrix(np.array([[2, -1], [0, 5]], dtype=np.int64))
    assert frozen == ((2, -1), (0, 5))
    assert all(type(x) is int for row in frozen for x in row)
