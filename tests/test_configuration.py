"""Gale duality and configuration validation."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from coamoeba import intlinalg as la
from coamoeba.catalog import hyperplane_a, hyperplane_b
from coamoeba.configuration import (
    GalePair,
    PointConfiguration,
    _validate,
    check_gale_pair,
    gale_dual,
    gale_pair,
    validate_a,
)
from coamoeba.errors import NoAffineHyperplane, NotSpanning
from oracles import validate_by_eliminations


def test_validate_sixline(a6):
    rep = validate_a(a6)
    assert rep.spans
    assert rep.u == (1, 0, 0)
    assert not rep.pyramid


def test_validate_all_ones():
    for d in range(1, 5):
        rep = validate_a(hyperplane_a(d))
        assert rep.spans and rep.u == (1,) and not rep.pyramid


def test_validate_index_two_sublattice():
    # columns (1,0), (1,2) span Q^2 but only an index-2 sublattice of Z^2
    rep = validate_a(PointConfiguration.from_rows([[1, 1], [0, 2]]))
    assert not rep.spans


def test_gale_dual_all_ones_matches_identity_block():
    for d in range(2, 6):
        b = gale_dual(hyperplane_a(d))
        assert b.matrix == hyperplane_b(d).matrix


def test_gale_dual_sixline(a6, b6):
    b = gale_dual(a6)
    assert b.matrix == b6.matrix
    assert la.row_lattice_basis(la.transpose(b.matrix)) == la.row_lattice_basis(
        la.transpose(b6.matrix)
    )
    assert not any(b.row_sum())


def test_gale_dual_requires_affine_hyperplane():
    # columns (1,0), (0,1), (1,1): any u with <u, e_i> = 1 pairs to 2 with (1,1)
    a = PointConfiguration.from_rows([[1, 0, 1], [0, 1, 1]])
    assert validate_a(a).u is None
    with pytest.raises(NoAffineHyperplane):
        gale_dual(a)


def test_gale_dual_requires_spanning():
    with pytest.raises(NotSpanning):
        gale_dual(PointConfiguration.from_rows([[1, 1], [0, 2]]))


def test_check_gale_pair_sixline(a6, b6):
    pair = GalePair(a6, b6, (1, 0, 0))
    assert check_gale_pair(pair)


def test_check_gale_pair_negated_row(a6, b6):
    rows = [list(r) for r in b6.matrix]
    rows[0] = [-x for x in rows[0]]
    bad = b6.__class__(la.as_matrix(rows), b6.labels)
    assert not check_gale_pair(GalePair(a6, bad, (1, 0, 0)))


def _random_valid_a(rng):
    """Random point configuration with an all-ones first row, spanning Z^m."""
    while True:
        m = rng.randint(1, 3)
        n = rng.randint(m + 1, m + 4)
        rows = [[1] * n] + [
            [rng.randint(-3, 3) for _ in range(n)] for _ in range(m - 1)
        ]
        a = PointConfiguration.from_rows(rows)
        if validate_a(a).spans:
            return a


def test_gale_pair_roundtrip_random():
    rng = random.Random(99)
    for _ in range(30):
        a = _random_valid_a(rng)
        pair = gale_pair(a)
        assert check_gale_pair(pair)
        assert not any(pair.b.row_sum())
        # pyramid detection agrees with a zero row of the dual
        has_zero_row = any(not any(row) for row in pair.b.matrix)
        assert validate_a(a).pyramid == has_zero_row


def _random_a(rng, kind: str) -> PointConfiguration:
    """A seeded A of one kind, its rows mixed by a random unimodular matrix,
    which keeps its lattice, its rank and whether a covector exists."""
    m = rng.randint(1, 4)
    n = m + rng.randint(0, 4)
    rest = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m - 1)]
    if kind == "affine":  # a row of ones: u is integral, spanning or not
        rows = [[1] * n] + rest
    elif kind == "index":  # the other rows even: u integral, no spanning
        rows = [[1] * n] + [[2 * x for x in row] for row in rest]
    elif kind == "scaled":  # a row of c > 1: u has denominator c
        rows = [[rng.randint(2, 3)] * n] + rest
    elif kind == "free":  # no row of ones: mostly no covector at all
        rows = [[rng.randint(-3, 3) for _ in range(n)]] + rest
    elif kind == "deficient":  # one more row, a combination of the others
        rows = [[1] * n] + rest
        coeffs = [rng.randint(-2, 2) for _ in rows]
        rows.append([sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(n)])
    else:  # pyramid: an apex on a new coordinate
        rows = [[1] * (n + 1)] + [row + [0] for row in rest] + [[0] * n + [1]]
    for _ in range(4):
        i, j = rng.sample(range(len(rows)), 2) if len(rows) > 1 else (0, 0)
        if i != j:
            c = rng.randint(-2, 2)
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        if rng.random() < 0.3:
            rows[i] = [-x for x in rows[i]]
    rng.shuffle(rows)
    return PointConfiguration.from_rows(rows)


def test_validate_matches_four_eliminations():
    pinned = [
        ([[2]], None),  # u = 1/2
        ([[2, 0], [0, 3]], None),  # u = (1/2, 1/3)
        ([[1, 2]], None),  # u * 1 = u * 2 = 1 has no solution
        ([[1, 1], [0, 2]], (1, 0)),  # integral u, index-2 lattice
    ]
    for rows, u in pinned:
        a = PointConfiguration.from_rows(rows)
        assert _validate(a) == validate_by_eliminations(a)
        assert _validate(a)[0].u == u
    assert la.solve_unique_rational([[2]], (3,)) == (Fraction(3, 2),)
    rng = random.Random(19)
    seen = Counter()
    kinds = ("affine", "index", "scaled", "free", "deficient", "pyramid")
    for trial in range(2400):
        a = _random_a(rng, kinds[trial % len(kinds)])
        report, kernel = _validate(a)
        assert (report, kernel) == validate_by_eliminations(a)
        rank = la.rank_rational(a.matrix)
        if rank < a.m:
            seen["rank deficient"] += 1
        elif report.u is not None:
            seen["spans, integral u" if report.spans else "index > 1, integral u"] += 1
        elif la.solve_unique_rational(la.transpose(a.matrix), (1,) * a.n) is None:
            seen["no u"] += 1
        else:
            seen["fractional u"] += 1
        seen["pyramid"] += report.pyramid
    assert min(seen.values()) >= 100, seen


def test_gale_dual_reads_one_hnf(monkeypatch, a6):
    calls = Counter()
    names = ("hermite_normal_form", "integer_kernel", "rank_rational", "solve_unique_rational")
    for name in names:
        def counted(*args, _name=name, _f=getattr(la, name)):
            calls[_name] += 1
            return _f(*args)

        monkeypatch.setattr(la, name, counted)
    gale_dual(a6)
    # the covector is one back-substitution in the triangular top block of H
    assert calls == Counter(hermite_normal_form=1, solve_unique_rational=1)
