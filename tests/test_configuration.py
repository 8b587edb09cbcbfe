"""Gale duality and configuration validation."""

import random

import pytest

from coamoeba import intlinalg as la
from coamoeba.catalog import hyperplane_a, hyperplane_b
from coamoeba.configuration import (
    GalePair,
    PointConfiguration,
    check_gale_pair,
    gale_dual,
    gale_pair,
    validate_a,
)
from coamoeba.errors import NoAffineHyperplane, NotSpanning


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
