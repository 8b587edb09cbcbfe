"""Acceptance suite: one test per criterion, each printing a PASS line.

Tolerances are pinned here, not configured.  Everything combinatorial or
rational is exact; the only floating checks are the sampled prism
experiments, whose tolerances are stated inline.  Run with ``pytest -s
tests/test_acceptance.py`` to see the per-criterion lines, or execute the
module directly.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from coamoeba import intlinalg as la
from coamoeba.catalog import (
    hyperplane_a,
    hyperplane_b,
    line_b,
    plane_b,
    sixline_a,
    sixline_b,
    sixline_discriminant,
)
from coamoeba.configuration import gale_dual
from coamoeba.cycles import (
    build_cycle,
    contains2,
    contains2_exact,
    half_coamoeba_cycles,
    prisms_d3,
    zonotope,
)
from coamoeba.discriminant import (
    HornKapranovMap,
    OnArrangement,
    essential_flacets,
    psi_exact,
    tdiscr_fan_d3,
    tdiscr_rays,
)
from coamoeba.harness import (
    certify_discriminant,
    conjecture_experiment_d3,
    gauss_roundtrip,
    residue_check,
    sample_coamoeba,
)
from coamoeba.matroid import Matroid, merge_parallel
from coamoeba.polynomial import format_poly, initial_form, parse
from coamoeba.tropical import bergman_rays, maximal_cones
from coamoeba.configuration import VectorConfiguration
from oracles import connected_via_circuits


def _ok(number, name):
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_gale_duality():
    b = gale_dual(sixline_a())
    reference = sixline_b()
    assert la.row_lattice_basis(la.transpose(b.matrix)) == la.row_lattice_basis(
        la.transpose(reference.matrix)
    )
    assert b.matrix == reference.matrix
    for d in range(2, 6):
        assert gale_dual(hyperplane_a(d)).matrix == hyperplane_b(d).matrix
    _ok(1, "Gale duality")


def test_criterion_2_matroid_combinatorics():
    m = Matroid(sixline_b())

    def det3(rows):
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)

    oracle_bases = {
        frozenset(t)
        for t in itertools.combinations(range(6), 3)
        if det3([m.config.matrix[i] for i in t]) != 0
    }
    assert len(oracle_bases) == 18
    assert m.bases == oracle_bases

    lines = m.flats_of_corank(1)
    points = m.flats_of_corank(2)
    assert len(lines) == 6 and len(points) == 11
    assert sorted(len(f.forms) for f in points) == [2] * 9 + [3] * 2

    flacets = {f.forms for f in m.flacets()}
    assert flacets == {frozenset({i}) for i in range(6)} | {
        frozenset({0, 1, 3}),
        frozenset({1, 2, 5}),
    }
    assert len(bergman_rays(m)) == 8

    cones = maximal_cones(m)
    assert len(cones) == 15
    kinds = sorted(c.ray_coranks for c in cones)
    assert kinds == [(1, 1)] * 9 + [(1, 2)] * 6
    _ok(2, "matroid combinatorics: 18 bases, 6+11 flats, 8 flacets, 15 cones")


def test_criterion_3_tropical_discriminant_rays():
    m = Matroid(sixline_b())
    type1 = {r.flat.forms: r.direction for r in tdiscr_rays(m)}
    assert type1[frozenset({0, 1, 3})] == (2, 3, 0)
    assert type1[frozenset({1, 2, 5})] == (0, -1, 2)
    type2 = [r.direction for r in tdiscr_fan_d3(m) if r.kind == "type2"]
    assert type2 == [(1, 0, 1)]
    essential = {f.forms for f in essential_flacets(m)}
    assert essential == {frozenset({i}) for i in range(6)}
    _ok(3, "tropical discriminant rays and essential flacets")


def test_criterion_4_horn_kapranov():
    rng = random.Random(20240809)
    for d in range(2, 6):
        h = HornKapranovMap(hyperplane_b(d))
        checked = 0
        while checked < 100:
            y = tuple(
                Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(d)
            )
            try:
                image = psi_exact(h, y)
            except OnArrangement:
                continue
            checked += 1
            assert sum(image) + 1 == 0  # exact residue zero
    h6 = HornKapranovMap(sixline_b())
    assert psi_exact(h6, (1, 1, 1)) == (
        Fraction(3, 25),
        Fraction(-9, 5),
        Fraction(-1, 25),
    )
    _ok(4, "Horn-Kapranov identities")


def test_criterion_5_kapranov_roundtrip():
    m = Matroid(sixline_b())
    big_d = sixline_discriminant()
    report = certify_discriminant(big_d, m, 20)
    if report["status"] != "ok":
        raise AssertionError(
            "INCONCLUSIVE: defining polynomial fails certification; "
            f"max residue {report['max_residue']} at {report['residue_witness']}, "
            f"roundtrip counterexample {report['roundtrip_counterexample']}"
        )
    residue, _, checked = residue_check(big_d, m, 20)
    assert residue == 0 and checked == 20
    roundtrip = gauss_roundtrip(big_d, m, 20)
    assert roundtrip.passed and roundtrip.n_checked == 20
    _ok(5, "logarithmic Gauss roundtrip and exact residue")


def test_criterion_6_initial_forms():
    big_d = sixline_discriminant()
    variables = ("p", "q", "r")
    displayed_b1 = parse("q^2r^2", variables) * parse(
        "3125q^2r^2-1024r^3+4000qr^2+768r^2-200qr-192r+16q+16", variables
    )
    got_b1 = initial_form(big_d, (1, 0, 0))
    assert got_b1 == displayed_b1
    assert format_poly(got_b1) == format_poly(displayed_b1)

    displayed_rho = parse("16q^3r^2+16q^2r^2+16p^2q^2+16p^2q", variables)
    got_rho = initial_form(big_d, (1, 0, 1))
    assert got_rho == displayed_rho
    assert format_poly(got_rho) == format_poly(displayed_rho)

    cube = lambda t: t * t * t  # noqa: E731
    got_124 = initial_form(big_d, (2, 3, 0))
    got_236 = initial_form(big_d, (0, -1, 2))
    assert got_124 == parse("16q^2r^2", variables) * cube(parse("1-4r", variables))
    assert got_236 == parse("16p^2q^2", variables) * cube(parse("1-4p", variables))
    print(
        "  note: the one-dimensional-flacet initial forms computed from the full"
        " polynomial factor as 16*q^2*r^2*(1-4r)^3 and 16*p^2*q^2*(1-4p)^3;"
        " displays quoting 16q^2r^2-1024q^2r^5 / 16p^2q^2-1024p^5q^2 disagree"
        " with the full polynomial and are treated as typos (logged, not repaired)."
    )
    _ok(6, "initial forms")


def _hexagon_strict_inside(u, v):
    """Exact oracle: strictly inside the hexagon sum of [0, pi b], pi units."""
    hexagon = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
    for (x1, y1), (x2, y2) in zip(hexagon, hexagon[1:] + hexagon[:1]):
        cross = (Fraction(x2) - x1) * (v - y1) - (Fraction(y2) - y1) * (u - x1)
        if cross <= 0:
            return False
    return True


def test_criterion_7_cycle_geometry_and_grid():
    fh = build_cycle(
        VectorConfiguration.from_rows([[3, 0], [0, 1], [-1, -2], [-2, 1]])
    )
    assert fh.zonotope.area() == 20
    assert fh.plus.area() == 2 and fh.minus.area() == 2
    assert fh.degree == 6

    line = build_cycle(line_b())
    assert line.zonotope.area() == 3
    assert line.plus.area() == Fraction(1, 2) and line.minus.area() == Fraction(1, 2)
    assert line.degree == 1

    # 100 x 100 exact grid over the fundamental domain vs the
    # hexagon-complement oracle; the float path re-checks at tol 1e-9
    mismatches = 0
    for i in range(100):
        for j in range(100):
            u = Fraction(-1) + Fraction(2 * i, 99)
            v = Fraction(-1) + Fraction(2 * j, 99)
            oracle = not _hexagon_strict_inside(u, v)
            got = contains2_exact(line, (u, v))
            if got != oracle:
                mismatches += 1
            got_float = contains2(
                line, (float(u) * math.pi, float(v) * math.pi), tol=1e-9
            )
            if got_float != oracle:
                mismatches += 1
    assert mismatches == 0
    _ok(7, "2D cycle geometry and 100x100 grid membership")


def test_criterion_8_prism_decomposition():
    m_plane = Matroid(plane_b())
    prisms = prisms_d3(m_plane)
    assert len(prisms) == 4
    assert all(p.base.degree == 1 for p in prisms)
    report = conjecture_experiment_d3(m_plane, 10_000, tol=1e-6, seed=2024)
    assert report.n_valid == 10_000
    assert report.inside_fraction == 1.0

    m6 = Matroid(sixline_b())
    report6 = conjecture_experiment_d3(m6, 10_000, tol=1e-6, seed=2024)
    assert report6.n_valid == 10_000
    assert report6.inside_fraction >= 0.995
    print(
        f"  six-line prism experiment: inside_fraction={report6.inside_fraction}"
        f" max_boundary_distance={report6.max_boundary_distance:.3g}"
        " (sampled evidence, not a proof)"
    )
    _ok(8, "prism decomposition and sampled coverage")


def test_criterion_9_property_suites():
    rng = random.Random(1)
    m6 = Matroid(sixline_b())
    h6 = HornKapranovMap(sixline_b())

    # psi homogeneity
    done = 0
    while done < 25:
        y = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3))
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        try:
            image = psi_exact(h6, y)
        except OnArrangement:
            continue
        done += 1
        assert psi_exact(h6, tuple(c * v for v in y)) == image

    # merge shift identity: sign of psi ratio matches recorded shifts
    flat = m6.closure({2})
    restricted, _ = m6.restrict_to_flat(flat)
    reduced, merges = merge_parallel(restricted)
    shift = [0, 0]
    for rec in merges:
        shift[0] = (shift[0] + rec.arg_shift_pi[0]) % 2
        shift[1] = (shift[1] + rec.arg_shift_pi[1]) % 2
    h_full, h_red = HornKapranovMap(restricted), HornKapranovMap(reduced)
    done = 0
    while done < 25:
        y = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(2))
        try:
            full, red = psi_exact(h_full, y), psi_exact(h_red, y)
        except OnArrangement:
            continue
        done += 1
        for j in range(2):
            assert ((full[j] / red[j]) < 0) == bool(shift[j])

    # closure idempotence and monotonicity
    for _ in range(40):
        s = frozenset(rng.sample(range(6), rng.randint(0, 5)))
        c = m6.closure(s)
        assert m6.closure(c.forms).forms == c.forms
        assert s <= c.forms

    # exchange-graph connectivity vs circuit oracle, |B| <= 8
    checked = 0
    while checked < 12:
        n = rng.randint(1, 8)
        d = rng.randint(1, min(3, n))
        rows = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(n)]
        if any(not any(r) for r in rows):
            continue
        cfg = VectorConfiguration.from_rows(rows)
        try:
            m = Matroid(cfg)
        except Exception:
            continue
        checked += 1
        assert m.is_connected() == connected_via_circuits(cfg)

    # degree integrality on every six-line prism base
    for prism in prisms_d3(m6):
        assert prism.base.degree >= 1

    # determinism of sampled reports
    r1 = conjecture_experiment_d3(m6, 400, tol=1e-6, seed=3)
    r2 = conjecture_experiment_d3(m6, 400, tol=1e-6, seed=3)
    assert r1 == r2
    p1 = sample_coamoeba(m6, 123, seed=9)
    p2 = sample_coamoeba(m6, 123, seed=9)
    assert np.array_equal(p1, p2)
    _ok(9, "module property suites")


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion"):
            fn()
