"""Sampling determinism, residue certification, Gauss roundtrips, experiments."""

import math
from fractions import Fraction

import numpy as np
import pytest

from coamoeba.catalog import hyperplane_b, line_b
from coamoeba.cycles import build_cycle, contains2, prisms_d3
from coamoeba.errors import InputError
from coamoeba.harness import (
    certify_discriminant,
    conjecture_experiment_d3,
    gauss_roundtrip,
    rational_grid,
    residue_check,
    sample_coamoeba,
)
from coamoeba.matroid import Matroid
from coamoeba.polynomial import SparsePoly, parse


def hyperplane_poly(d):
    variables = tuple(f"x{i+1}" for i in range(d))
    terms = {tuple(0 for _ in range(d)): Fraction(1)}
    for i in range(d):
        e = [0] * d
        e[i] = 1
        terms[tuple(e)] = Fraction(1)
    return SparsePoly.from_dict(variables, terms)


def test_sampling_is_deterministic(m6):
    a = sample_coamoeba(m6, 257, seed=5)
    b = sample_coamoeba(m6, 257, seed=5)
    assert a.shape == (257, 3)
    assert np.array_equal(a, b)
    c = sample_coamoeba(m6, 257, seed=6)
    assert not np.array_equal(a, c)


def test_sampling_prefix_across_chunk_boundary(m6):
    # 5000 points span three sampling chunks; the first 100 must not change
    a = sample_coamoeba(m6, 5000, seed=1)
    assert a.shape == (5000, 3)
    assert np.array_equal(a[:100], sample_coamoeba(m6, 100, seed=1))


def test_sampling_empty(m6):
    assert sample_coamoeba(m6, 0, seed=0).shape == (0, 3)


def test_sampling_rejects_negative_size(m6):
    with pytest.raises(InputError):
        sample_coamoeba(m6, -1, seed=0)


def test_sampling_rejects_negative_seed(m6):
    with pytest.raises(InputError):
        sample_coamoeba(m6, 5, seed=-1)


def test_line_samples_lie_in_cycle(m_line):
    cyc = build_cycle(line_b())
    points = sample_coamoeba(m_line, 300, seed=3)
    assert points.shape == (300, 2)
    for theta in points:
        assert contains2(cyc, theta, tol=1e-9)
    assert np.all(points > -math.pi - 1e-12) and np.all(points <= math.pi + 1e-12)


def test_rational_grid_deterministic():
    first = [next(iter([p])) for p, _ in zip(rational_grid(3), range(5))]
    again = [p for p, _ in zip(rational_grid(3), range(5))]
    assert first == again
    assert all(all(c != 0 for c in p) for p in first)


def test_residue_hyperplane_family():
    for d in range(2, 6):
        m = Matroid(hyperplane_b(d))
        worst, witness, checked = residue_check(hyperplane_poly(d), m, 25)
        assert worst == 0 and checked == 25


def test_residue_sixline(m6, big_d):
    worst, _, checked = residue_check(big_d, m6, 20)
    assert worst == 0 and checked == 20


def test_residue_constant_one(m6):
    one = parse("1", ("p", "q", "r"))
    worst, witness, _ = residue_check(one, m6, 5)
    assert worst == 1
    assert witness is not None


def test_gauss_roundtrip_hyperplane():
    m = Matroid(hyperplane_b(2))
    f = parse("x1+x2+1", ("x1", "x2"))
    result = gauss_roundtrip(f, m, 20)
    assert result.passed and result.n_checked == 20


def test_gauss_roundtrip_sixline(m6, big_d):
    result = gauss_roundtrip(big_d, m6, 20)
    assert result.passed
    assert result.n_checked == 20


def test_gauss_roundtrip_detects_wrong_polynomial(m6, big_d):
    terms = dict(big_d.terms)
    key = next(iter(terms))
    terms[key] += 1  # perturb one coefficient
    wrong = SparsePoly.from_dict(big_d.variables, terms)
    result = gauss_roundtrip(wrong, m6, 20)
    assert not result.passed
    assert result.counterexample is not None


def test_certify_ok(m6, big_d):
    report = certify_discriminant(big_d, m6, 10)
    assert report["status"] == "ok"
    assert report["max_residue"] == "0"


def test_certify_reports_grid_shortfall(m_line):
    # the d = 2 grid has 14^2 points, 182 of them off the arrangement
    f = parse("x+y+1", ("x", "y"))
    report = certify_discriminant(f, m_line, 500)
    assert report["status"] == "incomplete"
    assert report["max_residue"] == "0" and report["roundtrip_passed"]
    assert report["residue_checked"] == report["roundtrip_checked"] == 182
    assert certify_discriminant(f, m_line, 182)["status"] == "ok"


def test_certify_erratum_reports_residue(m6, big_d):
    terms = dict(big_d.terms)
    key = next(iter(terms))
    terms[key] += 1
    wrong = SparsePoly.from_dict(big_d.variables, terms)
    report = certify_discriminant(wrong, m6, 6)
    assert report["status"] == "erratum"
    assert report["max_residue"] != "0"


def test_conjecture_experiment_plane(m_plane):
    report = conjecture_experiment_d3(m_plane, 1500, tol=1e-6, seed=11)
    assert report.inside_fraction == 1.0
    assert report.n_valid == 1500
    again = conjecture_experiment_d3(m_plane, 1500, tol=1e-6, seed=11)
    assert report == again
    flats = [flat for flat, _ in report.coverage_per_prism]
    assert flats == [p.hyperplane_flat for p in prisms_d3(m_plane)]
    # every sample lies in some prism, so each one is claimed exactly once
    assert sum(k for _, k in report.coverage_per_prism) == 1500
    assert all(k > 0 for _, k in report.coverage_per_prism[:3])


def test_conjecture_experiment_zero_points(m_plane):
    report = conjecture_experiment_d3(m_plane, 0, tol=1e-6, seed=0)
    assert report.n_valid == 0
    assert [k for _, k in report.coverage_per_prism] == [0, 0, 0, 0]
    assert report.inside_fraction == 1.0
