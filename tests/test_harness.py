"""Sampling determinism, residue certification, Gauss roundtrips, experiments."""

import itertools
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from coamoeba import harness
from coamoeba.catalog import hyperplane_b, line_b, plane_b, sixline_b, sixline_discriminant
from coamoeba.cycles import build_cycle, contains2, prisms_d3
from coamoeba.discriminant import HornKapranovMap, _psi_block
from coamoeba.errors import InputError, OnArrangement, TooLarge, WrongLength
from coamoeba.harness import (
    certify_discriminant,
    conjecture_experiment_d3,
    gauss_roundtrip,
    rational_grid,
    residue_check,
    sample_coamoeba,
)
from coamoeba.matroid import Matroid
from coamoeba.polynomial import MAX_EXACT_BITS, SparsePoly, _cleared, _term_block, parse
import oracles
from oracles import (
    certify_by_fractions,
    certify_walk_by_points,
    gauss_roundtrip_by_fractions,
    random_zero_sum_matroid,
    residue_check_by_fractions,
    sample_coamoeba_by_full_chunks,
)


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


SAMPLED = {
    "sixline": sixline_b(),
    "plane": plane_b(),
    "line": line_b(),
    "n9d3": random_zero_sum_matroid(random.Random("n9d3/0"), 9, 3).config,
}


@pytest.mark.parametrize("name", sorted(SAMPLED))
def test_sampling_matches_full_chunk_oracle(name):
    # psi only on the rows returned gives the same bits as psi on every
    # accepted row, across chunk boundaries (2048 points per chunk)
    m = Matroid(SAMPLED[name])
    for seed in range(40):
        for n in (1, 7, 150, 2047, 2048, 2049, 5000):
            got = sample_coamoeba(m, n, seed)
            want = sample_coamoeba_by_full_chunks(m, n, seed)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (seed, n)


@pytest.mark.parametrize("name", sorted(SAMPLED))
def test_sampling_with_rejections_matches_full_chunk_oracle(name, monkeypatch):
    # a large threshold rejects rows inside the tested prefix, so more rows
    # are tested; the oracle imports the threshold by name, so patch both
    for module in (harness, oracles):
        monkeypatch.setattr(module, "REJECTION_THRESHOLD", 0.2)
    m = Matroid(SAMPLED[name])
    bmat = np.array(m.config.matrix, dtype=float)
    assert len(oracles._full_sample_chunk(bmat, 0, 0, harness._CHUNK)) < 0.95 * harness._CHUNK
    for seed in range(8):
        for n in (1, 7, 150, 2047, 2048, 2049, 5000):
            got = sample_coamoeba(m, n, seed)
            want = sample_coamoeba_by_full_chunks(m, n, seed)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (seed, n)


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


def test_sixline_discriminant_is_parsed_once():
    assert sixline_discriminant() is sixline_discriminant()


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


@pytest.mark.parametrize("check", [residue_check, gauss_roundtrip, certify_discriminant])
@pytest.mark.parametrize("variables", [("p", "q"), ("p", "q", "r", "s")])
def test_wrong_variable_count_is_wrong_length(m6, check, variables):
    f = parse("*".join(variables) + " + 1", variables)
    with pytest.raises(WrongLength):
        check(f, m6, 5)


def _shifted(f, delta):
    """f with delta added to the coefficient of its leading term."""
    terms = dict(f.terms)
    terms[f.terms[0][0]] += delta
    return SparsePoly.from_dict(f.variables, terms)


def _random_poly(rng, d):
    variables = tuple(f"x{i + 1}" for i in range(d))
    terms = {}
    for _ in range(rng.randint(1, 6)):
        exps = tuple(rng.randint(0, 3) for _ in range(d))
        terms[exps] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6))
    return SparsePoly.from_dict(variables, terms)


def _differential_cases():
    cases = [(f"hyperplane{d}", Matroid(hyperplane_b(d)), hyperplane_poly(d)) for d in range(2, 6)]
    m6, big_d = Matroid(sixline_b()), sixline_discriminant()
    cases += [
        ("sixline", m6, big_d),
        ("sixline+1", m6, _shifted(big_d, 1)),
        ("sixline+1/3", m6, _shifted(big_d, Fraction(1, 3))),
        ("sixline+1/big", m6, _shifted(big_d, Fraction(1, 10**30 + 57))),
        ("one", m6, parse("1", big_d.variables)),
        ("zero", m6, SparsePoly.zero(big_d.variables)),
    ]
    rng = random.Random(10)
    for i in range(20):
        d = rng.choice([2, 3, 3, 4])
        m = random_zero_sum_matroid(rng, rng.randint(d + 2, d + 4), d)
        cases.append((f"random{i}", m, _random_poly(rng, d)))
    return cases


DIFFERENTIAL = _differential_cases()


@pytest.mark.parametrize("name, m, f", DIFFERENTIAL, ids=[c[0] for c in DIFFERENTIAL])
def test_certification_matches_fraction_oracle(name, m, f):
    for n in (5, 20, 100, 500):
        assert residue_check(f, m, n) == residue_check_by_fractions(f, m, n), n
        assert gauss_roundtrip(f, m, n) == gauss_roundtrip_by_fractions(f, m, n), n


@pytest.mark.parametrize("name, m, f", DIFFERENTIAL, ids=[c[0] for c in DIFFERENTIAL])
def test_certify_matches_two_walk_oracle(name, m, f):
    for n in (0, 1, 5, 20, 100, 500):
        assert certify_discriminant(f, m, n) == certify_by_fractions(f, m, n), n


@pytest.mark.parametrize("name, m, f", DIFFERENTIAL, ids=[c[0] for c in DIFFERENTIAL])
def test_certify_walk_matches_per_point_oracle(name, m, f):
    for n in (0, 1, 5, 100, 500):
        for sizes in ((n, n), (n, 0), (0, n)):
            want = certify_walk_by_points(f, m, *sizes)
            assert harness._certify_walk(f, m, *sizes) == want, sizes


def test_per_point_oracle_cases_cover_the_walk():
    # the differential cases skip singular points, run out of grid and find errata
    walks = {name: certify_walk_by_points(f, m, 500, 500) for name, m, f in DIFFERENTIAL}
    assert walks["sixline"][1].n_singular_skipped > 0
    assert walks["hyperplane2"][0][2] == walks["hyperplane2"][1].n_checked == 182 < 500
    assert walks["sixline+1/big"][0][0].denominator > 10**30
    assert not walks["sixline+1/big"][1].passed


@pytest.mark.parametrize("name, m, f", DIFFERENTIAL, ids=[c[0] for c in DIFFERENTIAL])
def test_block_cores_match_per_point_oracle(name, m, f):
    h = HornKapranovMap(m.config)
    grid = list(itertools.islice(rational_grid(m.config.d), 150))
    vanish, nums, dens = _psi_block(h, grid)
    values, scales = _term_block(_cleared(f), nums, dens)
    cleared, k = oracles.cleared_terms(f), 0
    for y, row in zip(grid, vanish):
        try:
            point = oracles.psi_integer(h, y)
        except OnArrangement as exc:
            assert row.any() and h.b.labels[row.argmax()] == exc.label
            continue
        assert not row.any()
        assert (list(nums[k]), list(dens[k])) == point
        assert (list(values[k]), scales[k]) == oracles.term_values(cleared, *point)
        k += 1
    assert k == len(nums) == len(values) == len(scales)


def test_block_values_are_python_ints_past_int64(m6, big_d):
    # six-line term values reach 130 bits at the 117 points of verify -n 100;
    # an int64 or float array would wrap or round them
    h = HornKapranovMap(m6.config)
    vanish, nums, dens = _psi_block(h, list(itertools.islice(rational_grid(3), 117)))
    cleared = _cleared(big_d)
    values, scales = _term_block(cleared, nums, dens)
    sums, coords = values.sum(axis=1), values @ cleared[2].astype(object)
    for array in (nums, dens, values, scales, sums, coords):
        assert array.dtype == object
        assert all(type(v) is int for v in array.flat)
    for array in (values, scales, coords):
        assert max(abs(v) for v in array.flat).bit_length() > 63


def test_certify_computes_each_grid_point_once(m6, m_plane, big_d, monkeypatch):
    # each block is the fewest points the walk still needs, so no grid point
    # is evaluated twice and none that the walk does not read
    blocks = []

    def counted(h, ys):
        blocks.append(list(ys))
        return psi_block(h, ys)

    psi_block = harness._psi_block
    monkeypatch.setattr(harness, "_psi_block", counted)
    # on the six-line, two walks evaluated 225 points and the per-point walk 117
    cases = (
        (m6, big_d, [100, 16, 1], 117, 10),
        (m_plane, hyperplane_poly(3), [100, 6], 106, 0),
    )
    for m, f, sizes, bound, skipped in cases:
        blocks.clear()
        report = certify_discriminant(f, m, 100)
        assert report["status"] == "ok"
        assert report["roundtrip_checked"] + report["roundtrip_singular_skipped"] == 100 + skipped
        assert [len(block) for block in blocks] == sizes
        points = [y for block in blocks for y in block]
        assert len(points) == len(set(points)) <= bound
        assert points == list(itertools.islice(rational_grid(3), len(points)))


@pytest.mark.parametrize("check", [residue_check, gauss_roundtrip, certify_discriminant])
def test_negative_grid_size_is_input_error(m6, big_d, check):
    with pytest.raises(InputError):
        check(big_d, m6, -1)


def test_certification_builds_no_fraction_per_point(m6, big_d):
    made = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is Fraction.__new__.__code__:
            made.append(event)

    sys.setprofile(profile)
    try:
        residue = residue_check(big_d, m6, 100)
        roundtrip = gauss_roundtrip(big_d, m6, 100)
        report = certify_discriminant(big_d, m6, 100)
    finally:
        sys.setprofile(None)
    assert residue[0] == 0 and roundtrip.passed and roundtrip.n_checked == 100
    assert report["status"] == "ok"
    assert len(made) <= 1  # the walk starts from a shared zero, so none per call


def test_zero_polynomial_is_singular_everywhere(m6):
    zero = SparsePoly.zero(("p", "q", "r"))
    result = gauss_roundtrip(zero, m6, 5000)
    assert result.passed and result.n_checked == 0
    assert result.n_singular_skipped == 2520
    report = certify_discriminant(zero, m6, 20)
    assert report["status"] == "incomplete" and report["max_residue"] == "0"


def test_certify_refuses_values_past_the_bit_bound(m6, monkeypatch):
    # psi's p on the grid is bounded by 2^12, so p^20000 by 2^240000; the
    # walk refuses before it evaluates a single point
    monkeypatch.setattr(harness, "_psi_block", None)
    with pytest.raises(TooLarge, match=str(MAX_EXACT_BITS)):
        certify_discriminant(parse("p^20000*q + 1", ["p", "q", "r"]), m6, 20)
