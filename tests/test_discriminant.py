"""Horn-Kapranov map, Gauss map, nondefectivity, tropical discriminant rays."""

import cmath
import math
import random
from fractions import Fraction

import pytest

from coamoeba import intlinalg as la
from coamoeba.catalog import hyperplane_b, line_b, plane_b, sixline_b
from coamoeba.configuration import VectorConfiguration
from coamoeba.discriminant import (
    HornKapranovMap,
    _cross3,
    _escape_test,
    essential_flacets,
    form_sum,
    log_gauss,
    non_splitting_flags,
    non_splitting_flats,
    nondefective,
    psi_complex,
    psi_exact,
    tdiscr_fan_d3,
    tdiscr_rays,
)
from coamoeba.errors import (
    DimensionNot3,
    Disconnected,
    InputError,
    NearArrangement,
    OnArrangement,
    SingularPoint,
    TooLarge,
    WrongLength,
)
from coamoeba.matroid import Matroid, merge_parallel
from coamoeba.polynomial import MAX_EXACT_BITS, SparsePoly, parse
from coamoeba.tropical import _chains, _climb, bergman_rays, complete_flags, maximal_cones
from oracles import (
    _in_sector,
    essential_flacets_by_form_sums,
    log_gauss_by_partials,
    log_gauss_by_terms,
    psi_by_fractions,
    non_splitting_by_rank,
    nondefective_by_links,
    projectively_equal,
    random_zero_sum_matroid,
    sweep_configs,
    tdiscr_fan_d3_by_form_sums,
)


def test_psi_hyperplane_formula():
    h = HornKapranovMap(hyperplane_b(2))
    assert psi_exact(h, (1, 2)) == (Fraction(-1, 3), Fraction(-2, 3))


def test_psi_hyperplane_sum_identity():
    rng = random.Random(41)
    for d in range(2, 6):
        h = HornKapranovMap(hyperplane_b(d))
        for _ in range(25):
            y = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d))
            try:
                image = psi_exact(h, y)
            except OnArrangement:
                continue
            assert sum(image) == -1


def test_psi_sixline_point(b6):
    h = HornKapranovMap(b6)
    assert psi_exact(h, (1, 1, 1)) == (
        Fraction(3, 25),
        Fraction(-9, 5),
        Fraction(-1, 25),
    )


def test_psi_homogeneous_degree_zero(b6):
    rng = random.Random(42)
    h = HornKapranovMap(b6)
    for _ in range(20):
        y = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3))
        c = Fraction(rng.randint(1, 7), rng.randint(1, 7))
        try:
            image = psi_exact(h, y)
        except OnArrangement:
            continue
        assert psi_exact(h, tuple(c * v for v in y)) == image
        assert all(v != 0 for v in image)


def test_psi_exact_scale_invariant_with_mixed_denominators(b6):
    rng = random.Random(43)
    h = HornKapranovMap(b6)
    for _ in range(40):
        y = tuple(
            Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 12)) for _ in range(3)
        )
        q = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
        try:
            image = psi_exact(h, y)
        except OnArrangement:
            continue
        assert psi_exact(h, tuple(q * v for v in y)) == image
        assert psi_exact(h, tuple(str(v) for v in y)) == image


def test_psi_on_arrangement_names_row(b6):
    h = HornKapranovMap(b6)
    with pytest.raises(OnArrangement) as err:
        psi_exact(h, (0, 1, 1))
    assert err.value.label == "b1"


def test_psi_complex_line_point():
    h = HornKapranovMap(hyperplane_b(2))
    image = psi_complex(h, (1j, -1 - 1j))
    args = [cmath.phase(v) for v in image]
    assert abs(args[0] - math.pi / 2) < 1e-12
    assert abs(args[1] + 3 * math.pi / 4) < 1e-12


def test_psi_complex_real_positive_signs(b6):
    h = HornKapranovMap(b6)
    image = psi_complex(h, (1.0, 1.0, 1.0))
    exact = psi_exact(h, (1, 1, 1))
    for v, ev in zip(image, exact):
        assert abs(v.imag) < 1e-12
        assert (v.real > 0) == (ev > 0)


def test_psi_complex_near_arrangement_cut_off():
    # |<b, y>| below NEAR_ARRANGEMENT = 1e-12 of max_j |y_j| is refused:
    # 1e-13 is and 1e-10 is not, so a cut-off of 1e-9 or 1e-14 fails here
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]]
    h = HornKapranovMap(VectorConfiguration.from_rows(rows))
    with pytest.raises(NearArrangement) as info:
        psi_complex(h, (1e-13, 1, 1))
    assert info.value.label == "b1"
    image = psi_complex(h, (1e-10, 1, 1))  # y_j / -(y_1 + y_2 + y_3)
    assert cmath.isclose(image[0], -1e-10 / (2 + 1e-10), rel_tol=1e-12)


def test_psi_complex_conjugation(b6):
    rng = random.Random(43)
    h = HornKapranovMap(b6)
    for _ in range(10):
        y = tuple(complex(rng.uniform(-2, 2), rng.uniform(0.2, 2)) for _ in range(3))
        image = psi_complex(h, y)
        conj = psi_complex(h, tuple(v.conjugate() for v in y))
        for a, b in zip(image, conj):
            assert abs(a.conjugate() - b) < 1e-9 * max(1.0, abs(a))


@pytest.mark.parametrize(
    "point",
    [
        (float("nan"), 1, 1),
        (1, float("inf"), 1),
        (1, 1, complex(0, float("nan"))),
        (1, complex(float("-inf"), 2), 1),
    ],
)
def test_psi_complex_rejects_non_finite(b6, point):
    with pytest.raises(InputError):
        psi_complex(HornKapranovMap(b6), point)


def test_psi_complex_power_underflow_is_input_error():
    # near the b4 hyperplane <b4, y> is about 1e-10: its 61st power underflows
    # to 0, so the power -61 overflows and must be an input error, not a
    # ZeroDivisionError
    b = VectorConfiguration.from_rows([[1, 0], [0, 1], [60, 1], [-61, -2]])
    with pytest.raises(InputError):
        psi_complex(HornKapranovMap(b), (2, -60.9999999999))


def test_psi_complex_is_exactly_scale_invariant(b6):
    # psi is degree-0 and the point is normalised by a power of two, so
    # scaling by 2^600 or 2^-600 (exact in floating point) changes no bit
    h = HornKapranovMap(b6)
    rng = random.Random(47)
    points = [(1 + 2j, -0.5, 3j), (1, 2, 3)]
    points += [
        tuple(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3)) for _ in range(20)
    ]
    for y in points:
        image = psi_complex(h, y)
        for scale in (2**600, 2**-600):
            assert psi_complex(h, tuple(scale * v for v in y)) == image


def test_log_gauss_euler_operator_matches_partials():
    rng = random.Random(71)
    singular = 0
    for _ in range(200):
        nv = rng.randint(1, 4)
        terms = {}
        for _ in range(rng.randint(1, 8)):
            exps = tuple(rng.randint(0, 4) for _ in range(nv))
            if sum(exps) <= 4:  # degree at most 4
                terms[exps] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        f = SparsePoly.from_dict("wxyz"[:nv], terms)
        y = tuple(
            Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))
            for _ in range(nv)
        )
        try:
            expected = log_gauss_by_partials(f, y)
        except SingularPoint:
            singular += 1
            with pytest.raises(SingularPoint):
                log_gauss(f, y)
            continue
        got = log_gauss(f, y)
        assert got == expected and all(type(c) is Fraction for c in got)
    assert 0 < singular < 100  # zero and constant polynomials occur


def test_log_gauss_complex_point_matches_exact(big_d):
    y = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))
    exact = log_gauss(big_d, y)
    approx = log_gauss(big_d, tuple(complex(v) for v in y))
    for a, e in zip(approx, exact):
        assert type(a) is complex
        assert abs(a - float(e)) <= 1e-9 * abs(float(e))


def test_log_gauss_matches_term_walk_at_rational_complex_and_mixed_points(big_d):
    # the term values come from _term_block, times one K; the term walk
    # evaluates each monomial at the point itself
    rng = random.Random(72)
    polys = [big_d, parse("x^5 - 2/3*x*y + 1/7*y^3 - 4"), parse("x*y + 1")]
    for f in polys:
        for _ in range(20):
            y = [Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 7)) for _ in f.variables]
            kinds = [rng.choice([Fraction, complex]) for _ in y]
            point = tuple(kind(v) for kind, v in zip(kinds, y))
            got, want = log_gauss(f, point), log_gauss_by_terms(f, point)
            assert [type(g) for g in got] == [type(w) for w in want]
            for g, w in zip(got, want):
                assert g == w if type(w) is Fraction else abs(g - w) <= 1e-9 * max(1, abs(w))


def test_log_gauss_rejects_wrong_length(big_d):
    for y in ((1, 2), (1, 2, 3, 4), (1j, 2j)):
        with pytest.raises(WrongLength):
            log_gauss(big_d, y)


def test_log_gauss_hyperplane():
    f = parse("x+y+1")
    rng = random.Random(44)
    for _ in range(10):
        x = Fraction(rng.randint(1, 9), rng.randint(1, 5))
        y = Fraction(rng.randint(1, 9), rng.randint(1, 5))
        g = log_gauss(f, (x, y))
        assert projectively_equal(g, (x, y))


def test_log_gauss_inverts_hyperplane_psi():
    f = parse("x+y+1")
    h = HornKapranovMap(hyperplane_b(2))
    y = (Fraction(2), Fraction(5))
    assert projectively_equal(log_gauss(f, psi_exact(h, y)), y)


def test_log_gauss_inverts_sixline_psi(b6, big_d):
    h = HornKapranovMap(b6)
    assert log_gauss(big_d, psi_exact(h, (1, 1, 1))) == (1, 1, 1)


def test_log_gauss_singular_point(b6, big_d):
    # psi(5, -1, 3) is a singular point of the discriminant surface
    h = HornKapranovMap(b6)
    with pytest.raises(SingularPoint):
        log_gauss(big_d, psi_exact(h, (5, -1, 3)))


def test_nondefective_examples(m6, m_plane):
    assert nondefective(m6)
    assert nondefective(m_plane)
    for d in range(2, 6):
        assert nondefective(Matroid(hyperplane_b(d)))


def test_pyramid_is_defective():
    cfg = VectorConfiguration.from_rows([[1, 0], [0, 0], [-1, 0], [0, 1], [0, -1]])
    assert not nondefective(cfg)


def test_opposite_pairs_are_defective():
    cfg = VectorConfiguration.from_rows(
        [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]
    )
    assert not nondefective(Matroid(cfg))


def test_nondefective_reads_a_configuration_as_its_matroid():
    fourvec = VectorConfiguration.from_rows([[3, 0], [0, 1], [-1, -2], [-2, 1]])
    for config in (line_b(), plane_b(), sixline_b(), fourvec):
        assert nondefective(config) == nondefective(Matroid(config))


@pytest.mark.parametrize(
    "call", [bergman_rays, maximal_cones, tdiscr_rays, Matroid.flacets]
)
def test_disconnected_cross_is_refused(call):
    # two parallel pairs: the matroid is the direct sum of two rank-one parts
    cross = Matroid(VectorConfiguration.from_rows([[1, 0], [-1, 0], [0, 1], [0, -1]]))
    with pytest.raises(Disconnected, match="connected"):
        call(cross)


def test_nondefective_iff_a_non_splitting_flag(m6, m_line, m_plane):
    cross = VectorConfiguration.from_rows([[1, 0], [-1, 0], [0, 1], [0, -1]])
    fourvec = VectorConfiguration.from_rows([[3, 0], [0, 1], [-1, -2], [-2, 1]])
    matroids = [m6, m_line, m_plane, Matroid(cross), Matroid(fourvec)]
    matroids += [Matroid(hyperplane_b(d)) for d in range(1, 5)]
    assert not nondefective(Matroid(cross))
    for m in matroids:
        assert nondefective(m) == bool(non_splitting_flags(m))


def test_non_splitting_flags_check_sums(m6):
    from coamoeba import intlinalg as la

    flags = non_splitting_flags(m6)
    assert flags
    for flag in flags:
        chain = list(reversed(flag.flats))  # increasing rank
        assert [f.corank for f in chain] == [1, 2]
        prev_rows = []
        for flat in chain:
            s = form_sum(m6, flat.forms)
            if prev_rows:
                r = la.rank_rational(prev_rows)
                assert la.rank_rational(prev_rows + [list(s)]) == r + 1
            else:
                assert any(s)
            prev_rows = [list(m6.config.matrix[i]) for i in sorted(flat.forms)]


def test_non_splitting_flags_match_rank_oracle(m6, m_plane):
    rng = random.Random(31)
    matroids = [m6, m_plane] + [random_zero_sum_matroid(rng, 7, 4) for _ in range(4)]
    matroids += [random_zero_sum_matroid(rng, 6, 3) for _ in range(4)]
    for m in matroids:
        got = {flag.form_chain() for flag in non_splitting_flags(m)}
        want = non_splitting_by_rank(m.config)
        assert got == want
        # each form-set of a chain once, sorted by corank and then by labels;
        # the k-th form-set of a chain, counted from 0, has corank d - 1 - k
        forms = [flat.forms for flat in non_splitting_flats(m)]
        key = {f: (m.rank - 1 - k, sorted(f)) for chain in want for k, f in enumerate(chain)}
        assert forms == sorted(key, key=key.get)


def test_nondefective_echelons_each_flat_at_most_once(monkeypatch):
    rng = random.Random("n7d5/0")  # the (7,5) fan golden: 100 flats
    m = random_zero_sum_matroid(rng, 7, 5)
    calls = []
    basis = la.row_lattice_basis
    monkeypatch.setattr(la, "row_lattice_basis", lambda rows: calls.append(1) or basis(rows))
    assert nondefective(m)
    assert len(m.flats()) == 100
    assert 0 < len(calls) <= len(m.flats())


def test_nondefective_climb_never_builds_the_lattice(monkeypatch):
    m = random_zero_sum_matroid(random.Random("n7d5/0"), 7, 5)
    calls = []
    basis = la.row_lattice_basis
    monkeypatch.setattr(la, "row_lattice_basis", lambda rows: calls.append(1) or basis(rows))

    def no_flats(self):
        raise AssertionError("nondefective built the lattice of flats")

    monkeypatch.setattr(Matroid, "flats", no_flats)
    assert nondefective(m)
    assert len(calls) <= m.rank - 1  # one echelon per lower flat of the chain


def test_nondefective_climb_matches_the_link_walk_on_a_sweep():
    # 648 zero-sum configurations, 36 at each (n, d) with n = 6..11 and
    # d = 3..5: n - 1 rows with entries in [-1, 1] and minus their sum
    rng = random.Random("nondefective sweep")
    defective = 0
    for k in range(648):
        m = random_zero_sum_matroid(rng, 6 + k % 6, 3 + k // 6 % 3, bound=1)
        flags = non_splitting_flags(m)
        witness = _climb(m, _escape_test(m))
        assert (witness is not None) == nondefective(m) == nondefective_by_links(m) == bool(flags)
        assert witness is None or witness in flags
        defective += not flags
    assert defective >= 20


def test_zero_sum_hyperplane_splits_the_first_link():
    # {b1, b2} is a corank-1 flat with zero form-sum: the link from the
    # corank-0 flat to it splits, although {b1, b2} < {b1, b2, b3} escapes
    cfg = VectorConfiguration.from_rows(
        [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, 0, 1], [0, -1, -1]]
    )
    assert non_splitting_by_rank(cfg) == set()
    assert non_splitting_flags(Matroid(cfg)) == []


DEFECTIVE = [
    [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, 0, 1], [0, -1, -1]],
    [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
    [[1, 0], [-1, 0], [0, 1], [0, -1]],
    [[1, 0, 0, 0], [-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, -1, -1, -1]],
]


def test_nondefective_matches_the_whole_link_walk():
    defective = [VectorConfiguration.from_rows(rows) for rows in DEFECTIVE]
    for config in sweep_configs() + defective:
        m = Matroid(config)
        assert nondefective(m) == bool(_chains(m, _escape_test(m)))
    assert not any(nondefective(Matroid(config)) for config in defective)


def test_non_splitting_flags_in_complete_flag_order(m6):
    flags = non_splitting_flags(m6)
    kept = set(flags)
    assert flags == [f for f in complete_flags(m6) if f in kept]


def test_non_splitting_flats_include_hyperplanes(m6):
    flats = non_splitting_flats(m6)
    coranks = {f.forms: f.corank for f in flats}
    for i in range(6):
        assert coranks.get(frozenset({i})) == 1
    assert frozenset() not in coranks
    assert frozenset(range(6)) not in coranks


def test_essential_flacets(m6, m_plane):
    ess = {f.forms for f in essential_flacets(m6)}
    assert ess == {frozenset({i}) for i in range(6)}
    assert len(essential_flacets(m_plane)) == 4


def test_zero_sum_class_not_essential():
    # connected configuration whose parallel class {b1, b2} sums to zero
    cfg = VectorConfiguration.from_rows(
        [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [-1, -2, -2]]
    )
    m = Matroid(cfg)
    assert m.is_connected()
    assert frozenset({0, 1}) in {f.forms for f in m.flacets()}
    ess = essential_flacets(m)
    assert all(any(form_sum(m, f.forms)) for f in ess)
    assert frozenset({0, 1}) not in {f.forms for f in ess}
    assert all(r.flat.forms != frozenset({0, 1}) for r in tdiscr_rays(m))


def test_tdiscr_rays_sixline(m6):
    rays = {r.direction: r for r in tdiscr_rays(m6)}
    assert set(rays) == {
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
        (1, 2, 0),
        (-2, -1, -2),
        (0, -2, 1),
        (2, 3, 0),
        (0, -1, 2),
    }
    assert rays[(2, 3, 0)].flat.forms == frozenset({0, 1, 3})
    assert not rays[(2, 3, 0)].essential
    assert rays[(1, 0, 0)].essential


def test_tdiscr_rays_plane(m_plane):
    dirs = {r.direction for r in tdiscr_rays(m_plane)}
    assert dirs == {(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)}


def test_tdiscr_fan_d3_type2(m6, m_plane):
    type2 = [r.direction for r in tdiscr_fan_d3(m6) if r.kind == "type2"]
    assert type2 == [(1, 0, 1)]
    assert [r for r in tdiscr_fan_d3(m_plane) if r.kind == "type2"] == []


def test_rays_match_form_sum_oracle():
    # 60 seeded connected (n, 3) matroids, n = 5 .. 9: essential flacets and
    # type-2 sectors read off the type-1 rays match those from the form-sums
    rng = random.Random(23)
    with_type2 = 0
    for k in range(60):
        m = random_zero_sum_matroid(rng, 5 + k % 5, 3)
        while not m.is_connected():
            m = random_zero_sum_matroid(rng, 5 + k % 5, 3)
        assert essential_flacets(m) == essential_flacets_by_form_sums(m)
        rays = tdiscr_fan_d3(m)
        assert rays == tdiscr_fan_d3_by_form_sums(m)
        with_type2 += any(r.kind == "type2" for r in rays)
    assert with_type2 >= 50


def test_essential_flacets_match_form_sum_oracle_off_d3():
    # the walk by covers against the flacets of the whole lattice: 60 seeded
    # connected zero-sum matroids each at d = 2, 4 and 5, n = d + 2 .. d + 6,
    # entries in [-1, 1] on every other one, so parallel and zero-sum
    # classes turn up
    rng = random.Random("essential flacets off d = 3")
    found = {2: 0, 4: 0, 5: 0}
    for d in found:
        for k in range(60):
            m = random_zero_sum_matroid(rng, d + 2 + k % 5, d, bound=1 + k % 2)
            while not m.is_connected():
                m = random_zero_sum_matroid(rng, d + 2 + k % 5, d, bound=1 + k % 2)
            ess = essential_flacets(Matroid(m.config))
            assert ess == essential_flacets_by_form_sums(m)
            found[d] += len(ess)
    assert found[2] == 0 and found[4] > 0 and found[5] > 0


@pytest.mark.parametrize(
    "rows",
    [[[1, 0], [-1, 0], [0, 1], [0, -1]],
     [[1, 0, 0], [0, 1, 0], [-1, -1, 0], [0, 0, 1], [0, 0, -1]]],
    ids=["cross", "plane_plus_pair"],
)
def test_essential_flacets_refuse_a_disconnected_matroid(rows):
    m = Matroid(VectorConfiguration.from_rows(rows))
    message = "^tropical discriminant rays need a connected matroid$"
    with pytest.raises(Disconnected, match=message):
        essential_flacets(m)
    with pytest.raises(Disconnected, match=message):
        tdiscr_rays(m)


def test_essential_flacets_never_build_the_lattice(monkeypatch):
    # a fresh (9,3) matroid: the walk ranks the corank-0 flat and at most n
    # single labels, and neither lists nor tests the flats of the lattice
    rng = random.Random("n9d3/0")
    m = random_zero_sum_matroid(rng, 9, 3)
    while not m.is_connected():
        m = random_zero_sum_matroid(rng, 9, 3)
    want = essential_flacets_by_form_sums(m)
    fresh = Matroid(m.config)

    def no_lattice(self):
        raise AssertionError("essential_flacets built the lattice of flats")

    tight = Matroid._tight
    calls = []
    monkeypatch.setattr(Matroid, "flats", no_lattice)
    monkeypatch.setattr(Matroid, "flacets", no_lattice)
    monkeypatch.setattr(Matroid, "_tight", lambda self, f: calls.append(f) or tight(self, f))
    assert essential_flacets(fresh) == want
    assert len(calls) <= 1 + m.n  # the corank-0 flat, then single labels


def test_in_sector_on_and_off_the_plane():
    rng = random.Random(12)
    for _ in range(2000):
        u = [rng.randint(-3, 3) for _ in range(3)]
        w = [rng.randint(-3, 3) for _ in range(3)]
        n = _cross3(u, w)
        if not any(n):
            continue
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        x = [a * p + b * q for p, q in zip(u, w)]
        assert _in_sector(x, u, w) == (a >= 0 and b >= 0)
        assert not _in_sector([c + k for c, k in zip(x, n)], u, w)


def test_tdiscr_fan_d3_requires_d3(m_line):
    with pytest.raises(DimensionNot3):
        tdiscr_fan_d3(m_line)


def test_merge_arg_shift_matches_psi(m6):
    # the recorded shifts relate psi of a configuration and of its merge
    flat = m6.closure({2})  # restriction with a mixed-sign parallel class
    restricted, _ = m6.restrict_to_flat(flat)
    reduced, merges = merge_parallel(restricted)
    shift = [0, 0]
    for rec in merges:
        shift[0] = (shift[0] + rec.arg_shift_pi[0]) % 2
        shift[1] = (shift[1] + rec.arg_shift_pi[1]) % 2
    h_full = HornKapranovMap(restricted)
    h_red = HornKapranovMap(reduced)
    rng = random.Random(45)
    checked = 0
    while checked < 15:
        y = tuple(Fraction(rng.randint(-7, 7), rng.randint(1, 3)) for _ in range(2))
        try:
            full = psi_exact(h_full, y)
            red = psi_exact(h_red, y)
        except OnArrangement:
            continue
        checked += 1
        for j in range(2):
            ratio = full[j] / red[j]
            expected_sign = -1 if shift[j] else 1
            assert (1 if ratio > 0 else -1) == expected_sign


def _spike(k):
    """Rows (k, 0, 0), (0, 1, 0), (0, 0, 1), (-k, -1, -1): psi's coordinates
    are k-th powers of the pairings."""
    return VectorConfiguration.from_rows([[k, 0, 0], [0, 1, 0], [0, 0, 1], [-k, -1, -1]])


def test_psi_exact_refuses_values_past_the_bit_bound():
    # (10^4 + 5)^(10^4) has 133 000 bits, past Python's 4300-digit str limit;
    # with exponents near 10^30 the power would never finish
    for k in (10**4, 10**30):
        with pytest.raises(TooLarge, match=str(MAX_EXACT_BITS)):
            psi_exact(HornKapranovMap(_spike(k)), (1, 2, 3))
    # 505^500 has 4494 bits, inside the bound, and is computed exactly
    b = _spike(500)
    assert psi_exact(HornKapranovMap(b), (1, 2, 3)) == psi_by_fractions(b, (1, 2, 3))


def test_log_gauss_refuses_values_past_the_bit_bound():
    with pytest.raises(TooLarge, match=str(MAX_EXACT_BITS)):
        log_gauss(parse("x^20000 + y"), (2, 1))
