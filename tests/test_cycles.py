"""Zonotopes, half-coamoeba cycles, membership, and prisms."""

import dataclasses
import functools
import itertools
import math
import random
import re
import sys
from fractions import Fraction

import numpy as np
import pytest

from coamoeba import cycles
from coamoeba.catalog import line_b, plane_b, sixline_b
from coamoeba.configuration import VectorConfiguration
from coamoeba.cycles import (
    MAX_TRANSLATES,
    Polygon,
    Prism,
    build_cycle,
    contains2,
    contains2_exact,
    contains_pls3,
    cycle_distance,
    degree_dH,
    half_coamoeba_cycles,
    pls3_distance,
    pls3_distances,
    prisms_d3,
    zonotope,
)
from coamoeba.discriminant import HornKapranovMap, psi_complex
from coamoeba.errors import (
    Defective,
    DegenerateZonotope,
    DimensionNot3,
    InputError,
    NonzeroSum,
    ParallelRows,
    TooLarge,
    WrongLength,
)
from coamoeba.harness import sample_coamoeba
from coamoeba.matroid import Flat, Matroid, merge_parallel
from oracles import (
    build_cycle_by_start_vertices,
    contains2_two_pass,
    half_coamoeba_by_start_vertices,
    half_coamoeba_from_vertex,
    _chart_distances_full,
    pls3_distances_by_fixed_blocks,
    random_zero_sum_matroid,
    start_vertices,
)


def shoelace(vertices):
    """Independent signed-area oracle."""
    total = Fraction(0)
    for (x1, y1), (x2, y2) in zip(vertices, vertices[1:] + vertices[:1]):
        total += Fraction(x1) * Fraction(y2) - Fraction(x2) * Fraction(y1)
    return total / 2


def pair_det_area(gens):
    """Independent zonotope-area oracle: sum of |det| over generator pairs."""
    total = 0
    for u, w in itertools.combinations(gens, 2):
        total += abs(u[0] * w[1] - u[1] * w[0])
    return total


FH = VectorConfiguration.from_rows([[3, 0], [0, 1], [-1, -2], [-2, 1]])
FIVE = VectorConfiguration.from_rows([[1, 0], [0, 2], [-1, -1], [1, 4], [-1, -5]])


def test_line_zonotope():
    z = zonotope(line_b())
    assert set(z.vertices) == {
        (1, 0),
        (1, 1),
        (0, 1),
        (-1, 0),
        (-1, -1),
        (0, -1),
    }
    assert z.area() == 3
    assert z.area() == pair_det_area(line_b().matrix)
    assert z.signed_area() == shoelace(list(z.vertices))


def test_fh_zonotope_area():
    z = zonotope(FH)
    assert z.area() == 20
    assert pair_det_area(FH.matrix) == 20


def test_zonotope_rejects_parallel_generators():
    with pytest.raises(ParallelRows):
        zonotope(VectorConfiguration.from_rows([[1, 0], [2, 0], [-3, 0]]))
    with pytest.raises(ParallelRows):
        zonotope(VectorConfiguration.from_rows([[1, 1], [-1, -1]]))


def test_zonotope_rejects_nonzero_sum():
    with pytest.raises(NonzeroSum):
        zonotope(VectorConfiguration.from_rows([[1, 0], [0, 1]]))


def test_zonotope_rejects_too_few_generators():
    with pytest.raises(DegenerateZonotope):
        zonotope(VectorConfiguration((), ()))


def test_line_half_cycles():
    plus, minus = half_coamoeba_cycles(line_b())
    assert list(plus.vertices) == [(1, 1), (1, 0), (2, 1)]
    assert plus.area() == Fraction(1, 2)
    assert minus.vertices == tuple((-x, -y) for x, y in plus.vertices)
    assert abs(shoelace(list(plus.vertices))) == Fraction(1, 2)


def test_fh_half_cycles():
    plus, minus = half_coamoeba_cycles(FH)
    assert list(plus.vertices) == [(3, 1), (3, 0), (4, 2), (1, 2)]
    assert plus.area() == 2
    assert minus.vertices == tuple((-x, -y) for x, y in plus.vertices)


def test_degrees():
    line = build_cycle(line_b())
    assert line.degree == 1
    fh = build_cycle(FH)
    assert fh.degree == 6
    plane_restriction = build_cycle(
        VectorConfiguration.from_rows([[1, 0], [0, 1], [-1, -1]])
    )
    assert plane_restriction.degree == 1


def test_degree_formula():
    fh = build_cycle(FH)
    assert degree_dH(fh.zonotope, fh.plus, fh.minus) == 6
    total = fh.zonotope.area() + fh.plus.area() + fh.minus.area()
    assert total == 24


def test_line_membership_examples():
    cyc = build_cycle(line_b())
    assert contains2(cyc, (math.pi / 2, -3 * math.pi / 4))
    assert not contains2(cyc, (0.0, 0.0))
    assert contains2(cyc, (math.pi, math.pi))
    assert contains2_exact(cyc, (Fraction(1), Fraction(1)))
    assert contains2_exact(cyc, (Fraction(1, 2), Fraction(-3, 4)))
    assert not contains2_exact(cyc, (Fraction(0), Fraction(0)))


def test_membership_tolerance_band():
    cyc = build_cycle(line_b())
    # just inside the hexagon near its x = pi edge: outside the coamoeba by ~2e-3
    theta = (math.pi - 2e-3, math.pi / 2)
    d = cycle_distance(cyc, theta)
    assert 0 < d < 3e-3
    assert not contains2(cyc, theta, tol=1e-9)
    assert contains2(cyc, theta, tol=5e-3)


def test_choice_of_start_vertex_is_immaterial():
    rng = random.Random(2024)
    configs = [line_b(), FH]
    # a five-generator configuration whose shell self-intersects
    five = VectorConfiguration.from_rows(
        [[1, 0], [0, 2], [-1, -1], [1, 4], [-1, -5]]
    )
    configs.append(five)
    for cfg in configs:
        reduced, _ = merge_parallel(cfg)
        variants = []
        for v, f1 in start_vertices(reduced):
            poly = half_coamoeba_from_vertex(reduced, v, f1)
            variants.append((poly, poly.reflect()))
        base_plus, base_minus = variants[0]
        for _ in range(250):
            theta = (rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi))
            answers = set()
            for plus, minus in variants:
                cyc = build_cycle(cfg)
                cyc = type(cyc)(
                    zonotope=cyc.zonotope,
                    plus=plus,
                    minus=minus,
                    degree=cyc.degree,
                    arg_shift_pi=cyc.arg_shift_pi,
                )
                answers.add(contains2(cyc, theta, tol=1e-9))
            assert len(answers) == 1


def _outcome(fn, *args):
    """The result of fn, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def test_edge_walk_matches_start_vertex_walk():
    rng = random.Random(11)
    built = 0
    for trial in range(3000):
        n = 2 + trial % 8
        rows = [[rng.randint(-6, 6) for _ in range(2)] for _ in range(n - 1)]
        rows.append([-sum(col) for col in zip(*rows)])
        config = VectorConfiguration.from_rows(rows)
        cycle = _outcome(build_cycle, config)
        assert cycle == _outcome(build_cycle_by_start_vertices, config)
        built += isinstance(cycle, cycles.CoamoebaCycle)
        configs = [config]
        if all(any(row) for row in rows):
            configs.append(merge_parallel(config)[0])
        for f in configs:
            assert _outcome(half_coamoeba_cycles, f) == _outcome(
                half_coamoeba_by_start_vertices, f
            )
    assert built >= 2000


def test_walk_is_counterclockwise():
    """On the configurations of ``test_edge_walk_matches_start_vertex_walk``,
    merged or not, the upper shell's twice-area is positive as walked."""
    rng = random.Random(11)
    walked = 0
    for trial in range(3000):
        n = 2 + trial % 8
        rows = [[rng.randint(-6, 6) for _ in range(2)] for _ in range(n - 1)]
        rows.append([-sum(col) for col in zip(*rows)])
        config = VectorConfiguration.from_rows(rows)
        configs = [config]
        if all(any(row) for row in rows):
            configs.append(merge_parallel(config)[0])
        for f in configs:
            try:
                plus, _ = half_coamoeba_cycles(f)
            except InputError:
                continue
            assert cycles._twice_area(plus.vertices) > 0, f.matrix
            walked += 1
    assert walked >= 2000


def test_build_cycle_checks_generators_once(monkeypatch):
    calls = []
    check = cycles._check_generators

    def counted(gens):
        calls.append(gens)
        return check(gens)

    monkeypatch.setattr(cycles, "_check_generators", counted)
    build_cycle(FH)
    assert len(calls) == 1


def test_five_generator_shell():
    cyc = build_cycle(FIVE)
    assert cyc.simple_boundary is False
    assert cyc.zonotope.area() == 26
    assert cyc.plus.area() == 1
    assert cyc.degree == 7


def test_build_cycle_merges_a_huge_multiplier():
    # the class {q (1, 0), (1, 0)} merges into (q + 1, 0); its constant
    # q^q / (q + 1)^(q + 1) has millions of digits, and only its sign is read
    q = 10**6
    cyc = build_cycle(VectorConfiguration.from_rows([[q, 0], [1, 0], [0, 1], [-(q + 1), -1]]))
    merged = build_cycle(VectorConfiguration.from_rows([[q + 1, 0], [0, 1], [-(q + 1), -1]]))
    assert cyc == merged and cyc.arg_shift_pi == (0, 0)


def test_contains2_exact_matches_two_pass_oracle():
    rng = random.Random(29)
    grid = [
        (Fraction(rng.randint(-24, 24), q), Fraction(rng.randint(-24, 24), q))
        for q in (1, 2, 3, 4, 6, 7, 12)
        for _ in range(60)
    ]
    # independent denominators, and magnitudes that reach other translates
    for _ in range(240):
        qx, qy = rng.randint(1, 13), rng.randint(1, 13)
        x = Fraction(rng.randint(-5 * qx, 5 * qx), qx)
        grid.append((x, Fraction(rng.randint(-5 * qy, 5 * qy), qy)))
    sixline_bases = [p.base for p in prisms_d3(Matroid(sixline_b()))]
    answers = set()
    for cycle in [build_cycle(line_b()), build_cycle(FH), build_cycle(FIVE)] + sixline_bases:
        boundary = []
        for poly in (cycle.plus, cycle.minus):
            verts = poly.vertices
            for (x1, y1), (x2, y2) in zip(verts, verts[1:] + verts[:1]):
                boundary += [(x1, y1), ((x1 + x2) / 2, (y1 + y2) / 2)]
        for x, y in grid + boundary:
            theta = (x - cycle.arg_shift_pi[0], y - cycle.arg_shift_pi[1])
            got = contains2_exact(cycle, theta)
            assert got == contains2_two_pass(cycle, theta), (cycle, theta)
            answers.add(got)
            # the boundary is inside the closed cycle
            assert got or (x, y) not in boundary
    assert answers == {True, False}


def test_cycle_vertices_are_ints():
    # each vertex is a partial sum of integer generators
    bases = [build_cycle(config) for config in (line_b(), FH, FIVE)]
    for config in (plane_b(), sixline_b(), RANDOM93):
        bases += [p.base for p in prisms_d3(Matroid(config))]
    rng = random.Random(83)
    drawn = 0
    while drawn < 2:
        try:
            bases += [p.base for p in prisms_d3(random_zero_sum_matroid(rng, 9, 3))]
        except InputError:  # disconnected or defective
            continue
        drawn += 1
    for cycle in bases:
        for poly in (cycle.zonotope, cycle.plus, cycle.minus):
            assert all(type(v) is int for vertex in poly.vertices for v in vertex)
            assert all(type(v) is int for v in poly.bbox())


def test_five_generator_membership_against_sampled_coamoeba():
    # every point of the parameterized curve must land inside the cycle
    import numpy as np

    cyc = build_cycle(FIVE)
    fm = np.array(FIVE.matrix, dtype=float)
    rng = np.random.default_rng(6)
    y = rng.standard_normal((400, 2)) + 1j * rng.standard_normal((400, 2))
    pair = y @ fm.T
    keep = np.all(np.abs(pair) > 1e-6, axis=1)
    pair = pair[keep]
    psi = np.stack(
        [np.prod(pair ** fm[:, j], axis=1) for j in range(2)], axis=1
    )
    for theta in np.angle(psi):
        assert contains2(cyc, theta, tol=1e-7)


def test_arg_shift_enters_membership(m6):
    # the ker-b3 restriction merges a mixed-sign class with negative constant,
    # so its cycle carries a genuine argument shift; sampled curve points
    # must still land inside
    import numpy as np

    flat = m6.closure({2})
    restricted, _ = m6.restrict_to_flat(flat)
    cyc = build_cycle(restricted)
    assert cyc.arg_shift_pi != (0, 0)
    fm = np.array(restricted.matrix, dtype=float)
    rng = np.random.default_rng(12)
    y = rng.standard_normal((300, 2)) + 1j * rng.standard_normal((300, 2))
    pair = y @ fm.T
    keep = np.all(np.abs(pair) > 1e-6, axis=1)
    psi = np.stack(
        [np.prod(pair[keep] ** fm[:, j], axis=1) for j in range(2)], axis=1
    )
    hits = 0
    for theta in np.angle(psi):
        assert contains2(cyc, theta, tol=1e-7)
        hits += 1
    assert hits > 200
    # with the shift suppressed, membership must fail somewhere
    stripped = type(cyc)(
        zonotope=cyc.zonotope,
        plus=cyc.plus,
        minus=cyc.minus,
        degree=cyc.degree,
        arg_shift_pi=(0, 0),
    )
    misses = sum(
        0 if contains2(stripped, theta, tol=1e-7) else 1 for theta in np.angle(psi)
    )
    assert misses > 0


def test_build_cycle_requires_zero_sum():
    with pytest.raises(NonzeroSum):
        build_cycle(VectorConfiguration.from_rows([[1, 0], [0, 1]]))


def test_prisms_sixline(m6):
    prisms = prisms_d3(m6)
    assert len(prisms) == 6
    degrees = {
        tuple(sorted(m6.labels_of(p.hyperplane_flat.forms))): p.base.degree
        for p in prisms
    }
    assert degrees[("b1",)] == 6


def test_prisms_plane(m_plane):
    prisms = prisms_d3(m_plane)
    assert len(prisms) == 4
    assert all(p.base.degree == 1 for p in prisms)


def test_prisms_require_d3(m_line):
    with pytest.raises(DimensionNot3):
        prisms_d3(m_line)


def test_prisms_require_nondefective():
    cfg = VectorConfiguration.from_rows(
        [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]
    )
    with pytest.raises(Defective):
        prisms_d3(Matroid(cfg))


def test_contains_pls3_plane(m_plane):
    prisms = prisms_d3(m_plane)
    rng = random.Random(9)
    for _ in range(10):
        theta3 = rng.uniform(-math.pi, math.pi)
        inside, witness = contains_pls3(prisms, (math.pi / 2, -3 * math.pi / 4, theta3))
        assert inside
        assert witness is not None
    # the origin is the zonotope center, interior to the complement of the
    # closed coamoeba, so no prism contains it
    inside, witness = contains_pls3(prisms, (0.0, 0.0, 0.0))
    assert not inside and witness is None


def test_contains_pls3_empty():
    assert contains_pls3([], (0.0, 0.0, 0.0)) == (False, None)


@pytest.mark.parametrize("count", [0, 1, 2, 4, 5])
def test_prism_membership_rejects_wrong_angle_count(m_plane, count):
    theta = (0.5,) * count
    for prisms in ([], prisms_d3(m_plane)):
        with pytest.raises(InputError):
            contains_pls3(prisms, theta)
        with pytest.raises(InputError):
            pls3_distance(prisms, theta)


def test_prism_queries_name_the_input_angles(m_plane):
    prisms = prisms_d3(m_plane)
    for theta in [(math.nan, 0.0, 1.0), (0.0, 1.0, -math.inf)]:
        message = re.escape(f"angles must be finite, got {theta}")
        with pytest.raises(InputError, match=message):
            contains_pls3(prisms, theta)
        with pytest.raises(InputError, match=message):
            pls3_distances(prisms, [(0.1, 0.2, 0.3), theta])
    # finite, but no earlier prism contains it and theta_1 - theta_3
    # overflows in the chart of the plane's fourth prism
    theta = (4e307 * math.pi, 0.0, -4e307 * math.pi)
    assert prisms[3].projection[0] == (1, 0, -1)
    message = re.escape(f"angles {theta} overflow in the chart of a prism")
    with pytest.raises(InputError, match=message):
        contains_pls3(prisms, theta)
    with pytest.raises(InputError, match=message):
        pls3_distances(prisms, [(0.1, 0.2, 0.3), theta])
    with pytest.raises(InputError, match=message):
        pls3_distance(prisms, theta)


# a nondefective random (9,3) configuration with nine prisms of degrees 12 to 109
RANDOM93 = VectorConfiguration.from_rows(
    [[2, -2, 1], [2, 0, -2], [-1, 2, 2], [2, -1, 1], [-2, 1, -2], [-1, 0, 2],
     [0, 0, 1], [1, 2, -1], [-3, -2, -2]]
)


def scalar_pls3(prisms, theta, tol):
    """Per-point reference: the scalar distance and the contains_pls3 witness."""
    distance = min(
        cycle_distance(p.base, cycles._project_theta(p, theta)) for p in prisms
    )
    _, witness = contains_pls3(prisms, theta, tol)
    return distance, -1 if witness is None else prisms.index(witness)


@pytest.mark.parametrize(
    "config, n, some_outside",
    [(plane_b(), 400, True), (sixline_b(), 300, False), (RANDOM93, 150, False)],
    ids=["plane_b", "sixline_b", "random93"],
)
def test_pls3_distances_match_scalar_path(config, n, some_outside):
    prisms = prisms_d3(Matroid(config))
    rng = np.random.default_rng(7)
    points = rng.uniform(-math.pi, math.pi, (n, 3))
    # every point is in play at the first prism, so its last block is partial
    assert n % cycles._block_points(prisms[0].base.plus) != 0
    # with the wide tolerance many points lie within tol of one prism but
    # inside a later one, which must still be tested
    for tol in (1e-6, 0.5):
        distance, witness = pls3_distances(prisms, points, tol)
        reference = [scalar_pls3(prisms, theta, tol) for theta in points]
        ref_distance = np.array([d for d, _ in reference])
        assert np.array_equal(distance <= tol, ref_distance <= tol)
        assert np.array_equal(distance == 0.0, ref_distance == 0.0)
        assert np.abs(distance - ref_distance).max() <= 1e-12
        assert witness.tolist() == [w for _, w in reference]
    if some_outside:
        # about half the torus lies outside, so the distance branch runs
        assert 0.3 < np.mean(ref_distance > 1e-6) < 0.7


@functools.cache
def kernel_case(name):
    """(prisms, points): the uniform points of the scalar-path test above,
    or RANDOM93's own coamoeba samples."""
    if name == "random93_samples":
        m = Matroid(RANDOM93)
        return prisms_d3(m), sample_coamoeba(m, 150, 3)
    config, n = {
        "plane_b": (plane_b(), 400), "sixline_b": (sixline_b(), 300), "random93": (RANDOM93, 150)
    }[name]
    points = np.random.default_rng(7).uniform(-math.pi, math.pi, (n, 3))
    return prisms_d3(Matroid(config)), points


KERNEL_CASES = ["plane_b", "sixline_b", "random93", "random93_samples"]


@pytest.mark.parametrize("tol", [1e-6, 0.5])
@pytest.mark.parametrize("case", KERNEL_CASES)
def test_pls3_distances_equal_fixed_block_kernel(case, tol):
    prisms, points = kernel_case(case)
    distance, witness = pls3_distances(prisms, points, tol)
    ref_distance, ref_witness = pls3_distances_by_fixed_blocks(prisms, points, tol)
    assert np.array_equal(distance, ref_distance)
    assert np.array_equal(witness, ref_witness)


@pytest.mark.parametrize("case", KERNEL_CASES)
def test_pls3_distances_independent_of_blocking(case, monkeypatch):
    prisms, points = kernel_case(case)
    monkeypatch.setattr(cycles, "_BLOCK", 1)
    assert {cycles._block_points(p.base.plus) for p in prisms} == {1}
    one_point = pls3_distances(prisms, points, 0.5)
    monkeypatch.setattr(cycles, "_BLOCK", 10**9)
    assert min(cycles._block_points(p.base.plus) for p in prisms) >= len(points)
    one_block = pls3_distances(prisms, points, 0.5)
    assert np.array_equal(one_point[0], one_block[0])
    assert np.array_equal(one_point[1], one_block[1])


# a zero-sum cycle with coordinates above 10^4 whose shells are slivers: most
# of the chart lies outside both, and orient there rounds by about 10^-12
THIN = VectorConfiguration.from_rows([[10000, 1], [-10001, -1], [1, 0]])
AXES = ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1))


def near_box_sides(poly, offsets=(0.0, 1e-15, 1e-13, 1e-12), directions=AXES):
    """Points of [-1, 1]^2 on and within 1e-12 of the sides of the translates'
    bounding boxes: each (vertex x, vertex y) pair moved into the chart, plus
    each offset times each direction."""
    # an integer coordinate lands on 0 in the chart when even, on -1 and 1 when odd
    xs, ys = (
        {s for c in axis for s in ((-1, 1) if c % 2 else (0,))} for axis in zip(*poly.vertices)
    )
    points = {
        (x + sx * delta, y + sy * delta)
        for x, y, delta in itertools.product(xs, ys, offsets)
        for sx, sy in directions
    }
    return np.array(sorted(p for p in points if max(map(abs, p)) <= 1))


@pytest.mark.parametrize("name", ["thin", "line_b"] + [f"random93_{i}" for i in range(9)])
def test_chart_winding_window_matches_full_window(name, monkeypatch):
    if name.startswith("random93"):
        cycle = prisms_d3(Matroid(RANDOM93))[int(name[-1])].base
    else:
        cycle = build_cycle(THIN if name == "thin" else line_b())
    # one point per block, so each winding window is as narrow as it gets
    monkeypatch.setattr(cycles, "_BLOCK", 1)
    for poly in (cycle.plus, cycle.minus):
        px, py = near_box_sides(poly).T
        inside = cycles._chart(poly, px, py, True)
        got = np.zeros(len(px))
        if not inside.all():
            got[~inside] = cycles._chart(poly, px[~inside], py[~inside], False)
        # the oracle winds every translate within _PAD of its window, so
        # any window gives its answer; small groups keep its arrays small
        want = np.concatenate([
            _chart_distances_full(poly, x, y, (x.min(), x.max(), y.min(), y.max()))
            for x, y in zip(np.array_split(px, len(px) // 8), np.array_split(py, len(py) // 8))
        ])
        assert np.array_equal(got, want)
        if name == "thin":  # both branches run: the slivers miss most points
            assert 0 < np.count_nonzero(want) < len(want)


def test_pls3_distances_near_thin_box_sides_equal_fixed_block_kernel():
    prism = prisms_d3(Matroid(RANDOM93))[0]
    thin = dataclasses.replace(prism, projection=((1, 0, 0), (0, 1, 0)), base=build_cycle(THIN))
    # beside the boxes along x, where orient's rounding can flip a winding
    shells = (thin.base.plus, thin.base.minus)
    charts = np.concatenate([near_box_sides(p, (1e-15, 1e-13), AXES[1:3]) for p in shells])
    # one point per call, so each window is as narrow as it gets
    for x, y in charts * math.pi:
        got = pls3_distances([thin], [(x, y, 0.0)], 1e-12)
        want = pls3_distances_by_fixed_blocks([thin], [(x, y, 0.0)], 1e-12)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_pls3_distances_zero_and_one_point(m_plane):
    prisms = prisms_d3(m_plane)
    distance, witness = pls3_distances(prisms, np.empty((0, 3)))
    assert distance.shape == witness.shape == (0,)
    theta = (0.3, -2.0, 1.1)
    distance, witness = pls3_distances(prisms, [theta], 1e-9)
    assert distance.shape == witness.shape == (1,)
    assert abs(distance[0] - scalar_pls3(prisms, theta, 1e-9)[0]) <= 1e-12
    assert witness[0] == scalar_pls3(prisms, theta, 1e-9)[1]
    assert pls3_distance(prisms, theta) == distance[0]
    assert pls3_distance([], theta) == math.inf


@pytest.mark.parametrize("shape", [(3,), (4, 2), (2, 4), (2, 3, 1), (0,)])
def test_pls3_distances_rejects_wrong_shape(m_plane, shape):
    with pytest.raises(WrongLength):
        pls3_distances(prisms_d3(m_plane), np.zeros(shape))


@pytest.mark.parametrize("count", [0, 1, 3, 4])
def test_cycle_membership_rejects_wrong_angle_count(count):
    cycle = build_cycle(line_b())
    with pytest.raises(InputError):
        contains2(cycle, (0.5,) * count)
    with pytest.raises(InputError):
        contains2_exact(cycle, (Fraction(1, 2),) * count)


def test_polygon_simple_checks():
    square = Polygon(((0, 0), (1, 0), (1, 1), (0, 1)))
    assert square.is_simple()
    bow = Polygon(((0, 0), (1, 1), (1, 0), (0, 1)))
    assert not bow.is_simple()


def test_float_paths_refuse_entries_past_the_float_range():
    # a polygon's vertices must be finite floats in radians, B's entries floats
    fits = int(sys.float_info.max / 4)
    Polygon(((0, 0), (fits, 0), (0, -fits)))
    for big in (int(sys.float_info.max / 2), 10**400):  # past it in radians, then as a float
        with pytest.raises(TooLarge, match="float range"):
            Polygon(((0, 0), (1, 0), (0, -big)))
    huge = 10**400
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-huge, 1, 0], [huge - 1, -2, -1]]
    b = VectorConfiguration.from_rows(rows)
    with pytest.raises(TooLarge, match="float range"):
        sample_coamoeba(Matroid(b), 5, 0)
    with pytest.raises(TooLarge, match="float range"):
        psi_complex(HornKapranovMap(b), (1, 2, 3))


def test_membership_refuses_a_window_past_the_translate_bound():
    # the shells span about 10^30 pi in x, so a window would hold ~10^30
    # translates: more than a range's len, let alone itertools.product, takes
    big = 10**30
    cycle = build_cycle(VectorConfiguration.from_rows([[1, 0], [0, 1], [-big, 1], [big - 1, -2]]))
    prism = Prism(Flat(frozenset({0}), 1), ((1, 0, 0), (0, 1, 0)), cycle)
    calls = [
        lambda: contains2_exact(cycle, (0, 0)),
        lambda: contains2_exact(cycle, (Fraction(1, 3), 0)),
        lambda: contains2(cycle, (0.0, 0.0)),
        lambda: contains_pls3([prism], (0.0, 0.0, 0.0)),
        lambda: pls3_distances([prism], [[0.0, 0.0, 0.0]]),
    ]
    for call in calls:
        with pytest.raises(TooLarge, match=str(MAX_TRANSLATES)):
            call()
    # a shell 10^3 pi wide stays inside the bound, and its answers are exact
    small = build_cycle(VectorConfiguration.from_rows([[1, 0], [0, 1], [-1000, 1], [999, -2]]))
    assert contains2_exact(small, (0, 0)) == contains2_two_pass(small, (0, 0))
