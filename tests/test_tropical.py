"""Weights, flags, the tropical set, and the Bergman fan."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from coamoeba.catalog import hyperplane_b, line_b, plane_b, sixline_b
from coamoeba.configuration import VectorConfiguration
from coamoeba.discriminant import non_splitting_flags
from coamoeba.errors import LevelSetNotAFlat, NotInTropical, WrongLength
from coamoeba.matroid import FlagOfFlats, Matroid
from coamoeba.tropical import (
    all_flags,
    bergman_rays,
    complete_flags,
    flag_cone_contains,
    in_tropical,
    indicator,
    induced_matroid,
    maximal_cones,
    weight,
    weight_to_flag,
)
from oracles import (
    all_flags_by_extension,
    connected_matroids,
    induced_matroid_by_enumeration,
    interior_weight,
    random_zero_sum_matroid,
)


def test_induced_matroid_with_loop(m6):
    ind = induced_matroid(m6, weight([1, 1, 0, 0, 0, 0]))
    assert ind.loops == frozenset({3})
    assert ind.max_bases == frozenset(
        {frozenset({0, 1, 2}), frozenset({0, 1, 4}), frozenset({0, 1, 5})}
    )


def test_zero_weight_keeps_all_bases(m6):
    ind = induced_matroid(m6, weight([0] * 6))
    assert ind.max_bases == m6.bases
    assert not ind.loops


def test_induced_matroid_matches_enumeration(m6):
    rng = random.Random(31)
    matroids = [m6] + [
        random_zero_sum_matroid(rng, n, d)
        for n in range(3, 9)
        for d in range(1, min(n, 6))
        for _ in range(3)
    ]
    for m in matroids:
        for _ in range(8):
            # few distinct values, so most weights have ties
            values = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3)]
            w = weight(rng.choice(values) for _ in range(m.n))
            got, want = induced_matroid(m, w), induced_matroid_by_enumeration(m, w)
            assert (got.max_bases, got.loops) == (want.max_bases, want.loops), (m.config, w)


def test_in_tropical(m6):
    assert not in_tropical(m6, weight([1, 1, 0, 0, 0, 0]))
    assert in_tropical(m6, weight([1, 1, 0, 1, 0, 0]))
    assert in_tropical(m6, weight([5, 5, 5, 5, 5, 5]))


def test_lineality_invariance(m6):
    import random

    rng = random.Random(4)
    for _ in range(25):
        w = [Fraction(rng.randint(-3, 3)) for _ in range(6)]
        c = Fraction(rng.randint(-5, 5))
        shifted = [x + c for x in w]
        assert in_tropical(m6, tuple(w)) == in_tropical(m6, tuple(shifted))


def test_weight_to_flag_triple_point(m6):
    flag = weight_to_flag(m6, weight([1, 1, 0, 1, 0, 0]))
    assert [f.forms for f in flag.flats] == [frozenset({0, 1, 3})]


def test_weight_to_flag_constant(m6):
    assert weight_to_flag(m6, weight([2] * 6)).flats == ()


def test_weight_to_flag_two_step(m6):
    flag = weight_to_flag(m6, weight([3, 1, 0, 1, 0, 0]))
    assert [f.forms for f in flag.flats] == [frozenset({0, 1, 3}), frozenset({0})]


def test_weight_to_flag_rejects_loops(m6):
    with pytest.raises(NotInTropical):
        weight_to_flag(m6, weight([1, 1, 0, 0, 0, 0]))


@pytest.mark.parametrize("length", [5, 7])
def test_weight_of_wrong_length_is_wrong_length(m6, length):
    w = weight([1] * length)
    with pytest.raises(WrongLength):
        induced_matroid(m6, w)
    with pytest.raises(WrongLength):
        weight_to_flag(m6, w)


def test_flag_cone_contains(m6):
    trivial = weight_to_flag(m6, weight([0] * 6))
    assert flag_cone_contains(trivial, weight([7] * 6))
    p124 = weight_to_flag(m6, weight([1, 1, 0, 1, 0, 0]))
    assert flag_cone_contains(p124, weight([1, 1, 0, 1, 0, 0]))
    assert not flag_cone_contains(p124, weight([1, 0, 0, 0, 0, 0]))


def test_flag_cone_contains_refuses_a_short_weight(m6):
    flag = complete_flags(m6)[0]
    top = max(flag.flats[0].forms)
    with pytest.raises(WrongLength):
        flag_cone_contains(flag, weight([0, 0, 0]))
    with pytest.raises(WrongLength):
        flag_cone_contains(flag, weight([0] * top), strict=False)
    assert flag_cone_contains(flag, weight([0] * (top + 1)), strict=False)


def test_weight_to_flag_result_contains_weight(m6):
    import random

    rng = random.Random(8)
    hits = 0
    while hits < 20:
        w = weight([rng.randint(0, 3) for _ in range(6)])
        if not in_tropical(m6, w):
            continue
        hits += 1
        assert flag_cone_contains(weight_to_flag(m6, w), w)


def test_bergman_ray_counts(m6, m_line, m_plane):
    assert len(bergman_rays(m6)) == 8
    assert len(bergman_rays(m_line)) == 3
    assert len(bergman_rays(m_plane)) == 4


def test_flacet_indicators_are_tropical(m6):
    for flat, w in bergman_rays(m6):
        assert in_tropical(m6, w)
        flag = weight_to_flag(m6, w)
        assert [f.forms for f in flag.flats] == [flat.forms]


def test_complete_flag_counts(m6, m_line, m_plane):
    assert len(complete_flags(m6)) == 24
    assert len(complete_flags(m_line)) == 3
    assert len(complete_flags(m_plane)) == 12


def test_maximal_cone_counts(m6, m_line, m_plane):
    cones6 = maximal_cones(m6)
    assert len(cones6) == 15
    assert Counter(c.ray_coranks for c in cones6) == {(1, 1): 9, (1, 2): 6}
    assert len(maximal_cones(m_line)) == 3
    assert len(maximal_cones(m_plane)) == 6


def test_maximal_cones_partition_complete_flags(m6):
    cones = maximal_cones(m6)
    flags = [flag for c in cones for flag in c.flags]
    assert len(flags) == len(complete_flags(m6))


def test_spanning_flacets_are_the_closed_cone_filter(m6, m_plane, m_line):
    matroids = [m6, m_plane, m_line] + connected_matroids(random.Random(44))
    for m in matroids:
        flacets = m.flacets()
        for cone in maximal_cones(m):
            expected = tuple(
                flat
                for flat in flacets
                if any(
                    flag_cone_contains(fl, indicator(m.n, flat.forms), strict=False)
                    for fl in cone.flags
                )
            )
            assert cone.spanning_flacets == expected


def test_flag_bases_are_induced_matroid_bases(m6, m_plane, m_line):
    matroids = [m6, m_plane, m_line] + connected_matroids(random.Random(44))
    for m in matroids:
        for cone in maximal_cones(m):
            for flag in cone.flags:
                ind = induced_matroid(m, interior_weight(flag, m.n))
                assert cone.max_bases == ind.max_bases


def test_complete_flags_come_out_sorted(m6, m_plane, m_line):
    rng = random.Random(9)
    matroids = [m6, m_plane, m_line, Matroid(hyperplane_b(4))] + connected_matroids(rng)
    matroids += [random_zero_sum_matroid(rng, 9, 3) for _ in range(2)]
    for m in matroids:
        flags = complete_flags(m)
        assert flags == sorted(flags, key=lambda f: tuple(sorted(g.forms) for g in f.flats))


def test_rank_one_has_the_empty_flag():
    m = Matroid(VectorConfiguration.from_rows([[1], [2], [-3]]))
    assert complete_flags(m) == [FlagOfFlats(())]
    assert non_splitting_flags(m) == [FlagOfFlats(())]
    (cone,) = maximal_cones(m)
    assert cone.flags == (FlagOfFlats(()),) and cone.max_bases == m.bases


def test_complete_flags_are_the_complete_chains(m6, m_plane):
    for m in (m6, m_plane):
        coranks = list(range(m.rank - 1, 0, -1))
        chains = {
            f.form_chain()
            for f in all_flags(m)
            if [g.corank for g in f.flats] == coranks
        }
        assert {f.form_chain() for f in complete_flags(m)} == chains


def test_all_flags_match_extension_oracle():
    configs = [line_b(), plane_b(), sixline_b()] + [hyperplane_b(d) for d in range(1, 6)]
    configs += [
        VectorConfiguration.from_rows(rows)
        for rows in (
            [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, 0, 1], [0, -1, -1]],  # disconnected
            [[1], [2], [-3]],  # rank 1
        )
    ]
    rng = random.Random(21)
    matroids = [Matroid(c) for c in configs]
    matroids += [
        random_zero_sum_matroid(rng, n, d)
        for n in range(3, 9)
        for d in range(2, min(n, 6))
        for _ in range(2)
    ]
    assert not matroids[8].is_connected() and matroids[9].rank == 1
    for m in matroids:
        flags, want = all_flags(m), all_flags_by_extension(m)
        assert len(set(flags)) == len(flags) == len(want), m.config
        assert set(flags) == set(want), m.config


def test_tropical_set_equals_union_of_flag_cones(m6, m_line, m_plane):
    # exhaustive grid oracle on small ground sets
    for m, levels in ((m_line, (0, 1, 2)), (m_plane, (0, 1, 2)), (m6, (0, 1, 2))):
        flags = all_flags(m)
        for values in itertools.product(levels, repeat=m.n):
            w = weight(values)
            in_cone = any(flag_cone_contains(f, w) for f in flags)
            assert in_cone == in_tropical(m, w)


def test_interior_weight_lands_in_cone(m6):
    for flag in complete_flags(m6):
        w = interior_weight(flag, m6.n)
        assert flag_cone_contains(flag, w)
        assert weight_to_flag(m6, w).flats == flag.flats


def test_indicator_helper():
    assert indicator(4, {1, 3}) == (0, 1, 0, 1)
