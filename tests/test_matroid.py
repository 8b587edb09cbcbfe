"""Matroid structure: bases, flats, connectivity, flacets, merging."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from coamoeba import intlinalg as la
from coamoeba.catalog import hyperplane_b, line_b, plane_b, sixline_b
from coamoeba.configuration import VectorConfiguration
from coamoeba.discriminant import non_splitting_flags, nondefective
from coamoeba.errors import EmptyConfiguration, InputError, NotSpanning, ZeroVector
from coamoeba.matroid import Flat, FlagOfFlats, Matroid, _connected, merge_parallel
from coamoeba.tropical import _chains, complete_flags, maximal_cones
from oracles import (
    bases_of_by_masks,
    bases_through_by_sets,
    basis_masks_by_rank,
    connected_matroids,
    connected_via_circuits,
    escaping_links_by_rank,
    flacets_by_minors,
    flacets_by_sets,
    flats_by_rank,
    flats_by_sets,
    maximal_cones_by_sets,
    parallel_classes_by_minors,
    quotient_projection,
    random_zero_sum_matroid,
    rank_by_masks,
    rank_by_sets,
    rank_reference,
    sweep_configs,
    through_by_masks,
    uncovered_by_masks,
    witness_by_masks,
)

# a rank-1 configuration, whose only hyperplane is the empty flat
RANK_ONE = VectorConfiguration.from_rows([[1], [2], [-3]])


def test_sixline_bases(m6):
    assert len(m6.bases) == 18
    dependent = {
        frozenset(c) for c in itertools.combinations(range(6), 3)
    } - m6.bases
    assert dependent == {frozenset({0, 1, 3}), frozenset({1, 2, 5})}


def test_bases_match_one_echelon_per_subset():
    configs = sweep_configs() + [RANK_ONE]
    configs.append(VectorConfiguration.from_rows([[2, 0], [2, 0], [-1, 0], [0, 3], [0, -3]]))
    for config in configs:
        m = Matroid(config)
        assert m._masks == basis_masks_by_rank(config)
        assert m.bases == {frozenset(i for i in range(m.n) if b >> i & 1) for b in m._masks}
        assert m.n_bases == len(m.bases)


def test_matroid_makes_no_rank_rational_call(monkeypatch):
    config = sweep_configs()[-1]
    calls = []
    rank = la.rank_rational
    monkeypatch.setattr(la, "rank_rational", lambda rows: calls.append(1) or rank(rows))
    m = Matroid(config)
    assert not calls and len(m.bases) > 1


def test_not_spanning_exactly_when_rank_is_short():
    """Rows of entries in [-2, 2], some combinations of fewer rows, some
    with d > n: NotSpanning exactly when the rank is below d."""
    rng = random.Random(19)
    outcomes = set()
    for trial in range(1500):
        n, d = rng.randint(1, 7), rng.randint(1, 5)
        if trial % 3:
            rows = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(n)]
        else:
            few = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(max(1, d - 1))]
            rows = [
                [sum(rng.randint(-1, 1) * r[j] for r in few) for j in range(d)] for _ in range(n)
            ]
        if any(not any(row) for row in rows):
            continue
        short = la.rank_rational(rows) < d
        try:
            Matroid(VectorConfiguration.from_rows(rows))
            spans = True
        except NotSpanning:
            spans = False
        assert spans != short, rows
        outcomes.add((spans, n < d))
    assert outcomes == {(True, False), (False, False), (False, True)}


def test_identity_rows_single_basis():
    m = Matroid(VectorConfiguration.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert len(m.bases) == 1


def test_parallel_classes():
    m = Matroid(VectorConfiguration.from_rows([[1, 0], [2, 0], [0, 1]]))
    assert set(m.parallel_classes) == {frozenset({0, 1}), frozenset({2})}


def _configs_with_parallel_copies(seed, count):
    """Nonzero configurations with n <= 9, d <= 4: a few rows with entries in
    [-3, 3], then copies of random rows times +-1, 2 or 3 at random places."""
    rng = random.Random(seed)
    configs = []
    while len(configs) < count:
        d = rng.randint(1, 4)
        rows = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(rng.randint(1, 6))]
        rows = [r for r in rows if any(r)]
        if not rows:
            continue
        for _ in range(rng.randint(0, 9 - len(rows))):
            q = rng.choice((1, 2, 3)) * rng.choice((-1, 1))
            rows.insert(rng.randint(0, len(rows)), [q * x for x in rng.choice(rows)])
        configs.append(VectorConfiguration.from_rows(rows))
    return configs


def test_parallel_classes_are_the_rank_one_flats_in_first_appearance_order():
    checked = 0
    for cfg in _configs_with_parallel_copies(27, 400):
        try:
            m = Matroid(cfg)
        except NotSpanning:
            continue
        assert m.parallel_classes == parallel_classes_by_minors(cfg.matrix), cfg.matrix
        checked += 1
    assert checked >= 200, checked


def test_merge_parallel_multipliers_rebuild_each_member_row():
    # q_k * eta is the row of member k, eta points along the class's first
    # row, and the classes come in order of first appearance
    merged = 0
    for cfg in _configs_with_parallel_copies(28, 400):
        _, merges = merge_parallel(cfg)
        index = {label: i for i, label in enumerate(cfg.labels)}
        members = [[index[label] for label in rec.labels] for rec in merges]
        for rec, rows in zip(merges, members):
            assert [tuple(q * e for e in rec.eta) for q in rec.multipliers] == [
                cfg.matrix[i] for i in rows
            ]
            assert rec.multipliers[0] > 0 and math.gcd(*rec.eta) == 1
        classes = parallel_classes_by_minors(cfg.matrix)
        assert [frozenset(r) for r in members] == [c for c in classes if len(c) > 1]
        assert all(r == sorted(r) for r in members)
        merged += len(merges)
    assert merged >= 400, merged


def test_build_rejects_zero_row():
    with pytest.raises(ZeroVector):
        Matroid(VectorConfiguration.from_rows([[1, 0], [0, 0]]))


def test_build_rejects_empty():
    for rows in ([], [[], []]):
        with pytest.raises(EmptyConfiguration):
            Matroid(VectorConfiguration.from_rows(rows))


def test_build_rejects_nonspanning():
    with pytest.raises(NotSpanning):
        Matroid(VectorConfiguration.from_rows([[1, 0], [2, 0]]))


def test_closure_triple_point(m6):
    flat = m6.closure({0, 1})
    assert flat.forms == frozenset({0, 1, 3})


def test_closure_empty(m6):
    assert m6.closure(frozenset()).forms == frozenset()


def test_closure_double_point(m6):
    assert m6.closure({0, 2}).forms == frozenset({0, 2})


def test_closure_idempotent_monotone(m6):
    rng = random.Random(3)
    for _ in range(40):
        s = frozenset(rng.sample(range(6), rng.randint(0, 4)))
        t = s | frozenset(rng.sample(range(6), rng.randint(0, 2)))
        cs, ct = m6.closure(s), m6.closure(t)
        assert m6.closure(cs.forms).forms == cs.forms
        assert cs.forms <= ct.forms


def test_closure_and_rank_match_rank_oracle():
    rng = random.Random(52)
    matroids = connected_matroids(rng)
    matroids += [random_zero_sum_matroid(rng, n, 3) for n in (8, 9)]
    matroids.append(Matroid(RANK_ONE))
    for m in matroids:
        rows = m.config.matrix
        for _ in range(40):
            s = frozenset(rng.sample(range(m.n), rng.randint(0, m.n)))
            r = rank_reference([rows[i] for i in sorted(s)])
            assert m.rank_of(s) == r
            closed = frozenset(
                i for i in range(m.n)
                if rank_reference([rows[i] for i in sorted(s | {i})]) == r
            )
            assert m.closure(s) == Flat(closed, r)


@pytest.mark.parametrize("label", [-1, 7])
def test_closure_rejects_labels_outside_the_ground_set(label):
    m = random_zero_sum_matroid(random.Random(5), 7, 5)
    with pytest.raises(InputError):
        m.closure({label})
    with pytest.raises(InputError):
        m.rank_of({label})


def test_sixline_flats(m6):
    lines = m6.flats_of_corank(1)
    points = m6.flats_of_corank(2)
    assert len(lines) == 6
    assert len(points) == 11
    sizes = sorted(len(f.forms) for f in points)
    assert sizes == [2] * 9 + [3] * 2


def test_identity2_flats():
    m = Matroid(VectorConfiguration.from_rows([[1, 0], [0, 1]]))
    forms = {f.forms for f in m.flats()}
    assert forms == {frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})}


def test_line_flats(m_line):
    assert len(m_line.flats_of_corank(1)) == 3
    assert [f.forms for f in m_line.flats_of_corank(2)] == [frozenset({0, 1, 2})]


def test_connectivity():
    two = Matroid(VectorConfiguration.from_rows([[1, 0], [0, 1]]))
    assert not two.is_connected()
    one = Matroid(VectorConfiguration.from_rows([[2]]))
    assert one.is_connected()


def test_sixline_connected(m6):
    assert m6.is_connected()


def _random_spanning_config(rng, n, d):
    while True:
        rows = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(n)]
        if any(not any(r) for r in rows):
            continue
        try:
            return VectorConfiguration.from_rows(rows)
        except Exception:
            continue


def test_connectivity_matches_circuit_oracle(m6, m_line, m_plane):
    rng = random.Random(77)
    configs = [m6.config, m_line.config, m_plane.config]
    while len(configs) < 18:
        n = rng.randint(1, 8)
        d = rng.randint(1, min(3, n))
        cfg = _random_spanning_config(rng, n, d)
        try:
            Matroid(cfg)
        except NotSpanning:
            continue
        configs.append(cfg)
    for cfg in configs:
        m = Matroid(cfg)
        want = connected_via_circuits(cfg)
        assert m.is_connected() == want
        # the fundamental graph of every basis answers alike (Krogdahl 1977)
        masks = {sum(1 << i for i in basis) for basis in m.bases}
        for basis in masks:
            assert _connected((1 << m.n) - 1, basis, masks) == want


def test_flag_forms_must_strictly_decrease(m6):
    big, small = m6.closure({0, 1, 3}), m6.closure({0})
    assert FlagOfFlats((big, small)).flats == (big, small)
    for flats in ((big, big), (small, big), (big, small, small), (small, m6.closure({1}))):
        with pytest.raises(ValueError, match="strictly decrease"):
            FlagOfFlats(flats)


@pytest.mark.parametrize(
    "n, d, seed", [(5, 2, 1), (6, 3, 2), (7, 3, 3), (7, 4, 4), (8, 3, 5), (8, 4, 6), (9, 4, 7)]
)
def test_masks_match_frozenset_oracles(n, d, seed):
    rng = random.Random(seed)
    m = random_zero_sum_matroid(rng, n, d)
    while not m.is_connected():
        m = random_zero_sum_matroid(rng, n, d)
    for _ in range(20):
        forms = {i for i in range(n) if rng.random() < 0.5}
        assert m.rank_of(forms) == rank_by_sets(m, forms)
    assert m.flats() == flats_by_sets(m)
    assert m.flacets() == flacets_by_sets(m)
    for flat in m.flats():
        assert m.bases_through(flat) == bases_through_by_sets(m, flat)
    assert maximal_cones(m) == maximal_cones_by_sets(m)
    links = escaping_links_by_rank(m)
    assert non_splitting_flags(m) == _chains(m, links)
    assert nondefective(m) == any(f in links for f in m.flats_of_corank(m.rank - 1))


def test_bit_sliced_counts_match_one_basis_at_a_time():
    # hyperplane_b(d) has fields of w = 2, 3, 4, 4 and 5 bits, and at d = 1,
    # 3 and 7 the whole ground set fills each field to 2^(w-1) - 1
    configs = sweep_configs() + [hyperplane_b(d) for d in (1, 3, 4, 7, 8)]
    rng = random.Random(17)
    for config in configs:
        m = Matroid(config)
        assert m._w == m.rank.bit_length() + 1
        for _ in range(30):
            mask = rng.getrandbits(m.n)
            forms = {i for i in range(m.n) if mask >> i & 1}
            r, bits = m._tight(forms)
            assert r == rank_by_masks(m, mask)
            assert bits == through_by_masks(m, Flat(frozenset(forms), r))
        assert m._tight(range(m.n))[0] == m.rank
        assert m._bases_of(-1) == m.bases
        assert m._uncovered(-1) == uncovered_by_masks(m, -1) == frozenset()
        for flat in m.flats():
            mask = sum(1 << i for i in flat.forms)
            r, bits = m._tight(flat.forms)
            assert r == rank_by_masks(m, mask) == flat.corank
            assert bits == through_by_masks(m, flat)
            assert m._bases_of(bits) == bases_of_by_masks(m, bits)
            assert m._uncovered(bits) == uncovered_by_masks(m, bits)
            # the witness basis of flacets: the lowest set bit's field
            witness = m._masks[((bits & -bits).bit_length() - 1) // m._w]
            assert witness == witness_by_masks(m, flat)
        # cone keys and induced matroids are ANDs of these ints
        keys = [m._tight(f.forms)[1] for f in m.flats_of_corank(m.rank - 1)]
        for a, b in zip(keys, keys[1:]):
            assert m._bases_of(a & b) == bases_of_by_masks(m, a & b)
            assert m._uncovered(a & b) == uncovered_by_masks(m, a & b)


def test_walked_flags_pass_the_public_check():
    # the walk builds its flags unchecked; each must be one FlagOfFlats accepts
    for config in sweep_configs():
        m = Matroid(config)
        flags = complete_flags(m) + non_splitting_flags(m)
        if m.is_connected():
            flags += [flag for cone in maximal_cones(m) for flag in cone.flags]
        for flag in flags:
            assert type(flag) is FlagOfFlats and flag == FlagOfFlats(flag.flats)


def test_flats_match_rank_closure_oracle(m6):
    rng = random.Random(74)
    matroids = [m6] + [random_zero_sum_matroid(rng, 7, 4) for _ in range(6)]
    matroids += [random_zero_sum_matroid(rng, n, d) for n, d in ((7, 5), (8, 3), (9, 3))]
    matroids.append(Matroid(RANK_ONE))
    for m in matroids:
        assert m.flats() == flats_by_rank(m.config)


def test_sixline_flacets(m6):
    flacets = {f.forms for f in m6.flacets()}
    expected = {frozenset({i}) for i in range(6)} | {
        frozenset({0, 1, 3}),
        frozenset({1, 2, 5}),
    }
    assert flacets == expected
    assert frozenset({0, 2}) not in flacets  # a double point is never a flacet


def test_line_flacets(m_line):
    assert {f.forms for f in m_line.flacets()} == {
        frozenset({0}),
        frozenset({1}),
        frozenset({2}),
    }


def test_restrict_to_hyperplane(m6):
    flat = m6.closure({0})
    restricted, proj = m6.restrict_to_flat(flat)
    assert proj == ((0, 1, 0), (0, 0, 1))
    assert restricted.matrix == ((1, 0), (0, 1), (2, 0), (-1, -2), (-2, 1))
    assert restricted.labels == ("b2", "b3", "b4", "b5", "b6")
    assert not any(restricted.row_sum())


def test_restrict_plane_example(m_plane):
    flat = m_plane.closure({2})
    restricted, _ = m_plane.restrict_to_flat(flat)
    assert restricted.matrix == ((1, 0), (0, 1), (-1, -1))


def test_restrict_annihilates_span(m6):
    for flat in m6.proper_flats():
        _, proj = m6.restrict_to_flat(flat)
        for i in flat.forms:
            assert all(
                sum(p * x for p, x in zip(row, m6.config.matrix[i])) == 0
                for row in proj
            )


def test_restrict_to_flat_chart_is_the_quotient_projection():
    rng = random.Random(41)
    matroids = [Matroid(sixline_b()), Matroid(plane_b())] + connected_matroids(rng)
    matroids += [random_zero_sum_matroid(rng, 9, 3) for _ in range(2)]
    for m in matroids:
        d = m.config.d
        for flat in m.proper_flats():
            restricted, chart = m.restrict_to_flat(flat)
            forms = [m.config.matrix[i] for i in sorted(flat.forms)]
            saturation = la.integer_kernel(la.integer_kernel(forms, cols=d), cols=d)
            assert chart == quotient_projection(d, saturation)
            assert len(chart) == d - flat.corank
            # the chart kills every form of the flat and maps Z^d onto Z^dim(L)
            assert not any(any(la.mat_vec(chart, row)) for row in forms)
            h, _ = la.hermite_normal_form(la.transpose(chart))
            assert tuple(row for row in h if any(row)) == la.identity(len(chart))
            outside = [m.config.matrix[i] for i in range(m.n) if i not in flat.forms]
            assert restricted.matrix == tuple(la.mat_vec(chart, row) for row in outside)


def test_restrict_to_trivial_flats(m6):
    # the zero flat keeps every vector in the identity chart; the flat of all
    # of B contracts everything, leaving no vectors and a 0-row chart
    restricted, chart = m6.restrict_to_flat(m6.closure(frozenset()))
    assert chart == la.identity(3)
    assert restricted == m6.config
    restricted, chart = m6.restrict_to_flat(m6.closure(range(m6.n)))
    assert chart == ()
    assert restricted.n == 0 and restricted.labels == ()


def test_bases_through_triple_point(m6):
    # the restriction to {b1, b2, b4} is a rank-2 line with three points
    flat = m6.closure({0, 1, 3})
    assert m6.labels_of(flat.forms) == ("b1", "b2", "b4")
    assert flat.corank == 2
    inner = {b & flat.forms for b in m6.bases_through(flat)}
    assert inner == {frozenset(p) for p in itertools.combinations(flat.forms, 2)}


def test_bases_through_hyperplane(m6):
    flat = m6.closure({0})
    assert m6.labels_of(flat.forms) == ("b1",)
    assert flat.corank == 1
    through = m6.bases_through(flat)
    assert {b & flat.forms for b in through} == {frozenset({0})}
    assert through == {b for b in m6.bases if 0 in b}


def test_bases_through_counts_the_rank_of_a_flat_built_by_hand(m6):
    # the corank a caller writes into a Flat does not decide which bases count
    wrong = Flat(frozenset({0}), 0)
    through = m6.bases_through(wrong)
    assert len(through) == 9 and through == m6.bases_through(m6.closure({0}))


def test_bases_through_other_triple_point(m6):
    flat = m6.closure({1, 2, 5})
    assert m6.labels_of(flat.forms) == ("b2", "b3", "b6")
    assert len({b & flat.forms for b in m6.bases_through(flat)}) == 3


def test_flacets_match_minor_oracle(m6, m_plane, m_line):
    # contracting b4 of this one leaves a disconnected M/F with M|F connected
    quotient_split = Matroid(
        VectorConfiguration.from_rows(
            [[1, -1, 1], [1, 1, -1], [0, 1, -1], [2, 1, -1], [-2, 1, 2], [-2, -3, 0]]
        )
    )
    matroids = [m6, m_plane, m_line, quotient_split]
    matroids += connected_matroids(random.Random(44))
    for m in matroids:
        assert m.flacets() == flacets_by_minors(m)


def test_merge_parallel_sum():
    cfg = VectorConfiguration.from_rows([[1, 0], [2, 0], [0, 1], [-3, -1]])
    reduced, merges = merge_parallel(cfg)
    assert reduced.matrix == ((3, 0), (0, 1), (-3, -1))
    assert len(merges) == 1
    rec = merges[0]
    assert rec.constant == Fraction(4, 27)
    assert rec.arg_shift_pi == (0, 0)
    assert not rec.removed


def test_merge_parallel_cancelling_class():
    cfg2 = VectorConfiguration.from_rows([[1, 1], [-1, -1], [2, 0], [-2, 0]])
    reduced2, merges2 = merge_parallel(cfg2)
    assert reduced2.matrix == ()
    pair = next(m for m in merges2 if m.labels == ("b1", "b2"))
    assert pair.removed
    assert pair.constant == Fraction(-1)
    assert pair.arg_shift_pi == (1, 1)
    even = next(m for m in merges2 if m.labels == ("b3", "b4"))
    # eta = (1, 0), q = (2, -2): constant 2^2 * (-2)^(-2) = 1 > 0
    assert even.constant == Fraction(1) and even.arg_shift_pi == (0, 0)


def test_merge_parallel_shift_is_the_constant_sign():
    # the parity rule against the sign of the Fraction constant, on every
    # class of 2 to 4 multipliers in [-7, 7] other than 0, along (1, 2)
    seen = Counter()
    nonzero = [q for q in range(-7, 8) if q]
    for k in (2, 3, 4):
        for qs in itertools.combinations_with_replacement(nonzero, k):
            cfg = VectorConfiguration.from_rows([[q, 2 * q] for q in qs] + [[0, 1]])
            _, (rec,) = merge_parallel(cfg)
            assert sorted(q * rec.eta[0] for q in rec.multipliers) == list(qs)  # eta = +-(1, 2)
            negative = rec.constant < 0
            assert rec.arg_shift_pi == ((1, 0) if negative else (0, 0)), qs
            seen[negative] += 1
    assert min(seen.values()) >= 1000, seen


def test_merge_parallel_no_parallels(b6):
    reduced, merges = merge_parallel(b6)
    assert reduced.matrix == b6.matrix
    assert merges == ()


def test_merge_parallel_rejects_zero_row():
    cfg = VectorConfiguration.from_rows([[1, 2], [0, 0], [-1, -2]])
    with pytest.raises(ZeroVector, match="zero vector"):
        merge_parallel(cfg)


def test_merge_parallel_rejects_repeated_merged_label():
    # a and b merge into "a+b", which is also the label of the third row
    cfg = VectorConfiguration.from_rows(
        [[1, 0], [2, 0], [0, 1], [-3, -3], [0, 2]], labels=["a", "b", "c", "a+b", "d"]
    )
    with pytest.raises(InputError, match=r"repeated: a\+b"):
        merge_parallel(cfg)


def test_merge_parallel_preserves_row_sum():
    rng = random.Random(123)
    for _ in range(30):
        n, d = rng.randint(1, 7), rng.randint(1, 3)
        rows = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(n)]
        rows = [r for r in rows if any(r)]
        if not rows:
            continue
        cfg = VectorConfiguration.from_rows(rows)
        reduced, _ = merge_parallel(cfg)
        assert reduced.row_sum() == cfg.row_sum()
