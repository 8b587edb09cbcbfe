"""Slow, independent reference implementations that the tests compare against.

None of these is used by the library: each recomputes a library result by a
different method (Fraction Gauss-Jordan elimination, bases by one echelon
per subset, quotient charts by a double kernel, rank-based closure, chain
enumeration, circuit enumeration, minors built as vectors, derivative
polynomials, the log-Gauss map by one walk over the terms, two-pass
polygon membership, the half-coamoeba walk from every
start vertex, grid certification in Fractions, two grid walks, the
certification walk one grid point at a time (``psi_integer``,
``cleared_terms``, ``term_values``, ``projectively_equal``,
``certify_walk_by_points``), sampling with
psi on every accepted row of a chunk, the prism kernel in fixed 64-point
blocks with both shells on every point) on inputs small enough for brute
force, and ``validate_by_eliminations`` keeps Gale validation's four
eliminations.  ``parse_by_descent`` keeps the recursive-descent polynomial
parser (one dict of terms per parse, padded and merged again at the end, on
a tokenizer that sorts the declared names again for each piece of a letter
run) and ``format_by_pieces`` the piecewise polynomial rendering.
``all_flags_by_extension`` enumerates the flags by a depth-first search
that extends each chain by every smaller proper flat.  The ``*_by_sets``
functions keep the matroid's earlier bodies, which read ranks, flats,
connectivity and cone groups off frozensets of labels instead of bit masks,
the ``*_by_masks`` functions read ranks, bases through a flat, witness
bases and the labels in no marked basis off the masks one basis at a time
instead of the bit-sliced columns,
``escaping_links_by_rank`` tests each link by its own rank,
``induced_matroid_by_enumeration`` sums the weight of every basis in
Fractions, ``interior_weight`` gives a point inside a flag's cone, and
``essential_flacets_by_form_sums`` and ``tdiscr_fan_d3_by_form_sums``
compute each flacet's form-sum b_L again instead of reading the type-1
rays, and ``parallel_classes_by_minors`` groups rows by their 2 x 2 minors
instead of by primitive direction or rank-one flat.
``random_zero_sum_matroid``, ``connected_matroids`` and ``sweep_configs``
draw the inputs, and ``write_polynomial_file`` writes polynomial input
files."""

import functools
import itertools
import math
import random
from fractions import Fraction

import numpy as np

from coamoeba import intlinalg as la
from coamoeba import tropical
from coamoeba.catalog import hyperplane_b, line_b, plane_b, sixline_b
from coamoeba.configuration import PointConfiguration, ValidationReport, VectorConfiguration
from coamoeba.cycles import (
    _PAD,
    CoamoebaCycle,
    Point,
    Polygon,
    _cross,
    degree_dH,
    zonotope,
)
from coamoeba.discriminant import (
    HornKapranovMap,
    TropRay,
    _cross3,
    _in_sector,
    form_sum,
    log_gauss,
    tdiscr_rays,
)
from coamoeba.errors import (
    InputError,
    InvariantError,
    NonzeroSum,
    NotSpanning,
    OnArrangement,
    PolySyntaxError,
    SingularPoint,
    WrongLength,
    ZeroVector,
)
from coamoeba.harness import _CHUNK, REJECTION_THRESHOLD, RoundtripResult, rational_grid
from coamoeba.matroid import Flat, FlagOfFlats, Matroid, merge_parallel
from coamoeba.polynomial import (
    SparsePoly,
    _TOKEN,
    evaluate_exact,
    format_poly,
    partial_derivative,
)


def random_zero_sum_matroid(rng, n, d) -> Matroid:
    """Nonzero spanning rows with entries in [-2, 2]; the last is minus the sum."""
    while True:
        rows = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(n - 1)]
        rows.append([-sum(col) for col in zip(*rows)])
        if any(not any(r) for r in rows):
            continue
        try:
            return Matroid(VectorConfiguration.from_rows(rows))
        except NotSpanning:
            continue


def connected_matroids(rng) -> list[Matroid]:
    """Six seeded random connected matroids: two each of (7,4), (7,5), (8,3)."""
    out = []
    for n, d in ((7, 4), (7, 4), (7, 5), (7, 5), (8, 3), (8, 3)):
        m = random_zero_sum_matroid(rng, n, d)
        while not m.is_connected():
            m = random_zero_sum_matroid(rng, n, d)
        out.append(m)
    return out


def sweep_configs() -> list[VectorConfiguration]:
    """Zero-sum inputs for the bases and nondefectivity oracles: the catalog,
    three seeded random configurations each of (7,4), (7,5), (9,3), (10,5)
    and (12,4), one with repeated and parallel rows, and one with entries
    near 10^20 whose first three rows are dependent."""
    configs = [line_b(), plane_b(), sixline_b()] + [hyperplane_b(d) for d in range(1, 6)]
    rng = random.Random(16)
    for n, d in ((7, 4), (7, 5), (9, 3), (10, 5), (12, 4)):
        configs += [random_zero_sum_matroid(rng, n, d).config for _ in range(3)]
    big = 10**20
    for rows in (
        [[1, 0, 0], [1, 0, 0], [-2, 0, 0], [0, 1, 0], [0, 2, 0], [0, 0, 1], [1, 1, 1]],
        [[big, 1, 0], [1, big, 0], [big + 1, big + 1, 0], [0, 0, 1], [big, -1, big], [7, 3, -big]],
    ):
        rows.append([-sum(col) for col in zip(*rows)])
        configs.append(VectorConfiguration.from_rows(rows))
    return configs


def gauss_jordan(m) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q: (nonzero rows, pivot columns)."""
    rows = [[Fraction(x) for x in row] for row in m]
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
    return rows[: len(pivots)], pivots


def rank_reference(m) -> int:
    return len(gauss_jordan(m)[1])


def solve_reference(m, v):
    """Same contract as ``la.solve_unique_rational``, by Gauss-Jordan."""
    ncols = len(m[0]) if m else 0
    rows, pivots = gauss_jordan([list(row) + [y] for row, y in zip(m, v)])
    if sum(1 for col in pivots if col < ncols) < ncols:
        raise ValueError("columns are not linearly independent")
    if ncols in pivots:
        return None
    return tuple(rows[k][-1] for k in range(ncols))


def validate_by_eliminations(a: PointConfiguration) -> tuple[ValidationReport, la.IntMatrix]:
    """``configuration._validate`` by four eliminations: the lattice basis of
    the columns, a solve of A^T u = 1, the kernel from a second HNF
    of A^T, and the canonical basis of that kernel."""
    cols = la.transpose(a.matrix)
    basis = la.row_lattice_basis(cols)
    full_rank = len(basis) == a.m
    spans = full_rank and basis == la.identity(a.m)
    u = None
    if a.m and full_rank:
        x = la.solve_unique_rational(la.as_matrix(cols), (1,) * a.n)
        if x is not None and all(c.denominator == 1 for c in x):
            u = tuple(int(c) for c in x)
    kernel = la.integer_kernel(a.matrix)
    pyramid = any(
        all(vec[i] == 0 for vec in kernel) for i in range(a.n)
    ) if kernel else False
    return ValidationReport(spans=spans, u=u, pyramid=pyramid), kernel


def is_saturated(vectors, ambient_rank: int) -> bool:
    """Does the row span equal its saturation in Z^ambient_rank?"""
    vecs = la.as_matrix(vectors)
    if not vecs:
        return True
    sat = la.integer_kernel(la.integer_kernel(vecs), cols=ambient_rank)
    return la.row_lattice_basis(vecs) == la.row_lattice_basis(sat)


def quotient_projection(ambient_rank: int, sub) -> la.IntMatrix:
    """Integer chart for Z^ambient / <sub>, as an (ambient-k) x ambient matrix.

    ``sub`` is a basis of a saturated sublattice S; the rows are the
    canonical basis of its orthogonal kernel {v : <v, s> = 0 for s in S},
    so the map kills exactly S and is surjective, because a saturated
    sublattice has coprime maximal minors.
    """
    if sub and len(sub[0]) != ambient_rank:
        raise ValueError("sublattice vectors have wrong ambient rank")
    if not is_saturated(sub, ambient_rank):
        raise ValueError(f"sublattice of Z^{ambient_rank} is not saturated")
    if not sub:
        return la.identity(ambient_rank)
    proj = la.integer_kernel(sub, cols=ambient_rank)
    if len(proj) != ambient_rank - len(sub):
        raise ValueError("quotient chart has the wrong number of rows")
    return proj


def parallel_classes_by_minors(matrix) -> tuple[frozenset[int], ...]:
    """Nonzero rows grouped by direction, in order of first appearance: row v
    joins the first class whose first row u has u_i v_j = u_j v_i for all i, j."""
    classes: list[list[int]] = []
    for i, v in enumerate(matrix):
        for members in classes:
            u = matrix[members[0]]
            if all(u[a] * v[b] == u[b] * v[a] for a, b in itertools.combinations(range(len(v)), 2)):
                members.append(i)
                break
        else:
            classes.append([i])
    return tuple(map(frozenset, classes))


def flats_by_rank(config) -> list[Flat]:
    """All flats, as the rank-based closures of every subset of the labels."""
    rows = config.matrix
    flats = {}
    for size in range(len(rows) + 1):
        for sub in itertools.combinations(range(len(rows)), size):
            span = [rows[i] for i in sub]
            r = rank_reference(span)
            closed = frozenset(
                i for i in range(len(rows)) if rank_reference(span + [rows[i]]) == r
            )
            flats.setdefault(closed, Flat(closed, r))
    return sorted(flats.values(), key=Flat.sort_key)


def non_splitting_by_rank(config) -> set[tuple[frozenset[int], ...]]:
    """Form chains of the non-splitting flags, by brute force over chains.

    A chain F_1 < ... < F_(d-1) of flats of coranks 1, ..., d-1 qualifies
    when each form-sum raises the rank of the previous flat's vectors.  The
    chains are returned with the form-sets decreasing, as ``FlagOfFlats``
    stores them.
    """
    rows = config.matrix
    by_corank: dict[int, list[frozenset[int]]] = {}
    for flat in flats_by_rank(config):
        by_corank.setdefault(flat.corank, []).append(flat.forms)

    def escapes(prev, forms) -> bool:
        span = [rows[i] for i in sorted(prev)]
        total = [sum(rows[i][j] for i in forms) for j in range(config.d)]
        return rank_reference(span + [total]) > rank_reference(span)

    chains = [()]
    for k in range(1, config.d):
        chains = [
            chain + (forms,)
            for chain in chains
            for forms in by_corank.get(k, ())
            if (not chain or forms > chain[-1])
            and escapes(chain[-1] if chain else (), forms)
        ]
    return {tuple(reversed(chain)) for chain in chains}


def connected_via_circuits(config) -> bool:
    """Independent connectivity oracle: every pair lies on a common circuit.

    Exponential circuit enumeration; intended only as a cross-check on small
    ground sets.
    """
    n = config.n
    if n <= 1:
        return True
    circuits = []
    for size in range(1, n + 1):
        for sub in itertools.combinations(range(n), size):
            rows = [config.matrix[i] for i in sub]
            if la.rank_rational(rows) >= len(sub):
                continue  # independent
            if all(
                la.rank_rational([config.matrix[i] for i in sub if i != j])
                == len(sub) - 1
                for j in sub
            ):
                circuits.append(frozenset(sub))
    for i, j in itertools.combinations(range(n), 2):
        if not any(i in c and j in c for c in circuits):
            return False
    return True


def flacets_by_minors(m: Matroid) -> list[Flat]:
    """Flacets from the vectors of both minors, tested by circuits.

    A proper flat is a flacet when the rows of its forms, and the images
    ``restrict_to_flat`` gives of the other rows, are both connected.
    """
    out = []
    for flat in m.proper_flats():
        inner = VectorConfiguration.from_rows(
            [m.config.matrix[i] for i in sorted(flat.forms)]
        )
        restricted, _ = m.restrict_to_flat(flat)
        if connected_via_circuits(inner) and connected_via_circuits(restricted):
            out.append(flat)
    return out


def basis_masks_by_rank(config) -> tuple[int, ...]:
    """The d-subsets of rows of full rank, each by its own echelon, as masks
    in ``combinations`` order."""
    d = config.d
    return tuple(
        sum(1 << i for i in sub)
        for sub in itertools.combinations(range(config.n), d)
        if la.rank_rational([config.matrix[i] for i in sub]) == d
    )


def rank_by_sets(m: Matroid, forms) -> int:
    """r(F) as the most labels of F inside one basis, on frozensets."""
    return max(len(b & frozenset(forms)) for b in m.bases)


def flats_by_sets(m: Matroid) -> list[Flat]:
    """The ground set closed under intersection with each hyperplane, where
    the hyperplane through an independent (r-1)-set I is the set of labels i
    for which I + i is not a basis."""
    rests = {b - {x} for b in m.bases for x in b}
    hyperplanes = {
        frozenset(i for i in range(m.n) if rest | {i} not in m.bases) for rest in rests
    }
    found = {frozenset(range(m.n))}
    for h in hyperplanes:
        found |= {f & h for f in found}
    return sorted((Flat(f, rank_by_sets(m, f)) for f in found), key=Flat.sort_key)


def connected_by_sets(ground: frozenset[int], basis: frozenset[int], bases) -> bool:
    """Is the fundamental graph of ``basis`` on a nonempty ``ground`` connected?

    x -- y when exactly one of them lies in ``basis`` and swapping them gives
    another member of ``bases``.
    """
    start = min(ground)
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in ground - seen:
            if (x in basis) != (y in basis) and basis ^ {x, y} in bases:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(ground)


def flacets_by_sets(m: Matroid) -> list[Flat]:
    """Proper flats F whose graph of one basis B with |B & F| = r(F) is
    connected on F and on E - F."""
    ground = frozenset(range(m.n))
    out = []
    for flat in m.proper_flats():
        basis = next(b for b in m.bases if len(b & flat.forms) == flat.corank)
        if all(connected_by_sets(s, basis, m.bases) for s in (flat.forms, ground - flat.forms)):
            out.append(flat)
    return out


def rank_by_masks(m: Matroid, mask: int) -> int:
    """The rank ``Matroid._tight`` returns, one basis at a time."""
    return max((b & mask).bit_count() for b in m._masks)


def through_by_masks(m: Matroid, flat: Flat) -> int:
    """The bits ``Matroid._tight`` returns, one basis at a time: the top bit
    of field k set when the k-th basis meets F in r(F) labels."""
    f = sum(1 << i for i in flat.forms)
    return sum(
        1 << m._w * (k + 1) - 1
        for k, b in enumerate(m._masks)
        if (b & f).bit_count() == flat.corank
    )


def bases_of_by_masks(m: Matroid, bits: int) -> frozenset[frozenset[int]]:
    """``Matroid._bases_of``, one basis at a time."""
    return frozenset(
        frozenset(i for i in range(m.n) if b >> i & 1)
        for k, b in enumerate(m._masks)
        if bits >> m._w * (k + 1) - 1 & 1
    )


def witness_by_masks(m: Matroid, flat: Flat) -> int:
    """The basis ``Matroid.flacets`` reads for F: the first meeting F in r(F) labels."""
    f = sum(1 << i for i in flat.forms)
    return next(b for b in m._masks if (b & f).bit_count() == flat.corank)


def uncovered_by_masks(m: Matroid, bits: int) -> frozenset[int]:
    """``Matroid._uncovered``, one basis at a time: the labels in no basis
    whose field's top bit is set in ``bits``."""
    covered = 0
    for k, b in enumerate(m._masks):
        if bits >> m._w * (k + 1) - 1 & 1:
            covered |= b
    return frozenset(i for i in range(m.n) if not covered >> i & 1)


def bases_through_by_sets(m: Matroid, flat: Flat) -> frozenset[frozenset[int]]:
    return frozenset(b for b in m.bases if len(b & flat.forms) == flat.corank)


def maximal_cones_by_sets(m: Matroid) -> list[tropical.BergmanCone]:
    """``tropical.maximal_cones`` with each complete flag keyed by the
    intersection of its flats' base sets, frozensets of frozensets."""
    flacet_list = flacets_by_sets(m)
    through = {flat: bases_through_by_sets(m, flat) for flat in m.proper_flats()}
    groups: dict[frozenset[frozenset[int]], list[FlagOfFlats]] = {}
    for flag in tropical.complete_flags(m):
        key = m.bases.intersection(*(through[flat] for flat in flag.flats))
        groups.setdefault(key, []).append(flag)
    cones = []
    for max_bases, flags in groups.items():
        on_flags = {flat for fl in flags for flat in fl.flats}
        spanning = tuple(flat for flat in flacet_list if flat in on_flags)
        cones.append(tropical.BergmanCone(tuple(flags), spanning, max_bases))
    return sorted(
        cones, key=lambda c: tuple(sorted(tuple(sorted(f.forms)) for f in c.spanning_flacets))
    )


def all_flags_by_extension(m: Matroid) -> list[FlagOfFlats]:
    """Every flag of proper nonzero flats, the trivial (empty) flag included."""
    proper = m.proper_flats()
    flags: list[FlagOfFlats] = [FlagOfFlats(())]
    # chains built upward: each step picks a flat with strictly smaller form-set
    def extend(chain):
        last = chain[-1]
        for flat in proper:
            if flat.forms < last.forms:
                nxt = chain + [flat]
                flags.append(FlagOfFlats(tuple(nxt)))
                extend(nxt)

    for flat in proper:
        flags.append(FlagOfFlats((flat,)))
        extend([flat])
    return flags


def induced_matroid_by_enumeration(m: Matroid, w: tropical.Weight) -> tropical.InducedMatroid:
    """Bases of maximal w-weight, and the elements lying in none of them."""
    if len(w) != m.n:
        raise WrongLength("weight length must match the ground set")
    best = None
    max_bases: list[frozenset[int]] = []
    for basis in m.bases:
        total = sum(w[i] for i in basis)
        if best is None or total > best:
            best = total
            max_bases = [basis]
        elif total == best:
            max_bases.append(basis)
    covered = frozenset().union(*max_bases)
    loops = frozenset(range(m.n)) - covered
    return tropical.InducedMatroid(max_bases=frozenset(max_bases), loops=loops)


def interior_weight(flag: FlagOfFlats, n: int) -> tropical.Weight:
    """A canonical weight in the relative interior of a flag's cone: each
    label's depth in the chain."""
    depth = [0] * n
    for flat in flag.form_chain():
        for i in flat:
            depth[i] += 1
    return tropical.weight(depth)


def essential_flacets_by_form_sums(m: Matroid) -> list[Flat]:
    """Flacets with dim L >= 2 and nonzero form-sum."""
    out = []
    for flat in m.flacets():
        if flat.dim(m.rank) < 2:
            continue
        if any(form_sum(m, flat.forms)):
            out.append(flat)
    return out


def tdiscr_fan_d3_by_form_sums(m: Matroid) -> list[TropRay]:
    """``tdiscr_fan_d3`` with each cone's generators the form-sums b_L."""
    rays = tdiscr_rays(m)
    type1_dirs = {r.direction for r in rays}
    sectors = []
    for cone in tropical.maximal_cones(m):
        gens = [form_sum(m, f.forms) for f in cone.spanning_flacets]
        if len(gens) != 2:
            continue
        u, w = gens
        if not any(u) or not any(w) or not any(_cross3(u, w)):
            continue
        sectors.append((u, w))
    new_dirs = []
    for (u1, w1), (u2, w2) in itertools.combinations(sectors, 2):
        n1, n2 = _cross3(u1, w1), _cross3(u2, w2)
        line = _cross3(n1, n2)
        if not any(line):
            continue
        for cand in (line, tuple(-x for x in line)):
            if _in_sector(cand, u1, w1) and _in_sector(cand, u2, w2):
                direction = la.primitive(cand)
                if direction not in type1_dirs and direction not in new_dirs:
                    new_dirs.append(direction)
    rays.extend(
        TropRay(direction=d, kind="type2", flat=None, essential=False)
        for d in sorted(new_dirs)
    )
    return rays


def escaping_links_by_rank(m: Matroid) -> dict[Flat, list[Flat]]:
    """``tropical._links`` over G < F when the rank of G's vectors plus F's
    form-sum exceeds r(G), one elimination per link."""

    def escapes(lower: Flat, upper: Flat) -> bool:
        rows = [m.config.matrix[i] for i in lower.forms]
        return la.rank_rational(rows + [form_sum(m, upper.forms)]) > lower.corank

    return dict(tropical._links(m, escapes))


def polygon_contains_two_pass(vertices, point) -> bool:
    """Exact closed membership by two passes over the edges.

    First any edge through the point (zero orientation, point in the edge's
    box) puts it on the boundary, hence inside; otherwise the boundary's
    winding number around the point decides.
    """
    x, y = Fraction(point[0]), Fraction(point[1])

    def orient(a, b):
        return (b[0] - a[0]) * (y - a[1]) - (b[1] - a[1]) * (x - a[0])

    edges = list(zip(vertices, vertices[1:] + vertices[:1]))
    for a, b in edges:
        if (
            orient(a, b) == 0
            and min(a[0], b[0]) <= x <= max(a[0], b[0])
            and min(a[1], b[1]) <= y <= max(a[1], b[1])
        ):
            return True
    w = 0
    for a, b in edges:
        if a[1] <= y:
            if b[1] > y and orient(a, b) > 0:
                w += 1
        elif b[1] <= y and orient(a, b) < 0:
            w -= 1
    return w != 0


def contains2_two_pass(cycle, theta_pi) -> bool:
    """``contains2_exact`` with every translate tested by the two-pass oracle."""
    px = Fraction(theta_pi[0]) + cycle.arg_shift_pi[0]
    py = Fraction(theta_pi[1]) + cycle.arg_shift_pi[1]
    for poly in (cycle.plus, cycle.minus):
        xs = [v[0] for v in poly.vertices]
        ys = [v[1] for v in poly.vertices]
        for ax in range(math.ceil((min(xs) - px) / 2), math.floor((max(xs) - px) / 2) + 1):
            for ay in range(math.ceil((min(ys) - py) / 2), math.floor((max(ys) - py) / 2) + 1):
                if polygon_contains_two_pass(poly.vertices, (px + 2 * ax, py + 2 * ay)):
                    return True
    return False


def _line_key(v) -> tuple[int, int]:
    """Canonical upper-half direction of the line spanned by v."""
    x, y = v
    if y < 0 or (y == 0 and x < 0):
        x, y = -x, -y
    return (x, y)


def start_vertices(f: VectorConfiguration) -> list[tuple[Point, la.IntVector]]:
    """Vertices of the zonotope whose incoming CCW edge is a positive generator.

    These are the admissible start vertices for the half-coamoeba walk, one
    per generator.
    """
    z = zonotope(f)
    out = []
    for i, v in enumerate(z.vertices):
        prev = z.vertices[i - 1]
        incoming = (v[0] - prev[0], v[1] - prev[1])
        if incoming in f.matrix:
            out.append((v, incoming))
    if len(out) != f.n:
        raise InvariantError("zonotope lacks a start vertex for some generator")
    return out


def _clockwise_line_order(f1, rest):
    """Generators ordered by their lines, clockwise from the line of f1.

    For upper-half canonical directions with reference angle a and line
    angle b, the clockwise displacement (a - b) mod pi sorts the lines with
    b < a first and both groups by descending b; exact via cross products.
    """
    ref = _line_key(f1)

    def clockwise(g, h) -> int:
        # lines below the reference angle come first; both groups in
        # descending line angle
        a, b = _line_key(g), _line_key(h)
        return (_cross(ref, a) >= 0) - (_cross(ref, b) >= 0) or _cross(a, b)

    return sorted(rest, key=functools.cmp_to_key(clockwise))


def half_coamoeba_from_vertex(f: VectorConfiguration, v: Point, f1) -> Polygon:
    """The walk v, v - pi f_1, v - pi(f_1+f_2), ... for a given start vertex."""
    rest = [g for g in f.matrix if g != tuple(f1)]
    ordered = [tuple(f1)] + _clockwise_line_order(f1, rest)
    verts = [v]
    cur = v
    for g in ordered[:-1]:
        cur = (cur[0] - g[0], cur[1] - g[1])
        verts.append(cur)
    plus = Polygon(tuple(verts))
    if plus.signed_area() < 0:
        plus = Polygon(tuple(reversed(plus.vertices)))
    return plus


def half_coamoeba_by_start_vertices(f: VectorConfiguration) -> tuple[Polygon, Polygon]:
    """``half_coamoeba_cycles`` by a second zonotope, its start vertices and a
    sort of the generators by line: the walk from the lex-max start vertex."""
    v, f1 = max(start_vertices(f), key=lambda t: t[0])
    plus = half_coamoeba_from_vertex(f, v, f1)
    return plus, plus.reflect()


def build_cycle_by_start_vertices(b2: VectorConfiguration) -> CoamoebaCycle:
    """``build_cycle`` with the half-coamoebas of
    ``half_coamoeba_by_start_vertices``."""
    if b2.d != 2:
        raise InputError(f"a 2D coamoeba cycle needs d = 2, got d = {b2.d}")
    if not all(any(row) for row in b2.matrix):
        raise ZeroVector("configuration contains a zero vector")
    if any(b2.row_sum()):
        raise NonzeroSum("rows must sum to zero")
    reduced, merges = merge_parallel(b2)
    shift = [0, 0]
    for rec in merges:
        shift[0] ^= rec.arg_shift_pi[0]
        shift[1] ^= rec.arg_shift_pi[1]
    z = zonotope(reduced)
    plus, minus = half_coamoeba_by_start_vertices(reduced)
    return CoamoebaCycle(
        zonotope=z,
        plus=plus,
        minus=minus,
        degree=degree_dH(z, plus, minus),
        arg_shift_pi=(shift[0], shift[1]),
    )


def write_polynomial_file(path, p) -> None:
    """A polynomial file as ``polynomial.read_polynomial_file`` reads it: the
    variables on line 1, the polynomial on line 2."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(" ".join(p.variables) + "\n")
        fh.write(format_poly(p) + "\n")


def _tokenize_by_sorting(text: str, variables) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise PolySyntaxError(f"unexpected character at position {pos}: {text[pos]!r}")
        pos = m.end()
        num, name, op = m.groups()
        if num is not None:
            tokens.append(("num", num.replace(" ", "")))
        elif name is not None:
            if variables is not None and name not in variables:
                # split a letter run like "qr" greedily against declared names
                rest = name
                while rest:
                    hit = next(
                        (v for v in sorted(variables, key=len, reverse=True) if rest.startswith(v)),
                        None,
                    )
                    if hit is None:
                        raise PolySyntaxError(f"unknown name {rest!r} in {name!r}")
                    tokens.append(("var", hit))
                    rest = rest[len(hit):]
            else:
                tokens.append(("var", name))
        else:
            tokens.append(("op", "^" if op == "**" else op))
    return tokens


class _Parser:
    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.i = 0
        self.variables = variables  # list, grows when inferring

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def parse_poly(self):
        terms: dict[tuple, Fraction] = {}
        sign = 1
        kind, val = self.peek()
        if kind == "op" and val in "+-":
            self.take()
            sign = -1 if val == "-" else 1
        while True:
            coeff, exps = self.parse_term()
            key = tuple(exps)
            terms[key] = terms.get(key, Fraction(0)) + sign * coeff
            kind, val = self.peek()
            if kind is None:
                break
            if kind == "op" and val in "+-":
                self.take()
                sign = -1 if val == "-" else 1
            else:
                raise PolySyntaxError(f"expected + or - before token {val!r}")
        return terms

    def parse_term(self):
        coeff = Fraction(1)
        powers: dict[str, int] = {}
        saw_factor = False
        expect_factor = False
        while True:
            kind, val = self.peek()
            if kind == "num":
                self.take()
                coeff *= Fraction(val)
                saw_factor = True
                expect_factor = False
            elif kind == "var":
                self.take()
                exp = 1
                k2, v2 = self.peek()
                if k2 == "op" and v2 == "^":
                    self.take()
                    k3, v3 = self.take()
                    if k3 != "num" or "/" in v3:
                        raise PolySyntaxError("exponent must be a nonnegative integer")
                    exp = int(v3)
                powers[val] = powers.get(val, 0) + exp
                saw_factor = True
                expect_factor = False
            elif kind == "op" and val == "*" and saw_factor and not expect_factor:
                self.take()
                expect_factor = True
            else:
                break
        if expect_factor:
            raise PolySyntaxError("dangling '*' without a following factor")
        if not saw_factor:
            raise PolySyntaxError("empty term")
        for v in powers:
            if v not in self.variables:
                self.variables.append(v)
        exps = [powers.get(v, 0) for v in self.variables]
        return coeff, exps


def parse_by_descent(text: str, variables=None) -> SparsePoly:
    """``polynomial.parse`` by recursive descent: ``_Parser`` reads each term
    into a dict keyed by the exponents seen so far, then pads and re-merges.

    With ``variables`` given, the variable set and order are fixed (and
    letter runs split against it); otherwise variables are collected in
    order of first appearance.
    """
    declared = list(variables) if variables is not None else None
    tokens = _tokenize_by_sorting(text, declared)
    parser = _Parser(tokens, declared if declared is not None else [])
    raw = parser.parse_poly()
    final_vars = tuple(parser.variables)
    terms = {}
    for exps, coeff in raw.items():
        padded = tuple(exps) + (0,) * (len(final_vars) - len(exps))
        terms[padded] = terms.get(padded, Fraction(0)) + coeff
    return SparsePoly.from_dict(final_vars, terms)


def format_by_pieces(p: SparsePoly) -> str:
    """``polynomial.format_poly`` from (sign, body) pieces joined one by one."""
    if not p.terms:
        return "0"
    pieces = []
    for exps, coeff in p.terms:
        body = []
        for v, e in zip(p.variables, exps):
            if e == 1:
                body.append(v)
            elif e > 1:
                body.append(f"{v}^{e}")
        mag = abs(coeff)
        if not body:
            body_txt = str(mag)
        elif mag == 1:
            body_txt = "*".join(body)
        else:
            body_txt = "*".join([str(mag)] + body)
        pieces.append(("-" if coeff < 0 else "+", body_txt))
    sign0, body0 = pieces[0]
    out = ("-" if sign0 == "-" else "") + body0
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


def log_gauss_by_partials(f, y):
    """``log_gauss`` at a rational point from the derivative polynomials:
    y_j * df/dy_j for each variable, scaled by the first nonzero one."""
    coords = [
        Fraction(y_j) * evaluate_exact(partial_derivative(f, var), y)
        for y_j, var in zip(y, f.variables)
    ]
    lead = next((c for c in coords if c != 0), None)
    if lead is None:
        raise SingularPoint("all logarithmic partials vanish")
    return tuple(c / lead for c in coords)


def log_gauss_by_terms(f, y):
    """``log_gauss`` by one walk over f's terms, each monomial evaluated once
    at the point as given (Fractions, or complex) and added e_j times to
    coordinate j."""
    point = [v if isinstance(v, complex) else Fraction(v) for v in y]
    coords = [0] * len(point)
    for exps, coeff in f.terms:
        value = coeff
        for x, e in zip(point, exps):
            if e:
                value *= x**e
        for j, e in enumerate(exps):
            if e:
                coords[j] += e * value
    lead = next((c for c in coords if c != 0), None)
    if lead is None:
        raise SingularPoint("all logarithmic partials vanish")
    return tuple(c / lead for c in coords)


@functools.cache
def psi_by_fractions(config, y) -> tuple[Fraction, ...]:
    """psi(y) = prod_b <b,y>^b coordinate by coordinate in Fractions.

    Cached for the test session: the grid oracles below revisit the same
    points for every n.
    """
    yv = [Fraction(v) for v in y]
    pairings = []
    for label, row in zip(config.labels, config.matrix):
        val = sum(c * x for c, x in zip(row, yv))
        if val == 0:
            raise OnArrangement(label)
        pairings.append(val)
    out = []
    for j in range(config.d):
        v = Fraction(1)
        for val, row in zip(pairings, config.matrix):
            v *= val ** row[j]
        out.append(v)
    return tuple(out)


def evaluate_by_fractions(f, point) -> Fraction:
    """f at a rational point, term by term in Fractions."""
    total = Fraction(0)
    for exps, coeff in f.terms:
        v = coeff
        for x, e in zip(point, exps):
            v *= Fraction(x) ** e
        total += v
    return total


def residue_check_by_fractions(f, m, n):
    """``harness.residue_check`` with psi and f evaluated in Fractions."""
    worst = Fraction(0)
    witness = None
    taken = 0
    for y in rational_grid(m.config.d):
        if taken >= n:
            break
        try:
            image = psi_by_fractions(m.config, y)
        except OnArrangement:
            continue
        taken += 1
        value = abs(evaluate_by_fractions(f, image))
        if value > worst:
            worst = value
            witness = y
    return worst, witness, taken


def gauss_roundtrip_by_fractions(f, m, n) -> RoundtripResult:
    """``harness.gauss_roundtrip`` with psi in Fractions and ``log_gauss``."""
    checked = 0
    singular = 0
    for y in rational_grid(m.config.d):
        if checked >= n:
            break
        try:
            image = psi_by_fractions(m.config, y)
        except OnArrangement:
            continue
        try:
            g = log_gauss(f, image)
        except SingularPoint:
            singular += 1
            continue
        checked += 1
        if not projectively_equal(g, tuple(Fraction(c) for c in y)):
            return RoundtripResult(False, checked, singular, y)
    return RoundtripResult(True, checked, singular, None)


def certify_by_fractions(f, m, n) -> dict:
    """``harness.certify_discriminant`` from the two Fraction oracles, each on
    its own grid walk."""
    residue, witness, residue_checked = residue_check_by_fractions(f, m, n)
    roundtrip = gauss_roundtrip_by_fractions(f, m, n)
    if residue != 0 or not roundtrip.passed:
        status = "erratum"
    elif min(residue_checked, roundtrip.n_checked) < n:
        status = "incomplete"
    else:
        status = "ok"
    return {
        "status": status,
        "max_residue": str(residue),
        "residue_checked": residue_checked,
        "residue_witness": list(witness) if witness else None,
        "roundtrip_passed": roundtrip.passed,
        "roundtrip_checked": roundtrip.n_checked,
        "roundtrip_singular_skipped": roundtrip.n_singular_skipped,
        "roundtrip_counterexample": list(roundtrip.counterexample)
        if roundtrip.counterexample
        else None,
    }


def projectively_equal(u, v) -> bool:
    """Exact projective equality via vanishing 2x2 minors."""
    if len(u) != len(v):
        return False
    if all(x == 0 for x in u) or all(x == 0 for x in v):
        return False
    for (a, b), (c, e) in itertools.combinations(zip(u, v), 2):
        if a * e - b * c != 0:
            return False
    return True


def psi_integer(h, y) -> tuple[list[int], list[int]]:
    """``discriminant._psi_block`` at one integer point, as (nums, dens):
    nums[j] is the product of <b,y>^(b_j) over the rows with b_j > 0 and
    dens[j] that of <b,y>^(-b_j) over the rows with b_j < 0.  Raises
    OnArrangement naming the first vanishing row."""
    nums, dens = [1] * h.d, [1] * h.d
    for label, row in zip(h.b.labels, h.b.matrix):
        val = sum(c * x for c, x in zip(row, y))
        if val == 0:
            raise OnArrangement(label)
        for j, e in enumerate(row):
            if e > 0:
                nums[j] *= val**e
            elif e < 0:
                dens[j] *= val ** (-e)
    return nums, dens


def cleared_terms(p):
    """p's terms with the coefficient denominators cleared, as (L, terms,
    degrees): terms pairs each exponent vector with the integer L * c."""
    lcm = math.lcm(*(c.denominator for _, c in p.terms))
    terms = tuple((e, c.numerator * (lcm // c.denominator)) for e, c in p.terms)
    degrees = tuple(map(max, zip(*(e for e, _ in terms))))  # empty for p = 0
    return lcm, terms, degrees


def term_values(cleared, nums, dens) -> tuple[list[int], int]:
    """``polynomial._term_block`` at one point nums[j] / dens[j]: each term
    times K = L * prod_j dens[j]^deg_j, from one table of factors
    num^e * den^(deg - e) per coordinate, and K."""
    scale, terms, degrees = cleared
    tables = []
    for num, den, k in zip(nums, dens, degrees):
        tables.append([num**e * den ** (k - e) for e in range(k + 1)])
        scale *= den**k
    values = []
    for exps, value in terms:
        for e, table in zip(exps, tables):
            value *= table[e]
        values.append(value)
    return values, scale


def certify_walk_by_points(f, m, n_residue, n_roundtrip):
    """``harness._certify_walk`` one grid point at a time: psi and the term
    values from ``psi_integer`` and ``term_values``, the Euler sums and the
    projective test per point."""
    if n_residue < 0 or n_roundtrip < 0:
        raise InputError(f"grid sizes must be non-negative, got {n_residue}, {n_roundtrip}")
    h = HornKapranovMap(m.config)
    if len(f.variables) != m.config.d:
        raise WrongLength("point length must match the number of variables")
    cleared = cleared_terms(f)
    exponents = list(zip(*(exps for exps, _ in f.terms)))  # one column per variable
    worst, witness = Fraction(0), None
    taken = checked = singular = 0
    counterexample = None
    roundtrip_done = n_roundtrip == 0
    for y in rational_grid(m.config.d):
        if taken == n_residue and roundtrip_done:
            break
        try:
            nums, dens = psi_integer(h, y)
        except OnArrangement:
            continue
        values, scale = term_values(cleared, nums, dens)
        if taken < n_residue:
            taken += 1
            if Fraction(abs(sum(values)), abs(scale)) > worst:
                worst, witness = Fraction(abs(sum(values)), abs(scale)), y
        if not roundtrip_done:
            coords = [sum(e * v for e, v in zip(column, values)) for column in exponents]
            if not any(coords):
                singular += 1
            else:
                checked += 1
                if not projectively_equal(coords, y):
                    counterexample = y
                roundtrip_done = counterexample is not None or checked == n_roundtrip
    roundtrip = RoundtripResult(counterexample is None, checked, singular, counterexample)
    return (worst, witness, taken), roundtrip


def _full_sample_chunk(bmat, seed, chunk_index, size):
    """Arguments of psi at every one of ``size`` random points off the arrangement."""
    rng = np.random.default_rng(seed + chunk_index)
    y = rng.standard_normal((size, bmat.shape[1])) + 1j * rng.standard_normal(
        (size, bmat.shape[1])
    )
    pair = y @ bmat.T  # <b_a, y> per row a
    norms = np.linalg.norm(y, axis=1)
    keep = np.all(np.abs(pair) >= REJECTION_THRESHOLD * norms[:, None], axis=1)
    pair = pair[keep]
    d = bmat.shape[1]
    psi = np.empty((pair.shape[0], d), dtype=complex)
    for j in range(d):
        psi[:, j] = np.prod(pair ** bmat[:, j], axis=1)
    return np.angle(psi)


def sample_coamoeba_by_full_chunks(m, n, seed):
    """``harness.sample_coamoeba`` evaluating psi on every accepted row of
    each chunk and cutting the result to n rows at the end."""
    bmat = np.array(m.config.matrix, dtype=float)
    if n == 0:
        return np.empty((0, m.config.d))
    chunks = []
    total = 0
    while total < n:
        chunks.append(_full_sample_chunk(bmat, seed, len(chunks), _CHUNK))
        total += len(chunks[-1])
    return np.concatenate(chunks)[:n]


def _chart_distances_full(poly: Polygon, px, py, window):
    """Winding and point-to-segment distance of every point against every
    translate the window (x_lo, x_hi, y_lo, y_hi) reaches, zeroed where a
    translate winds around the point."""
    xmin, xmax, ymin, ymax = poly.bbox()
    x_lo, x_hi, y_lo, y_hi = window
    axs = np.arange(
        math.ceil((xmin - x_hi - _PAD) / 2), math.floor((xmax - x_lo + _PAD) / 2) + 1
    )
    ays = np.arange(
        math.ceil((ymin - y_hi - _PAD) / 2), math.floor((ymax - y_lo + _PAD) / 2) + 1
    )
    verts = np.array(poly.float_vertices())
    x1 = (verts[:, 0] - 2.0 * np.repeat(axs, len(ays))[:, None])[None]
    y1 = (verts[:, 1] - 2.0 * np.tile(ays, len(axs))[:, None])[None]
    x2 = np.roll(x1, -1, axis=2)
    y2 = np.roll(y1, -1, axis=2)
    vx, vy = x2 - x1, y2 - y1
    px, py = px[:, None, None], py[:, None, None]
    wx, wy = px - x1, py - y1
    orient = vx * wy - vy * wx
    up = (y1 <= py) & (y2 > py) & (orient > 0)
    down = (y1 > py) & (y2 <= py) & (orient < 0)
    inside = (up.sum(axis=2) != down.sum(axis=2)).any(axis=1)
    seg2 = vx * vx + vy * vy
    t = np.clip((wx * vx + wy * vy) / np.where(seg2 == 0, 1.0, seg2), 0.0, 1.0)
    dist = np.hypot(px - (x1 + t * vx), py - (y1 + t * vy)).min(axis=(1, 2))
    dist[inside] = 0.0
    return dist


def pls3_distances_by_fixed_blocks(prisms, points, tol=0.0):
    """``cycles.pls3_distances`` through blocks of 64 points, each block
    running every prism in turn and both shells on all its points still in
    play, with one translate window per block and prism."""
    points = np.asarray(points, dtype=float)
    distance = np.full(len(points), math.inf)
    witness = np.full(len(points), -1)
    for start in range(0, len(points), 64):
        block = points[start : start + 64]
        best = distance[start : start + 64]
        first = witness[start : start + 64]
        active = np.arange(len(block))
        for index, prism in enumerate(prisms):
            theta = block[active]
            cycle = prism.base
            px, py = (
                (a0 * theta[:, 0] + a1 * theta[:, 1] + a2 * theta[:, 2]) / math.pi + shift
                for (a0, a1, a2), shift in zip(prism.projection, cycle.arg_shift_pi)
            )
            px -= 2 * np.floor((px + 1) / 2)
            py -= 2 * np.floor((py + 1) / 2)
            window = (px.min(), px.max(), py.min(), py.max())
            d = np.minimum(
                _chart_distances_full(cycle.plus, px, py, window),
                _chart_distances_full(cycle.minus, px, py, window),
            ) * math.pi
            first[active[(first[active] < 0) & (d <= tol)]] = index
            best[active] = np.minimum(best[active], d)
            active = active[best[active] != 0.0]
            if not len(active):
                break
    return distance, witness
