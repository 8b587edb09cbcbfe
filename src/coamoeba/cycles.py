"""Polyhedral 2D discriminant coamoebas and the d = 3 prism decomposition.

Everything planar lives in the universal cover of the torus, with
coordinates measured in units of pi, so every vertex of the cycles below, a
partial sum of integer generators, is an exact integer.  A 2D discriminant
coamoeba is encoded by three polygons:

* the zonotope, the Minkowski sum of the segments [0, pi*f] over the merged
  generators f (which sum to zero, so it is centrally symmetric); its edges
  are the f up to sign sorted over one half-turn, then their negations;
* the upper half-coamoeba: from the lexicographically largest vertex v of
  the zonotope whose incoming counterclockwise edge is a generator pi*f_1,
  walk back along the zonotope's edges, v, v - pi*f_1, v - pi*(f_1+f_2),
  ..., where pi*f_2, ..., pi*f_r are the r - 1 edges before pi*f_1, each
  negated generator flipped back to its generator; they span every other
  line once, clockwise from the line of f_1;
* the lower half-coamoeba, its reflection through the origin.

The closed coamoeba on the torus is the image of the two half-coamoebas; the
three cycles together cover exactly ``degree`` fundamental domains.  A prism
lifts a 2D cycle to a 3D phase-limit-set component through the quotient
chart of a hyperplane flat, the kernel basis of the flat's forms.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import intlinalg as la
from .configuration import VectorConfiguration, require_float_range
from .discriminant import essential_flacets, nondefective
from .errors import (
    Defective,
    DegenerateZonotope,
    DimensionNot3,
    InputError,
    NonIntegralDegree,
    NonzeroSum,
    ParallelRows,
    TooLarge,
    WrongLength,
    ZeroVector,
)
from .matroid import Flat, Matroid, _merged

Point = tuple[int, int]


@dataclass(frozen=True)
class Polygon:
    """Closed simple polygon in the universal cover, integer coordinates in
    pi units.

    The bounding box and the float vertices are computed once, at
    construction, for the membership and distance tests; a vertex that is
    not a finite float in radians raises TooLarge there.
    """

    vertices: tuple[Point, ...]
    _bbox: tuple = field(init=False, repr=False, compare=False)
    _float_vertices: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        xs, ys = zip(*self.vertices)
        object.__setattr__(self, "_bbox", (min(xs), max(xs), min(ys), max(ys)))
        require_float_range(self._bbox, "a cycle vertex in radians", math.pi)
        object.__setattr__(self, "_float_vertices", tuple(zip(map(float, xs), map(float, ys))))

    def signed_area(self) -> Fraction:
        """Shoelace area in pi^2 units; positive means counterclockwise."""
        return Fraction(_twice_area(self.vertices), 2)

    def area(self) -> Fraction:
        return abs(self.signed_area())

    def bbox(self) -> tuple[int, int, int, int]:
        return self._bbox

    def reflect(self) -> "Polygon":
        """The reflection through the origin, its bbox and float vertices
        negated, not rebuilt (0.0 - x keeps a zero +0.0, as float(-0) is)."""
        xmin, xmax, ymin, ymax = self._bbox
        out = object.__new__(Polygon)
        object.__setattr__(out, "vertices", tuple([(-x, -y) for x, y in self.vertices]))
        object.__setattr__(out, "_bbox", (-xmax, -xmin, -ymax, -ymin))
        floats = tuple([(0.0 - x, 0.0 - y) for x, y in self._float_vertices])
        object.__setattr__(out, "_float_vertices", floats)
        return out

    def is_simple(self) -> bool:
        edges = list(zip(self.vertices, self.vertices[1:] + self.vertices[:1]))
        last = len(edges) - 1
        return not any(
            _segments_cross(edges[i], edges[j], allow_shared_end=j == i + 1 or (i, j) == (0, last))
            for i, j in itertools.combinations(range(last + 1), 2)
        )

    def contains(self, point: Point) -> bool:
        """Exact membership in the cycle support: boundary or nonzero winding.

        Winding semantics keeps self-intersecting shells meaningful; for a
        simple polygon this is ordinary closed membership.
        """
        return _winding(self.vertices, Fraction(point[0]), Fraction(point[1])) != 0

    def float_vertices(self) -> tuple[tuple[float, float], ...]:
        return self._float_vertices


def _twice_area(pts) -> int:
    """Twice the signed shoelace area of the closed polygon ``pts``."""
    return sum(x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in zip(pts, pts[1:] + pts[:1]))


def _orient(a: Point, b: Point, c: Point) -> int:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _winding(verts, x, y) -> int | None:
    """Winding number of the closed polygon ``verts`` around (x, y), or None
    when (x, y) lies on an edge.  One pass over the edges computes the
    orientation of each edge whose closed y-range holds y once; the
    arithmetic is the same for exact and float coordinates."""
    w = 0
    x1, y1 = verts[-1]
    for x2, y2 in verts:
        if y1 <= y <= y2 or y2 <= y <= y1:
            orient = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
            if orient == 0 and (x1 <= x <= x2 or x2 <= x <= x1):
                return None
            if y1 <= y < y2 and orient > 0:
                w += 1
            elif y2 <= y < y1 and orient < 0:
                w -= 1
        x1, y1 = x2, y2
    return w


def _on_segment(p: Point, seg) -> bool:
    (a, b) = seg
    if _orient(a, b, p) != 0:
        return False
    return min(a[0], b[0]) <= p[0] <= max(a[0], b[0]) and min(a[1], b[1]) <= p[1] <= max(
        a[1], b[1]
    )


def _segments_cross(e1, e2, allow_shared_end: bool) -> bool:
    (a, b), (c, d) = e1, e2
    if allow_shared_end:
        shared = {a, b} & {c, d}
        if shared:
            # adjacent edges may only touch at the shared vertex
            return any(_on_segment(p, e2) for p in (a, b) if p not in shared) or any(
                _on_segment(p, e1) for p in (c, d) if p not in shared
            )
    d1, d2 = _orient(c, d, a), _orient(c, d, b)
    d3, d4 = _orient(a, b, c), _orient(a, b, d)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != d2 and d3 != d4:
        return True
    return any(
        _on_segment(p, e)
        for p, e in ((a, e2), (b, e2), (c, e1), (d, e1))
    )


# -- zonotope and half-coamoebas --------------------------------------------------


@functools.cmp_to_key
def _by_angle(a, b) -> int:
    """Ascending angle within one half-turn, exact: a before b iff
    cross(a, b) > 0."""
    return a[1] * b[0] - a[0] * b[1]


def _require_plane(d: int) -> None:
    if d != 2:
        raise InputError(f"a 2D coamoeba cycle needs d = 2, got d = {d}")


def _check_generators(gens) -> None:
    """Refuse too few, non-planar or parallel generators; callers test the sum."""
    if len(gens) < 2:
        raise DegenerateZonotope("need at least two generators")
    _require_plane(len(gens[0]))
    for u, w in itertools.combinations(gens, 2):
        if u[0] * w[1] == u[1] * w[0]:
            raise ParallelRows(f"parallel generators {u} and {w}; merge parallels first")


def _zonotope_edges(gens) -> tuple[Polygon, list[Point], int]:
    """The zonotope of the generators, its edges sorted by angle and its
    twice-area: the edge ``edges[i - 1]`` enters vertex ``i``.  The n
    generators, each negated if its angle lies in [pi, 2*pi), are sorted by
    one cross product, as no two are parallel, and their negations follow."""
    _check_generators(gens)
    half = sorted(
        (g if g[1] > 0 or (g[1] == 0 and g[0] > 0) else (-g[0], -g[1]) for g in gens),
        key=_by_angle,
    )
    edges = half + [(-x, -y) for x, y in half]
    # outward normal of the first edge; its support set gives the edge's tail
    nx, ny = half[0][1], -half[0][0]
    x = y = 0
    for gx, gy in gens:
        if gx * nx + gy * ny > 0:
            x += gx
            y += gy
    verts = [(x, y)]
    for ex, ey in edges[:-1]:
        x += ex
        y += ey
        verts.append((x, y))
    twice = _twice_area(verts)
    if twice <= 0:
        raise DegenerateZonotope("zonotope has nonpositive area")
    return Polygon(tuple(verts)), edges, twice


def _zero_sum_rows(f: VectorConfiguration) -> la.IntMatrix:
    """``f``'s rows, refused if two or more in Z^2 do not sum to zero."""
    if f.n >= 2 and f.d == 2 and any(f.row_sum()):
        raise NonzeroSum("generators must sum to zero")
    return f.matrix


def zonotope(f: VectorConfiguration) -> Polygon:
    """Boundary of the Minkowski sum of [0, pi*b] over the rows, CCW.

    Requires at least two nonzero pairwise non-parallel rows in Z^2 with
    zero sum; the result is centrally symmetric about the origin.
    """
    return _zonotope_edges(_zero_sum_rows(f))[0]


def _half_coamoeba(gens, z: Polygon, edges: list[Point]) -> Polygon:
    """The walk from the lexicographically largest vertex v whose incoming
    edge is a generator f_1, back along the n - 1 edges before it.

    The 2n edges hold every line twice, as g and -g, so the n edges ending
    at v meet each line once, clockwise from the line of f_1; the walk
    subtracts the generator of each, the edge itself or its negation.

    The walk is counterclockwise.  Reversed and walked twice, it is the
    2n-gon with edges c_t d_t, where d_0, ..., d_{2n-1} are the zonotope's
    edges in counterclockwise order and c_t is 1 when d_t is a generator,
    else -1.  On the weights c with sum c_t d_t = 0, that 2n-gon's area is a
    quadratic form of signature (1, 2n - 3) (Bavard and Ghys, Geom. Dedicata
    43 (1992)).  As d_{t+n} = -d_t, shifting c by n reflects the 2n-gon
    through a point, so the form pairs to zero the c the shift fixes, like
    the zonotope's c = 1 of positive area, with the c it negates, like the
    walk's.  It is thus negative on the walk's c: reversed, it is clockwise.
    """
    n, gens = len(gens), set(gens)
    k = max(
        (i for i in range(len(edges)) if edges[i - 1] in gens),
        key=lambda i: z.vertices[i],
    )
    cur = z.vertices[k]
    verts = [cur]
    for j in range(k - 1, k - n, -1):
        e = edges[j]
        sign = 1 if e in gens else -1
        cur = (cur[0] - sign * e[0], cur[1] - sign * e[1])
        verts.append(cur)
    return Polygon(tuple(verts))


def half_coamoeba_cycles(f: VectorConfiguration) -> tuple[Polygon, Polygon]:
    """The upper half-coamoeba polygon (the walk of the module docstring) and
    its reflection through the origin.

    With five or more generators the shell can self-intersect; the boundary
    is still the correct cycle, and membership is by winding number.
    """
    plus = _half_coamoeba(f.matrix, *_zonotope_edges(_zero_sum_rows(f))[:2])
    return plus, plus.reflect()


@dataclass(frozen=True)
class CoamoebaCycle:
    """Zonotope plus the two half-coamoeba polygons, with the cycle degree.

    ``arg_shift_pi`` carries the argument shift (in pi units, componentwise
    0 or 1) accumulated when parallel generators were merged; membership
    queries add it before testing the polygons.
    """

    zonotope: Polygon
    plus: Polygon
    minus: Polygon
    degree: int
    arg_shift_pi: tuple[int, int]

    @property
    def simple_boundary(self) -> bool:
        """Whether the half-coamoeba shells are simple polygons, read off the
        plus shell (minus is its reflection).  Either way their supports are
        taken with winding-number semantics."""
        return self.plus.is_simple()


def degree_dH(z: Polygon, plus: Polygon, minus: Polygon) -> int:
    """(area(Z) + area(plus) + area(minus)) / (2 pi)^2, asserted integral >= 1.

    Areas are unsigned shoelace values, which count winding multiplicity on
    self-intersecting shells; that is what makes the quotient integral.
    """
    return _degree(sum(abs(_twice_area(p.vertices)) for p in (z, plus, minus)))


def _degree(twice: int) -> int:
    """``degree_dH`` from the sum of the three unsigned twice-areas."""
    deg, rem = divmod(twice, 8)
    if rem or deg < 1:
        total = Fraction(twice, 2)
        raise NonIntegralDegree(f"cycle areas sum to {total} pi^2, not a multiple of 4")
    return deg


def build_cycle(b2: VectorConfiguration) -> CoamoebaCycle:
    """The cycle of nonzero zero-sum rows in Z^2, built by ``_cycle``."""
    _require_plane(b2.d)
    if not all(any(row) for row in b2.matrix):
        raise ZeroVector("configuration contains a zero vector")
    return _cycle(b2.matrix, b2.labels)


def _cycle(rows, labels) -> CoamoebaCycle:
    """The cycle of nonzero labelled rows in Z^2: merge parallels (``_merged``),
    build the three polygons, record degree and shift.  The zero sum is tested
    once, here; ``_merged`` refuses a merged sum other than the rows'."""
    total = tuple(map(sum, zip(*rows)))
    if any(total):
        raise NonzeroSum("rows must sum to zero")
    gens, _, merges = _merged(rows, labels, total)
    shift = [0, 0]
    for _, _, _, (x, y), _ in merges:
        shift[0] ^= x
        shift[1] ^= y
    z, edges, twice = _zonotope_edges(gens)
    plus = _half_coamoeba(gens, z, edges)
    return CoamoebaCycle(
        zonotope=z,
        plus=plus,
        minus=plus.reflect(),
        degree=_degree(twice + 2 * abs(_twice_area(plus.vertices))),
        arg_shift_pi=(shift[0], shift[1]),
    )


# -- membership -------------------------------------------------------------------


def _require_angles(theta, count: int) -> None:
    if len(theta) != count:
        raise WrongLength(f"expected {count} angles, got {len(theta)}")


# The most 2 pi Z^2 translates of one shell a membership window may hold.
MAX_TRANSLATES = 100_000


def _window(poly: Polygon, x_lo, x_hi, y_lo, y_hi, pad) -> tuple[range, range]:
    """ax and ay ranges of the translates by 2 pi (ax, ay) within pad of the box.

    Raises TooLarge when the product of the ranges' lengths passes
    MAX_TRANSLATES, each length read off the range's integer bounds (len
    overflows past 2^63) and counted as at least 1, as the walks make a
    tuple of each range.
    """
    xmin, xmax, ymin, ymax = poly._bbox
    axs = range(math.ceil((xmin - x_hi - pad) / 2), math.floor((xmax - x_lo + pad) / 2) + 1)
    ays = range(math.ceil((ymin - y_hi - pad) / 2), math.floor((ymax - y_lo + pad) / 2) + 1)
    if max(axs.stop - axs.start, 1) * max(ays.stop - ays.start, 1) > MAX_TRANSLATES:
        spans = f"{axs.stop - axs.start} x {ays.stop - ays.start} translates"
        raise TooLarge(f"a shell's window spans {spans}, past the bound of {MAX_TRANSLATES}")
    return axs, ays


def _point_segment_dist(px, py, ax, ay, bx, by) -> float:
    vx, vy = bx - ax, by - ay
    wx, wy = px - ax, py - ay
    seg2 = vx * vx + vy * vy
    t = 0.0 if seg2 == 0 else max(0.0, min(1.0, (wx * vx + wy * vy) / seg2))
    dx, dy = px - (ax + t * vx), py - (ay + t * vy)
    return math.hypot(dx, dy)


def _poly_dist_float(verts, px, py) -> float:
    if _winding(verts, px, py) != 0:
        return 0.0
    k = len(verts)
    return min(
        _point_segment_dist(px, py, *verts[i], *verts[(i + 1) % k]) for i in range(k)
    )


def cycle_distance(cycle: CoamoebaCycle, theta) -> float:
    """Distance (radians) from an angle pair to the coamoeba cycle on the torus.

    Zero when the shifted point lies in some 2 pi Z^2 translate of either
    half-coamoeba polygon.
    """
    _require_angles(theta, 2)
    px = theta[0] / math.pi + cycle.arg_shift_pi[0]
    py = theta[1] / math.pi + cycle.arg_shift_pi[1]
    if not (math.isfinite(px) and math.isfinite(py)):
        raise InputError(f"angles must be finite, got {tuple(theta)}")
    px -= 2 * math.floor((px + 1) / 2)
    py -= 2 * math.floor((py + 1) / 2)
    best = math.inf
    for poly in (cycle.plus, cycle.minus):
        verts = poly.float_vertices()
        for ax, ay in itertools.product(*_window(poly, px, px, py, py, _PAD)):
            d = _poly_dist_float([(x - 2 * ax, y - 2 * ay) for x, y in verts], px, py)
            if d < best:
                best = d
                if best == 0.0:
                    return 0.0
    return best * math.pi


def contains2(cycle: CoamoebaCycle, theta, tol: float = 1e-9) -> bool:
    """Is the angle pair (radians) in the closed coamoeba, within tol?

    The query point is shifted by the recorded argument shift and tested
    against all relevant 2 pi Z^2 translates of the half-coamoeba polygons;
    the boundary counts as inside.
    """
    return cycle_distance(cycle, theta) <= tol


def contains2_exact(cycle: CoamoebaCycle, theta_pi) -> bool:
    """Exact membership for angles given as rational multiples of pi."""
    _require_angles(theta_pi, 2)
    px = Fraction(theta_pi[0]) + cycle.arg_shift_pi[0]
    py = Fraction(theta_pi[1]) + cycle.arg_shift_pi[1]
    for poly in (cycle.plus, cycle.minus):
        for ax, ay in itertools.product(*_window(poly, px, px, py, py, 0)):
            if poly.contains((px + 2 * ax, py + 2 * ay)):
                return True
    return False


# -- prisms (d = 3) ----------------------------------------------------------------


@dataclass(frozen=True)
class Prism:
    """A 3D phase-limit-set component: the preimage of a 2D cycle.

    ``projection`` is the 2 x 3 quotient chart by the hyperplane's normal
    sublattice, the canonical integer kernel basis of the flat's forms, and
    ``base`` the cycle of ``Matroid.restrict_to_flat``'s rows; membership of
    an angle triple is membership of its projected angle pair in ``base``."""

    hyperplane_flat: Flat
    projection: la.IntMatrix
    base: CoamoebaCycle


def prisms_d3(m: Matroid) -> list[Prism]:
    """One prism per essential flacet (hyperplane with nonzero form-sum), in
    one pass: ``Matroid._quotient``'s rows go to ``_cycle`` bare, so every
    refusal of the two runs for each prism, in order."""
    if m.config.d != 3:
        raise DimensionNot3("prism decomposition is implemented for d = 3 only")
    if not nondefective(m):
        raise Defective("configuration is defective")
    prisms = []
    for flat in essential_flacets(m):
        rows, labels, proj = m._quotient(flat)
        prisms.append(Prism(hyperplane_flat=flat, projection=proj, base=_cycle(rows, labels)))
    return prisms


def _project_theta(prism: Prism, theta) -> tuple[float, float]:
    pair = tuple(sum(c * t for c, t in zip(row, theta)) for row in prism.projection)
    if not all(map(math.isfinite, pair)):
        raise InputError(f"angles {tuple(theta)} overflow in the chart of a prism")
    return pair


def contains_pls3(prisms, theta, tol: float = 1e-9):
    """Membership of an angle triple in the union of prisms.

    Returns (found, witness) where witness is the first prism containing the
    point, or None.
    """
    _require_angles(theta, 3)
    if not all(map(math.isfinite, theta)):
        raise InputError(f"angles must be finite, got {tuple(theta)}")
    for prism in prisms:
        if contains2(prism.base, _project_theta(prism, theta), tol):
            return True, prism
    return False, None


def pls3_distance(prisms, theta) -> float:
    """Distance (radians, in the projected 2D charts) to the nearest prism."""
    _require_angles(theta, 3)
    return float(pls3_distances(prisms, [theta])[0][0])


# Kernel block size in points x translates x edges: a block takes as many
# points as fit when each counts the translates, of the call's shells and
# window, that a point of [-1, 1]^2 reaches, so no temporary holds more values.
_BLOCK = 16_000
# Translate window padding in pi units.  Every point lies within sqrt(2) of a
# 2 pi Z^2 translate of any vertex, so a translate whose bounding box is
# farther than this in some coordinate is never the nearest one.
_PAD = 2.0


def _block_points(poly: Polygon, pad: float = _PAD, shells: int = 1) -> int:
    """Points per kernel block for ``shells`` shells like ``poly``, at least 1."""
    axs, ays = _window(poly, -1, 1, -1, 1, pad)
    return max(1, _BLOCK // (shells * len(axs) * len(ays) * len(poly.vertices)))


def _chart(poly: Polygon, px, py, wind: bool, other: Polygon | None = None) -> np.ndarray:
    """Per nonempty block of wrapped chart points: with ``wind``, whether some
    2 pi Z^2 translate of one shell winds around each point; otherwise the
    distance (pi units) to the translates within ``_PAD`` of the block, of
    ``poly`` and of ``other`` (as many vertices) if given.

    Batched forms of ``_winding`` and ``_point_segment_dist`` over the
    translates a block's window reaches, with the same arithmetic in the same
    order.  The winding window is padded only by the rounding of orient.  Let
    u = 2^-53 and R the largest |coordinate| of the shell's box.  A point
    above or below a translate's box is in no edge's y-range (exact compares).
    A point g > 0 beside the box, in an edge's y-range, is h >= g along x from
    the edge's line, so |orient| = |vy| h with vy a nonzero integer; orient's
    three roundings per product err by under 3.01u |vy| (2|vx| + h), |vx| <= 2R,
    so every sign is exact once g > 14uR, and the count is 0 as in exact
    arithmetic.  ``_window``'s bounds err by under 3u(R + 1): the pad 32u(R + 1)
    leaves every translate it drops more than 14uR away.
    """
    shells = (poly,) if other is None else (poly, other)
    pad = (1 + max(map(abs, poly._bbox))) * 2.0**-48 if wind else _PAD
    size = _block_points(poly, pad, len(shells))
    if len(px) > size:
        blocks = [(px[i : i + size], py[i : i + size]) for i in range(0, len(px), size)]
        return np.concatenate([_chart(poly, x, y, wind, other) for x, y in blocks])
    box = px.min(), px.max(), py.min(), py.max()
    wins = [(np.array(s._float_vertices), *_window(s, *box, pad)) for s in shells]
    # translates x edges, of each shell in turn: tails (x1, y1) and heads (x2, y2)
    x1 = np.concatenate([v[:, 0] - 2.0 * np.repeat(a, len(b))[:, None] for v, a, b in wins])[None]
    y1 = np.concatenate([v[:, 1] - 2.0 * np.tile(b, len(a))[:, None] for v, a, b in wins])[None]
    x2 = np.roll(x1, -1, axis=2)
    y2 = np.roll(y1, -1, axis=2)
    vx, vy = x2 - x1, y2 - y1
    px, py = px[:, None, None], py[:, None, None]
    wx, wy = px - x1, py - y1
    if wind:
        orient = vx * wy - vy * wx
        up = (y1 <= py) & (y2 > py) & (orient > 0)
        down = (y1 > py) & (y2 <= py) & (orient < 0)
        return (up.sum(axis=2) != down.sum(axis=2)).any(axis=1)
    seg2 = vx * vx + vy * vy
    t = np.clip((wx * vx + wy * vy) / np.where(seg2 == 0, 1.0, seg2), 0.0, 1.0)
    return np.hypot(px - (x1 + t * vx), py - (y1 + t * vy)).min(axis=(1, 2))


def pls3_distances(prisms, points, tol: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Distances (radians) from angle triples to the nearest prism, batched.

    ``points`` is a k x 3 array of angle triples.  Returns ``(distance,
    witness)``: ``distance[i]`` equals ``pls3_distance(prisms, points[i])``
    (the winding test and the arithmetic are those of ``cycle_distance``),
    and ``witness[i]`` is the index of the first prism within ``tol`` of the
    point, the prism ``contains_pls3`` returns, or -1 if there is none.

    Prism by prism, in blocks (see ``_BLOCK``), the points in play go through
    the winding tests of both shells in turn (see ``_chart`` for the window),
    and those neither winds around get distances over both in one call.  A
    point is dropped once its distance is exactly 0; points merely within
    ``tol`` go on to the remaining prisms, so distances stay exact.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 3:
        raise WrongLength(f"expected a k x 3 array of angle triples, got shape {points.shape}")
    finite = np.isfinite(points).all(axis=1)
    if not finite.all():
        raise InputError(f"angles must be finite, got {tuple(points[~finite][0].tolist())}")
    distance = np.full(len(points), math.inf)
    witness = np.full(len(points), -1)
    active = np.arange(len(points))
    for index, prism in enumerate(prisms):
        if not len(active):
            break
        theta = points[active]
        cycle = prism.base
        with np.errstate(over="ignore", invalid="ignore"):
            # elementwise in the order of _project_theta, not a matmul, so
            # the chart coordinates match the one-point path bit for bit
            px, py = (
                (a0 * theta[:, 0] + a1 * theta[:, 1] + a2 * theta[:, 2]) / math.pi + shift
                for (a0, a1, a2), shift in zip(prism.projection, cycle.arg_shift_pi)
            )
            px -= 2 * np.floor((px + 1) / 2)
            py -= 2 * np.floor((py + 1) / 2)
        overflow = np.isnan(px + py)  # wrapped finite coordinates lie in [-1, 1]
        if overflow.any():
            bad = tuple(theta[overflow][0].tolist())
            raise InputError(f"angles {bad} overflow in the chart of a prism")
        out = ~_chart(cycle.plus, px, py, True)  # the points neither shell winds around
        if out.any():
            out[out] = ~_chart(cycle.minus, px[out], py[out], True)
        d = np.zeros(len(px))
        if out.any():
            d[out] = _chart(cycle.plus, px[out], py[out], False, cycle.minus)
        d *= math.pi
        witness[active[(witness[active] < 0) & (d <= tol)]] = index
        distance[active] = np.minimum(distance[active], d)
        active = active[distance[active] != 0.0]
    return distance, witness
