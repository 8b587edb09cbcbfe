"""Horn-Kapranov parameterization and the tropical discriminant.

The reduced discriminant of a configuration B (rows summing to zero) is the
closure of the image of psi(y) = prod_b <b,y>^b, a degree-zero homogeneous
map defined off the hyperplane arrangement of B.  When the configuration is
nondefective the logarithmic Gauss map y -> [y_i df/dy_i] inverts psi on a
dense open set.

Nondefectivity is certified by a complete flag of flats whose partial
form-sums escape the previous spans; the rays of the tropical discriminant
are the images b_L of flacet indicator rays (type 1) plus, in the
three-dimensional case, the rays cut out where projected Bergman cones cross
transversally (type 2).
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import intlinalg as la
from . import tropical
from .configuration import VectorConfiguration, require_float_range
from .errors import (
    DimensionNot3,
    Disconnected,
    InputError,
    NearArrangement,
    NonzeroSum,
    OnArrangement,
    SingularPoint,
    WrongLength,
)
from .matroid import Flat, FlagOfFlats, Matroid
from .polynomial import SparsePoly, _cleared, _require_bits, _term_block, _value_bits

# psi_complex's cut-off for |<b, y>| relative to max_j |y_j|
NEAR_ARRANGEMENT = 1e-12


@dataclass(frozen=True)
class HornKapranovMap:
    """psi for a configuration with zero row sum (hence homogeneous of degree 0)."""

    b: VectorConfiguration

    def __post_init__(self):
        if any(self.b.row_sum()):
            raise NonzeroSum("Horn-Kapranov map needs rows summing to zero")

    @property
    def d(self) -> int:
        return self.b.d


def _psi_block(h: HornKapranovMap, ys) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """psi at integer points, one per row of ``ys``, in object arrays of ints.

    Returns (vanish, nums, dens): vanish[i, a] says <b_a, y_i> = 0, and row
    k of nums and dens is psi at the k-th row of ys with no vanishing
    pairing, coordinate j = nums[k, j] / dens[k, j].  nums[k, j] is the
    product of <b,y>^(b_j) over the rows with b_j > 0 and dens[k, j] that of
    <b,y>^(-b_j) over the rows with b_j < 0.
    """
    b = np.array(h.b.matrix, dtype=object)
    pair = np.array(ys, dtype=object).reshape(-1, h.d) @ b.T
    vanish = pair == 0
    pair = pair[~vanish.any(axis=1), :, None]  # each pairing against b's columns
    nums, dens = (np.prod(pair ** np.maximum(s * b, 0), axis=1) for s in (1, -1))
    return vanish, nums, dens


def _psi_logs(h: HornKapranovMap, pair_max) -> list[int]:
    """Per coordinate j, an L with psi's nums and dens at most 2^L in size at
    the integer points y with |<b_a, y>| <= pair_max[a]: each is a product
    of |b_aj| factors of at most 2^ceil(log2 pair_max[a])."""
    logs = [(p - 1).bit_length() for p in pair_max]
    scaled = [[k * x for x in row] for k, row in zip(logs, h.b.matrix)]
    return [max(sum(x for x in c if x > 0), -sum(x for x in c if x < 0)) for c in zip(*scaled)]


def psi_exact(h: HornKapranovMap, y) -> tuple[Fraction, ...]:
    """Exact value of psi at a rational point off the arrangement.

    psi is homogeneous of degree 0, so the point is first scaled by the lcm
    of its denominators to an integer point; coordinate j is then the
    product over rows b of <b,y>^(b_j), one integer numerator over one
    integer denominator.  Raises TooLarge when a coordinate could pass
    ``MAX_EXACT_BITS`` bits, then OnArrangement naming the first vanishing row.
    """
    yv = [Fraction(v) for v in y]
    if len(yv) != h.d:
        raise WrongLength(f"point has {len(yv)} coordinates, expected {h.d}")
    lcm = math.lcm(*(v.denominator for v in yv))
    point = [v.numerator * (lcm // v.denominator) for v in yv]
    pairs = map(abs, la.mat_vec(h.b.matrix, point))
    _require_bits(1 + max(_psi_logs(h, pairs)), "psi at this point")
    vanish, nums, dens = _psi_block(h, [point])
    if vanish.any():
        raise OnArrangement(h.b.labels[vanish[0].argmax()])
    return tuple(map(Fraction, nums[0], dens[0]))


def psi_complex(h: HornKapranovMap, y) -> tuple[complex, ...]:
    """Floating value of psi; rejects points numerically on the arrangement.

    psi is homogeneous of degree 0, so the point is first scaled by the power
    of two that brings its largest coordinate part into [1/2, 1): the scaling
    is exact in binary floating point and leaves the value unchanged, so huge
    and tiny points evaluate without over- or underflow.  Raises InputError
    when a coordinate of the point or of its image is not finite (the image
    can still overflow near the arrangement), TooLarge when an entry of B is
    past the float range.
    """
    yv = [complex(v) for v in y]
    if len(yv) != h.d:
        raise WrongLength(f"point has {len(yv)} coordinates, expected {h.d}")
    if not all(map(cmath.isfinite, yv)):
        raise InputError(f"point coordinates must be finite, got {tuple(yv)}")
    require_float_range(itertools.chain.from_iterable(h.b.matrix), "an entry of B")
    k = math.frexp(max(max(abs(v.real), abs(v.imag)) for v in yv))[1]
    scaled = [complex(math.ldexp(v.real, -k), math.ldexp(v.imag, -k)) for v in yv]
    norm = max(abs(v) for v in scaled) or 1.0
    pairings = []
    for i, row in enumerate(h.b.matrix):
        val = sum(c * x for c, x in zip(row, scaled))
        if abs(val) < NEAR_ARRANGEMENT * norm:
            raise NearArrangement(h.b.labels[i])
        pairings.append(val)
    out = []
    try:
        for j in range(h.d):
            v = 1 + 0j
            for val, row in zip(pairings, h.b.matrix):
                v *= val ** row[j]
            out.append(v)
    except (OverflowError, ZeroDivisionError):
        pass  # a power over- or underflowed; out stays short of d coordinates
    if len(out) < h.d or not all(map(cmath.isfinite, out)):
        raise InputError(f"psi overflows at {tuple(yv)}")
    return tuple(out)


def log_gauss(f: SparsePoly, y):
    """[y_1 df/dy_1 : ... : y_d df/dy_d], scaled by its first nonzero coordinate.

    ``_term_block`` gives f's terms times one K at the point, each rational
    coordinate its numerator over its denominator and each complex one itself
    over 1.  Their Euler sums are K y_j df/dy_j, and K cancels in the scaling,
    exactly (to Fractions) where the sums are ints.  Raises WrongLength for a
    point without one coordinate per variable, TooLarge past
    ``MAX_EXACT_BITS`` and SingularPoint where all coordinates vanish."""
    point = [v if isinstance(v, complex) else Fraction(v) for v in y]
    if len(point) != len(f.variables):
        raise WrongLength("point length must match the number of variables")
    nums = [getattr(v, "numerator", v) for v in point]  # a complex v stays v
    dens = [getattr(v, "denominator", 1) for v in point]
    cleared = _cleared(f)
    logs = [(max(abs(n), d) - 1).bit_length() if type(n) is int else 0 for n, d in zip(nums, dens)]
    _require_bits(_value_bits(cleared, logs), "the log-Gauss map at this point")
    values, _ = _term_block(cleared, *np.array([nums, dens], dtype=object)[:, None])
    coords = (values @ cleared[2])[0]  # K y_j df/dy_j
    lead = next((c for c in coords if c != 0), None)
    if lead is None:
        raise SingularPoint("all logarithmic partials vanish")
    return tuple(Fraction(c, lead) if type(c) is type(lead) is int else c / lead for c in coords)


# -- nondefectivity -----------------------------------------------------------


def form_sum(m: Matroid, forms) -> la.IntVector:
    cols = zip(*(m.config.matrix[i] for i in sorted(forms))) if forms else None
    return tuple(sum(c) for c in cols) if forms else (0,) * m.config.d


def _escaping_links(m: Matroid) -> Iterator[tuple[Flat, list[Flat]]]:
    """``tropical._links`` over G < F when F's form-sum raises the rank of G.

    Each lower flat's vectors are brought to their HNF row basis once, each
    row with its pivot, its first nonzero entry.  Each upper flat's form-sum
    is reduced against those rows in integers: it escapes the span exactly
    when something is left.
    """
    if any(m.config.row_sum()):
        raise NonzeroSum("non-splitting flags assume rows summing to zero")
    basis = functools.cache(
        lambda g: [
            (row, next(j for j, x in enumerate(row) if x))
            for row in la.row_lattice_basis([m.config.matrix[i] for i in g.forms])
        ]
    )
    total = functools.cache(lambda f: form_sum(m, f.forms))

    def escapes(lower: Flat, upper: Flat) -> bool:
        s = total(upper)
        for row, col in basis(lower):
            if s[col]:
                s = [row[col] * x - s[col] * y for x, y in zip(s, row)]
        return any(s)

    return tropical._links(m, escapes)


def non_splitting_flags(m: Matroid) -> list[FlagOfFlats]:
    """Complete flags whose partial form-sums escape every previous span.

    A flag F_1 < ... < F_(d-1) qualifies when for each j the sum of the
    vectors in F_j does not lie in the span of F_(j-1) (F_0 is the corank-0
    flat, whose span is 0).  The configuration is nondefective exactly when
    such a flag exists.  The escape test prunes the walk of
    ``tropical.complete_flags``: a splitting link cuts off every chain
    through it, and the flags come in ``complete_flags`` order.
    """
    return tropical._chains(m, dict(_escaping_links(m)))


def nondefective(m: Matroid | VectorConfiguration) -> bool:
    """Does the dual variety fill a hypersurface?  Zero rows mean no.

    Yes at the first corank r-1 flat the walk of escaping links reaches.
    """
    if isinstance(m, VectorConfiguration):
        if any(not any(row) for row in m.matrix):
            return False
        m = Matroid(m)
    return any(flat.corank == m.rank - 1 for flat, _ in _escaping_links(m))


def non_splitting_flats(m: Matroid) -> list[Flat]:
    flats = {flat for flag in non_splitting_flags(m) for flat in flag.flats}
    return sorted(flats, key=Flat.sort_key)


# -- tropical discriminant rays -------------------------------------------------


@dataclass(frozen=True)
class TropRay:
    """A directed ray of the tropical discriminant.

    Type-1 rays are images b_L of flacet indicators and carry their flat;
    type-2 rays arise only from transversal crossings of projected cones.
    """

    direction: la.IntVector
    kind: str  # "type1" | "type2"
    flat: Flat | None
    essential: bool


def tdiscr_rays(m: Matroid) -> list[TropRay]:
    """Type-1 rays: primitive directions of the nonzero flacet sums b_L."""
    if not m.is_connected():
        raise Disconnected("tropical discriminant rays need a connected matroid")
    rays = []
    for flat in m.flacets():
        b_l = form_sum(m, flat.forms)
        if not any(b_l):
            continue
        rays.append(
            TropRay(
                direction=la.primitive(b_l),
                kind="type1",
                flat=flat,
                essential=flat.dim(m.rank) >= 2,
            )
        )
    return rays


def essential_flacets(m: Matroid) -> list[Flat]:
    """Flacets with dim L >= 2 and b_L != 0, the flats of the essential type-1
    rays; they index the top-dimensional strata of the phase limit set."""
    return [r.flat for r in tdiscr_rays(m) if r.essential]


def _cross3(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _in_sector(x, u, w) -> bool:
    """Is x a nonnegative combination of independent u, w?

    With n = u x w, x = a u + b w exactly when x . n = 0, and then
    x x w = a n and u x x = b n.
    """
    plane, a, b = la.mat_vec((x, _cross3(x, w), _cross3(u, x)), _cross3(u, w))
    return plane == 0 and a >= 0 and b >= 0


def tdiscr_fan_d3(m: Matroid) -> list[TropRay]:
    """All rays of a fan structure on the tropical discriminant when d = 3.

    Each maximal Bergman cone projects to the planar sector spanned by the
    type-1 directions of its two spanning flacets, positive multiples of
    their b_L (a flacet with b_L = 0 has no ray, and its cone no sector).
    Sectors in distinct planes can cross in a single ray; any such ray not
    already among the type-1 images must appear in every fan structure.
    Coplanar overlaps refine along existing type-1 rays and contribute
    nothing new.
    """
    if m.config.d != 3:
        raise DimensionNot3("type-2 ray discovery is implemented for d = 3 only")
    rays = tdiscr_rays(m)
    type1 = {r.flat: r.direction for r in rays}
    sectors = []
    for cone in tropical.maximal_cones(m):
        gens = [type1.get(f) for f in cone.spanning_flacets]
        if len(gens) != 2 or None in gens or not any(_cross3(*gens)):
            continue  # image is at most a known type-1 ray
        sectors.append(gens)
    new_dirs = []
    for (u1, w1), (u2, w2) in itertools.combinations(sectors, 2):
        n1, n2 = _cross3(u1, w1), _cross3(u2, w2)
        line = _cross3(n1, n2)
        if not any(line):
            continue  # coplanar
        for cand in (line, tuple(-x for x in line)):
            if _in_sector(cand, u1, w1) and _in_sector(cand, u2, w2):
                direction = la.primitive(cand)
                if direction not in type1.values() and direction not in new_dirs:
                    new_dirs.append(direction)
    rays.extend(
        TropRay(direction=d, kind="type2", flat=None, essential=False)
        for d in sorted(new_dirs)
    )
    return rays
