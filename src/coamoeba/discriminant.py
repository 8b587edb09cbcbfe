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

from . import intlinalg as la
from . import tropical
from .configuration import VectorConfiguration
from .errors import (
    Defective,
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
from .polynomial import SparsePoly

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


def _psi_integer(h: HornKapranovMap, y) -> tuple[list[int], list[int]]:
    """psi at an integer point as (nums, dens), coordinate j = nums[j] / dens[j].

    nums[j] is the product of <b,y>^(b_j) over the rows with b_j > 0 and
    dens[j] that of <b,y>^(-b_j) over the rows with b_j < 0.  Raises
    OnArrangement naming the first vanishing row.
    """
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


def psi_exact(h: HornKapranovMap, y) -> tuple[Fraction, ...]:
    """Exact value of psi at a rational point off the arrangement.

    psi is homogeneous of degree 0, so the point is first scaled by the lcm
    of its denominators to an integer point; coordinate j is then the
    product over rows b of <b,y>^(b_j), one integer numerator over one
    integer denominator.  Raises OnArrangement naming the first vanishing row.
    """
    yv = [Fraction(v) for v in y]
    if len(yv) != h.d:
        raise WrongLength(f"point has {len(yv)} coordinates, expected {h.d}")
    lcm = math.lcm(*(v.denominator for v in yv))
    nums, dens = _psi_integer(h, [v.numerator * (lcm // v.denominator) for v in yv])
    return tuple(Fraction(n, d) for n, d in zip(nums, dens))


def psi_complex(h: HornKapranovMap, y) -> tuple[complex, ...]:
    """Floating value of psi; rejects points numerically on the arrangement.

    psi is homogeneous of degree 0, so the point is first scaled by the power
    of two that brings its largest coordinate part into [1/2, 1): the scaling
    is exact in binary floating point and leaves the value unchanged, so huge
    and tiny points evaluate without over- or underflow.  Raises InputError
    when a coordinate of the point or of its image is not finite (the image
    can still overflow near the arrangement).
    """
    yv = [complex(v) for v in y]
    if len(yv) != h.d:
        raise WrongLength(f"point has {len(yv)} coordinates, expected {h.d}")
    if not all(map(cmath.isfinite, yv)):
        raise InputError(f"point coordinates must be finite, got {tuple(yv)}")
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

    By the Euler operator, y_j df/dy_j is the sum of e_j * c * y^e over the
    terms c * y^e of f, so one walk over the terms, evaluating each monomial
    once, gives every coordinate.  Complex coordinates stay complex and all
    others are read exactly as Fractions.  Raises WrongLength when the point
    does not have one coordinate per variable, and SingularPoint when all
    coordinates vanish (the projective point is undefined there).
    """
    point = [v if isinstance(v, complex) else Fraction(v) for v in y]
    if len(point) != len(f.variables):
        raise WrongLength("point length must match the number of variables")
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


# -- nondefectivity -----------------------------------------------------------


def form_sum(m: Matroid, forms) -> la.IntVector:
    cols = zip(*(m.config.matrix[i] for i in sorted(forms))) if forms else None
    return tuple(sum(c) for c in cols) if forms else (0,) * m.config.d


def _escaping_links(m: Matroid) -> Iterator[tuple[Flat, list[Flat]]]:
    """``tropical._links`` over G < F when F's form-sum raises the rank of G.

    Each lower flat's vectors are brought to echelon form once, and each
    upper flat's form-sum is reduced against those rows in integers: it
    escapes the span exactly when something is left.
    """
    if any(m.config.row_sum()):
        raise NonzeroSum("non-splitting flags assume rows summing to zero")
    echelon = functools.cache(lambda g: la._echelon([m.config.matrix[i] for i in g.forms]))
    total = functools.cache(lambda f: form_sum(m, f.forms))

    def escapes(lower: Flat, upper: Flat) -> bool:
        s = total(upper)
        for row, col in zip(*echelon(lower)):
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
    seen: dict[frozenset[int], Flat] = {}
    for flag in non_splitting_flags(m):
        for flat in flag.flats:
            seen[flat.forms] = flat
    return sorted(seen.values(), key=Flat.sort_key)


def essential_flacets(m: Matroid) -> list[Flat]:
    """Flacets with dim L >= 2 and nonzero form-sum; they index the
    top-dimensional strata of the phase limit set."""
    out = []
    for flat in m.flacets():
        if flat.dim(m.rank) < 2:
            continue
        if any(form_sum(m, flat.forms)):
            out.append(flat)
    return out


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
    images of its two spanning rays.  Sectors in distinct planes can cross
    in a single ray; any such ray not already among the type-1 images must
    appear in every fan structure.  Coplanar overlaps refine along existing
    type-1 rays and contribute nothing new.
    """
    if m.config.d != 3:
        raise DimensionNot3("type-2 ray discovery is implemented for d = 3 only")
    rays = tdiscr_rays(m)
    type1_dirs = {r.direction for r in rays}
    sectors = []
    for cone in tropical.maximal_cones(m):
        gens = [form_sum(m, f.forms) for f in cone.spanning_flacets]
        if len(gens) != 2:
            continue
        u, w = gens
        if not any(u) or not any(w) or not any(_cross3(u, w)):
            continue  # image is at most a known type-1 ray
        sectors.append((u, w))
    new_dirs = []
    for (u1, w1), (u2, w2) in itertools.combinations(sectors, 2):
        n1, n2 = _cross3(u1, w1), _cross3(u2, w2)
        line = _cross3(n1, n2)
        if not any(line):
            continue  # coplanar
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


def require_nondefective(m: Matroid) -> None:
    if not nondefective(m):
        raise Defective("configuration is defective")
