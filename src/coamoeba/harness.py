"""Floating-point sampling and exact certification of discriminant data.

Sampling draws complex standard normal points per coordinate, rejects those
within 1e-8 * ||y|| of the hyperplane arrangement, and maps through the
Horn-Kapranov parameterization and the coordinatewise argument.  Chunks are
drawn in order, each from its own stream seeded with seed + chunk_index, so
the first k points for a seed do not depend on how many are requested.
Each chunk is drawn and multiplied by B in full, but its rows are tested
against the arrangement only until enough are kept, and psi is evaluated
only on the rows returned.

Exact checks walk a fixed small-integer grid: ``residue_check`` reports the
largest exact value of a candidate defining polynomial on the parameterized
hypersurface (zero certifies vanishing; anything else is evidence of a typo
in the input polynomial and is reported, never "corrected"), and
``gauss_roundtrip`` certifies that the logarithmic Gauss map inverts the
parameterization at sample points, skipping the measure-zero singular locus
where the Gauss map is undefined.  ``_certify_walk`` runs both checks on
one grid walk, in blocks of the fewest points the checks still need, so no
point is evaluated that the walk does not read.  A block is evaluated at
once, each value a Python int in a numpy object array, and its points are
then decided one by one in grid order, the order a point-by-point walk
takes.  The checks run in integers on one common denominator: a grid point
y is integral, so psi(y) is one integer over another per coordinate, and
with f's coefficients cleared once, each term of f at psi(y) times one K
is an integer.  f(psi(y)) = 0 when those sum to zero, and the Euler sums of e_j
times the terms are K times the logarithmic partials y_j df/dy_j.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .configuration import require_float_range
from .cycles import pls3_distances, prisms_d3
from .discriminant import HornKapranovMap, _psi_block, _psi_logs
from .errors import Defective, DimensionNot3, InputError, WrongLength
from .matroid import Flat, Matroid
from .polynomial import SparsePoly, _cleared, _require_bits, _term_block, _value_bits

REJECTION_THRESHOLD = 1e-8
_CHUNK = 2048
_ZERO = Fraction(0)  # the residue before any point; shared, so no Fraction per call
_MAGNITUDES = (1, -1, 2, -2, 3, -3, 5, -5, 7, -7, 4, -4, 6, -6)  # rational_grid's coordinates


@dataclass(frozen=True)
class SampleReport:
    """Prism-experiment outcome.  ``coverage_per_prism`` pairs each prism's
    hyperplane flat, in ``prisms_d3`` order, with the number of samples whose
    first prism within the tolerance is that one (the ``contains_pls3``
    witness); samples no prism claims are not counted."""

    n_samples: int
    n_valid: int
    inside_fraction: float
    max_boundary_distance: float
    seed: int
    tolerance: float
    coverage_per_prism: tuple[tuple[Flat, int], ...]


def _sample_chunk(
    bmat: np.ndarray, seed: int, chunk_index: int, size: int, need: int
) -> np.ndarray:
    """Arguments of psi at the first ``need`` of ``size`` random points that
    are off the arrangement (fewer when the chunk has fewer).  Raises
    InputError when psi over- or underflows at one of them.

    The whole chunk is drawn and multiplied (BLAS rounds by the row count),
    so neither depends on ``need``.  Rows are tested in order, as many at a
    time as are missing, and psi is evaluated only on the rows returned.
    """
    rng = np.random.default_rng(seed + chunk_index)
    y = rng.standard_normal((size, bmat.shape[1])) + 1j * rng.standard_normal(
        (size, bmat.shape[1])
    )
    pair = y @ bmat.T  # <b_a, y> per row a
    keep, stop = np.zeros(size, dtype=bool), 0  # the rows tested so far and kept
    while (short := need - np.count_nonzero(keep)) > 0 and stop < size:
        rows, stop = slice(stop, stop + short), stop + short
        norms = np.linalg.norm(y[rows], axis=1)
        keep[rows] = np.all(np.abs(pair[rows]) >= REJECTION_THRESHOLD * norms[:, None], axis=1)
    pair = pair[keep]
    d = bmat.shape[1]
    psi = np.empty((pair.shape[0], d), dtype=complex)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for j in range(d):
            psi[:, j] = np.prod(pair ** bmat[:, j], axis=1)
    if not np.all(np.isfinite(psi) & (psi != 0)):  # psi is finite and nonzero off the arrangement
        raise InputError("psi leaves the range of floats at a sampled point")
    return np.angle(psi)


def sample_coamoeba(m: Matroid, n: int, seed: int) -> np.ndarray:
    """n points of the discriminant coamoeba, deterministic per seed.

    Points are Arg(psi(y)) in (-pi, pi]^d for complex standard normal y.
    Raises TooLarge when an entry of B is past the float range.
    """
    if n < 0 or seed < 0:
        raise InputError(f"sample size and seed must be non-negative, got {n}, {seed}")
    require_float_range(itertools.chain.from_iterable(m.config.matrix), "an entry of B")
    bmat = np.array(m.config.matrix, dtype=float)
    if n == 0:
        return np.empty((0, m.config.d))
    chunks: list[np.ndarray] = []
    total = 0
    while total < n:
        chunks.append(_sample_chunk(bmat, seed, len(chunks), _CHUNK, n - total))
        total += len(chunks[-1])
    return np.concatenate(chunks)


def rational_grid(d: int):
    """Deterministic stream of small nonzero integer points in Z^d.

    Coordinates cycle through 1, -1, 2, -2, 3, ... in mixed patterns; the
    stream never repeats a point and avoids the origin.
    """
    for combo in itertools.product(_MAGNITUDES, repeat=d):
        yield combo


@dataclass(frozen=True)
class RoundtripResult:
    passed: bool
    n_checked: int
    n_singular_skipped: int
    counterexample: tuple | None


def _certify_walk(f: SparsePoly, m: Matroid, n_residue: int, n_roundtrip: int):
    """The residue and roundtrip checks on one walk of ``rational_grid``.

    Each block is the larger of the residue check's and the open roundtrip's
    shortfall.  On it, psi (``_psi_block``), f's term values (``_term_block``,
    f cleared once), their sums, the Euler sums and the 2x2 minors of the
    projective test are computed at once.  The residue check takes the first
    n_residue points off the arrangement, the roundtrip takes points until
    n_roundtrip nonsingular ones pass or one fails, and the walk stops when
    both are done.  Before any point it refuses negative sizes, then a
    nonzero row sum, then a wrong variable count, then values of psi or f
    that could pass ``MAX_EXACT_BITS`` bits on the grid (TooLarge).  Returns
    ((max_residue, witness_point, n_checked), RoundtripResult).
    """
    if n_residue < 0 or n_roundtrip < 0:
        raise InputError(f"grid sizes must be non-negative, got {n_residue}, {n_roundtrip}")
    h = HornKapranovMap(m.config)
    if len(f.variables) != m.config.d:
        raise WrongLength("point length must match the number of variables")
    cleared = _cleared(f)
    logs = _psi_logs(h, [max(_MAGNITUDES) * sum(map(abs, row)) for row in m.config.matrix])
    _require_bits(1 + max(logs), "psi on the grid")
    _require_bits(_value_bits(cleared, logs), "f at psi on the grid")
    grid = rational_grid(m.config.d)
    worst, witness, counterexample = _ZERO, None, None
    taken = checked = singular = 0
    roundtrip_done = n_roundtrip == 0
    while size := max(n_residue - taken, 0 if roundtrip_done else n_roundtrip - checked):
        block = list(itertools.islice(grid, size))
        vanish, nums, dens = _psi_block(h, block)
        ys = np.array(block, dtype=object).reshape(-1, h.d)[~vanish.any(axis=1)]
        values, scales = _term_block(cleared, nums, dens)
        coords = values @ cleared[2]  # K y_j df/dy_j, by the Euler operator
        # y and coords are projectively equal when y_i coords_j is symmetric in i, j
        minors = ys[:, :, None] * coords[:, None]
        inverts = (minors == minors.transpose(0, 2, 1)).all(axis=(1, 2))
        totals = abs(values.sum(axis=1))  # K |f(psi(y))|
        rows = zip(map(tuple, ys), totals, abs(scales), coords.any(axis=1), inverts)
        for y, total, scale, regular, inverted in rows:
            if taken == n_residue and roundtrip_done:
                break
            if taken < n_residue:
                taken += 1
                # |total / scale| > worst, cross-multiplied
                if total * worst.denominator > worst.numerator * scale:
                    worst = Fraction(total, scale)
                    witness = y
            if not roundtrip_done:
                if not regular:
                    singular += 1
                else:
                    checked += 1
                    if not inverted:
                        counterexample = y
                    roundtrip_done = counterexample is not None or checked == n_roundtrip
        if len(block) < size:
            break  # the grid ran out
    roundtrip = RoundtripResult(counterexample is None, checked, singular, counterexample)
    return (worst, witness, taken), roundtrip


def residue_check(f: SparsePoly, m: Matroid, n: int):
    """Max |f(psi(y))| over n exact rational grid points, with a witness.

    Returns (max_residue, witness_point, n_checked).  A nonzero residue
    means f does not vanish on the parameterized hypersurface; the exact
    value is reported for diagnosis.  n_checked falls short of n when the
    finite grid runs out first.
    """
    return _certify_walk(f, m, n, 0)[0]


def gauss_roundtrip(f: SparsePoly, m: Matroid, n: int) -> RoundtripResult:
    """Check log_gauss(f, psi(y)) == y projectively at n exact grid points.

    By the Euler operator, the sums of e_j times the term values are K times
    the coordinates y_j df/dy_j, so the projective test is on those
    integers.  Points where psi(y) is a singular point of f (all logarithmic
    partials vanish) are skipped and counted; the inverse statement is
    generic.
    """
    return _certify_walk(f, m, 0, n)[1]


def certify_discriminant(f: SparsePoly, m: Matroid, n: int = 20) -> dict:
    """Residue and roundtrip certification combined, with erratum diagnosis.

    Both checks share one grid walk.  status is "erratum" when the
    polynomial does not vanish on the image or the Gauss map does not
    invert, with the exact residue recorded, and the caller should treat
    downstream identities as inconclusive.  Otherwise it is "incomplete"
    when the grid ran out before either check covered n points, and "ok"
    when both did.
    """
    (residue, witness, residue_checked), roundtrip = _certify_walk(f, m, n, n)
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


def conjecture_experiment_d3(
    m: Matroid, n: int, tol: float = 1e-6, seed: int = 0
) -> SampleReport:
    """Sampled check that the coamoeba lies inside the union of prisms.

    inside_fraction is the fraction of sampled coamoeba points contained in
    some prism (within tol); max_boundary_distance is the worst projected
    distance of any sample to the prism union.  n = 0 yields the vacuous
    report inside_fraction = 1 with n_valid = 0.
    """
    if m.config.d != 3:
        raise DimensionNot3("the prism experiment needs d = 3")
    prisms = prisms_d3(m)
    if not prisms:
        raise Defective("no essential flacets; nothing to compare against")
    points = sample_coamoeba(m, n, seed)
    if len(points) == 0:
        coverage = tuple((prism.hyperplane_flat, 0) for prism in prisms)
        return SampleReport(n, 0, 1.0, 0.0, seed, tol, coverage)
    distance, witness = pls3_distances(prisms, points, tol)
    claimed = np.bincount(witness[witness >= 0], minlength=len(prisms))
    return SampleReport(
        n_samples=n,
        n_valid=len(points),
        inside_fraction=int(np.count_nonzero(distance <= tol)) / len(points),
        max_boundary_distance=float(distance.max()),
        seed=seed,
        tolerance=tol,
        coverage_per_prism=tuple(
            (prism.hyperplane_flat, int(k)) for prism, k in zip(prisms, claimed)
        ),
    )
