"""Point and vector configurations and Gale duality.

A point configuration A is an m x n integer matrix whose columns are points
of Z^m; it is valid when the columns generate Z^m and lie on an affine
hyperplane {x : <u, x> = 1} for a primitive covector u.  Its Gale dual B is
an n x d matrix (d = n - m) whose columns form the canonical (HNF) basis of
the integer kernel of A; the rows of B are vectors in Z^d that sum to zero.
Validation reads one Hermite normal form U @ A^T = H, U unimodular: A spans
Z^m when the nonzero rows of H are the identity, and the rows of U beside
the zero rows of H span ker(A).  As U is invertible over Z, A^T u = 1
exactly when H u = U 1: the row sums of U vanish beside the zero rows of H,
and u solves the triangular top block of H.

Gale duals are only unique up to a unimodular change of kernel basis, so
equality with any externally given dual is a statement about column
lattices, not entries.  Duplicated points are legitimate (configurations
are multisets) and are kept apart by their labels.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from . import intlinalg as la
from .errors import InputError, InvariantError, NoAffineHyperplane, NotSpanning, TooLarge


def require_float_range(values, what: str, scale: float = 1.0) -> None:
    """Raise TooLarge unless each int in ``values``, times ``scale``, is a
    finite float.  Only the largest magnitude is converted."""
    top = max(map(abs, values), default=0)
    try:
        finite = math.isfinite(top * scale)
    except OverflowError:  # the int itself is past the float range
        finite = False
    if not finite:
        raise TooLarge(f"{what} is past the float range, |x| <= {sys.float_info.max:.4g}")


@dataclass(frozen=True)
class PointConfiguration:
    """Columns of ``matrix`` are the points; labels name the columns."""

    matrix: la.IntMatrix
    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "matrix", la.as_matrix(self.matrix))
        if len(self.labels) != self.n:
            raise ValueError("need one label per point")

    @property
    def m(self) -> int:
        return len(self.matrix)

    @property
    def n(self) -> int:
        return len(self.matrix[0]) if self.matrix else 0

    @staticmethod
    def from_rows(rows, labels=None) -> "PointConfiguration":
        rows = tuple(map(tuple, rows))  # frozen only by __post_init__
        if labels is None:
            labels = tuple(f"a{i+1}" for i in range(len(rows[0]) if rows else 0))
        return PointConfiguration(rows, tuple(labels))


@dataclass(frozen=True)
class VectorConfiguration:
    """Rows of ``matrix`` are the vectors of B in Z^d; labels name the rows."""

    matrix: la.IntMatrix
    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "matrix", la.as_matrix(self.matrix))
        if len(self.labels) != self.n:
            raise ValueError("need one label per vector")

    @property
    def n(self) -> int:
        return len(self.matrix)

    @property
    def d(self) -> int:
        return len(self.matrix[0]) if self.matrix else 0

    def row_sum(self) -> la.IntVector:
        return tuple(sum(col) for col in zip(*self.matrix)) if self.matrix else ()

    @staticmethod
    def from_rows(rows, labels=None) -> "VectorConfiguration":
        rows = tuple(rows)  # frozen only by __post_init__
        if labels is None:
            labels = tuple(f"b{i+1}" for i in range(len(rows)))
        return VectorConfiguration(rows, tuple(labels))


@dataclass(frozen=True)
class GalePair:
    a: PointConfiguration
    b: VectorConfiguration
    u: la.IntVector


@dataclass(frozen=True)
class ValidationReport:
    spans: bool
    u: la.IntVector | None
    pyramid: bool


def validate_a(a: PointConfiguration) -> ValidationReport:
    """Check lattice spanning, the affine-hyperplane covector, and pyramids.

    ``spans`` requires the columns to generate Z^m (all HNF pivots 1), not
    merely a full-rank sublattice.  ``u`` is present exactly when a single
    covector pairs to 1 with every column; it is then automatically
    primitive.  ``pyramid`` is detected on the Gale side: some coordinate of
    the kernel lattice vanishes identically, i.e. the dual has a zero row.
    """
    return _validate(a)[0]


def _validate(a: PointConfiguration) -> tuple[ValidationReport, la.IntMatrix]:
    """``validate_a``'s report and the kernel of A, from one HNF of A^T."""
    h, t = la.hermite_normal_form(la.transpose(a.matrix))
    rank = sum(map(any, h))
    sums = [sum(row) for row in t]
    u = None  # also below rank m, where the covector is not unique
    if a.m and rank == a.m and not any(sums[rank:]):
        x = la.solve_unique_rational(h[:rank], sums[:rank])  # already triangular
        u = tuple(map(int, x)) if all(c.denominator == 1 for c in x) else None
    kernel = la.row_lattice_basis(t[rank:])
    pyramid = any(not any(col) for col in zip(*kernel))
    spans = rank == a.m and h[:rank] == la.identity(a.m)
    return ValidationReport(spans=spans, u=u, pyramid=pyramid), kernel


def gale_dual(a: PointConfiguration) -> VectorConfiguration:
    """Canonical Gale dual: columns are the HNF basis of ker(A) in Z^n.

    Raises NotSpanning / NoAffineHyperplane when the configuration is not
    valid.  The rows of the result always sum to zero exactly.
    """
    return gale_pair(a).b


def gale_pair(a: PointConfiguration) -> GalePair:
    """A, its canonical Gale dual and covector, from one ``_validate``."""
    report, kernel = _validate(a)
    if not report.spans:
        raise NotSpanning("columns do not generate the ambient lattice")
    if report.u is None:
        raise NoAffineHyperplane("no primitive covector evaluates to 1 on all points")
    if not kernel:
        raise InputError("the points are affinely independent: the Gale dual has d = 0")
    b = VectorConfiguration(la.transpose(kernel), a.labels)
    if any(b.row_sum()):
        raise InvariantError("Gale dual rows do not sum to zero")
    return GalePair(a=a, b=b, u=report.u)


def check_gale_pair(p: GalePair) -> bool:
    """Exactness of Z^d -> Z^A -> Z^m: A @ B = 0, complementary ranks, zero row sum."""
    prod = la.mat_mul(p.a.matrix, p.b.matrix)
    if any(any(row) for row in prod):
        return False
    if la.rank_rational(p.a.matrix) + la.rank_rational(p.b.matrix) != p.a.n:
        return False
    return not any(p.b.row_sum())
