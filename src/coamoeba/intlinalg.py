"""Exact integer and rational lattice linear algebra.

Matrices are immutable tuples of tuples (row-major) of Python ints
(arbitrary precision).  One elimination, the Hermite normal form ``_hnf``,
gives every rank, rational solve, kernel and lattice basis; its row
operations are unimodular, so it stays in the integers, and
``fractions.Fraction`` appears only in the back-substitution of a solve.
Nothing here ever rounds.

Conventions fixed once so that every downstream coordinate choice is
reproducible:

* Hermite normal form is row-style upper echelon with positive pivots and
  the entries above each pivot reduced into ``[0, pivot)``.  This form is
  unique for a given row lattice, which is what makes golden tests possible.
* ``integer_kernel`` returns the HNF-canonical basis of the saturated kernel
  lattice.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import index

from .errors import InputError

IntMatrix = tuple[tuple[int, ...], ...]
IntVector = tuple[int, ...]


def as_matrix(rows) -> IntMatrix:
    """Freeze integer rows into a rectangular tuple-of-tuples.  Ints, bools and
    numpy integers pass; any other entry raises InputError, never truncated."""
    m = tuple(map(tuple, rows))
    try:
        m = tuple(tuple(map(index, row)) for row in m)
    except TypeError:
        bad = next(x for row in m for x in row if not hasattr(type(x), "__index__"))
        raise InputError(f"matrix entry {bad!r} is not an integer") from None
    if m and any(len(row) != len(m[0]) for row in m):
        raise ValueError("ragged matrix")
    return m


def identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m) -> tuple[tuple, ...]:
    return tuple(zip(*m)) if m else ()


def mat_mul(a, b):
    """Exact matrix product; works for int or Fraction entries."""
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_vec(m, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def primitive(v: IntVector) -> IntVector:
    """Divide out the gcd, keeping orientation.  Zero vector stays zero."""
    g = gcd(*v)
    return tuple(x // g for x in v) if g else tuple(v)


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """g, x, y with g = gcd(a,b) >= 0 and x*a + y*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _hnf(m: IntMatrix, transform: bool) -> tuple[list[list[int]], list[list[int]]]:
    """``hermite_normal_form`` of m, as lists.  The row operations run on
    [m | I], so the columns past m's carry u; without ``transform`` they run
    on m alone, and u has no columns."""
    k = len(m)
    ncols = len(m[0]) if m else 0
    rows = [[*r, *e] for r, e in zip(m, identity(k) if transform else [()] * k)]
    pr = 0
    for col in range(ncols):
        piv = next((i for i in range(pr, k) if rows[i][col]), None)
        if piv is None:
            continue
        top, rows[piv] = rows[piv], rows[pr]
        for i in range(piv + 1, k):  # rows pr + 1 .. piv are zero in col
            low = rows[i]
            if low[col]:
                a, b = top[col], low[col]
                g, x, y = _ext_gcd(a, b)
                p, q = -(b // g), a // g  # det [[x,y],[p,q]] = 1
                top, rows[i] = (
                    [x * s + y * t for s, t in zip(top, low)],
                    [p * s + q * t for s, t in zip(top, low)],
                )
        rows[pr] = top = top if top[col] > 0 else [-x for x in top]
        for i in range(pr):
            q = rows[i][col] // top[col]  # floor division puts entry in [0, pivot)
            if q:
                rows[i] = [s - q * t for s, t in zip(rows[i], top)]
        pr += 1
    return [r[:ncols] for r in rows], [r[ncols:] for r in rows]


def rank_rational(m) -> int:
    """Rank over Q: the number of nonzero rows of the HNF."""
    return sum(map(any, _hnf(as_matrix(m), False)[0]))


def hermite_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row-style HNF.  Returns (h, u) with u unimodular and u @ m = h.

    h is upper echelon with positive pivots; entries above each pivot are
    reduced into [0, pivot); zero rows sink to the bottom.
    """
    h, u = _hnf(as_matrix(m), True)
    return as_matrix(h), as_matrix(u)


def row_lattice_basis(m) -> IntMatrix:
    """HNF-canonical basis of the lattice spanned by the rows (no zero rows)."""
    return tuple(tuple(r) for r in _hnf(as_matrix(m), False)[0] if any(r))


def integer_kernel(m: IntMatrix, cols: int | None = None) -> tuple[IntVector, ...]:
    """Saturated basis of {v in Z^cols : m @ v = 0}, HNF-canonical.

    Computed from the row HNF of the transpose: the transform rows paired
    with zero HNF rows span the kernel, and the kernel of an integer matrix
    is automatically saturated.  ``cols`` disambiguates the ambient rank
    when the matrix has no rows.
    """
    m = as_matrix(m)
    ncols = len(m[0]) if m else (cols or 0)
    if not m or ncols == 0:
        return identity(ncols)
    h, u = _hnf(transpose(m), True)
    kern = [u[i] for i in range(len(h)) if not any(h[i])]
    return row_lattice_basis(kern) if kern else ()


def solve_unique_rational(m, v):
    """The unique rational solution x of m @ x = v, or None if inconsistent.

    Requires the columns of m to be linearly independent (the solution, when
    it exists, is then unique), or raises ValueError.  The HNF of the
    augmented matrix [m | v] has its pivots on the diagonal of its top
    block exactly when the columns are independent, and a row below that
    block exactly when v is outside their span; back-substitution in the
    triangular block gives x in Fractions.
    """
    ncols = len(m[0]) if m else 0
    h = _hnf(as_matrix([*row, y] for row, y in zip(m, v)), False)[0]
    if len(h) < ncols or not all(h[k][k] for k in range(ncols)):
        raise ValueError("columns are not linearly independent")
    if any(map(any, h[ncols:])):
        return None
    x = [Fraction(0)] * ncols
    for k in reversed(range(ncols)):
        row = h[k]
        x[k] = Fraction(row[-1] - sum(row[j] * x[j] for j in range(k + 1, ncols)), row[k])
    return tuple(x)
