"""Exact integer and rational lattice linear algebra.

Matrices are immutable tuples of tuples (row-major) of Python ints
(arbitrary precision).  Every rank and rational solve runs through one
fraction-free (Bareiss) echelon routine whose divisions are exact, so
``fractions.Fraction`` appears only in the final quotients of a solve.
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

IntMatrix = tuple[tuple[int, ...], ...]
IntVector = tuple[int, ...]


def as_matrix(rows) -> IntMatrix:
    """Freeze an iterable of rows into a rectangular tuple-of-tuples."""
    m = tuple(tuple(map(int, row)) for row in rows)
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


def _echelon(m) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row echelon form: (nonzero rows, their pivot columns).

    Bareiss elimination (Math. Comp. 22, 1968): each step divides by the
    previous pivot, and the division is exact because every entry is a minor
    of ``m``.  All rows below the pivot are updated, including those with a
    zero in the pivot column, or a later division would not be exact.
    """
    rows = [list(row) for row in m]
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    prev = 1
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        top = rows[r]
        p = top[col]
        for i in range(r + 1, len(rows)):
            a = rows[i][col]
            rows[i] = [(p * x - a * y) // prev for x, y in zip(rows[i], top)]
        prev = p
        pivots.append(col)
    return rows[: len(pivots)], pivots


def rank_rational(m) -> int:
    """Rank over Q: the number of pivots of the fraction-free echelon form."""
    return len(_echelon(m)[1])


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
    """``hermite_normal_form`` of a frozen m, as lists; without ``transform``
    u has no columns, so its row operations are empty."""
    k = len(m)
    rows = [list(r) for r in m]
    u = [list(r) for r in identity(k)] if transform else [[]] * k
    ncols = len(rows[0]) if rows else 0
    pr = 0
    for col in range(ncols):
        piv = next((i for i in range(pr, k) if rows[i][col]), None)
        if piv is None:
            continue
        rows[pr], rows[piv] = rows[piv], rows[pr]
        u[pr], u[piv] = u[piv], u[pr]
        for i in range(pr + 1, k):
            if not rows[i][col]:
                continue
            a, b = rows[pr][col], rows[i][col]
            g, x, y = _ext_gcd(a, b)
            p, q = -(b // g), a // g  # det [[x,y],[p,q]] = 1
            rows[pr], rows[i] = (
                [x * s + y * t for s, t in zip(rows[pr], rows[i])],
                [p * s + q * t for s, t in zip(rows[pr], rows[i])],
            )
            u[pr], u[i] = (
                [x * s + y * t for s, t in zip(u[pr], u[i])],
                [p * s + q * t for s, t in zip(u[pr], u[i])],
            )
        if rows[pr][col] < 0:
            rows[pr] = [-x for x in rows[pr]]
            u[pr] = [-x for x in u[pr]]
        pivot = rows[pr][col]
        for i in range(pr):
            q = rows[i][col] // pivot  # floor division puts entry in [0, pivot)
            if q:
                rows[i] = [s - q * t for s, t in zip(rows[i], rows[pr])]
                u[i] = [s - q * t for s, t in zip(u[i], u[pr])]
        pr += 1
    return rows, u


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
    it exists, is then unique).  The augmented matrix is brought to
    fraction-free echelon form; with D the last pivot, D * x is integral
    (Cramer's rule), so back-substitution stays in the integers and only the
    final quotients by D are Fractions.
    """
    ncols = len(m[0]) if m else 0
    rows, pivots = _echelon([list(row) + [y] for row, y in zip(m, v)])
    if pivots[:ncols] != list(range(ncols)):
        raise ValueError("columns are not linearly independent")
    if ncols in pivots:
        return None
    det = rows[ncols - 1][ncols - 1] if ncols else 1
    y = [0] * ncols
    for k in reversed(range(ncols)):
        row = rows[k]
        rest = sum(row[j] * y[j] for j in range(k + 1, ncols))
        y[k] = (det * row[-1] - rest) // row[k]
    return tuple(Fraction(c, det) for c in y)

