"""Small worked configurations used across the demos and the test suite.

* ``hyperplane_b(d)`` / ``hyperplane_a(d)``: the Gale pair of d+1 copies of
  1 in Z; the reduced discriminant is the hyperplane x_1 + ... + x_d + 1 = 0.
  With d = 2 this is the line whose coamoeba is the two-triangle complement
  of a hexagon; with d = 3 it is the plane whose closed coamoeba is the
  complement of an open zonotope.
* ``sixline_a`` / ``sixline_b``: a configuration of six points in an affine
  plane whose Gale dual defines an arrangement of six lines with nine double
  and two triple points.  Its reduced discriminant in coordinates p, q, r is
  ``sixline_discriminant()``.
"""

from __future__ import annotations

import functools

from .configuration import PointConfiguration, VectorConfiguration
from .polynomial import SparsePoly, parse


def hyperplane_a(d: int) -> PointConfiguration:
    return PointConfiguration.from_rows([[1] * (d + 1)])


def hyperplane_b(d: int) -> VectorConfiguration:
    rows = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    rows.append([-1] * d)
    return VectorConfiguration.from_rows(rows)


def line_b() -> VectorConfiguration:
    return hyperplane_b(2)


def plane_b() -> VectorConfiguration:
    return hyperplane_b(3)


def sixline_a() -> PointConfiguration:
    return PointConfiguration.from_rows(
        [
            [1, 1, 1, 1, 1, 1],
            [0, 0, 1, 4, 2, 3],
            [0, 1, 0, 2, 1, 2],
        ]
    )


def sixline_b() -> VectorConfiguration:
    return VectorConfiguration.from_rows(
        [
            [1, 0, 0],
            [0, 1, 0],
            [0, 0, 1],
            [1, 2, 0],
            [-2, -1, -2],
            [0, -2, 1],
        ]
    )


SIXLINE_DISCRIMINANT_TEXT = (
    "-432p^6-1024p^5q^2-1152p^5q+864p^5r+216p^5+1280p^4q^2r+768p^4q^2+1584p^4qr"
    "+832p^4q-432p^4r^2+216p^4r-27p^4-40p^3q^2r^2+512p^3q^2r-192p^3q^2+1584p^3qr^2"
    "+532p^3qr-200p^3q+4000p^2q^3r^2-40p^2q^2r^3+5038p^2q^2r^2-208p^2q^2r+16p^2q^2"
    "-1152p^2qr^3+832p^2qr^2-200p^2qr+16p^2q+500pq^3r^3-200pq^3r^2+1280pq^2r^4"
    "+512pq^2r^3-208pq^2r^2+3125q^4r^4+4000q^3r^4-200q^3r^3+16q^3r^2-1024q^2r^5"
    "+768q^2r^4-192q^2r^3+16q^2r^2"
)


@functools.cache
def sixline_discriminant() -> SparsePoly:
    """The defining polynomial of the six-line reduced discriminant in p, q, r,
    parsed once: a SparsePoly is frozen, so every caller shares it."""
    return parse(SIXLINE_DISCRIMINANT_TEXT, ("p", "q", "r"))
