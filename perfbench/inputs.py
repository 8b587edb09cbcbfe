"""Seeded inputs for the benchmark workloads.

Random configurations come from fixed pools.  Pool member ``index`` of a
rung is the first candidate accepted by a rejection sampler seeded with
``"<rung>/<index>"``, so it is the same on every machine and its reference
outputs can be recorded once (``record.py``).  The benchmark's ``--seed``
only chooses which pool members, sampling seed and query points a run uses.

Everything here is single-process and single-threaded.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction

# rung name -> (n, d, must be nondefective)
RUNGS = {
    "n7d4": (7, 4, False),
    "n7d5": (7, 5, False),
    "n9d3": (9, 3, True),
}
ENTRY_RANGE = (-2, 2)

# pool sizes; the 2D and 3D query-point pools are shared by every seed.
# A fan pool holds the FAN_POOL of the first FAN_CANDIDATES members with the
# median number of flats, so that every seed draws a configuration of
# typical cost.
FAN_CANDIDATES = 30
FAN_POOL = 10
D3_CANDIDATES = 32
SAMPLE_SEEDS = 8
POINTS2_POOL = 1024
POINTS3_POOL = 2048


class Rejections:
    """Rejected candidates per rung and reason, for the run report."""

    def __init__(self):
        self.counts: dict[str, dict[str, int]] = {}

    def add(self, rung: str, reason: str) -> None:
        per_rung = self.counts.setdefault(rung, {})
        per_rung[reason] = per_rung.get(reason, 0) + 1


def _reject_reason(lib, rows, must_be_nondefective: bool):
    """Why a candidate B is unusable, or None when it is accepted."""
    if any(not any(row) for row in rows):
        return "zero_row"
    config = lib.configuration.VectorConfiguration.from_rows(rows)
    try:
        m = lib.matroid.Matroid(config)
    except lib.errors.NotSpanning:
        return "not_spanning"
    if not m.is_connected():
        return "disconnected"
    if must_be_nondefective and not lib.discriminant.nondefective(m):
        return "defective"
    return None


def generate(lib, rung: str, index: int, rejections: Rejections) -> list[list[int]]:
    """Pool member ``index`` of ``rung``: rows of a zero-sum B in Z^d.

    ``lib`` is the imported ``coamoeba`` package; its Matroid validates the
    candidates.  The last row is minus the sum of the others.
    """
    n, d, must_be_nondefective = RUNGS[rung]
    rng = random.Random(f"{rung}/{index}")
    lo, hi = ENTRY_RANGE
    while True:
        rows = [[rng.randint(lo, hi) for _ in range(d)] for _ in range(n - 1)]
        rows.append([-sum(col) for col in zip(*rows)])
        reason = _reject_reason(lib, rows, must_be_nondefective)
        if reason is None:
            return rows
        rejections.add(rung, reason)


def rows_digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def config_json(role: str, rows, labels=None) -> str:
    """The configuration JSON the CLI reads, in a fixed byte layout.

    Written here rather than through the library's serializer so that the
    input hashes in the CLI's provenance block do not depend on the program.
    """
    if labels is None:
        prefix = "a" if role == "A" else "b"
        count = len(rows[0]) if role == "A" else len(rows)
        labels = [f"{prefix}{i + 1}" for i in range(count)]
    payload = {
        "role": role,
        "matrix": [[str(int(x)) for x in row] for row in rows],
        "labels": list(labels),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def points2_pool() -> list[tuple[Fraction, Fraction]]:
    """Rational angle pairs in [-1, 1]^2, in units of pi (many on grid lines)."""
    rng = random.Random("points2")
    out = []
    for _ in range(POINTS2_POOL):
        pair = []
        for _ in range(2):
            q = rng.randint(1, 24)
            pair.append(Fraction(rng.randint(-q, q), q))
        out.append(tuple(pair))
    return out


def points3_pool() -> list[tuple[float, float, float]]:
    """Angle triples in radians, uniform in [-pi, pi)^3."""
    rng = random.Random("points3")
    return [
        tuple(rng.uniform(-math.pi, math.pi) for _ in range(3))
        for _ in range(POINTS3_POOL)
    ]
