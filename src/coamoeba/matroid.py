"""The rational vector matroid of a configuration B.

Bases are enumerated by brute force over all rank-sized subsets (the intended
scale is n <= 16, d <= 6, where exactness and simplicity beat oracle-based
matroid algorithms).  A flat is stored by its form-set F, the labels whose
vectors vanish on the subspace L = cap ker(b); its ``corank`` is the rank of
the span of F, which equals d - dim L.  Because span(F) is the annihilator
of L, a vector lies in span(F) exactly when it is orthogonal to a basis of
L; closure is computed that way, from one integer kernel.  Connectivity
uses the basis-exchange graph: vertices are elements, with an edge b -- b'
whenever some basis through b stays a basis after swapping b for b'.

Minors by a flat F are read off the bases of M: the bases B with
|B & F| = r(F) (``bases_through``) give the bases B & F of the restriction
M|F and B - F of the contraction M/F.  ``restrict_to_flat`` builds the
contraction's vectors B|_L for the cycles by pairing each vector with the
flat's own kernel basis, which is the quotient chart of M / L_perp.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import intlinalg as la
from .configuration import VectorConfiguration
from .errors import Disconnected, EmptyConfiguration, InvariantError
from .errors import NotSpanning, ZeroVector


def in_span(v, space_basis) -> bool:
    """Is v in the span of the forms vanishing on the subspace with this basis?"""
    return not any(la.dot(v, k) for k in space_basis)


def _parallel_groups(matrix) -> dict[la.IntVector, list[int]]:
    """Row indices grouped by primitive direction up to sign.

    Each key is the primitive direction of its group's first row, and the
    groups are in order of first appearance.
    """
    groups: dict[la.IntVector, list[int]] = {}
    for i, row in enumerate(matrix):
        key = la.primitive(row)
        neg = tuple(-x for x in key)
        groups.setdefault(neg if neg in groups else key, []).append(i)
    return groups


def _connected(ground: frozenset[int], bases) -> bool:
    """Is the basis-exchange graph of ``bases`` on a nonempty ``ground`` connected?"""
    adj: dict[int, set[int]] = {i: set() for i in ground}
    for basis in bases:
        outside = ground - basis
        for b in basis:
            rest = basis - {b}
            for b2 in outside:
                if rest | {b2} in bases:
                    adj[b].add(b2)
                    adj[b2].add(b)
    start = min(ground)
    seen = {start}
    stack = [start]
    while stack:
        for j in adj[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == len(ground)


@dataclass(frozen=True)
class Flat:
    """A flat of the matroid, recorded by its form-set.

    ``forms`` are indices into the configuration, ``corank`` is the rank of
    their span, and ``space_basis`` is the canonical saturated basis of the
    subspace L on which they all vanish.
    """

    forms: frozenset[int]
    corank: int
    space_basis: tuple[la.IntVector, ...]

    def dim(self, d: int) -> int:
        return d - self.corank

    def sort_key(self) -> tuple:
        return (self.corank, tuple(sorted(self.forms)))


@dataclass(frozen=True)
class FlagOfFlats:
    """A strictly increasing chain of proper nonzero flats.

    Stored with the subspaces L increasing, equivalently the form-sets F
    strictly decreasing; the trivial ends {0} and V are implicit.
    """

    flats: tuple[Flat, ...]

    def __post_init__(self):
        forms = [f.forms for f in self.flats]
        if any(not (forms[i] > forms[i + 1]) for i in range(len(forms) - 1)):
            raise ValueError("form-sets must strictly decrease along the flag")

    def form_chain(self) -> tuple[frozenset[int], ...]:
        return tuple(f.forms for f in self.flats)


@dataclass(frozen=True)
class ParallelMerge:
    """Record of one merged parallel class.

    The class {c = q_c * eta} contributes the constant
    (prod q_c^{q_c}) / (sum q_c)^{sum q_c} relative to its merged sum; when
    the constant is negative the arguments shift by pi on the odd
    coordinates of eta. ``arg_shift_pi`` holds that shift in units of pi.
    """

    labels: tuple[str, ...]
    eta: la.IntVector
    constant: Fraction
    arg_shift_pi: tuple[int, ...]
    removed: bool


class Matroid:
    """Immutable matroid of a spanning configuration of nonzero vectors."""

    def __init__(self, config: VectorConfiguration):
        if not config.n or not config.d:
            raise EmptyConfiguration("a matroid needs a vector in Z^d, d >= 1")
        if any(not any(row) for row in config.matrix):
            raise ZeroVector("configuration contains a zero vector")
        self.config = config
        self.n = config.n
        self.rank = la.rank_rational(config.matrix)
        if self.rank != config.d:
            raise NotSpanning("rows do not span the ambient space")
        self.bases = frozenset(
            frozenset(sub)
            for sub in itertools.combinations(range(self.n), self.rank)
            if la.rank_rational([config.matrix[i] for i in sub]) == self.rank
        )
        self.parallel_classes = self._parallel_classes()
        self._flats: list[Flat] | None = None
        self._connected: bool | None = None

    # -- basic structure -----------------------------------------------------

    def _parallel_classes(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(v) for v in _parallel_groups(self.config.matrix).values())

    def labels_of(self, forms) -> tuple[str, ...]:
        return tuple(self.config.labels[i] for i in sorted(forms))

    def closure(self, forms) -> Flat:
        """Smallest flat containing ``forms``: all labels inside their span.

        The kernel L of the forms depends only on their span, so it is
        already the closed flat's ``space_basis``.
        """
        d = self.config.d
        rows = [self.config.matrix[i] for i in sorted(forms)]
        space = la.integer_kernel(rows, cols=d)
        closed = frozenset(
            i for i, row in enumerate(self.config.matrix) if in_span(row, space)
        )
        return Flat(forms=closed, corank=d - len(space), space_basis=space)

    def flats(self) -> list[Flat]:
        """All flats graded by corank, including the empty set and all of B."""
        if self._flats is not None:
            return self._flats
        by_forms: dict[frozenset[int], Flat] = {}
        zero = self.closure(frozenset())
        by_forms[zero.forms] = zero
        frontier = [zero]
        while frontier:
            nxt: dict[frozenset[int], Flat] = {}
            for flat in frontier:
                # the covers of a flat partition the rest of the ground set,
                # so each label outside it needs closing only once
                covered = set(flat.forms)
                for i in range(self.n):
                    if i in covered:
                        continue
                    bigger = self.closure(flat.forms | {i})
                    covered |= bigger.forms
                    if bigger.forms not in by_forms and bigger.forms not in nxt:
                        nxt[bigger.forms] = bigger
            by_forms.update(nxt)
            frontier = list(nxt.values())
        self._flats = sorted(by_forms.values(), key=Flat.sort_key)
        return self._flats

    def proper_flats(self) -> list[Flat]:
        return [f for f in self.flats() if 0 < f.corank < self.rank]

    def flats_of_corank(self, corank: int) -> list[Flat]:
        return [f for f in self.flats() if f.corank == corank]

    # -- minors and connectivity ---------------------------------------------

    def bases_through(self, *flats: Flat) -> frozenset[frozenset[int]]:
        """The bases B with |B & F| = r(F) for every given flat F.

        For one flat, B & F and B - F are the bases of M|F and M/F; for a
        complete flag, they are the bases of maximal weight inside its cone.
        """
        return frozenset(
            b for b in self.bases if all(len(b & f.forms) == f.corank for f in flats)
        )

    def is_connected(self) -> bool:
        """Single component of the basis-exchange graph."""
        if self._connected is None:
            self._connected = _connected(frozenset(range(self.n)), self.bases)
        return self._connected

    # -- restriction ------------------------------------------------------------

    def restrict_to_flat(self, flat: Flat) -> tuple[VectorConfiguration, la.IntMatrix]:
        """Images B|_L of the non-vanishing vectors in M / L_perp.

        The chart is the flat's ``space_basis``, the canonical basis of
        L & Z^d: pairing with it kills exactly the saturation of the span of
        the forms and maps Z^d onto Z^dim(L).  The images are all nonzero
        because the flat is closed.
        """
        proj = la.as_matrix(flat.space_basis)
        rows = []
        labels = []
        for i in range(self.n):
            if i in flat.forms:
                continue
            image = la.mat_vec(proj, self.config.matrix[i])
            if not any(image):
                raise InvariantError("image of a vector outside a flat cannot vanish")
            rows.append(image)
            labels.append(self.config.labels[i])
        return VectorConfiguration(la.as_matrix(rows), tuple(labels)), proj

    # -- flacets -----------------------------------------------------------------

    def flacets(self) -> list[Flat]:
        """Proper nonzero flats F with both M|F and M/F connected.

        Both minors are read from the bases through F: B & F on the ground
        set F, and B - F on the rest.
        """
        if not self.is_connected():
            raise Disconnected("flacets are defined for connected configurations")
        ground = frozenset(range(self.n))
        out = []
        for flat in self.proper_flats():
            through = self.bases_through(flat)
            inner = {b & flat.forms for b in through}
            outer = {b - flat.forms for b in through}
            if _connected(flat.forms, inner) and _connected(ground - flat.forms, outer):
                out.append(flat)
        return out


def merge_parallel(
    config: VectorConfiguration,
) -> tuple[VectorConfiguration, tuple[ParallelMerge, ...]]:
    """Replace each parallel class by its vector sum.

    Classes with zero sum disappear entirely.  Each nontrivial class records
    the exact constant it contributes relative to the merged vector and the
    induced argument shift (0 for a positive constant, pi on the odd
    coordinates of eta for a negative one).  The total row sum is preserved.
    """
    rows: list[la.IntVector] = []
    labels: list[str] = []
    merges: list[ParallelMerge] = []
    d = config.d
    for eta, members in _parallel_groups(config.matrix).items():
        qs = []
        for i in members:
            row = config.matrix[i]
            j = next(k for k in range(d) if eta[k])
            q, rem = divmod(row[j], eta[j])
            if rem or tuple(q * e for e in eta) != row:
                raise InvariantError("parallel class member is not a multiple of eta")
            qs.append(q)
        total = sum(qs)
        merged = tuple(total * e for e in eta)
        member_labels = tuple(config.labels[i] for i in members)
        if len(members) == 1:
            rows.append(config.matrix[members[0]])
            labels.append(member_labels[0])
            continue
        constant = Fraction(1)
        for q in qs:
            constant *= Fraction(q) ** q
        if total:
            constant /= Fraction(total) ** total
        shift = tuple((e % 2) if constant < 0 else 0 for e in eta)
        merges.append(
            ParallelMerge(
                labels=member_labels,
                eta=eta,
                constant=constant,
                arg_shift_pi=shift,
                removed=total == 0,
            )
        )
        if total:
            rows.append(merged)
            labels.append("+".join(member_labels))
    reduced = VectorConfiguration(la.as_matrix(rows), tuple(labels))
    kept_sum = tuple(sum(r[j] for r in rows) for j in range(d))
    if kept_sum != config.row_sum():
        raise InvariantError("merging parallel classes changed the row sum")
    return reduced, tuple(merges)

