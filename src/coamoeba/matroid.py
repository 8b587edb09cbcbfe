"""The rational vector matroid of a configuration B.

Bases come from one sweep of integer minors: the k x k minors on the first
k columns, one per k-subset of rows, give those of the (k+1)-subsets by
Laplace expansion along column k, and a d-subset is a basis exactly when its
minor is nonzero (the intended scale is n <= 16, d <= 6, where exactness
and simplicity beat oracle-based matroid algorithms).  Everything else is
read off the bases, kept as int masks (bit i for label i) in a fixed order,
so label sets meet by ``&``, ``^`` and ``bit_count``.  The rank of a label
set F is the most labels of F inside one basis, and its closure adds the
labels in no basis B with |B & F| = r(F).  A flat is stored by its form-set
F, the labels whose vectors vanish on the subspace L = cap ker(b); its
``corank`` is the rank of F, which equals d - dim L.  The hyperplanes are
the closures of the (r-1)-subsets of bases, and every flat is an
intersection of hyperplanes (Oxley, *Matroid Theory*, 1.4), so the lattice
of flats is the ground set closed under intersection with each hyperplane.  Connectivity reads the
fundamental graph of one basis B, joining b in B to e outside B when
B - b + e is a basis; M is connected exactly when it is (Krogdahl 1977).
The rows span Q^d exactly when some d-subset has a nonzero minor.

Minors by a flat F are read off one basis B with |B & F| = r(F): B & F is a
basis of the restriction M|F and B - F one of the contraction M/F, and a
swap inside F or inside E - F keeps a basis of the minor exactly when it
keeps one of M.  ``_quotient`` gives the contraction's vectors B|_L as plain
rows, pairing each vector outside the flat, inline, with each row of the
canonical integer kernel basis of the flat's forms, which is the quotient
chart of M / L_perp; it is the only linear algebra here besides the bases.
``restrict_to_flat`` wraps the rows in a configuration; the prisms read them
bare.  ``_merged`` groups parallel classes of rows for ``merge_parallel``.

Counts over all bases are bit-sliced: with w = r.bit_length() + 1, field k
(bits w*k .. w*k + w - 1) of label i's column is 1 when the k-th basis holds
i, so the columns of F sum to |B_k & F| in field k.  That count is at most
r < 2^(w-1), so adding 2^(w-1) - t to every field sets its top bit exactly
when the count is at least t, and no field reaches 2^w to carry into the
next.  r(F) is the largest t whose test sets a top bit; ``_tight`` returns
it with the top bits its test sets, the bases with |B & F| = r(F).  Those
common to a flag are one AND, and a label is in none when its column,
shifted onto the top bits, meets none of them.  ``flats()`` keeps each
flat's ``_tight`` result, rank and marks, for ``flacets`` and the cones.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import intlinalg as la
from .configuration import VectorConfiguration
from .errors import Disconnected, EmptyConfiguration, InputError, InvariantError
from .errors import NotSpanning, ZeroVector


def _mask(labels) -> int:
    return sum(1 << i for i in labels)


def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of a nonnegative ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _labels(mask: int) -> frozenset[int]:
    return frozenset(_bits(mask))


def _basis_masks(matrix, d: int) -> tuple[int, ...]:
    """The d-subsets of rows with a nonzero minor, in ``combinations`` order:
    the sweep of the module docstring, keeping only nonzero minors."""
    bits = [1 << i for i in range(len(matrix))]
    minors = {0: 1}
    for k in range(d):
        column = {bit: row[k] for bit, row in zip(bits, matrix)}
        level = {}
        for sub in itertools.combinations(bits, k + 1):
            mask = sum(sub)
            total = 0
            sign = 1 - 2 * (k & 1)  # (-1)^(p + k) at row position p = 0
            for bit in sub:
                minor = minors.get(mask ^ bit)
                if minor:
                    total += sign * column[bit] * minor
                sign = -sign
            if total:
                level[mask] = total
        minors = level
        if not minors:
            break  # every larger minor expands into these, so none is nonzero
    return tuple(minors)


def _connected(ground: int, basis: int, bases) -> bool:
    """Is the fundamental graph of ``basis`` on a nonempty ``ground`` connected?

    Label sets are masks.  x -- y when exactly one of them lies in ``basis``
    and swapping them gives another member of ``bases``.
    """
    seen = ground & -ground
    stack = [seen]
    while stack:
        x = stack.pop()
        others = ground & ~seen & (~basis if x & basis else basis)
        while others:
            y = others & -others
            others ^= y
            if basis ^ x ^ y in bases:
                seen |= y
                stack.append(y)
    return seen == ground


class Flat(NamedTuple):
    """A flat of the matroid, recorded by its form-set.

    ``forms`` are indices into the configuration and ``corank`` is their
    matroid rank, the rank of their span.  A named tuple, so it hashes and
    compares as the tuple (forms, corank), in C; ``sort_key`` orders flats.
    """

    forms: frozenset[int]
    corank: int

    def dim(self, d: int) -> int:
        return d - self.corank

    def sort_key(self) -> tuple:
        return (self.corank, tuple(sorted(self.forms)))


class _Chain(NamedTuple):
    flats: tuple[Flat, ...]


class FlagOfFlats(_Chain):
    """A strictly increasing chain of proper nonzero flats.

    Stored with the subspaces L increasing, equivalently the form-sets F
    strictly decreasing; the trivial ends {0} and V are implicit.  A named
    tuple of the one field ``flats``, so it hashes and compares as the tuple
    (flats,), in C, and ``_linked`` is one tuple allocation.
    """

    __slots__ = ()

    def __new__(cls, flats: tuple[Flat, ...]) -> FlagOfFlats:
        if any(not inner.forms < outer.forms for outer, inner in itertools.pairwise(flats)):
            raise ValueError("form-sets must strictly decrease along the flag")
        return tuple.__new__(cls, (flats,))

    @classmethod
    def _linked(cls, flats: tuple[Flat, ...]) -> FlagOfFlats:
        """The flag of a chain whose every link its walk has already checked."""
        return tuple.__new__(cls, (flats,))

    def form_chain(self) -> tuple[frozenset[int], ...]:
        return tuple(f.forms for f in self.flats)


@dataclass(frozen=True)
class ParallelMerge:
    """Record of one merged parallel class.

    The class {c = q_c * eta} contributes the constant
    (prod q_c^{q_c}) / (sum q_c)^{sum q_c} relative to its merged sum; when
    the constant is negative the arguments shift by pi on the odd
    coordinates of eta. ``arg_shift_pi`` holds that shift in units of pi.
    ``multipliers`` holds the q_c; ``constant`` is computed only when read,
    as its size grows like |q|^|q|.
    """

    labels: tuple[str, ...]
    eta: la.IntVector
    multipliers: tuple[int, ...]
    arg_shift_pi: tuple[int, ...]
    removed: bool

    @property
    def constant(self) -> Fraction:
        qs = self.multipliers
        return math.prod(Fraction(q) ** q for q in qs) / Fraction(sum(qs) or 1) ** sum(qs)


class Matroid:
    """Immutable matroid of a spanning configuration of nonzero vectors."""

    def __init__(self, config: VectorConfiguration):
        if not config.n or not config.d:
            raise EmptyConfiguration("a matroid needs a vector in Z^d, d >= 1")
        if any(not any(row) for row in config.matrix):
            raise ZeroVector("configuration contains a zero vector")
        self.config = config
        self.n = config.n
        self._masks = _basis_masks(config.matrix, config.d)
        if not self._masks:
            raise NotSpanning("rows do not span the ambient space")
        self.rank = config.d
        self._mask_set = frozenset(self._masks)
        self.n_bases = len(self._masks)
        # the columns of the module docstring: label i's joins the i-th binary
        # digits of the bases, last basis first, each widened to w digits
        w = self._w = self.rank.bit_length() + 1
        rows = [bin(b | 1 << self.n)[3:] for b in reversed(self._masks)]
        self._cols = [
            int("".join(c).replace("0", "0" * w).replace("1", "0" * (w - 1) + "1"), 2)
            for c in reversed(list(zip(*rows)))
        ]
        ones = ((1 << w * self.n_bases) - 1) // ((1 << w) - 1)
        self._tops = ones << w - 1
        self._offsets = [ones * ((1 << w - 1) - t) for t in range(self.rank + 1)]
        self._flats: list[Flat] | None = None
        self._marks: dict[frozenset[int], tuple[int, int]] = {}  # filled by flats()
        self._flacets: list[Flat] | None = None
        self._connected: bool | None = None

    # -- basic structure -----------------------------------------------------

    @functools.cached_property
    def bases(self) -> frozenset[frozenset[int]]:
        """The bases as label sets, built when first read."""
        return frozenset(map(_labels, self._masks))

    def labels_of(self, forms) -> tuple[str, ...]:
        return tuple(self.config.labels[i] for i in sorted(forms))

    def rank_of(self, forms) -> int:
        """The matroid rank r(F): the most labels of F inside one basis."""
        return self.closure(forms).corank

    def closure(self, forms) -> Flat:
        """Smallest flat containing ``forms``: F and the labels in no basis B
        with |B & F| = r(F), as any other joins r(F) labels of F in a basis."""
        forms = frozenset(forms)
        if not forms <= frozenset(range(self.n)):
            raise InputError(f"labels must lie in range({self.n})")
        r, bits = self._tight(forms)
        return Flat(forms | self._uncovered(bits), r)

    def _tight(self, labels) -> tuple[int, int]:
        """r(F), the largest t <= |F| whose test at t sets a top bit, and the
        top bits that test sets: field k's when the k-th basis B has
        |B & F| = r(F)."""
        counts = sum(self._cols[i] for i in labels)
        t = min(len(labels), self.rank)
        while not (bits := (counts + self._offsets[t]) & self._tops):
            t -= 1
        return t, bits

    def _uncovered(self, bits: int) -> frozenset[int]:
        """The labels in no basis whose field's top bit is set in ``bits``."""
        shift = self._w - 1
        return frozenset(i for i, col in enumerate(self._cols) if not col << shift & bits)

    def flats(self) -> list[Flat]:
        """All flats graded by corank, including the empty set and all of B.

        The hyperplane through an independent (r-1)-set I is the set of labels
        i for which I + i is not a basis, the complement of the x with B - x = I.
        Intersecting the ground set with each hyperplane in turn, while keeping
        every earlier intersection, gives the intersections of all sets of
        hyperplanes: all the flats.
        """
        if self._flats is not None:
            return self._flats
        extends: dict[int, int] = {}
        for b in self._masks:
            for x in _bits(b):
                extends[b ^ 1 << x] = extends.get(b ^ 1 << x, 0) | 1 << x
        ground = (1 << self.n) - 1
        hyperplanes = {ground ^ e for e in extends.values()}
        found = {ground}
        for h in hyperplanes:
            found |= {f & h for f in found}
        self._marks = {f: self._tight(f) for f in map(_labels, found)}
        self._flats = sorted((Flat(f, r) for f, (r, _) in self._marks.items()), key=Flat.sort_key)
        return self._flats

    def proper_flats(self) -> list[Flat]:
        return [f for f in self.flats() if 0 < f.corank < self.rank]

    def flats_of_corank(self, corank: int) -> list[Flat]:
        return [f for f in self.flats() if f.corank == corank]

    @property
    def parallel_classes(self) -> tuple[frozenset[int], ...]:
        """The rank-one flats' form-sets in ``flats()`` order: with no loops,
        the parallel classes in order of first appearance."""
        return tuple(f.forms for f in self.flats_of_corank(1))

    # -- minors and connectivity ---------------------------------------------

    def bases_through(self, flat: Flat) -> frozenset[frozenset[int]]:
        """The bases B with |B & F| = r(F) for the flat F.

        B & F and B - F are the bases of M|F and M/F; intersected over the
        flats of a complete flag, these sets give the bases of maximal weight
        inside its cone.
        """
        return self._bases_of(self._tight(flat.forms)[1])

    def _bases_of(self, bits: int) -> frozenset[frozenset[int]]:
        """The bases whose fields' top bits are set in ``bits`` (-1: all)."""
        return frozenset(_labels(self._masks[p // self._w]) for p in _bits(bits & self._tops))

    def is_connected(self) -> bool:
        """Single component of the fundamental graph of any one basis."""
        if self._connected is None:
            self._connected = _connected((1 << self.n) - 1, self._masks[0], self._mask_set)
        return self._connected

    # -- restriction ------------------------------------------------------------

    def restrict_to_flat(self, flat: Flat) -> tuple[VectorConfiguration, la.IntMatrix]:
        """Images B|_L of the non-vanishing vectors in M / L_perp.

        The chart is the canonical basis of L & Z^d, the integer kernel of
        the flat's forms: pairing with it kills exactly the saturation of the
        span of the forms and maps Z^d onto Z^dim(L).  The images are all
        nonzero because the flat is closed.
        """
        rows, labels, proj = self._quotient(flat)
        return VectorConfiguration(tuple(rows), tuple(labels)), proj

    def _quotient(self, flat: Flat) -> tuple[list, list, la.IntMatrix]:
        """``restrict_to_flat``'s image rows and labels, as plain lists, and
        its chart; ``cycles.prisms_d3`` reads them with no configuration."""
        matrix, forms = self.config.matrix, flat.forms
        proj = la.integer_kernel([matrix[i] for i in sorted(forms)], cols=self.config.d)
        outside = [i for i in range(self.n) if i not in forms]
        # one image coordinate at a time: a chart row paired with each row;
        # an empty chart (forms spanning Q^d) gives each row the empty image
        cols = [[sum(map(operator.mul, c, matrix[i])) for i in outside] for c in proj]
        rows = list(zip(*cols)) if cols else [()] * len(outside)
        if not all(map(any, rows)):
            raise InvariantError("image of a vector outside a flat cannot vanish")
        return rows, [self.config.labels[i] for i in outside], proj

    # -- flacets -----------------------------------------------------------------

    def flacets(self) -> list[Flat]:
        """Proper nonzero flats F with both M|F and M/F connected, found once."""
        if not self.is_connected():
            raise Disconnected("flacets are defined for connected configurations")
        if self._flacets is None:
            self._flacets = self._flacets_among(self.proper_flats(), self._marks)
        return self._flacets

    def _flacets_among(self, flats, marks) -> list[Flat]:
        """The F of ``flats`` with M|F and M/F connected.  ``marks[F.forms]`` is
        ``_tight(S)``, cl(S) = F: its first basis B has |B & F| = r(F), and
        the minors' fundamental graphs are B's induced on F and E - F."""
        ground, out = (1 << self.n) - 1, []
        for flat in flats:
            f = _mask(flat.forms)
            bits = marks[flat.forms][1]
            basis = self._masks[((bits & -bits).bit_length() - 1) // self._w]
            if all(_connected(s, basis, self._mask_set) for s in (f, ground ^ f)):
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
    A merged label ("+"-joined) that repeats another raises InputError.
    """
    if any(not any(row) for row in config.matrix):
        raise ZeroVector("configuration contains a zero vector")
    rows, labels, merges = _merged(config.matrix, config.labels, config.row_sum())
    reduced = VectorConfiguration(tuple(rows), tuple(labels))
    return reduced, tuple(ParallelMerge(*fields) for fields in merges)


def _merged(matrix, names, total) -> tuple[list, list, list]:
    """``merge_parallel``'s rows, labels and fields of its records, from the
    rows, their labels and their sum ``total``; also read by the cycles.  The
    rows must be nonzero.

    One pass over the rows finds the classes: row i joins the class of its
    primitive direction up to sign (the negation is looked up only when the
    direction is not a key), whose eta is that of its first member, and
    records its multiplier q_i = +-gcd(row i), so q_i * eta is row i.
    """
    classes: dict[la.IntVector, list[tuple[int, int]]] = {}
    for i, row in enumerate(matrix):
        q = math.gcd(*row)
        eta = tuple([x // q for x in row]) if q != 1 else row
        if (members := classes.get(eta)) is None:
            if (members := classes.get(tuple(map(operator.neg, eta)))) is None:
                members = classes[eta] = []
            else:
                q = -q
        members.append((i, q))
    rows: list[la.IntVector] = []
    labels: list[str] = []
    merges: list[tuple] = []
    for eta, members in classes.items():
        if len(members) == 1:
            rows.append(matrix[members[0][0]])
            labels.append(names[members[0][0]])
            continue
        index, qs = zip(*members)
        merged = sum(qs)
        member_labels = tuple([names[i] for i in index])
        # the constant's sign: q^q < 0 exactly when q is odd and negative,
        # for each q and for the sum in the denominator alike
        negative = sum([q < 0 and q & 1 for q in (*qs, merged)]) & 1
        shift = tuple([e & 1 for e in eta]) if negative else (0,) * len(eta)
        merges.append((member_labels, eta, qs, shift, merged == 0))
        if merged:
            rows.append(tuple([merged * e for e in eta]))
            labels.append("+".join(member_labels))
    if len(set(labels)) < len(labels):
        repeated = next(x for x in labels if labels.count(x) > 1)
        raise InputError(f"merged labels must be distinct, repeated: {repeated}")
    if (tuple(map(sum, zip(*rows))) or (0,) * len(total)) != total:
        raise InvariantError("merging parallel classes changed the row sum")
    return rows, labels, merges
