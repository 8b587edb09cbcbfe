"""Weights, induced matroids, flags of flats, and the Bergman fan.

A weight w on the ground set selects the bases of maximal total weight; this
max convention is what makes the induced objects compatible with
min-convention initial forms of polynomials downstream.  The tropical set
consists of the weights whose induced matroid is loopless; it carries the
all-ones lineality direction.

A loopless weight induces a flag of flats: the strict level sets (read from
the top value down) must each be closed.  Flags index the cones of the fine
subdivision; grouping the complete flags by their induced matroid recovers
the coarse (Bergman) cones, whose rays are the indicator vectors of the
flacets.  Any weight inside the cone of a complete flag F_1 > ... > F_(d-1)
induces the bases B with |B & F_i| = r(F_i) for all i (Ardila-Klivans 2006,
Feichtner-Sturmfels 2005), the intersection of ``Matroid.bases_through(F_i)``:
the AND of the bases each flat's ``Matroid._tight`` marks.
Complete and non-splitting flags come from one walk over chains of flats,
and every flag is a subchain of a complete one.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .errors import Disconnected, LevelSetNotAFlat, NotInTropical, WrongLength
from .matroid import Flat, FlagOfFlats, Matroid

Weight = tuple[Fraction, ...]


def weight(values) -> Weight:
    return tuple(Fraction(v) for v in values)


def indicator(n: int, forms) -> Weight:
    return tuple(Fraction(1 if i in forms else 0) for i in range(n))


@dataclass(frozen=True)
class InducedMatroid:
    max_bases: frozenset[frozenset[int]]
    loops: frozenset[int]


def induced_matroid(m: Matroid, w: Weight) -> InducedMatroid:
    """Bases of maximal w-weight, and the elements lying in none of them.

    A basis B has maximal w-weight exactly when |B & S| = r(S) for each upper
    level set S = {i : w_i >= v}, v above the smallest value: the AND of the
    bases ``Matroid._tight`` marks for each S, -1 (all bases) when w is constant.
    """
    if len(w) != m.n:
        raise WrongLength("weight length must match the ground set")
    bits = -1
    for v in sorted(set(w))[1:]:
        bits &= m._tight([i for i in range(m.n) if w[i] >= v])[1]
    return InducedMatroid(max_bases=m._bases_of(bits), loops=m._uncovered(bits))


def in_tropical(m: Matroid, w: Weight) -> bool:
    return not induced_matroid(m, w).loops


def weight_to_flag(m: Matroid, w: Weight) -> FlagOfFlats:
    """The flag of flats induced by a loopless weight.

    Level sets are read from the largest value down; each strict upper level
    set must be a flat.  A loopless weight whose chain fails the flat check
    is surfaced as LevelSetNotAFlat rather than repaired.
    """
    if not in_tropical(m, w):
        raise NotInTropical("weight induces loops")
    values = sorted(set(w))
    chain = []
    for v in values[:-1]:
        forms = frozenset(i for i in range(m.n) if w[i] > v)
        flat = m.closure(forms)
        if flat.forms != forms:
            raise LevelSetNotAFlat(
                f"level set {sorted(forms)} is not closed for this weight"
            )
        chain.append(flat)
    return FlagOfFlats(tuple(chain))


def flag_cone_contains(flag: FlagOfFlats, w: Weight, strict: bool = True) -> bool:
    """Is w in the (relative interior of the) cone of this flag?

    The weight must be constant on each difference of consecutive form-sets
    and increase with depth; ``strict=False`` tests the closed cone instead.
    ``w`` needs exactly one entry per label.  A flag does not record the
    ground set, so a longer ``w`` is not detected: its extra entries join
    the outermost level, the labels in no flat of the flag.
    """
    n = len(w)
    if flag.flats and max(flag.flats[0].forms, default=-1) >= n:
        raise WrongLength(f"weight has {n} entries, fewer than the flag's labels")
    sets = [frozenset(range(n)), *flag.form_chain(), frozenset()]
    levels = [{w[i] for i in outer - inner} for outer, inner in zip(sets, sets[1:])]
    if any(len(values) != 1 for values in levels):
        return False
    values = [level.pop() for level in levels]
    return all(hi > lo if strict else hi >= lo for lo, hi in zip(values, values[1:]))


def bergman_rays(m: Matroid) -> list[tuple[Flat, Weight]]:
    """One ray per flacet: the indicator of its form-set, modulo lineality."""
    if not m.is_connected():
        raise Disconnected("Bergman rays require a connected configuration")
    return [(flat, indicator(m.n, flat.forms)) for flat in m.flacets()]


def all_flags(m: Matroid) -> list[FlagOfFlats]:
    """Every flag of proper nonzero flats, the trivial (empty) flag included.

    The lattice of flats is graded, so every chain of flats lies in a
    complete flag: the flags are the subchains of ``complete_flags``, each
    kept once, the empty flag first.
    """
    chains = dict.fromkeys(
        sub
        for flag in complete_flags(m)
        for k in range(len(flag.flats) + 1)
        for sub in itertools.combinations(flag.flats, k)
    )
    return [FlagOfFlats._linked(chain) for chain in chains]


def _links(m: Matroid, keep) -> Iterator[tuple[Flat, list[Flat]]]:
    """Each flat that reaches the corank-0 flat by links G < F passing
    ``keep(G, F)``, with the flats one corank below it that it contains,
    that pass ``keep`` and that reach it too, in ``flats()`` order; lazily,
    by corank, so a caller can stop at the first flat it wants.
    """
    levels = [m.flats_of_corank(k) for k in range(m.rank)]
    reached = {levels[0][0]}
    yield levels[0][0], []
    for lower, upper in zip(levels, levels[1:]):
        for flat in upper:
            kept = [g for g in lower if g.forms < flat.forms and g in reached and keep(g, flat)]
            if kept:
                reached.add(flat)
                yield flat, kept


def _chains(m: Matroid, below: dict[Flat, list[Flat]]) -> list[FlagOfFlats]:
    """The complete flags down the links ``below``, a dict of ``_links``.

    Chains grow from the corank r-1 flats in ``flats()`` order, so they come
    out sorted by their form-sets, and a failed link has pruned its subtree.
    """
    chains = [(flat,) for flat in m.flats_of_corank(m.rank - 1) if flat in below]
    for _ in range(m.rank - 1):
        chains = [c + (g,) for c in chains for g in below[c[-1]]]
    return [FlagOfFlats._linked(c[:-1]) for c in chains]


def complete_flags(m: Matroid) -> list[FlagOfFlats]:
    """Flags containing a flat of every corank rank-1 .. 1 (fine maximal cones).

    The walk over chains of flats with every link kept; sorted by the
    form-sets of their flats, the largest first.
    """
    return _chains(m, dict(_links(m, lambda lower, upper: True)))


@dataclass(frozen=True)
class BergmanCone:
    """A maximal cone of the coarse (Bergman) structure on the tropical set.

    ``flags`` are the complete flags whose fine cones share this induced
    matroid; ``spanning_flacets`` are the flacets whose indicator rays lie on
    the cone's boundary.
    """

    flags: tuple[FlagOfFlats, ...]
    spanning_flacets: tuple[Flat, ...]
    max_bases: frozenset[frozenset[int]]

    @property
    def ray_coranks(self) -> tuple[int, ...]:
        return tuple(sorted(f.corank for f in self.spanning_flacets))


def maximal_cones(m: Matroid) -> list[BergmanCone]:
    """Maximal Bergman cones, as groups of complete flags with one induced matroid.

    Weights interior to a fine cone of a complete flag determine the same
    set of maximal bases across the whole coarse cone, so grouping complete
    flags by that set enumerates the maximal cones exactly.  A flag's set is
    the AND of the bases ``Matroid._tight`` marks for its flats, each computed
    once; -1, every bit set, stands for all bases.
    """
    if not m.is_connected():
        raise Disconnected("Bergman cones require a connected configuration")
    flacet_list = m.flacets()
    # keyed by form-set, which names a flat and caches its hash in C
    through = {flat.forms: m._tight(flat.forms)[1] for flat in m.proper_flats()}
    groups: dict[int, list[FlagOfFlats]] = {}
    for flag in complete_flags(m):
        key = -1
        for flat in flag.flats:
            key &= through[flat.forms]
        groups.setdefault(key, []).append(flag)
    cones = []
    for bits, flags in groups.items():
        # the indicator of F lies in the closed cone of G_1 > ... > G_k exactly
        # when F is E, some G_i or empty, and a flacet is neither E nor empty
        on_flags = {flat.forms for fl in flags for flat in fl.flats}
        spanning = tuple(flat for flat in flacet_list if flat.forms in on_flags)
        cones.append(
            BergmanCone(
                flags=tuple(flags), spanning_flacets=spanning, max_bases=m._bases_of(bits)
            )
        )
    return sorted(
        cones, key=lambda c: tuple(sorted(tuple(sorted(f.forms)) for f in c.spanning_flacets))
    )
