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
Chains of flats are walked here alone, under one link test ``keep(G, F)``
with G one corank below F: ``_chains`` lists the complete flags whose links
all pass it (every link for ``complete_flags``, the escape test of
``discriminant`` for the non-splitting flags), and ``_climb`` finds one.
Every flag is a subchain of a complete one.
"""

from __future__ import annotations

import itertools
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


def _chains(m: Matroid, keep) -> list[FlagOfFlats]:
    """The complete flags whose links G < F all pass ``keep(G, F)``.

    Corank by corank from the corank-0 flat, ``below`` maps each flat reached
    to the reached flats one corank below it that it contains and whose link
    passes, so it doubles as the reached set.  Chains grow down those links
    from the corank r-1 flats in ``flats()`` order, so they come out sorted by
    their form-sets, and stop at corank 1, whose flats in ``below`` all link
    to the corank-0 flat; below rank 2 the one flag is the empty one.
    """
    if m.rank < 2:
        return [FlagOfFlats._linked(())]
    levels = [m.flats_of_corank(k) for k in range(m.rank)]
    below: dict[Flat, list[Flat]] = {levels[0][0]: []}
    for lower, upper in zip(levels, levels[1:]):
        for flat in upper:
            kept = [g for g in lower if g.forms < flat.forms and g in below and keep(g, flat)]
            if kept:
                below[flat] = kept
    chains = [(flat,) for flat in levels[-1] if flat in below]
    for _ in range(m.rank - 2):
        chains = [c + (g,) for c in chains for g in below[c[-1]]]
    return [FlagOfFlats._linked(c) for c in chains]


def _climb(m: Matroid, keep) -> FlagOfFlats | None:
    """A complete flag whose links all pass ``keep``, or None.  From the
    corank-0 flat, each flat F climbs its first passing cover cl(F + e), e not
    in F in increasing order; a flat whose climbs all fail is not tried again,
    as what a flat reaches does not depend on the path to it.  The lattice of
    flats is never built."""
    dead: set[Flat] = set()

    def climb(flat: Flat) -> tuple[Flat, ...] | None:
        """The flats above ``flat`` on a passing chain to corank r-1, top first."""
        if flat.corank == m.rank - 1:
            return ()
        covered = flat.forms
        for e in range(m.n):
            if e in covered:
                continue
            cover = m.closure(flat.forms | {e})
            covered |= cover.forms
            if cover not in dead and keep(flat, cover):
                chain = climb(cover)
                if chain is not None:
                    return (*chain, cover)
        dead.add(flat)
        return None

    chain = climb(m.closure(()))
    return None if chain is None else FlagOfFlats._linked(chain)


def complete_flags(m: Matroid) -> list[FlagOfFlats]:
    """Flags containing a flat of every corank rank-1 .. 1 (fine maximal cones).

    The walk over chains of flats with every link kept; sorted by the
    form-sets of their flats, the largest first.
    """
    return _chains(m, lambda lower, upper: True)


@dataclass(frozen=True)
class BergmanCone:
    """A maximal cone of the coarse (Bergman) structure on the tropical set.

    ``flags`` are the complete flags whose fine cones share this induced
    matroid; ``spanning_flacets`` are the flacets whose indicator rays lie on
    the cone's boundary; ``max_bases`` are the bases of that matroid.  A cone
    of ``maximal_cones`` keeps its matroid and the bits marking those bases,
    and builds ``max_bases`` when it is first read.
    """

    flags: tuple[FlagOfFlats, ...]
    spanning_flacets: tuple[Flat, ...]
    max_bases: frozenset[frozenset[int]]

    def __getattr__(self, name: str):
        if name != "max_bases":
            raise AttributeError(name)
        m, bits = self._marked
        bases = self.__dict__["max_bases"] = m._bases_of(bits)
        return bases

    @property
    def ray_coranks(self) -> tuple[int, ...]:
        return tuple(sorted(f.corank for f in self.spanning_flacets))


def maximal_cones(m: Matroid) -> list[BergmanCone]:
    """Maximal Bergman cones, as groups of complete flags with one induced matroid.

    Weights interior to a fine cone of a complete flag determine the same
    set of maximal bases across the whole coarse cone, so grouping complete
    flags by that set enumerates the maximal cones exactly.  A flag's set is
    the AND of the bases ``Matroid._tight`` marked for its flats when
    ``flats()`` ranked them; -1, every bit set, stands for all bases.
    """
    if not m.is_connected():
        raise Disconnected("Bergman cones require a connected configuration")
    flacet_list = m.flacets()  # ranks the flats, so m._marks holds them all
    # keyed by form-set, which names a flat and caches its hash in C
    through = {forms: bits for forms, (_, bits) in m._marks.items()}
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
        cone = object.__new__(BergmanCone)
        cone.__dict__.update(flags=tuple(flags), spanning_flacets=spanning, _marked=(m, bits))
        cones.append(cone)
    return sorted(
        cones, key=lambda c: tuple(sorted(tuple(sorted(f.forms)) for f in c.spanning_flacets))
    )
