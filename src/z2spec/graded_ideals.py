"""Graded ideals as compatible pairs (I0, R') with I0*R1 <= R' and R1*R' <= I0.

An ideal J of the ambient ring is graded exactly when it splits as
(J intersect R0) + (J intersect R1); the pair form is the canonical
representation and the flat member set is derived from it.

Both compatibility conditions are decided on additive generators: I0, R1
and R' are additive groups and multiplication is biadditive, so I0*R1 <= R'
iff gens(I0)*gens(R1) <= R', and R1*R' <= I0 iff gens(R1)*gens(R') <= I0.
A violation found this way is a genuine product escaping its target.

Gradedness is decided by counting: for an ideal J, A = J intersect R0 and
B = J intersect R1 give A + B <= J, and A + B has exactly |A| * |B| elements
because R0 intersect R1 = 0 (a + b determines a and b); so J is graded,
J = A + B, iff |A| * |B| = |J|.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidInputError, NotStronglyGradedError
from .grading import (
    GradedRing,
    Submodule,
    _r1_generators,
    is_strongly_graded,
    residual,
    submodules,
)
from .rings import (
    Ideal,
    _memo,
    _same_ring,
    _subgroup_generators,
    additive_closure,
    as_code,
    enumerate_ideals,
    is_ideal_set,
)


class GradedIdeal:
    """A compatible pair (even-part ideal, odd-part submodule).

    Only compatibility is checked here; that I0 + R' is then an ideal is
    checked by the verify record ``ideals.pair-enumeration-oracle``."""

    def __init__(self, graded_ring: GradedRing, i0: Ideal, r_part: Submodule):
        _same_ring(graded_ring.r0_ring, i0.ring)
        if r_part.graded_ring is not graded_ring:
            raise InvalidInputError("submodule belongs to a different graded ring")
        self.graded_ring = graded_ring
        self.i0 = i0
        self.r_part = r_part
        g = graded_ring
        add, mul, names = g.ring.add, g.ring.mul, g.ring.names
        i0_ambient = g.embed_ideal(i0)
        odd = frozenset(r_part.members)
        cosets = [map(add[a].__getitem__, odd) for a in i0_ambient if a != g.ring.zero]
        self.flat_members = odd.union(*cosets) if cosets else odd  # I0 = 0 shares R'
        r1_gens = _r1_generators(g)
        for a in _subgroup_generators(add, g.ring.zero, i0_ambient):
            row = mul[a]
            for x in r1_gens:
                if row[x] not in odd:
                    raise InvalidInputError(
                        f"I0*R1 escapes the odd part: {names[a]} *"
                        f" {names[x]} = {names[row[x]]}")
        for y in _subgroup_generators(add, g.ring.zero, odd):
            for x in r1_gens:
                if mul[x][y] not in i0_ambient:
                    raise InvalidInputError(
                        f"R1*R' escapes the even part: {names[x]} *"
                        f" {names[y]} = {names[mul[x][y]]}")

    def __eq__(self, other):
        if not isinstance(other, GradedIdeal):
            return NotImplemented
        return (self.graded_ring is other.graded_ring
                and self.flat_members == other.flat_members)

    def __hash__(self):
        return hash((id(self.graded_ring), self.flat_members))

    def __contains__(self, value) -> bool:
        return as_code(self.graded_ring.ring, value) in self.flat_members

    @property
    def is_proper(self) -> bool:
        return self.i0.is_proper

    def key(self):
        return (len(self.flat_members), tuple(sorted(self.flat_members)))

    def label(self) -> str:
        return f"{self.i0.label()} + {self.r_part.label()}"

    def __repr__(self):
        return f"GradedIdeal[{self.label()}] of {self.graded_ring.provenance}"


def is_graded_ideal(g: GradedRing, members) -> bool:
    """Does this ideal of the ambient ring split along the grading?"""
    return _splits(g, _as_ideal_members(g, members))


def _splits(g: GradedRing, mset: frozenset) -> bool:
    """Gradedness of an ideal's member set, by counting (module docstring)."""
    return len(mset & g.r0) * len(mset & g.r1) == len(mset)


def decompose_graded(g: GradedRing, members) -> GradedIdeal:
    """Split a graded ideal of the ambient ring into its canonical pair; that
    its odd part is a submodule is checked by
    ``ideals.pair-decomposition-roundtrip``."""
    return _split_pair(g, _as_ideal_members(g, members))


def decompose_codes(g: GradedRing, mset: frozenset) -> GradedIdeal:
    """``decompose_graded`` for a frozenset of ambient codes: the same ideal
    and split tests without the ``as_code`` pass.  The pair is a pure
    function of the set, so it is memoized per graded ring."""
    def compute():
        if not is_ideal_set(g.ring, mset):
            raise InvalidInputError("member set is not an ideal of the ambient ring")
        return _split_pair(g, mset)
    return _memo(g, ("decomposition", mset), compute)


def _split_pair(g: GradedRing, mset: frozenset) -> GradedIdeal:
    if not _splits(g, mset):
        raise InvalidInputError(
            "ideal is not graded: it does not split along the decomposition")
    return GradedIdeal(g, g.restrict_ideal(mset & g.r0), Submodule(g, mset & g.r1))


def _as_ideal_members(g: GradedRing, members) -> frozenset:
    if isinstance(members, GradedIdeal):
        return members.flat_members
    if isinstance(members, Ideal):
        _same_ring(g.ring, members.ring)
        return members.members
    mset = frozenset(as_code(g.ring, x) for x in members)
    if not is_ideal_set(g.ring, mset):
        raise InvalidInputError("member set is not an ideal of the ambient ring")
    return mset


def graded_ideal_from_ideal(g: GradedRing, i: Ideal) -> GradedIdeal:
    """The graded ideal (I, I*R1) attached to an even-part ideal."""
    _same_ring(g.r0_ring, i.ring)
    mul = g.ring.mul
    products = {mul[a][x]
                for a in _subgroup_generators(g.ring.add, g.ring.zero, g.embed_ideal(i))
                for x in _r1_generators(g)}
    r_part = Submodule(g, additive_closure(g.ring, products))
    return GradedIdeal(g, i, r_part)


def graded_ideal_from_submodule(g: GradedRing, rp: Submodule) -> GradedIdeal:
    """The graded ideal ((R' : R1), R') attached to an odd-part submodule."""
    return GradedIdeal(g, residual(g, rp), rp)


def enumerate_graded_ideals(g: GradedRing, bound: int | None = None) -> tuple[GradedIdeal, ...]:
    """All graded ideals, by filtering even-ideal x submodule pairs.

    The compatibility conditions make the pair scan complete; the definitional
    filter over flat ideals is kept separately as the oracle
    (see ``is_graded_ideal``).  Each side's generator products are formed
    once, so a pair costs two subset tests (module docstring).
    """
    even_ideals = enumerate_ideals(g.r0_ring, bound)
    subs = submodules(g, bound)

    def compute():
        add, mul, zero = g.ring.add, g.ring.mul, g.ring.zero
        r1_gens = _r1_generators(g)
        evens = []
        for i0 in even_ideals:
            i0_ambient = g.embed_ideal(i0)
            products = {mul[a][x]  # I0*R1 as gens(I0) x gens(R1)
                        for a in _subgroup_generators(add, zero, i0_ambient) for x in r1_gens}
            evens.append((i0, i0_ambient, products))
        result = []
        for rp in subs:
            products = {mul[x][y]  # R1*R' as gens(R1) x gens(R')
                        for y in _subgroup_generators(add, zero, rp.members) for x in r1_gens}
            for i0, i0_ambient, needed in evens:
                if needed <= rp.members and products <= i0_ambient:
                    result.append(GradedIdeal(g, i0, rp))
        return tuple(sorted(result, key=GradedIdeal.key))
    return _memo(g, "graded_ideals", compute)


@dataclass(frozen=True)
class CorrespondenceReport:
    """Outcome of the strongly graded ideal bijection check."""

    is_bijection: bool
    ideal_count: int
    graded_ideal_count: int
    counterexample: str | None


def strongly_graded_correspondence(g: GradedRing,
                                   bound: int | None = None) -> CorrespondenceReport:
    """Verify I -> (I, I*R1) is a bijection onto the graded ideals, with
    inverse J -> J intersect R0.  Requires a strong grading."""
    if not is_strongly_graded(g):
        raise NotStronglyGradedError(
            f"{g.provenance}: odd part squared is a proper ideal")
    ideals = enumerate_ideals(g.r0_ring, bound)
    graded = enumerate_graded_ideals(g, bound)
    forward = [graded_ideal_from_ideal(g, i) for i in ideals]
    counterexample = None
    if len(set(forward)) != len(forward):
        counterexample = "two even-part ideals map to the same graded ideal"
    elif set(forward) != set(graded):
        missing = sorted(set(graded) - set(forward), key=GradedIdeal.key)
        counterexample = f"graded ideal not hit: {missing[0].label()}"
    else:
        for i, j in zip(ideals, forward):
            if j.i0 != i:
                counterexample = f"contraction does not invert on {i.label()}"
                break
    return CorrespondenceReport(counterexample is None, len(ideals),
                                len(graded), counterexample)
