"""Graded ideals as compatible pairs (I0, R') with I0*R1 <= R' and R1*R' <= I0.

An ideal J of the ambient ring is graded exactly when it splits as
(J intersect R0) + (J intersect R1); the pair form is the canonical
representation and the flat member set is derived from it.

Both compatibility conditions are bounds on R' that depend on I0 alone.
The first is I0*R1 <= R'.  The second, R1*R' <= I0, holds exactly when
every m in R' has m*R1 <= I0, that is when R' lies in the colon
(I0 : R1) intersect R1.  So (I0, R') is compatible exactly when
I0*R1 <= R' <= (I0 : R1) intersect R1.  The two bounds are formed once per
even ideal (``grading._pair_bounds``, on additive generators), and a pair
costs two subset tests; no submodule's generators are grown.  Only when a
test fails is a product escaping its target looked up, by a scan over all
pairs.

Gradedness is decided by counting: for an ideal J, A = J intersect R0 and
B = J intersect R1 give A + B <= J, and A + B has exactly |A| * |B| elements
because R0 intersect R1 = 0 (a + b determines a and b); so J is graded,
J = A + B, iff |A| * |B| = |J|.
"""

from __future__ import annotations

from .errors import InvalidInputError
from .grading import (
    GradedRing,
    Submodule,
    _pair_bounds,
    residual,
    submodules,
)
from .rings import (
    Ideal,
    _memo,
    _same_ring,
    as_code,
    canonical_key,
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
        add = g.ring.add
        i0_ambient = g.embed_ideal(i0)
        odd = frozenset(r_part.members)
        cosets = [map(add[a].__getitem__, odd) for a in i0_ambient if a != g.ring.zero]
        self.flat_members = odd.union(*cosets) if cosets else odd  # I0 = 0 shares R'
        low, high = _pair_bounds(g, i0_ambient)
        if not low <= odd:
            _escape(g, "I0*R1 escapes the odd part", i0_ambient, g.r1, odd)
        if not odd <= high:
            _escape(g, "R1*R' escapes the even part", g.r1, odd, i0_ambient)

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
        return canonical_key(self.flat_members)

    def label(self) -> str:
        return f"{self.i0.label()} + {self.r_part.label()}"

    def __repr__(self):
        return f"GradedIdeal[{self.label()}] of {self.graded_ring.provenance}"


def _escape(g: GradedRing, what: str, left, right, target: frozenset):
    """Raise with the first product a*b, a in left and b in right in code
    order, that lies outside the target."""
    mul, names = g.ring.mul, g.ring.names
    a, b = next((a, b) for a in sorted(left) for b in sorted(right)
                if mul[a][b] not in target)
    raise InvalidInputError(f"{what}: {names[a]} * {names[b]} = {names[mul[a][b]]}")


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
    return GradedIdeal(g, i, Submodule(g, _pair_bounds(g, g.embed_ideal(i))[0]))


def graded_ideal_from_submodule(g: GradedRing, rp: Submodule) -> GradedIdeal:
    """The graded ideal ((R' : R1), R') attached to an odd-part submodule."""
    return GradedIdeal(g, residual(g, rp), rp)


def enumerate_graded_ideals(g: GradedRing, bound: int | None = None) -> tuple[GradedIdeal, ...]:
    """All graded ideals, by filtering even-ideal x submodule pairs.

    The compatibility conditions make the pair scan complete; the definitional
    filter over flat ideals is kept separately as the oracle
    (see ``is_graded_ideal``).  Each even ideal's two bounds are formed
    once, so a pair costs two subset tests (module docstring).
    """
    even_ideals = enumerate_ideals(g.r0_ring, bound)
    subs = submodules(g, bound)

    def compute():
        evens = [(i0, _pair_bounds(g, g.embed_ideal(i0))) for i0 in even_ideals]
        result = []
        for rp in subs:
            for i0, (low, high) in evens:
                if low <= rp.members <= high:
                    result.append(GradedIdeal(g, i0, rp))
        return tuple(sorted(result, key=GradedIdeal.key))
    return _memo(g, "graded_ideals", compute)

