"""Graded ideals as compatible pairs (I0, R') with I0*R1 <= R' and R1*R' <= I0.

An ideal J of the ambient ring is graded exactly when it splits as
(J intersect R0) + (J intersect R1); the pair form is the canonical
representation, a frozen record, and the flat member mask is derived from
it once, as the union of the cosets a + R' over a in I0 (``_pair_sum``).

Both compatibility conditions are bounds on R' that depend on I0 alone.
The first is I0*R1 <= R'.  The second, R1*R' <= I0, holds exactly when
every m in R' has m*R1 <= I0, that is when R' lies in the colon
(I0 : R1) intersect R1.  So (I0, R') is compatible exactly when
I0*R1 <= R' <= (I0 : R1) intersect R1.  The two bounds and the ambient
codes of I0 are formed once per even ideal (``grading._pair_bounds``, on
additive generators), and a pair costs two subset tests on member masks;
no submodule's generators are grown and no even ideal is embedded again.
Only when a test fails is a product escaping its target looked up, by a
scan over all pairs.

Gradedness is decided by counting: for an ideal J, A = J intersect R0 and
B = J intersect R1 give A + B <= J, and A + B has exactly |A| * |B| elements
because R0 intersect R1 = 0 (a + b determines a and b); so J is graded,
J = A + B, iff |A| * |B| = |J|.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import or_

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
    _additive_generators,
    _codes,
    _is_stable_mask,
    _mask,
    _mask_key,
    _members,
    _memo,
    _same_ring,
    _translator,
    as_code,
    canonical_key,
    enumerate_ideals,
)


@dataclass(frozen=True)
class GradedIdeal:
    """A compatible pair (even-part ideal, odd-part submodule) with the
    member mask ``flat_mask`` of its flat set I0 + R', derived from the
    pair; ``flat_members`` decodes it on each read.  Two graded ideals are
    equal when they live in the identical graded ring and have the same
    flat set.

    Only compatibility is checked here; that I0 + R' is then an ideal is
    checked by the verify record ``ideals.pair-enumeration-oracle``."""

    graded_ring: GradedRing
    i0: Ideal = field(compare=False)
    r_part: Submodule = field(compare=False)
    flat_mask: int = field(init=False)

    def __post_init__(self):
        g, odd = self.graded_ring, self.r_part.mask
        i0_ambient, low, high = _pair_bounds(g, self.i0)
        if self.r_part.graded_ring is not g:
            raise InvalidInputError("submodule belongs to a different graded ring")
        if low & ~odd:
            _escape(g, "I0*R1 escapes the odd part", i0_ambient, g.r1_mask, odd)
        if odd & ~high:
            _escape(g, "R1*R' escapes the even part", g.r1_mask, odd, i0_ambient)
        object.__setattr__(self, "flat_mask", _pair_sum(g, i0_ambient, odd))

    @property
    def flat_members(self) -> frozenset:
        return _members(self.graded_ring.ring, self.flat_mask)

    def __contains__(self, value) -> bool:
        return bool(self.flat_mask >> as_code(self.graded_ring.ring, value) & 1)

    @property
    def is_proper(self) -> bool:
        return self.i0.is_proper

    def key(self):
        return canonical_key(self.flat_members)

    def label(self) -> str:
        return f"{self.i0.label()} + {self.r_part.label()}"

    def __repr__(self):
        return f"GradedIdeal[{self.label()}] of {self.graded_ring.provenance}"


def _pair_sum(g: GradedRing, even: int, odd: int) -> int:
    """The mask of the flat set even + odd, for member masks of ambient
    codes: the union of the translates of odd by each a in even."""
    shift = _translator(g.ring)
    return reduce(or_, (shift(odd, a) for a in _codes(even)), 0)


def _escape(g: GradedRing, what: str, left: int, right: int, target: int):
    """Raise with the first product a*b, a in left and b in right in code
    order, that lies outside the target (all three member masks)."""
    mul, names = g.ring.mul, g.ring.names
    a, b = next((a, b) for a in _codes(left) for b in _codes(right)
                if not target >> mul[a][b] & 1)
    raise InvalidInputError(f"{what}: {names[a]} * {names[b]} = {names[mul[a][b]]}")


def is_graded_ideal(g: GradedRing, members) -> bool:
    """Does this ideal of the ambient ring split along the grading?"""
    return _splits(g, _as_ideal_mask(g, members))


def _splits(g: GradedRing, mask: int) -> bool:
    """Gradedness of an ideal's member mask, by counting (module docstring)."""
    return (mask & g.r0_mask).bit_count() * (mask & g.r1_mask).bit_count() == mask.bit_count()


def decompose_graded(g: GradedRing, members) -> GradedIdeal:
    """Split a graded ideal of the ambient ring into its canonical pair; that
    its odd part is a submodule is checked by
    ``ideals.pair-decomposition-roundtrip``."""
    return _split_pair(g, _as_ideal_mask(g, members))


def decompose_mask(g: GradedRing, mask: int) -> GradedIdeal:
    """``decompose_graded`` for a member mask of ambient codes: the same
    ideal and split tests without the ``as_code`` pass.  The pair is a pure
    function of the set, so it is memoized per graded ring."""
    return _memo(g, ("decomposition", mask), lambda: _split_pair(g, _ideal_mask(g, mask)))


def _ideal_mask(g: GradedRing, mask: int) -> int:
    """``mask``, once it is known to be an ideal of the ambient ring."""
    if not _is_stable_mask(g.ring, _additive_generators(g.ring), mask):
        raise InvalidInputError("member set is not an ideal of the ambient ring")
    return mask


def _split_pair(g: GradedRing, mask: int) -> GradedIdeal:
    if not _splits(g, mask):
        raise InvalidInputError(
            "ideal is not graded: it does not split along the decomposition")
    return GradedIdeal(g, g._restrict_mask(mask & g.r0_mask),
                       Submodule._of(g, mask & g.r1_mask))


def _as_ideal_mask(g: GradedRing, members) -> int:
    if isinstance(members, GradedIdeal):
        return members.flat_mask
    if isinstance(members, Ideal):
        _same_ring(g.ring, members.ring)
        return members.mask
    return _ideal_mask(g, _mask(as_code(g.ring, x) for x in members))


def graded_ideal_from_ideal(g: GradedRing, i: Ideal) -> GradedIdeal:
    """The graded ideal (I, I*R1) attached to an even-part ideal."""
    return GradedIdeal(g, i, Submodule._of(g, _pair_bounds(g, i)[1]))


def graded_ideal_from_submodule(g: GradedRing, rp: Submodule) -> GradedIdeal:
    """The graded ideal ((R' : R1), R') attached to an odd-part submodule."""
    return GradedIdeal(g, residual(g, rp), rp)


def enumerate_graded_ideals(g: GradedRing, bound: int | None = None) -> tuple[GradedIdeal, ...]:
    """All graded ideals, by filtering even-ideal x submodule pairs.

    The compatibility conditions make the pair scan complete; the definitional
    filter over flat ideals is kept separately as the oracle
    (see ``is_graded_ideal``).  Each even ideal's two bounds are formed
    once, so a pair costs two subset tests on masks (module docstring).
    """
    even_ideals = enumerate_ideals(g.r0_ring, bound)
    subs = submodules(g, bound)

    def compute():
        evens = [(i0, _pair_bounds(g, i0)) for i0 in even_ideals]
        result = []
        for rp in subs:
            odd = rp.mask
            for i0, (_, low, high) in evens:
                if not low & ~odd and not odd & ~high:
                    result.append(GradedIdeal(g, i0, rp))
        key = _mask_key(g.ring)
        return tuple(sorted(result, key=lambda j: key(j.flat_mask)))
    return _memo(g, "graded_ideals", compute)

