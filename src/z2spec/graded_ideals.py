"""Graded ideals as compatible pairs (I0, R') with I0*R1 <= R' and R1*R' <= I0.

An ideal J of the ambient ring is graded exactly when it splits as
(J intersect R0) + (J intersect R1).  So a graded ideal is stored as its
flat member mask (``rings._StableSubgroup``), and its pair (I0, R') is the
split of that mask by R0 and R1, formed on each read; a pair gives the
mask once, as the union of the cosets a + R' over a in I0 (``_pair_sum``).

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

from dataclasses import dataclass
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
    _StableSubgroup,
    _additive_generators,
    _codes,
    _ideal_family,
    _is_stable_mask,
    _mask,
    _mask_key,
    _memo,
    _same_ring,
    _translator,
    as_code,
    enumerate_ideals,
)


@dataclass(frozen=True, repr=False, init=False)
class GradedIdeal(_StableSubgroup):
    """A graded ideal J as the member mask of its flat set, an ideal of the
    ambient ring, split by ``i0`` and ``r_part`` (module docstring); equal
    when in the identical graded ring with the same flat set.  Built from a
    pair, only compatibility is checked; that I0 + R' is then an ideal is
    checked by the verify record ``ideals.pair-enumeration-oracle``."""

    __slots__ = ("graded_ring", "mask")
    _OWNER = "graded_ring"
    graded_ring: GradedRing
    mask: int
    flat_members = _StableSubgroup.members

    def __init__(self, graded_ring: GradedRing, i0: Ideal, r_part: Submodule):
        g, odd = graded_ring, r_part.mask
        i0_ambient, low, high = _pair_bounds(g, i0)
        _same_ring(g, r_part.graded_ring)
        if low & ~odd:
            _escape(g, "I0*R1 escapes the odd part", i0_ambient, g.r1_mask, odd)
        if odd & ~high:
            _escape(g, "R1*R' escapes the even part", g.r1_mask, odd, i0_ambient)
        object.__setattr__(self, "graded_ring", g)
        object.__setattr__(self, "mask", _pair_sum(g, i0_ambient, odd))

    def _family(self) -> tuple:  # the ambient ring's ideals, so no Submodule witness
        return _ideal_family(self.graded_ring.ring)

    @property
    def i0(self) -> Ideal:
        return self.graded_ring._restrict_mask(self.mask & self.graded_ring.r0_mask)

    @property
    def r_part(self) -> Submodule:
        return Submodule._of(self.graded_ring, self.mask & self.graded_ring.r1_mask)

    @property
    def is_proper(self) -> bool:
        return not self.mask >> self.graded_ring.ring.one & 1

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
    """An ideal of the ambient ring that splits, as a graded ideal.  Only the
    input is checked: that it is an ideal and that it splits.  The halves of
    a split ideal are always a compatible pair, the theorem that
    ``ideals.pair-enumeration-oracle`` checks."""
    mask = _as_ideal_mask(g, members)
    if not _splits(g, mask):
        raise InvalidInputError(
            "ideal is not graded: it does not split along the decomposition")
    return GradedIdeal._of(g, mask)


def _as_ideal_mask(g: GradedRing, members) -> int:
    if isinstance(members, (GradedIdeal, Ideal)):  # of g's ring, in any grading
        _same_ring(g.ring, members._family()[1])
        return members.mask
    mask = _mask(as_code(g.ring, x) for x in members)
    if not _is_stable_mask(g.ring, _additive_generators(g.ring), mask):
        raise InvalidInputError("member set is not an ideal of the ambient ring")
    return mask


def graded_ideal_from_ideal(g: GradedRing, i: Ideal) -> GradedIdeal:
    """The graded ideal (I, I*R1) attached to an even-part ideal, summed
    unchecked: ``ideals.even-ideal-closure`` checks it."""
    return GradedIdeal._of(g, _pair_sum(g, *_pair_bounds(g, i)[:2]))


def graded_ideal_from_submodule(g: GradedRing, rp: Submodule) -> GradedIdeal:
    """The graded ideal ((R' : R1), R') attached to an odd-part submodule,
    summed unchecked: ``ideals.submodule-closure`` checks it."""
    return GradedIdeal._of(g, _pair_sum(g, _pair_bounds(g, residual(g, rp))[0], rp.mask))


def enumerate_graded_ideals(g: GradedRing, bound: int | None = None) -> tuple[GradedIdeal, ...]:
    """All graded ideals, by filtering even-ideal x submodule pairs on the
    two bounds of each even ideal (module docstring); the definitional filter
    over flat ideals is the oracle (``is_graded_ideal``)."""
    even_ideals = enumerate_ideals(g.r0_ring, bound)
    subs = submodules(g, bound)

    def compute():
        evens = [_pair_bounds(g, i0) for i0 in even_ideals]
        flats = [_pair_sum(g, ambient, rp.mask) for rp in subs
                 for ambient, low, high in evens if not low & ~rp.mask and not rp.mask & ~high]
        return tuple(GradedIdeal._of(g, mask) for mask in sorted(flats, key=_mask_key(g.ring)))
    return _memo(g, "graded_ideals", compute)
