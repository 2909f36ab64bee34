"""Graded prime ideals, the contraction map onto the spectrum of the even
part, the graded radical, and homogeneous dimension.

Every graded prime P is one of two shapes: either it contains the whole odd
part (then P = p + R1 with p a prime of R0 containing R1^2), or its odd part
is a prime submodule R' not containing R1^3 and its even part is the residual
(R' : R1).  The contraction P -> P intersect R0 is a bijection onto Spec R0,
and a homeomorphism for the Zariski topologies.  Each fact is checked
exhaustively, once, by a named record of ``z2spec.verify``, not here.
"""

from __future__ import annotations

import enum
from functools import reduce
from operator import and_

from .errors import InvalidInputError
from .graded_ideals import (
    GradedIdeal,
    _pair_sum,
    enumerate_graded_ideals,
)
from .grading import (
    GradedRing,
    Submodule,
    _pair_bounds,
    _r1_colon,
)
from .rings import (
    Ideal,
    _Record,
    _mask,
    _mask_key,
    _memo,
    _no_pair_inside,
    _same_ring,
    _unit_mask,
    radical,
    radical_members,
    spec,
)


class PrimeKind(enum.Enum):
    """The two shapes of a graded prime."""

    FULL_ODD_PART = "full-odd-part"        # R1 <= P, even part contains R1^2
    PRIME_SUBMODULE = "prime-submodule"    # odd part prime, R1^3 not inside


class GradedPrime(_Record):
    """A graded prime ideal; its shape and its contraction p to the even ring
    are read off the ideal, and two primes are equal when their ideals are."""

    __slots__ = ("ideal",)
    ideal: GradedIdeal

    def __init__(self, ideal: GradedIdeal):
        object.__setattr__(self, "ideal", ideal)

    def __eq__(self, other):
        return self.ideal == other.ideal if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash((self.ideal,))

    @property
    def kind(self) -> PrimeKind:
        """Full odd part when R1 <= P, else prime submodule (module docstring)."""
        g = self.ideal.graded_ring
        return (PrimeKind.PRIME_SUBMODULE if g.r1_mask & ~self.ideal.mask
                else PrimeKind.FULL_ODD_PART)

    @property
    def p(self) -> Ideal:
        return self.ideal.i0

    @property
    def flat_members(self) -> frozenset:
        return self.ideal.flat_members

    def key(self):
        return self.ideal.key()

    def label(self) -> str:
        return self.ideal.label()

    def __repr__(self):
        return f"GradedPrime[{self.label()}; {self.kind.value}]"


def is_graded_prime(g: GradedRing, j: GradedIdeal) -> bool:
    """Definitional test: proper, and homogeneous rs in J forces r or s in J."""
    _same_ring(g, j.graded_ring)
    return j.is_proper and _no_pair_inside(g.ring, g.homogeneous_codes(), j.mask)


def is_prime_submodule(g: GradedRing, rp: Submodule) -> bool:
    """Proper submodule N with a*m in N forcing a in (N : R1) or m in N."""
    _same_ring(g, rp.graded_ring)
    if not rp.is_proper:
        return False
    inside, mul = rp.mask, g.ring.mul
    outside = [m for m in g.r1 if not inside >> m & 1]
    # a unit a of R0 with a*m in N puts m = a^-1 a m in N (``rings``, "Units")
    skip = _r1_colon(g, g.r0, inside) | _unit_mask(g.ring)
    return not any(inside >> mul[a][m] & 1
                   for a in g.r0 if not skip >> a & 1 for m in outside)


def classify_graded_prime(g: GradedRing, q: GradedIdeal) -> GradedPrime:
    """A graded prime with its structural shape (``GradedPrime.kind``)."""
    if not is_graded_prime(g, q):
        raise InvalidInputError(f"{q.label()} is not a graded prime ideal")
    return GradedPrime(q)


def phi(g: GradedRing, gp: GradedPrime) -> Ideal:
    """Contraction to the even part; always a prime ideal of it."""
    _same_ring(g, gp.ideal.graded_ring)
    return gp.p


def phi_inverse(g: GradedRing, p: Ideal) -> GradedPrime:
    """The unique graded prime contracting to p: its odd part is
    {x in R1 : x*R1 <= p}, all of R1 when R1^2 <= p.  Only p is checked;
    that the result is a graded prime is the theorem that
    ``spectrum.methods-agree`` checks."""
    _same_ring(g.r0_ring, p.ring)
    r0 = g.r0_ring
    if not p.is_proper or not _no_pair_inside(r0, range(r0.size), p.mask):
        raise InvalidInputError(f"{p.label()} is not a prime ideal of the even part")
    ambient, _, fiber = _pair_bounds(g, p)
    return GradedPrime(GradedIdeal._of(g, _pair_sum(g, ambient, fiber)))


class SpectrumReport(_Record):
    """The graded spectrum with the spectrum of the even part."""

    graded_points: tuple
    base_points: tuple


def graded_spec(g: GradedRing, method: str = "definitional",
                bound: int | None = None) -> SpectrumReport:
    """The graded spectrum, computed definitionally (filter all graded ideals
    by the homogeneous pair test) or constructively (pull every prime of the
    even part back through the contraction).

    The CLI prints the constructive spectrum, which builds no lattice: it
    needs only Spec R0, found from the idempotents of R0 (``rings.spec``).
    The definitional one is the oracle of the verify record
    ``spectrum.methods-agree``."""
    if method not in ("definitional", "constructive"):
        raise InvalidInputError(f"unknown spectrum method: {method!r}")
    graded = enumerate_graded_ideals(g, bound) if method == "definitional" else ()
    base = spec(g.r0_ring, bound)

    def compute():
        if method == "definitional":
            points = [GradedPrime(j) for j in graded if is_graded_prime(g, j)]
        else:
            points = [phi_inverse(g, p) for p in base]
        key = _mask_key(g.ring)
        return tuple(sorted(points, key=lambda gp: key(gp.ideal.mask)))
    return SpectrumReport(_memo(g, ("graded_spec", method), compute), base)


def r1_bracket(g: GradedRing, i0: Ideal) -> Submodule:
    """{x in R1 : x^2 in I0}.

    A submodule when I0 is radical, which ``radical.three-way-agreement`` and
    ``spectrum.prime-odd-part-bracket`` check; for general I0 it is the raw
    set, and its closure is a measured observation
    (``radical.bracket-closure-observation``), not a promise.
    """
    i0_ambient, mul = g._embed_mask(i0), g.ring.mul
    return Submodule._of(g, _mask(x for x in g.r1 if i0_ambient >> mul[x][x] & 1))


def graded_radical(g: GradedRing, j: GradedIdeal, method: str = "formula",
                   bound: int | None = None) -> GradedIdeal:
    """Elements whose even and odd components both lie in the radical of J.

    definitional: the pair sum of rad intersect R0 and rad intersect R1, rad
    the radical of the flat ideal in the ambient ring; as R0 intersect R1 = 0,
    these are the elements whose two components lie in rad.  intersection:
    intersect the graded primes containing J.  formula: closed form
    sqrt(J0) + {x in R1 : x^2 in sqrt(J0)} (the bracket is taken against the
    radical of J0; taking it against J0 itself is not sound for non-radical
    J0).

    The formula reads only ``j.i0``, is memoized by it per graded ring and
    is built as a checked pair; the other two return the mask they compute,
    unchecked: ``radical.three-way-agreement`` compares all three.
    """
    _same_ring(g, j.graded_ring)
    if method == "definitional":
        rad = radical_members(g.ring, j.mask)
        return GradedIdeal._of(g, _pair_sum(g, rad & g.r0_mask, rad & g.r1_mask))
    if method == "intersection":
        enumerate_graded_ideals(g, bound)  # the bound first ("Caches" in ``rings``)
        flats = _memo(g, "graded_prime_masks", lambda: tuple(
            gp.ideal.mask for gp in graded_spec(g, "definitional", bound).graded_points))
        return GradedIdeal._of(g, reduce(
            and_, (flat for flat in flats if not j.mask & ~flat), (1 << g.ring.size) - 1))
    if method == "formula":
        def compute():
            sqrt_j0 = radical(g.r0_ring, j.i0)
            return GradedIdeal(g, sqrt_j0, r1_bracket(g, sqrt_j0))
        return _memo(g, ("formula_radical", j.mask & g.r0_mask), compute)
    raise InvalidInputError(f"unknown radical method: {method!r}")


def _longest_chain(masks) -> int:
    """Edge count of the longest strict inclusion chain among member masks;
    a strict subset has fewer members, so sorting by size puts it first."""
    order = sorted(masks, key=int.bit_count)
    best = []
    for i, current in enumerate(order):
        depth = 0
        for k in range(i):
            if order[k] != current and not order[k] & ~current:
                depth = max(depth, best[k] + 1)
        best.append(depth)
    return max(best, default=0)


def homogeneous_dim(g: GradedRing, bound: int | None = None) -> tuple[int, int]:
    """(longest graded-prime chain, longest base-prime chain); always equal,
    which ``spectrum.dimension-matches-base`` checks."""
    graded = [gp.ideal.mask for gp in graded_spec(g, "definitional", bound).graded_points]
    base = [p.mask for p in spec(g.r0_ring, bound)]
    return _longest_chain(graded), _longest_chain(base)
