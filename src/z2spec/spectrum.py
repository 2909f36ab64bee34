"""Graded prime ideals, the contraction map onto the spectrum of the even
part, Zariski-topology checks, the graded radical, and homogeneous dimension.

Every graded prime P is one of two shapes: either it contains the whole odd
part (then P = p + R1 with p a prime of R0 containing R1^2), or its odd part
is a prime submodule R' not containing R1^3 and its even part is the residual
(R' : R1).  The contraction P -> P intersect R0 is a bijection onto Spec R0,
and a homeomorphism for the Zariski topologies.  Each fact is checked
exhaustively, once, by a named record of ``z2spec.verify``, not here.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from functools import reduce

from .errors import InvalidInputError
from .graded_ideals import (
    GradedIdeal,
    decompose_codes,
    enumerate_graded_ideals,
)
from .grading import (
    GradedRing,
    Submodule,
    r1_squared,
    residual,
)
from .rings import (
    Ideal,
    _memo,
    _same_ring,
    prime_violation,
    radical,
    radical_members,
    spec,
)


class PrimeKind(enum.Enum):
    """The two shapes of a graded prime."""

    FULL_ODD_PART = "full-odd-part"        # R1 <= P, even part contains R1^2
    PRIME_SUBMODULE = "prime-submodule"    # odd part prime, R1^3 not inside


class GradedPrime:
    """A graded prime ideal with its classification tag."""

    def __init__(self, ideal: GradedIdeal, kind: PrimeKind, p: Ideal):
        self.ideal = ideal
        self.kind = kind
        self.p = p  # contraction, an ideal of the even ring

    @property
    def flat_members(self) -> frozenset:
        return self.ideal.flat_members

    def key(self):
        return self.ideal.key()

    def label(self) -> str:
        return self.ideal.label()

    def __eq__(self, other):
        if not isinstance(other, GradedPrime):
            return NotImplemented
        return self.ideal == other.ideal

    def __hash__(self):
        return hash(self.ideal)

    def __repr__(self):
        return f"GradedPrime[{self.label()}; {self.kind.value}]"


def homogeneous_prime_violation(g: GradedRing, flat: frozenset) -> tuple | None:
    """First homogeneous pair (r, s) with rs inside but r, s outside."""
    mul = g.ring.mul
    outside = [c for c in g.homogeneous_codes() if c not in flat]
    for i, r in enumerate(outside):
        row = mul[r]
        for s in outside[i:]:
            if row[s] in flat:
                return (r, s)
    return None


def is_graded_prime(g: GradedRing, j: GradedIdeal) -> bool:
    """Definitional test: proper, and homogeneous rs in J forces r or s in J."""
    if j.graded_ring is not g:
        raise InvalidInputError("graded ideal belongs to a different graded ring")
    return j.is_proper and homogeneous_prime_violation(g, j.flat_members) is None


def is_prime_submodule(g: GradedRing, rp: Submodule) -> bool:
    """Proper submodule N with a*m in N forcing a in (N : R1) or m in N."""
    if rp.graded_ring is not g:
        raise InvalidInputError("submodule belongs to a different graded ring")
    if not rp.is_proper:
        return False
    res = g.embed_ideal(residual(g, rp))
    mul = g.ring.mul
    for a in g.r0:
        if a in res:
            continue
        row = mul[a]
        for m in g.r1:
            if m not in rp.members and row[m] in rp.members:
                return False
    return True


def classify_graded_prime(g: GradedRing, q: GradedIdeal) -> GradedPrime:
    """Tag a graded prime with its structural shape: full odd part when
    R1 <= q, prime submodule otherwise.  The conditions of each shape
    (module docstring) are checked by ``spectrum.classification-valid``."""
    if not is_graded_prime(g, q):
        raise InvalidInputError(f"{q.label()} is not a graded prime ideal")
    kind = (PrimeKind.FULL_ODD_PART if g.r1 <= q.flat_members
            else PrimeKind.PRIME_SUBMODULE)
    return GradedPrime(q, kind, q.i0)


def phi(g: GradedRing, gp: GradedPrime) -> Ideal:
    """Contraction to the even part; always a prime ideal of it."""
    if gp.ideal.graded_ring is not g:
        raise InvalidInputError("graded prime belongs to a different graded ring")
    return gp.p


def phi_inverse(g: GradedRing, p: Ideal) -> GradedPrime:
    """The unique graded prime contracting to p: its odd part is
    {x in R1 : x*R1 <= p}, all of R1 when R1^2 <= p."""
    _same_ring(g.r0_ring, p.ring)
    if not p.is_proper or prime_violation(g.r0_ring, p.members) is not None:
        raise InvalidInputError(f"{p.label()} is not a prime ideal of the even part")
    p_ambient = g.embed_ideal(p)
    mul = g.ring.mul
    odd = frozenset(x for x in g.r1 if all(mul[x][y] in p_ambient for y in g.r1))
    return classify_graded_prime(g, GradedIdeal(g, p, Submodule(g, odd)))


@dataclass(frozen=True)
class TopologyCheck:
    name: str
    passed: bool
    witness: str | None
    elapsed: float  # seconds spent on this check alone


@dataclass(frozen=True)
class SpectrumReport:
    """Graded spectrum with its pairing onto the even-part spectrum."""

    method: str
    graded_points: tuple
    base_points: tuple
    phi_pairs: tuple  # (GradedPrime, Ideal) pairs
    topology_checks: tuple = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.topology_checks)


def graded_spec(g: GradedRing, method: str = "definitional",
                bound: int | None = None) -> SpectrumReport:
    """The graded spectrum, computed definitionally (filter all graded ideals
    by the homogeneous pair test) or constructively (pull every prime of the
    even part back through the contraction)."""
    if method not in ("definitional", "constructive"):
        raise InvalidInputError(f"unknown spectrum method: {method!r}")
    graded = enumerate_graded_ideals(g, bound) if method == "definitional" else ()
    base = spec(g.r0_ring, bound)

    def compute():
        if method == "definitional":
            points = [classify_graded_prime(g, j) for j in graded if is_graded_prime(g, j)]
        else:
            points = [phi_inverse(g, p) for p in base]
        return tuple(sorted(points, key=GradedPrime.key))
    points = _memo(g, ("graded_spec", method), compute)
    return SpectrumReport(method, points, base, tuple((gp, gp.p) for gp in points))


def check_homeomorphism(g: GradedRing, bound: int | None = None) -> SpectrumReport:
    """Verify the contraction is a bijection and bicontinuous, exhaustively.

    Closed sets are compared through their defining elements: for every even
    a, the graded primes containing a must be exactly the pullbacks of the
    base primes containing a; for every homogeneous r, the contractions of
    the graded primes containing r must be the base primes containing r^2.

    Each check is timed on its own; the two spectrum computations are billed
    to ``methods-agree``, the check that compares them.
    """
    start = time.perf_counter()
    rep_def = graded_spec(g, "definitional", bound)
    rep_con = graded_spec(g, "constructive", bound)
    checks = []

    def record(name: str, witness: str | None) -> None:
        nonlocal start
        now = time.perf_counter()
        checks.append(TopologyCheck(name, witness is None, witness, now - start))
        start = now

    def_flats = {gp.flat_members for gp in rep_def.graded_points}
    con_flats = {gp.flat_members for gp in rep_con.graded_points}
    diff = def_flats ^ con_flats
    record("methods-agree",
           None if not diff else f"{len(diff)} points differ between methods")

    images = [gp.p.members for gp in rep_def.graded_points]
    base_sets = {p.members for p in rep_def.base_points}
    bijective = len(set(images)) == len(images) and set(images) == base_sets
    record("contraction-bijective",
           None if bijective else "contraction is not a bijection onto the base spectrum")

    roundtrip_witness = None
    for gp in rep_def.graded_points:
        p = phi(g, gp)
        if p.members not in base_sets:  # phi_inverse would reject it
            roundtrip_witness = f"phi({gp.label()}) is not a prime of the even part"
            break
        if phi_inverse(g, p).flat_members != gp.flat_members:
            roundtrip_witness = f"phi_inverse(phi({gp.label()})) differs"
            break
    if roundtrip_witness is None:
        for p in rep_def.base_points:
            if phi(g, phi_inverse(g, p)).members != p.members:
                roundtrip_witness = f"phi(phi_inverse({p.label()})) differs"
                break
    record("contraction-roundtrip", roundtrip_witness)

    pullback_witness = None
    for a in sorted(g.r0):
        direct = {gp.flat_members for gp in rep_def.graded_points
                  if a in gp.flat_members}
        via_base = {gp.flat_members for gp in rep_def.graded_points
                    if g.to_r0(a) in gp.p.members}
        if direct != via_base:
            pullback_witness = f"closed set of {g.ring.names[a]} does not pull back"
            break
    record("even-variety-pullback", pullback_witness)

    image_witness = None
    mul = g.ring.mul
    for r in g.homogeneous_codes():
        image = {gp.p.members for gp in rep_def.graded_points
                 if r in gp.flat_members}
        square = g.to_r0(mul[r][r])
        target = {p.members for p in rep_def.base_points if square in p.members}
        if image != target:
            image_witness = (f"image of the closed set of {g.ring.names[r]}"
                             f" is not the closed set of its square")
            break
    record("homogeneous-variety-image", image_witness)

    return SpectrumReport(rep_def.method, rep_def.graded_points,
                          rep_def.base_points, rep_def.phi_pairs, tuple(checks))


@dataclass(frozen=True)
class NilCaseReport:
    """Outcome of the nilpotent-square collapse check (graded primes = primes
    when R1^2 is contained in the nilradical of R0)."""

    applicable: bool
    passed: bool
    witness: str | None


def check_nil_case(g: GradedRing, bound: int | None = None) -> NilCaseReport:
    nilradical = radical_members(g.r0_ring, frozenset({g.r0_ring.zero}))
    if not r1_squared(g).members <= nilradical:
        return NilCaseReport(False, True, "odd part squared is not nilpotent")
    graded = graded_spec(g, "definitional", bound)
    graded_flats = {gp.flat_members for gp in graded.graded_points}
    flat_primes = {i.members for i in spec(g.ring, bound)}
    if graded_flats != flat_primes:
        return NilCaseReport(True, False,
                             "graded primes and flat primes differ as sets")
    stray = [gp for gp in graded.graded_points if gp.ideal.r_part.members != g.r1]
    if stray:
        return NilCaseReport(True, False,
                             f"{stray[0].label()} does not contain the odd part")
    return NilCaseReport(True, True, None)


def r1_bracket(g: GradedRing, i0: Ideal) -> Submodule:
    """{x in R1 : x^2 in I0}.

    A submodule when I0 is radical, which ``radical.three-way-agreement`` and
    ``spectrum.prime-odd-part-bracket`` check; for general I0 it is the raw
    set, and its closure is a measured observation
    (``radical.bracket-closure-observation``), not a promise.
    """
    _same_ring(g.r0_ring, i0.ring)
    i0_ambient = g.embed_ideal(i0)
    mul = g.ring.mul
    return Submodule(g, frozenset(x for x in g.r1 if mul[x][x] in i0_ambient))


def graded_radical(g: GradedRing, j: GradedIdeal, method: str = "formula",
                   bound: int | None = None) -> GradedIdeal:
    """Elements whose even and odd components both lie in the radical of J.

    definitional: split against the radical of the flat ideal in the ambient
    ring.  intersection: intersect the graded primes containing J.  formula:
    closed form sqrt(J0) + {x in R1 : x^2 in sqrt(J0)} (the bracket is taken
    against the radical of J0; taking it against J0 itself is not sound for
    non-radical J0).

    The formula reads only ``j.i0`` and is memoized by it per graded ring;
    the other two split their member sets through ``decompose_codes``, which
    is memoized per set.  Each method still computes its member set itself.
    """
    if j.graded_ring is not g:
        raise InvalidInputError("graded ideal belongs to a different graded ring")
    if method == "definitional":
        rad = radical_members(g.ring, j.flat_members)
        members = frozenset(
            x for x, (even, odd) in g._decomposition.items()
            if even in rad and odd in rad
        )
        return decompose_codes(g, members)
    if method == "intersection":
        containing = [
            gp.flat_members
            for gp in graded_spec(g, "definitional", bound).graded_points
            if j.flat_members <= gp.flat_members
        ]
        if not containing:
            members = frozenset(range(g.ring.size))
        else:
            members = reduce(frozenset.__and__, containing)
        return decompose_codes(g, members)
    if method == "formula":
        def compute():
            sqrt_j0 = radical(g.r0_ring, j.i0)
            return GradedIdeal(g, sqrt_j0, r1_bracket(g, sqrt_j0))
        return _memo(g, ("formula_radical", j.i0.members), compute)
    raise InvalidInputError(f"unknown radical method: {method!r}")


def _longest_chain(sets) -> int:
    """Edge count of the longest strict inclusion chain among member sets."""
    order = sorted(sets, key=lambda s: (len(s), tuple(sorted(s))))
    best = []
    for i, current in enumerate(order):
        depth = 0
        for k in range(i):
            if order[k] < current:
                depth = max(depth, best[k] + 1)
        best.append(depth)
    return max(best, default=0)


def homogeneous_dim(g: GradedRing, bound: int | None = None) -> tuple[int, int]:
    """(longest graded-prime chain, longest base-prime chain); always equal,
    which ``spectrum.dimension-matches-base`` checks."""
    graded = [gp.flat_members for gp in
              graded_spec(g, "definitional", bound).graded_points]
    base = [p.members for p in spec(g.r0_ring, bound)]
    return _longest_chain(graded), _longest_chain(base)
