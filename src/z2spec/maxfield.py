"""Graded maximal ideals, graded local/domain/field predicates, the quadratic
presentation of graded fields, and the even-part norm.

The norm of x = x0 + x1 is N(x) = x0^2 - x1^2, a degree-0 element; it is
multiplicative, and the ambient ring is an integral domain exactly when it is
a graded domain and N vanishes only at 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .errors import InvalidInputError, NotGradedFieldError
from .graded_ideals import (
    GradedIdeal,
    enumerate_graded_ideals,
    graded_ideal_from_ideal,
)
from .grading import (
    GradedRing,
    Submodule,
    _require,
    cyclic_span,
    quadratic_extension,
    r1_cubed,
    r1_squared,
    residual,
)
from .rings import (
    RingElement,
    _mask_key,
    _memo,
    _no_pair_inside,
    _same_ring,
    as_code,
    is_field,
    maximal_sets,
    spec,
)
from .spectrum import is_prime_submodule


def is_graded_maximal(g: GradedRing, j: GradedIdeal,
                      bound: int | None = None) -> bool:
    """Proper, with no graded ideal strictly between it and the whole ring
    (a lookup in the cached ``graded_max``)."""
    _same_ring(g, j.graded_ring)
    return j in _graded_max_cached(g, "definitional", bound)


def graded_max(g: GradedRing, method: str = "definitional",
               bound: int | None = None) -> list[GradedIdeal]:
    """Graded maximal ideals, definitionally or by the two-branch recipe
    over Spec R0 (every prime of R0 is maximal): (p, R1) for p containing
    R1^2, else (p, p*R1)."""
    return list(_graded_max_cached(g, method, bound))


def _graded_max_cached(g: GradedRing, method: str, bound) -> tuple:
    """``graded_max`` as a tuple, computed once per graded ring and method."""
    if method == "definitional":
        graded = enumerate_graded_ideals(g, bound)

        def compute():
            top = maximal_sets(j.mask for j in graded if j.is_proper)
            return [j for j in graded if j.mask in top]
    elif method == "constructive":
        base_max = spec(g.r0_ring, bound)

        def compute():
            sq = r1_squared(g).mask
            return [graded_ideal_from_ideal(g, p) if sq & ~p.mask
                    else GradedIdeal(g, p, Submodule._of(g, g.r1_mask)) for p in base_max]
    else:
        raise InvalidInputError(f"unknown method: {method!r}")
    key = _mask_key(g.ring)
    return _memo(g, ("graded_max", method),
                 lambda: tuple(sorted(compute(), key=lambda j: key(j.mask))))


def is_graded_local(g: GradedRing, bound: int | None = None) -> bool:
    """Exactly one graded maximal ideal; agrees with R0 being local, which
    ``maximal.local-iff-base-local`` checks."""
    return len(graded_max(g, "definitional", bound)) == 1


def is_graded_domain(g: GradedRing, method: str = "definitional") -> bool:
    """No nonzero homogeneous zero divisors.

    Structurally: either the odd part vanishes and R0 is a domain, or 0 is a
    prime submodule of R1 with zero residual and R1^3 != 0.
    """
    zero = g.ring.zero
    if method == "definitional":
        return _no_pair_inside(g.ring, g.homogeneous_codes(), 1 << zero)
    if method == "structural":
        if g.r1 == {zero}:
            r0 = g.r0_ring
            return _no_pair_inside(r0, range(r0.size), 1 << r0.zero)
        zero_sub = Submodule._of(g, 1 << zero)
        return (is_prime_submodule(g, zero_sub)
                and residual(g, zero_sub).mask == 1 << g.r0_ring.zero
                and r1_cubed(g).mask != 1 << zero)
    raise InvalidInputError(f"unknown method: {method!r}")


def is_graded_field(g: GradedRing, method: str = "definitional") -> bool:
    """Every nonzero homogeneous element is invertible in the ambient ring.

    Structurally: R0 is a field and the odd part either vanishes or has a
    nonzero square.
    """
    if method == "definitional":
        return all(
            g.ring.is_unit(c)
            for c in g.homogeneous_codes() if c != g.ring.zero
        )
    if method == "structural":
        if not is_field(g.r0_ring):
            return False
        if g.r1 == {g.ring.zero}:
            return True
        return r1_squared(g).mask != 1 << g.r0_ring.zero
    raise InvalidInputError(f"unknown method: {method!r}")


@dataclass(frozen=True)
class GradedFieldPresentation:
    """R identified with R0[X]/(X^2 - alpha) by c0 + c1*b -> c0 + c1*X."""

    b: RingElement            # odd generator in the ambient ring
    alpha: RingElement        # b^2 as an element of the even ring
    target: GradedRing        # quadratic_extension(R0, alpha)
    iso_table: tuple          # ambient code -> target code


def graded_field_presentation(g: GradedRing) -> GradedFieldPresentation:
    """Reconstruct a graded field with nonzero odd part in quadratic form.

    Picks the first odd b (in code order) with b^2 != 0; such b exists and
    generates the odd part over R0.  The new variable is the first letter
    free in the element names of R0 (``quadratic_extension``).  The element
    map is verified to be a grading-preserving ring isomorphism.
    """
    if not is_graded_field(g):
        raise NotGradedFieldError(f"{g.provenance} is not a graded field")
    zero = g.ring.zero
    if g.r1 == {zero}:
        raise NotGradedFieldError(
            f"{g.provenance} has zero odd part; no quadratic presentation")
    mul, add = g.ring.mul, g.ring.add
    b = next((x for x in sorted(g.r1) if x != zero and mul[x][x] != zero), None)
    _require(b is not None, "some odd element must have a nonzero square")
    _require(cyclic_span(g, b) == g.r1, "b must generate the odd part")
    alpha_code = g.to_r0(mul[b][b])
    target = quadratic_extension(g.r0_ring, alpha_code)
    n = g.r0_ring.size
    table = [None] * g.ring.size
    for c0 in range(n):
        for c1 in range(n):
            source = add[g.from_r0(c0)][mul[g.from_r0(c1)][b]]
            _require(table[source] is None, "element map must be injective")
            table[source] = c0 + c1 * n
    iso = tuple(table)
    tadd, tmul = target.ring.add, target.ring.mul
    for x in range(g.ring.size):
        for y in range(g.ring.size):
            _require(iso[add[x][y]] == tadd[iso[x]][iso[y]], "map must preserve +")
            _require(iso[mul[x][y]] == tmul[iso[x]][iso[y]], "map must preserve *")
    _require({iso[c] for c in g.r0} == target.r0, "map must preserve degree 0")
    _require({iso[c] for c in g.r1} == target.r1, "map must preserve degree 1")
    return GradedFieldPresentation(
        RingElement(g.ring, b), RingElement(g.r0_ring, alpha_code), target, iso)


def _norm_code(g: GradedRing, code: int) -> int:
    even, odd = g.parts(code)
    mul, add, neg = g.ring.mul, g.ring.add, g.ring.neg
    return add[mul[even][even]][neg[mul[odd][odd]]]


def norm(g: GradedRing, x) -> RingElement:
    """N(x0 + x1) = x0^2 - x1^2, landing in the even part."""
    value = _norm_code(g, as_code(g.ring, x))
    _require(value in g.r0, "norm must land in the even part")
    return RingElement(g.r0_ring, g.to_r0(value))


def _norms(g: GradedRing) -> tuple:
    """N(c) for every ambient code c, computed once per graded ring."""
    return _memo(g, "norms", lambda: tuple(
        _norm_code(g, c) for c in range(g.ring.size)))


def norm_set(g: GradedRing) -> frozenset:
    """Ambient codes with vanishing norm."""
    zero = g.ring.zero
    return frozenset(c for c, value in enumerate(_norms(g)) if value == zero)


@dataclass(frozen=True)
class DomainEquivalenceReport:
    """Flat integrality vs (graded domain and trivial norm kernel)."""

    is_domain: bool
    is_graded_domain: bool
    norm_kernel_trivial: bool
    equivalence_holds: bool
    norm_multiplicative: bool
    pairs_checked: int
    witness: str | None


def domain_equivalence_check(g: GradedRing) -> DomainEquivalenceReport:
    """The report, computed once per graded ring."""
    return _memo(g, "domain_equivalence", lambda: _domain_equivalence(g))


def _domain_equivalence(g: GradedRing) -> DomainEquivalenceReport:
    ring = g.ring
    flat_domain = _no_pair_inside(ring, range(ring.size), 1 << ring.zero)
    graded_domain = is_graded_domain(g)
    kernel_trivial = norm_set(g) == {ring.zero}
    equivalence = flat_domain == (graded_domain and kernel_trivial)

    # row x: N(x*y) over all y against N(x)*N(y) over all y, the right side
    # shared by every x of the same norm; a ring has 1 != 0, so each row
    # picks at least two values and itemgetter returns a tuple
    norms = _norms(g)
    mul, size = ring.mul, ring.size
    times_norms = itemgetter(*norms)
    products = {}  # N(x) -> N(x)*N(y) over all y
    witness = None
    multiplicative = True
    pairs = size * size  # compared: the scan stops at the first failing pair
    for x, norm_x in enumerate(norms):
        expected = products.get(norm_x)
        if expected is None:
            expected = products[norm_x] = times_norms(mul[norm_x])
        found = itemgetter(*mul[x])(norms)
        if found != expected:
            y = next(y for y in range(size) if found[y] != expected[y])
            multiplicative = False
            pairs = x * size + y + 1
            witness = f"N({ring.names[x]} * {ring.names[y]}) != N*N"
            break
    if witness is None and not equivalence:
        witness = (f"domain={flat_domain}, graded domain={graded_domain},"
                   f" trivial norm kernel={kernel_trivial}")
    return DomainEquivalenceReport(
        flat_domain, graded_domain, kernel_trivial, equivalence,
        multiplicative, pairs, witness)

