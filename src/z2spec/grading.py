"""Parity gradings of finite rings: R = R0 (+) R1 with R0R0, R1R1 <= R0 and
R0R1 <= R1.

A GradedRing wraps a FiniteRing plus the validated even/odd parts.  The even
part is materialized as a FiniteRing of its own (``r0_ring``) so that all the
classical ideal machinery applies to it directly; when the grading is trivial
(R1 = 0) the even ring *is* the ambient ring object.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import lru_cache, partial

from .errors import (
    GradingAxiomError,
    GradingDecompositionError,
    InvalidModuleError,
    InvalidParameterError,
    NotStronglyGradedError,
    TheoremViolationError,
)
from .rings import (
    FiniteRing,
    Ideal,
    RingElement,
    _Record,
    _StableSubgroup,
    _same_ring,
    as_code,
    _additive_generators,
    _check_bound,
    _code_mask,
    _codes,
    _free_symbol,
    _grow_subgroup,
    _mask,
    _mask_key,
    _members,
    _memo,
    _stable_mask,
    _subgroup_generators,
    _subgroup_lattice,
    _tables_by_digits,
    _translator,
    _unit_mask,
    poly_quotient,
    stable_members,
    zmod,
)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise TheoremViolationError(message)


class GradedRing:
    """A finite ring with a validated parity decomposition; ``r0_mask`` and
    ``r1_mask`` are the member masks of its parts."""

    def __init__(self, ring: FiniteRing, r0: frozenset, r1: frozenset,
                 provenance: str, decomposition: dict):
        self.ring = ring
        self.r0 = r0
        self.r1 = r1
        self.r0_mask = _mask(r0)
        self.r1_mask = _mask(r1)
        self.provenance = provenance
        self._decomposition = decomposition  # ambient code -> (even, odd) codes
        self._cache: dict = {}
        if len(r0) == ring.size:
            self.r0_ring = ring
            self._r0_embed = tuple(range(ring.size))
            self._r0_index = {c: c for c in range(ring.size)}
        else:
            codes = sorted(r0)
            index = {c: k for k, c in enumerate(codes)}
            add = tuple(tuple(index[ring.add[a][b]] for b in codes) for a in codes)
            mul = tuple(tuple(index[ring.mul[a][b]] for b in codes) for a in codes)
            names = tuple(ring.names[c] for c in codes)
            self.r0_ring = FiniteRing(
                len(codes), add, mul, index[ring.zero], index[ring.one],
                f"even part of {provenance}", names)
            self._r0_embed = tuple(codes)
            self._r0_index = index
        # R0 holds the codes 0..|R0|-1 (the trivial, quadratic and square-zero
        # gradings): then an even mask is the same int in R and in R0
        self._r0_first = self._r0_embed[-1] == len(self._r0_embed) - 1

    __copy__ = __deepcopy__ = FiniteRing.__deepcopy__

    def __repr__(self):
        return f"GradedRing({self.provenance}, |R0|={len(self.r0)}, |R1|={len(self.r1)})"

    def parts(self, value) -> tuple[int, int]:
        """Even/odd component codes of an ambient element."""
        return self._decomposition[as_code(self.ring, value)]

    def to_r0(self, ambient_code: int) -> int:
        return self._r0_index[ambient_code]

    def from_r0(self, r0_code: int) -> int:
        return self._r0_embed[r0_code]

    def embed_ideal(self, ideal: Ideal) -> frozenset:
        """Member set of an even-part ideal as ambient codes."""
        return _members(self.ring, self._embed_mask(ideal))

    def _embed_mask(self, ideal: Ideal) -> int:
        """``embed_ideal`` as a member mask."""
        _same_ring(self.r0_ring, ideal.ring)
        if self._r0_first:
            return ideal.mask
        return _mask(map(self._r0_embed.__getitem__, _codes(ideal.mask)))

    def _restrict_mask(self, mask: int) -> Ideal:
        """Even-part ideal from a member mask of ambient codes inside R0."""
        if not self._r0_first:
            mask = _mask(map(self._r0_index.__getitem__, _codes(mask)))
        return Ideal._of(self.r0_ring, mask)

    def homogeneous_codes(self) -> tuple:
        return _memo(self, "homogeneous", lambda: tuple(sorted(self.r0 | self.r1)))


def homogeneous_parts(g: GradedRing, x) -> tuple[RingElement, RingElement]:
    """The unique (even, odd) pair summing to x."""
    even, odd = g.parts(x)
    return RingElement(g.ring, even), RingElement(g.ring, odd)


# ---------------------------------------------------------------------------
# construction and validation


def _validate_grading(ring: FiniteRing, r0: frozenset, r1: frozenset) -> dict:
    add, mul = ring.add, ring.mul
    for part, tag in ((r0, "even"), (r1, "odd")):
        if ring.zero not in part:
            raise GradingDecompositionError(f"{tag} part does not contain 0")
        for a in part:
            row = add[a]
            for b in part:
                if row[b] not in part:
                    raise GradingDecompositionError(
                        f"{tag} part not closed under +: "
                        f"{ring.names[a]} + {ring.names[b]} = {ring.names[row[b]]}")
    overlap = (r0 & r1) - {ring.zero}
    if overlap:
        witness = min(overlap)
        raise GradingDecompositionError(
            f"parts intersect beyond 0, e.g. {ring.names[witness]}")
    decomposition = {}
    for a in r0:
        row = add[a]
        for b in r1:
            s = row[b]
            if s in decomposition:
                raise GradingDecompositionError(
                    f"{ring.names[s]} has two decompositions")
            decomposition[s] = (a, b)
    if len(decomposition) != ring.size:
        missing = min(c for c in range(ring.size) if c not in decomposition)
        raise GradingDecompositionError(
            f"{ring.names[missing]} has no even+odd decomposition")
    closures = (
        (r0, r0, r0, "even*even must be even"),
        (r0, r1, r1, "even*odd must be odd"),
        (r1, r1, r0, "odd*odd must be even"),
    )
    for left, right, target, message in closures:
        for a in left:
            row = mul[a]
            for b in right:
                if row[b] not in target:
                    raise GradingAxiomError(
                        f"{message}: {ring.names[a]} * {ring.names[b]}"
                        f" = {ring.names[row[b]]}")
    if ring.one not in r0:
        raise GradingAxiomError("1 is not in the even part")
    return decomposition


def grade_manual(ring: FiniteRing, r0: Iterable, r1: Iterable,
                 provenance: str | None = None) -> GradedRing:
    """Validate an explicit decomposition into even and odd parts."""
    fr0 = frozenset(as_code(ring, x) for x in r0)
    fr1 = frozenset(as_code(ring, x) for x in r1)
    decomposition = _validate_grading(ring, fr0, fr1)
    return GradedRing(ring, fr0, fr1,
                      provenance or f"{ring.provenance} (manual grading)",
                      decomposition)


def trivially_graded(ring: FiniteRing) -> GradedRing:
    """The grading with even part R and odd part 0."""
    return grade_manual(ring, range(ring.size), [ring.zero],
                        provenance=f"{ring.provenance} (trivially graded)")


@lru_cache(maxsize=None)
def _quadratic_cached(base: FiniteRing, alpha: int, symbol: str) -> GradedRing:
    modulus = (base.neg[alpha], base.zero, base.one)  # X^2 - alpha
    ring = poly_quotient(base, modulus, symbol)
    r0 = range(base.size)
    r1 = [c * base.size for c in range(base.size)]
    return grade_manual(ring, r0, r1, provenance=ring.provenance)


def quadratic_extension(base: FiniteRing, alpha, symbol: str | None = None) -> GradedRing:
    """base[X]/(X^2 - alpha), graded by constants vs multiples of the root;
    X is named as in ``poly_quotient``."""
    return _quadratic_cached(base, as_code(base, alpha), _free_symbol(base, symbol))


def gaussian_integers(n: int) -> GradedRing:
    """Z/n[i] with i^2 = -1: the finite analogue of the Gaussian integers."""
    return quadratic_extension(zmod(n), -1, symbol="i")


@lru_cache(maxsize=None)
def _truncated_cached(base: FiniteRing, k: int) -> GradedRing:
    modulus = (base.zero,) * k + (base.one,)  # X^k
    ring = poly_quotient(base, modulus)
    even, odd = [], []
    for code in range(ring.size):
        vec = []
        c = code
        for _ in range(k):
            c, digit = divmod(c, base.size)
            vec.append(digit)
        if all(v == base.zero for v in vec[1::2]):
            even.append(code)
        if all(v == base.zero for v in vec[0::2]):
            odd.append(code)
    return grade_manual(ring, even, odd, provenance=ring.provenance)


def truncated_poly(base: FiniteRing, k: int) -> GradedRing:
    """base[X]/(X^k), graded by even vs odd monomial degrees."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise InvalidParameterError(f"truncation degree must be an integer >= 1, got {k!r}")
    return _truncated_cached(base, k)


@lru_cache(maxsize=None)
def _trivial_extension_cached(base: FiniteRing, orders: tuple) -> GradedRing:
    n = base.size
    radix = orders
    msize = 1
    for m in radix:
        msize *= m

    def mdecode(idx):
        out = []
        for m in radix:
            idx, t = divmod(idx, m)
            out.append(t)
        return tuple(out)

    def mencode(t):
        idx = 0
        for digit, m in zip(reversed(t), reversed(radix)):
            idx = idx * m + digit
        return idx

    def mname(t):
        if not radix:
            return "0"
        if len(radix) == 1:
            return str(t[0])
        return "(" + ",".join(str(d) for d in t) + ")"

    size = n * msize
    tuples = [mdecode(i) for i in range(msize)]

    def pack(r, midx):
        return r + n * midx

    def add_pair(x, y):
        (xm, xr), (ym, yr) = divmod(x, n), divmod(y, n)
        asum = tuple((a + b) % m for a, b, m in zip(tuples[xm], tuples[ym], radix))
        return pack((xr + yr) % n, mencode(asum))

    def mul_pair(x, y):
        (xm, xr), (ym, yr) = divmod(x, n), divmod(y, n)
        act = tuple((xr * b + yr * a) % m for a, b, m in zip(tuples[xm], tuples[ym], radix))
        return pack((xr * yr) % n, mencode(act))

    add, mul = _tables_by_digits(
        (n,) + radix,
        lambda x: tuple([add_pair(x, y) for y in range(size)]),
        lambda x, *_: tuple([mul_pair(x, y) for y in range(size)]))
    names = tuple(
        f"({base.names[xr]},{mname(tuples[xm])})"
        for xm in range(msize) for xr in range(n))
    mdesc = "(+)".join(f"Z/{m}" for m in radix) if radix else "0"
    ring = FiniteRing(size, add, mul, 0, 1,
                      f"trivial_extension({base.provenance}; {mdesc})", names,
                      radix=(n,) + radix)
    r0 = [pack(r, 0) for r in range(n)]
    r1 = [pack(0, m) for m in range(msize)]
    return grade_manual(ring, r0, r1, provenance=ring.provenance)


def trivial_extension(base: FiniteRing, module_orders: Sequence[int]) -> GradedRing:
    """The square-zero extension of Z/n by the module (+) Z/m_i, m_i | n.

    Elements are pairs (r, m) with (r,m)(r',m') = (rr', rm' + r'm); the odd
    part is {(0, m)} and its square vanishes identically.  Codes have radix
    ``(n, m_1, .., m_k)`` and (r, m) is the sum of its single-digit pairs, so
    the tables are built by digit composition (see ``z2spec.rings``).
    """
    if base is not zmod(base.size):
        raise InvalidParameterError(
            f"trivial_extension base must be a zmod ring, got {base.provenance}")
    orders = tuple(module_orders)
    for m in orders:
        if not isinstance(m, int) or isinstance(m, bool) or m < 1:
            raise InvalidModuleError(f"module order must be a positive integer, got {m!r}")
        if base.size % m != 0:
            raise InvalidModuleError(
                f"module order {m} does not divide {base.size}")
    return _trivial_extension_cached(base, orders)


# ---------------------------------------------------------------------------
# submodules of the odd part


class Submodule(_StableSubgroup):
    """An R0-submodule of R1 as the member mask of its ambient codes; two
    submodules are equal when they live in the identical graded ring and
    have the same members.  Built from a set of codes of R1.  Its label is
    the witness of the member set, as an ideal's (``rings`` docstring,
    "Labels")."""

    __slots__ = ("graded_ring", "mask")
    _OWNER = "graded_ring"
    graded_ring: GradedRing
    mask: int

    def __init__(self, graded_ring: GradedRing, members: frozenset):
        g = graded_ring
        mask = _code_mask(g.ring, members)
        if mask is None or mask & ~g.r1_mask:  # name a member that is no int first
            strays = sorted((c for c in members if type(c) is not int), key=repr)
            code = strays[0] if strays else min(members - g.r1)
            name = g.ring.names[code] if not strays and 0 <= code < g.ring.size else f"code {code!r}"
            raise InvalidParameterError(f"{name} is not in the odd part")
        object.__setattr__(self, "graded_ring", g)
        object.__setattr__(self, "mask", mask)

    def __eq__(self, other):
        return (self.mask == other.mask and self.graded_ring == other.graded_ring
                if other.__class__ is self.__class__ else NotImplemented)

    def __hash__(self):
        return hash((self.graded_ring, self.mask))

    def _family(self) -> tuple:
        return _submodule_family(self.graded_ring)

    @property
    def is_proper(self) -> bool:
        return self.mask != self.graded_ring.r1_mask


def _submodule_family(g: GradedRing) -> tuple:
    """``Submodule._family()``: the submodules as the R0-stable subgroups
    inside R1, with the units of R0 as ambient codes (cached; ``rings``
    docstring, "Units")."""
    return _memo(g, "submodule_family", lambda: (
        g, g.ring, partial(cyclic_span, g), _r0_generators(g),
        tuple(_codes(_unit_mask(g.ring) & g.r0_mask)),
        f"a submodule of the odd part of {g.provenance}"))


def cyclic_span(g: GradedRing, x: int) -> frozenset:
    """R0*x, already closed under addition by distributivity."""
    return frozenset(map(g.ring.mul[x].__getitem__, g.r0))


def _r0_generators(g: GradedRing) -> tuple:
    """Additive generators of R0 as ambient codes (cached)."""
    return _memo(g, "r0_generators", lambda: tuple(
        map(g.from_r0, _additive_generators(g.r0_ring))))


def _r1_generators(g: GradedRing) -> tuple:
    """Additive generators of R1, picked in code order (cached)."""
    return _memo(g, "r1_generators", lambda: tuple(
        _subgroup_generators(g.ring, sorted(g.r1))))


def _r1_products(g: GradedRing, members: Iterable[int]) -> set:
    """{a*x : a an additive generator of ``members``, x one of R1's}.

    Multiplication is biadditive: for a = sum n_j a_j and x = sum m_i x_i,
    a*x = sum n_j m_i a_j x_i.  So these products span members*R1
    additively, and an additive group contains members*R1 exactly when it
    contains them.
    """
    mul = g.ring.mul
    r1_gens = _r1_generators(g)
    return {mul[a][x] for a in _subgroup_generators(g.ring, members)
            for x in r1_gens}


def _r1_colon(g: GradedRing, part: Iterable[int], target: int) -> int:
    """The mask of {e in part : e*R1 <= target} for the member mask
    ``target`` of an additive group.

    e*x is additive in x, so e*R1 <= target exactly when e times each
    additive generator of R1 lies in target (``_r1_products``).
    """
    mul, r1_gens, colon = g.ring.mul, _r1_generators(g), 0
    for e in part:
        row = mul[e]
        for x in r1_gens:
            if not target >> row[x] & 1:
                break
        else:
            colon |= 1 << e
    return colon


def _pair_bounds(g: GradedRing, i0: Ideal) -> tuple[int, int, int]:
    """The member masks of I0 in ambient codes, I0*R1 and
    (I0 : R1) intersect R1 for an even ideal I0: a submodule R' makes
    (I0, R') a graded pair exactly when it lies between the last two
    (``graded_ideals`` docstring).  The ring is checked first, then the
    three masks are memoized by the mask of I0, so each ideal of R0 is
    embedded and bounded once."""
    _same_ring(g.r0_ring, i0.ring)

    def compute():
        ring, ambient = g.ring, g._embed_mask(i0)
        low = _grow_subgroup(ring.add, _translator(ring), 1 << ring.zero,
                             _r1_products(g, _codes(ambient)))[0]
        return ambient, low, _r1_colon(g, g.r1, ambient)
    return _memo(g, ("pair_bounds", i0.mask), compute)


def submodule_members(g: GradedRing, gen_codes: Iterable[int]) -> frozenset:
    """Member set of the submodule generated by ``gen_codes`` (codes of R1)."""
    return stable_members(g.ring, _r0_generators(g), gen_codes)


def submodule_generate(g: GradedRing, gens: Iterable) -> Submodule:
    codes = []
    for x in gens:
        c = as_code(g.ring, x)
        if c not in g.r1:
            raise InvalidParameterError(
                f"{g.ring.names[c]} is not in the odd part")
        codes.append(c)
    return Submodule(g, submodule_members(g, codes))


def submodules(g: GradedRing, bound: int | None = None) -> tuple[Submodule, ...]:
    """All R0-submodules of R1, canonically ordered.

    The lattice of sums of cyclic spans R0x (``rings._subgroup_lattice``,
    the same kernel as ``enumerate_ideals``).
    """
    _check_bound(g.ring, bound, f"submodule enumeration in {g.provenance}")

    def compute():
        _, ring, span, multipliers, units, _ = _submodule_family(g)
        found = _subgroup_lattice(ring, sorted(g.r1), span, multipliers, units)
        return tuple(Submodule._of(g, mask) for mask in sorted(found, key=_mask_key(g.ring)))
    return _memo(g, "submodules", compute)


def residual(g: GradedRing, rp: Submodule) -> Ideal:
    """(R' : R1) = {a in R0 : a*R1 <= R'}, as an ideal of the even ring,
    tested on R1's additive generators (``_r1_colon``).  That the result is
    an ideal is checked by the verify record ``ideals.submodule-closure``.
    """
    _same_ring(g, rp.graded_ring)
    return g._restrict_mask(_r1_colon(g, g.r0, rp.mask))


# ---------------------------------------------------------------------------
# products of the odd part and the strong-grading predicate


def r1_squared(g: GradedRing) -> Ideal:
    """The ideal of R0 generated by all products of two odd elements."""
    r0 = g.r0_ring
    return _memo(g, "r1_squared", lambda: Ideal._of(r0, _stable_mask(
        r0, _additive_generators(r0), map(g.to_r0, _r1_products(g, g.r1)))))


def r1_cubed(g: GradedRing) -> Submodule:
    """The submodule (R1^2) * R1 of the odd part."""
    return _memo(g, "r1_cubed", lambda: Submodule._of(g, _pair_bounds(g, r1_squared(g))[1]))


def is_strongly_graded(g: GradedRing) -> bool:
    """True when the square of the odd part is the whole even part."""
    return r1_squared(g).mask.bit_count() == g.r0_ring.size


def strong_grading_certificate(g: GradedRing) -> tuple:
    """Pairs (a_i, b_i) of odd elements with sum(a_i * b_i) = 1.

    Found by breadth-first search over reachable sums of pair products; the
    returned first components generate the odd part over R0 (verified).
    """
    if not is_strongly_graded(g):
        raise NotStronglyGradedError(
            f"{g.provenance}: odd part squared is a proper ideal")
    ring = g.ring
    add, mul = ring.add, ring.mul
    products: dict[int, tuple[int, int]] = {}
    for a in sorted(g.r1):
        for b in sorted(g.r1):
            products.setdefault(mul[a][b], (a, b))
    reach: dict[int, tuple] = {ring.zero: ()}
    queue = [ring.zero]
    for v in queue:  # breadth-first: new sums join the end of the list
        if ring.one in reach:
            break
        for value, pair in products.items():
            s = add[v][value]
            if s not in reach:
                reach[s] = reach[v] + (pair,)
                queue.append(s)
    _require(ring.one in reach, "unit not reachable despite strong grading")
    pairs = reach[ring.one]
    span = submodule_members(g, [a for a, _ in pairs])
    _require(span == g.r1, "certificate components do not generate the odd part")
    return tuple(
        (RingElement(ring, a), RingElement(ring, b)) for a, b in pairs)


# ---------------------------------------------------------------------------
# matrix picture


class Matrix2(_Record):
    """2x2 matrix over a FiniteRing (codes), with ring-matrix + and *."""

    ring: FiniteRing
    entries: tuple  # ((a, b), (c, d)) codes

    def __add__(self, other: "Matrix2") -> "Matrix2":
        _same_ring(self.ring, other.ring)
        add = self.ring.add
        (a, b), (c, d) = self.entries
        (e, f), (h, k) = other.entries
        return Matrix2(self.ring, ((add[a][e], add[b][f]), (add[c][h], add[d][k])))

    def __mul__(self, other: "Matrix2") -> "Matrix2":
        _same_ring(self.ring, other.ring)
        add, mul = self.ring.add, self.ring.mul
        (a, b), (c, d) = self.entries
        (e, f), (h, k) = other.entries
        return Matrix2(self.ring, (
            (add[mul[a][e]][mul[b][h]], add[mul[a][f]][mul[b][k]]),
            (add[mul[c][e]][mul[d][h]], add[mul[c][f]][mul[d][k]]),
        ))

    def __repr__(self):
        names = self.ring.names
        (a, b), (c, d) = self.entries
        return f"[[{names[a]}, {names[b]}], [{names[c]}, {names[d]}]]"


def matrix_rep(g: GradedRing, x) -> Matrix2:
    """x = x0 + x1 as the symmetric matrix [[x0, x1], [x1, x0]].

    The map is an injective ring homomorphism onto the matrices of this shape.
    """
    even, odd = g.parts(x)
    return Matrix2(g.ring, ((even, odd), (odd, even)))
