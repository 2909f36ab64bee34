"""Exact arithmetic for small finite commutative rings with unit.

Elements are canonical integer codes 0..size-1 and the ring operations are
explicit lookup tables, so every downstream algorithm is an exhaustive scan
over codes.  Constructors are interned: calling ``zmod(6)`` twice returns the
identical object, and ring equality is object identity.  All values are
immutable after construction; every operation here is a pure function, safe
for concurrent reads.

Tables by digit composition.  ``poly_quotient``, ``product_ring`` and
``grading.trivial_extension`` encode elements as mixed-radix numbers: the
code u has digits d_k (least significant first) and place values
w_k = radix[0] * ... * radix[k-1].  Their tables rest on one precondition:
code 0 is the zero element, and every element is the sum of its single-digit
elements d_k * w_k.  Then only the sum(radix - 1) single-digit rows are
computed with the ring's own arithmetic; every other code u = a + rest, with
a its top digit term and rest < a, takes its rows from rows already built:
add[u][v] = add[a][add[rest][v]] and mul[u][v] = add[mul[a][v]][mul[rest][v]]
(``_tables_by_digits``).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import (
    EnumerationLimitError,
    InvalidParameterError,
    RingMismatchError,
)

DEFAULT_ENUMERATION_BOUND = 256


class FiniteRing:
    """A finite commutative ring given by total add/mul tables.

    ``add`` and ``mul`` are tuples of rows (``add[a][b]`` is a code), ``zero``
    and ``one`` are codes, ``names`` renders codes for humans, ``provenance``
    records the construction recipe.  ``residue_modulus`` is set (to n) only
    on Z/n itself, where codes coincide with residues and integer inputs may
    be reduced mod n.
    """

    def __init__(self, size, add, mul, zero, one, provenance, names,
                 residue_modulus=None):
        self.size = size
        self.add = add
        self.mul = mul
        self.zero = zero
        self.one = one
        self.provenance = provenance
        self.names = names
        self.residue_modulus = residue_modulus
        self.neg = tuple(row.index(zero) for row in add)
        self._cache: dict = {}

    def __repr__(self):
        return f"FiniteRing({self.provenance}, size={self.size})"

    def element(self, value) -> "RingElement":
        return RingElement(self, as_code(self, value))

    __call__ = element

    def elements(self) -> Iterator["RingElement"]:
        return (RingElement(self, c) for c in range(self.size))

    def name(self, code: int) -> str:
        return self.names[code]

    def is_unit(self, value) -> bool:
        c = as_code(self, value)
        row = self.mul[c]
        return any(row[b] == self.one for b in range(self.size))


def as_code(ring: FiniteRing, value) -> int:
    """Normalize a RingElement or integer code; reduces mod n on Z/n only."""
    if isinstance(value, RingElement):
        if value.ring is not ring:
            raise RingMismatchError(
                f"element of {value.ring.provenance} used in {ring.provenance}")
        return value.code
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidParameterError(f"not a ring element or code: {value!r}")
    if ring.residue_modulus is not None:
        return value % ring.residue_modulus
    if not 0 <= value < ring.size:
        raise InvalidParameterError(
            f"code {value} out of range for {ring.provenance} (size {ring.size})")
    return value


@dataclass(frozen=True)
class RingElement:
    """One element of a specific FiniteRing; supports +, -, *, ** and unary -."""

    ring: FiniteRing
    code: int

    def _other(self, other) -> int:
        return as_code(self.ring, other)

    def __add__(self, other):
        return RingElement(self.ring, self.ring.add[self.code][self._other(other)])

    __radd__ = __add__

    def __neg__(self):
        return RingElement(self.ring, self.ring.neg[self.code])

    def __sub__(self, other):
        return RingElement(self.ring, self.ring.add[self.code][self.ring.neg[self._other(other)]])

    def __mul__(self, other):
        return RingElement(self.ring, self.ring.mul[self.code][self._other(other)])

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise InvalidParameterError("negative exponents are not defined")
        result = self.ring.one
        base = self.code
        mul = self.ring.mul
        while exponent:
            if exponent & 1:
                result = mul[result][base]
            base = mul[base][base]
            exponent >>= 1
        return RingElement(self.ring, result)

    def __repr__(self):
        return self.ring.names[self.code]


@dataclass(frozen=True, eq=False)
class Ideal:
    """An ideal as a closed member set plus a generator witness.

    Equality and hashing ignore the generators: two ideals are equal when
    they live in the identical ring and have the same member set.
    """

    ring: FiniteRing
    members: frozenset
    generators: tuple

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        return self.ring is other.ring and self.members == other.members

    def __hash__(self):
        return hash((id(self.ring), self.members))

    def __contains__(self, value) -> bool:
        return as_code(self.ring, value) in self.members

    def __le__(self, other: "Ideal") -> bool:
        _same_ring(self.ring, other.ring)
        return self.members <= other.members

    def __lt__(self, other: "Ideal") -> bool:
        _same_ring(self.ring, other.ring)
        return self.members < other.members

    @property
    def is_proper(self) -> bool:
        return self.ring.one not in self.members

    def key(self):
        """Canonical sort key: cardinality, then the sorted member tuple."""
        return (len(self.members), tuple(sorted(self.members)))

    def label(self) -> str:
        if not self.generators:
            return "(0)"
        return "(" + ", ".join(self.ring.names[g] for g in self.generators) + ")"

    def __repr__(self):
        return f"Ideal{self.label()} of {self.ring.provenance}"


def _same_ring(a: FiniteRing, b: FiniteRing):
    if a is not b:
        raise RingMismatchError(
            f"operands live in different rings: {a.provenance} vs {b.provenance}")


# ---------------------------------------------------------------------------
# constructors


def _tables_by_digits(radix: Sequence[int], add_pair, mul_pair) -> tuple[tuple, tuple]:
    """The add and mul tables of a ring whose codes are mixed-radix numbers.

    ``add_pair(u, v)`` and ``mul_pair(u, v)`` return the code of u + v and
    u * v; they are called only for the single-digit codes u.  Requires the
    precondition in the module docstring: code 0 is zero and each element is
    the sum of its single-digit elements.  All add rows are built before the
    mul rows, because composing a mul row reads the add table.
    """
    size = math.prod(radix)
    codes = range(size)
    splits = []  # (u, rest) for u = 1 .. size-1; rest = u minus its top digit term
    place = 1
    for r in radix:
        splits.extend((u, u % place) for u in range(place, place * r))
        place *= r
    add = [tuple(codes)]
    for u, rest in splits:
        if rest:
            add.append(tuple(map(add[u - rest].__getitem__, add[rest])))
        else:
            add.append(tuple([add_pair(u, v) for v in codes]))
    mul = [(0,) * size]
    for u, rest in splits:
        if rest:
            mul.append(tuple([add[x][y] for x, y in zip(mul[u - rest], mul[rest])]))
        else:
            mul.append(tuple([mul_pair(u, v) for v in codes]))
    return tuple(add), tuple(mul)


def _require_zero_code(*rings: FiniteRing) -> None:
    for ring in rings:
        if ring.zero != 0:
            raise InvalidParameterError(
                f"{ring.provenance}: tables are built by digits, so zero must be code 0")


@lru_cache(maxsize=None)
def zmod(n: int) -> FiniteRing:
    """The ring Z/nZ with codes equal to residues 0..n-1."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise InvalidParameterError(f"modulus must be an integer >= 2, got {n!r}")
    add = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    mul = tuple(tuple((a * b) % n for b in range(n)) for a in range(n))
    names = tuple(str(k) for k in range(n))
    return FiniteRing(n, add, mul, 0, 1, f"Z/{n}", names, residue_modulus=n)


def _poly_name(coeffs: Sequence[int], base: FiniteRing, symbol: str,
               descending: bool = False) -> str:
    terms = []
    for k, c in enumerate(coeffs):
        if c == base.zero:
            continue
        cname = base.names[c]
        if k == 0:
            terms.append(cname)
        else:
            if c == base.one:
                head = ""
            else:  # a composite coefficient such as 1+x needs brackets
                head = f"({cname})" if "+" in cname else cname
            power = symbol if k == 1 else f"{symbol}^{k}"
            terms.append(head + power)
    if descending:
        terms.reverse()
    return "+".join(terms) if terms else base.names[base.zero]


@lru_cache(maxsize=None)
def _poly_quotient_cached(base: FiniteRing, modulus: tuple, symbol: str) -> FiniteRing:
    degree = len(modulus) - 1
    size = base.size ** degree
    badd, bmul, bneg = base.add, base.mul, base.neg

    def decode(code):
        vec = []
        for _ in range(degree):
            code, c = divmod(code, base.size)
            vec.append(c)
        return vec

    def encode(vec):
        code = 0
        for c in reversed(vec):
            code = code * base.size + c
        return code

    # x^k for k in [degree, 2*degree-2], reduced to coefficient vectors
    reduction = {}
    lead = [bneg[c] for c in modulus[:degree]]  # x^degree = -(m_0 + .. + m_{d-1} x^{d-1})
    vec = lead
    for k in range(degree, 2 * degree - 1):
        reduction[k] = vec
        overflow = vec[degree - 1] if degree >= 1 else base.zero
        nxt = [base.zero] + vec[:degree - 1]
        if overflow != base.zero:
            nxt = [badd[nc][bmul[overflow][lc]] for nc, lc in zip(nxt, lead)]
        vec = nxt

    def multiply(u, v):
        prod = [base.zero] * (2 * degree - 1)
        for i, ci in enumerate(u):
            if ci == base.zero:
                continue
            row = bmul[ci]
            for j, cj in enumerate(v):
                if cj == base.zero:
                    continue
                prod[i + j] = badd[prod[i + j]][row[cj]]
        out = prod[:degree]
        for k in range(degree, 2 * degree - 1):
            c = prod[k]
            if c != base.zero:
                row = bmul[c]
                out = [badd[oc][row[rc]] for oc, rc in zip(out, reduction[k])]
        return out

    vectors = [decode(code) for code in range(size)]
    add, mul = _tables_by_digits(
        (base.size,) * degree,
        lambda u, v: encode([badd[a][b] for a, b in zip(vectors[u], vectors[v])]),
        lambda u, v: encode(multiply(vectors[u], vectors[v])))
    one_vec = [base.zero] * degree
    one_vec[0] = base.one
    names = tuple(_poly_name(v, base, symbol) for v in vectors)
    modulus_name = _poly_name(modulus, base, symbol, descending=True)
    provenance = f"{base.provenance}[{symbol}]/({modulus_name})"
    return FiniteRing(size, add, mul, 0, encode(one_vec), provenance, names)


def poly_quotient(base: FiniteRing, modulus: Sequence, symbol: str = "x") -> FiniteRing:
    """base[X]/(modulus) for a monic modulus given as a coefficient list.

    ``modulus[k]`` is the coefficient of X^k; the leading coefficient must be
    the unit of ``base``.  Elements are coefficient vectors of length
    deg(modulus), encoded in base-``size`` positional notation (radix
    ``(|base|,) * deg``), so a vector is the sum of its monomials c*X^k and
    the tables are built by digit composition; ``base`` must have zero code 0.
    """
    _require_zero_code(base)
    coeffs = tuple(as_code(base, c) for c in modulus)
    if len(coeffs) < 2:
        raise InvalidParameterError("modulus must have degree >= 1")
    if coeffs[-1] != base.one:
        raise InvalidParameterError(
            f"modulus must be monic, leading coefficient is {base.names[coeffs[-1]]}")
    return _poly_quotient_cached(base, coeffs, symbol)


@lru_cache(maxsize=None)
def product_ring(a: FiniteRing, b: FiniteRing) -> FiniteRing:
    """Componentwise ring on the cartesian product; code = ca * |b| + cb.

    Codes have radix ``(|b|, |a|)`` and (ca, cb) = (ca, 0) + (0, cb), so the
    tables are built by digit composition; both factors must have zero code 0.
    """
    _require_zero_code(a, b)
    size = a.size * b.size

    def pack(ca, cb):
        return ca * b.size + cb

    def pair(a_table, b_table):
        def op(x, y):
            (xa, xb), (ya, yb) = divmod(x, b.size), divmod(y, b.size)
            return pack(a_table[xa][ya], b_table[xb][yb])
        return op

    add, mul = _tables_by_digits((b.size, a.size), pair(a.add, b.add), pair(a.mul, b.mul))
    names = tuple(
        f"({a.names[xa]},{b.names[xb]})"
        for xc in range(size) for xa, xb in [divmod(xc, b.size)]
    )
    return FiniteRing(size, add, mul, pack(a.zero, b.zero), pack(a.one, b.one),
                      f"{a.provenance} x {b.provenance}", names)


# ---------------------------------------------------------------------------
# ideals


def additive_closure(ring: FiniteRing, codes: Iterable[int]) -> frozenset:
    """Smallest additive subgroup containing ``codes`` (finite, so closure
    under + suffices; inverses come for free from element orders)."""
    add = ring.add
    members = {ring.zero}
    members.update(codes)
    frontier = list(members)
    while frontier:
        x = frontier.pop()
        row = add[x]
        for y in tuple(members):
            s = row[y]
            if s not in members:
                members.add(s)
                frontier.append(s)
    return frozenset(members)


def principal_members(ring: FiniteRing, x: int) -> frozenset:
    """Member set of the principal ideal Rx (already additively closed)."""
    mul = ring.mul
    return frozenset(mul[r][x] for r in range(ring.size))


def _ideal_sum(ring: FiniteRing, a: frozenset, b: frozenset) -> frozenset:
    """Member set of I + J for two ideals (the set of pairwise sums)."""
    add = ring.add
    return frozenset(add[x][y] for x in a for y in b)


def ideal_members(ring: FiniteRing, gen_codes: Iterable[int]) -> frozenset:
    """Member set of the ideal generated by ``gen_codes``."""
    products = set()
    for g in gen_codes:
        products.update(principal_members(ring, g))
    if not products:
        return frozenset({ring.zero})
    return additive_closure(ring, products)


def reduce_generators(ring: FiniteRing, members: frozenset) -> tuple:
    """A small deterministic generator witness for a closed member set."""
    gens: tuple = ()
    span = frozenset({ring.zero})
    for x in sorted(members):
        if x not in span:
            gens = gens + (x,)
            span = ideal_members(ring, gens)
            if span == members:
                break
    return gens


def ideal_generate(ring: FiniteRing, gens: Iterable) -> Ideal:
    """Smallest ideal containing ``gens`` (RingElements or codes)."""
    codes = tuple(as_code(ring, g) for g in gens)
    return Ideal(ring, ideal_members(ring, codes), codes)


def ideal_from_members(ring: FiniteRing, members: Iterable) -> Ideal:
    """Wrap an already-closed member set as an Ideal with reduced generators."""
    mset = frozenset(as_code(ring, m) for m in members)
    return Ideal(ring, mset, reduce_generators(ring, mset))


def is_ideal_set(ring: FiniteRing, members: frozenset) -> bool:
    """Exhaustively check the ideal axioms for a member set."""
    if ring.zero not in members:
        return False
    add, mul = ring.add, ring.mul
    for x in members:
        row = add[x]
        if any(row[y] not in members for y in members):
            return False
        mrow = mul[x]
        if any(mrow[r] not in members for r in range(ring.size)):
            return False
    return True


def _check_bound(ring: FiniteRing, bound, what: str) -> None:
    limit = DEFAULT_ENUMERATION_BOUND if bound is None else bound
    if ring.size > limit:
        raise EnumerationLimitError(what, ring.size, limit)


def enumerate_ideals(ring: FiniteRing, bound: int | None = None) -> tuple[Ideal, ...]:
    """Every ideal of the ring, canonically ordered.

    Breadth-first closure: start from (0) and repeatedly extend a known ideal
    by one absent element, re-closing via the ideal sum I + Rx; dedupe on the
    member set.  Ordered by cardinality then member encoding.
    """
    _check_bound(ring, bound, f"ideal enumeration in {ring.provenance}")
    cached = ring._cache.get("ideals")
    if cached is not None:
        return cached

    principals = {}
    for x in range(ring.size):
        principals.setdefault(principal_members(ring, x), x)
    extensions = sorted(principals.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))

    zero_members = frozenset({ring.zero})
    found: dict[frozenset, tuple] = {zero_members: ()}
    queue = deque([zero_members])
    while queue:
        current = queue.popleft()
        gens = found[current]
        for pmembers, x in extensions:
            if x in current:  # Rx <= current, nothing new
                continue
            bigger = _ideal_sum(ring, current, pmembers)
            if bigger not in found:
                found[bigger] = gens + (x,)
                queue.append(bigger)

    ideals = tuple(sorted(
        (Ideal(ring, members, gens) for members, gens in found.items()),
        key=Ideal.key,
    ))
    ring._cache["ideals"] = ideals
    return ideals


@dataclass(frozen=True)
class IdealClassification:
    is_proper: bool
    is_prime: bool
    is_maximal: bool
    is_radical: bool
    prime_witness: tuple | None  # (r, s) codes with rs inside, r and s outside


def prime_violation(ring: FiniteRing, members: frozenset) -> tuple | None:
    """First pair (r, s) in code order with rs in the set but r, s outside."""
    mul = ring.mul
    outside = [c for c in range(ring.size) if c not in members]
    for i, r in enumerate(outside):
        row = mul[r]
        for s in outside[i:]:
            if row[s] in members:
                return (r, s)
    return None


def classify_ideal(ring: FiniteRing, ideal: Ideal,
                   bound: int | None = None) -> IdealClassification:
    """Proper/prime/maximal/radical flags by exhaustive scan."""
    _same_ring(ring, ideal.ring)
    proper = ideal.is_proper
    witness = prime_violation(ring, ideal.members) if proper else None
    prime = proper and witness is None
    maximal = False
    if proper:
        maximal = not any(
            ideal.members < other.members and other.is_proper
            for other in enumerate_ideals(ring, bound)
        )
    is_rad = radical(ring, ideal).members == ideal.members
    return IdealClassification(proper, prime, maximal, is_rad, witness)


def radical(ring: FiniteRing, ideal: Ideal) -> Ideal:
    """{x : some power of x lies in the ideal}.

    Power sequences in a finite ring are eventually periodic, so walking
    x, x^2, ... until a repeat is an exact test (exponents <= |R| suffice).
    """
    _same_ring(ring, ideal.ring)
    mul = ring.mul
    members = ideal.members
    out = set()
    for x in range(ring.size):
        power = x
        seen = set()
        while power not in seen:
            if power in members:
                out.add(x)
                break
            seen.add(power)
            power = mul[power][x]
    return ideal_from_members(ring, out)


def spec(ring: FiniteRing, bound: int | None = None) -> tuple[Ideal, ...]:
    """All prime ideals, in canonical order."""
    cached = ring._cache.get("spec")
    if cached is None:
        cached = tuple(
            i for i in enumerate_ideals(ring, bound)
            if i.is_proper and prime_violation(ring, i.members) is None
        )
        ring._cache["spec"] = cached
    else:
        _check_bound(ring, bound, f"ideal enumeration in {ring.provenance}")
    return cached


def max_spec(ring: FiniteRing, bound: int | None = None) -> list[Ideal]:
    """All maximal ideals, in canonical order."""
    ideals = enumerate_ideals(ring, bound)
    proper = [i for i in ideals if i.is_proper]
    return [
        i for i in proper
        if not any(i.members < j.members for j in proper)
    ]


def is_field(ring: FiniteRing) -> bool:
    """True when every nonzero element has a multiplicative inverse."""
    cached = ring._cache.get("is_field")
    if cached is None:
        cached = all(ring.is_unit(c) for c in range(ring.size) if c != ring.zero)
        ring._cache["is_field"] = cached
    return cached
