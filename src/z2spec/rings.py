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
(``_tables_by_digits``).  ``poly_quotient`` computes directly only its
constant rows (scalar multiples) and the row of X, which is code
one*|base| (a shift plus one reduction of X^d); the row of c*X^k is the row
of X composed with the row of c*X^(k-1).  Each of these constructors, and
``zmod(n)`` with radix (n,), keeps its radix on the ring it builds
(``FiniteRing.radix``) for the member masks below.

Stable subgroups.  For a subring M of R, an M-stable subgroup is an
additive subgroup S of R with M * S <= S.  The ideals of R are its R-stable
subgroups and the submodules of a grading's odd part R1 are the R0-stable
subgroups inside R1, so both are handled here, once: one lattice walk, one
canonical order (``canonical_key``), one label rule and one record base
(``_StableSubgroup``).  A family is its span function x -> Mx
(``principal_span`` or ``grading.cyclic_span``) and its multipliers, the
additive generators of M (R's, or R0's as ambient codes); x times the
multipliers generate the span Mx additively (``span_seeds``).

Closure tests by subgroup growth.  ``_grow_subgroup`` builds the additive
subgroup H generated by a subgroup and a sequence of codes, adding one
generator s at a time by doubling.  Let G_j be the union of the cosets
H + k*s for 0 <= k < j; then G_2j = G_j | (G_j + j*s), one translation, and
G_j is all of H + <s> exactly when j*s lies in G_j: if j*s = h + k*s with
k < j, the multiples of s modulo H repeat with period j - k <= j, and
otherwise no multiple s, .., j*s fell back into H.  So H + <s> takes about
log2 of the order of s modulo H translations of member masks.  In the test
form the grown H must stay inside a candidate set S; if the loop ends with
every member of S fed in as a generator, H lies inside S and contains S, so
S = H is a subgroup, found in O(|S|) steps instead of O(|S|^2).  The same run
yields generators g_j of H, the codes that enlarged it (a lattice span
keeps those of its own members as its seeds, see below).  Stability under
multiplication then needs only the products g_j * r_i with r_i the
multipliers: multiplication is biadditive, so x * r = sum n_j m_i g_j r_i
for x = sum n_j g_j and r = sum m_i r_i, and that sum lies in S because S is
an additive group.  ``is_stable_set`` is an exact decision this way, at
O(|S| + #gens(S) * #multipliers) table lookups.

Member masks.  Every member set is stored and handled as its member mask:
the int with bit c set for each member code c.  ``Ideal``, ``Submodule``
and ``graded_ideals.GradedIdeal`` are slotted records of the mask alone
(``_StableSubgroup``); a graded ideal's pair is the split of its mask.
``members`` decodes it on each read (``_members``) and is never cached, as
a set of 2^k codes takes about ten times the memory of its mask.
Subset is ``a & ~b == 0``, size is ``int.bit_count`` and membership is a
bit test, so the lattices, the pair scan and the records decode nothing.
Canonical order on masks: among sets of one size, the sorted-tuple order of
``canonical_key`` puts first the set that holds the lowest code c of the
symmetric difference a ^ b, because both tuples agree below c, and there
one has c and the other a larger code.  Reversing the bits of a mask (at
one width per ring) makes c the highest bit in which a and b differ, so the
set holding it has the larger reversal: sorting by (size, -bitreverse) is
sorting by ``canonical_key``, with no decode (``_mask_key``).  In every
ring built by digits, addition is digitwise modular in the radix: u + v adds the digits
of u and v, each modulo its radix, with no carry (a test checks each
constructor's radix against its add table; no constructor re-checks it).
So translating a mask H by s takes one step per nonzero digit d of s, at
place w with radix r: the codes whose digit is below r - d move up by d*w
and the others down by (r - d)*w, that is
((H & lo) << d*w) | ((H & ~lo) >> (r - d)*w).  Here lo, the codes whose
digit is below r - d, is a run of (r - d)*w ones repeated every r*w bits:
((1 << (r-d)*w) - 1) * ((2^|R| - 1) // (2^(r*w) - 1)).  ``_translator``
plans these steps once per ring, per code.  A ring with no radix, such as
an even part that ``GradedRing`` relabels, translates one member at a time
through its add table instead.

Lattice enumeration.  The M-stable subgroups are exactly the sums of spans
Mx, and ``_subgroup_lattice`` walks them breadth-first from {0}.  A node H
is extended by spans S = Mx, each with a label x, and ``_span_child``
builds the child H + S in one of three ways.  It is S itself when S
contains H.  Otherwise it starts from the coset x + H, the one translation
the lowest-bit step below makes anyway: G_2 = H | (x + H) is the first
doubling step of H + <x> ("Closure tests").  When S lies in G_2, the child
is G_2: 2x lies in S, hence in G_2, so G_2 = H + <x> is a subgroup; it
lies in H + S because x lies in S (M contains 1), and it contains H + S
because it contains S.  Otherwise one growth from G_2 by 2x, then by the
seeds of S, doubles on to H + <x> and takes H + <x> + S = H + S; a seed
already inside costs no translation.  So a child whose span lies in G_2
costs one translation, shared with the coset skip, and any other child a
few more, never the |H| * |S| pairwise sums.  On Z/2 (+) F2^k every span
Rx or R0x is R or {0, x}, so every child costs exactly one translation.
The seeds of S are its own additive generators, picked once per span from
x times the multipliers by a growth from {0} (``_span_order``): each
enlarges the span grown from the ones before it, so a growth visits one
seed per generator of S rather than one per multiplier.  Exact coset skip:
within one node, a label y in x + H for an x already tried there is not
tried, because y - x = h lies in H, so My <= Mx + Mh <= H + Mx and
symmetrically Mx <= H + My, that is H + My = H + Mx, a child already
known.  This needs only that x lies in Mx (M contains 1).  Lowest-bit
step: a node keeps the mask of its untried span labels, at first those
outside H (the span of a label in H lies in H).  It takes the lowest one
as the next x and clears the whole coset x + H from the mask, the
translation the child starts from, so it visits one label per coset of H
that holds a label rather than scanning every span.  The set found does
not depend on the order in which spans are tried, and the lattice keeps no
labels: a label is a function of the member set (see "Labels").

Units.  Associates are interchangeable: for a unit u of M, the element x and
its multiple ux give the same span, the same lattice child and the same
answer to a primality scan, so each exhaustive scan below skips them.  The
units of a finite ring are the fibre of 1 in ``_idempotent_fibres`` (x^omega
is 1 exactly when some power of x is 1), and the units of R0 are the even
codes in it (the inverse of a unit x of R0 is a power of x); a family
carries the units of its M as codes (``_ideal_family``,
``grading._submodule_family``).  Three rules, each exact:
(a) Span list.  ``_span_order`` spans only the first label of each orbit
{ux : u a unit of M} and marks the whole orbit covered, one lookup per unit.
If x = uy then Mx <= My and My = M(u^-1 x) <= Mx, so Mx = My; the first
label giving a span is never covered, since whatever covers it is an earlier
label with the same span.
(b) Walk.  After ``_subgroup_lattice`` clears the coset x + H at a node, it
also clears ux + H for each u = k*1 with gcd(k, char R) = 1, 1 < k < char R:
by the coset skip's argument H + M(ux + h) = H + M(ux) = H + Mx, a child
already known.  It translates only when ux lies in no coset already cleared
at the node (cosets of H are equal or disjoint), so in characteristic 4,
where -x often lies in x + H, most of these cost nothing.  In prime
characteristic p the multiples are all k*1 with 0 < k < p, and none of the
cosets kx + H is cleared before x is tried: the cosets cleared at a node
come in whole orbits {kx' + H : 0 < k < p}, so one of them would bring
x + H, and x would not be tried.  With H they make up H + <x>, a subgroup,
as x has order p modulo H; the child starts from it rather than from G_2,
which saves the growth by 2x.  In other characteristics the union need not
be a subgroup (in characteristic 9 it misses 3x + H), and the child starts
from x + H.  In characteristic 2 there is no such u, and the walk is the
plain one.
(c) Pair scans.  For an ideal I and a unit r, rs in I gives
s = r^-1 rs in I, so no pair (r, s) outside I with rs inside holds a unit:
``_no_pair_inside`` drops the units from its codes before it scans, and
``spectrum.is_prime_submodule`` the units of R0 from its even factors.

Radicals.  x lies in the radical of I when x^n lies in I for some n >= 1.
The powers of x in a finite ring are eventually periodic, and their cycle
holds exactly one idempotent, x^omega (Howie, Fundamentals of Semigroup
Theory, 1995): the first of x, x^2, ... that squares to itself.  For an
ideal I, some power of x lies in I exactly when x^omega does: if x^k lies
in I, then x^omega = x^j for some j >= k, and x^j = x^k * x^(j-k) lies in
I.  So the radical of I is the union of the fibres {x : x^omega = e} over
the idempotents e in I.  ``_idempotent_fibres`` walks x to x^omega once per
ring and caches the fibre of each idempotent.  Each power x^j on the way
has the same x^omega (the cycle of x^j lies in that of x, which holds one
idempotent), so the walk stops at the first power already placed, and every
code is walked about once.  The radical of an ideal is then one union of
fibres (``radical_members``), not one power walk per code and ideal.

Spectra.  A finite commutative ring is Artinian, so it is the product of
the local rings Re over its primitive idempotents e (the nonzero e with
f*e in {0, e} for every idempotent f), and every prime is maximal
(Atiyah-Macdonald, Thm 8.7).  The primes are therefore the kernels of the
projections onto the residue fields of the Re: P_e = {x : xe lies in the
maximal ideal of Re}, and that maximal ideal is the set of nilpotents of Re,
so P_e = {x : xe in N} with N the nilradical, the x with x^omega = 0.
``spec`` reads the idempotents and N, the fibre of zero, off
``_idempotent_fibres`` and builds no lattice.  As every prime is maximal,
the same list answers Max R (``classify_ideal``, ``graded_max``).

Labels.  An ``Ideal``'s or a ``Submodule``'s generator witness is a
function of its member set: the lexicographically least shortest sequence of
spans Mx (in ``_span_order``, each labelled by its smallest code) summing to
it, found on first read of ``generators`` and memoized by the set.  Such a
sequence uses only spans inside the set, which are the Mx with x in it (x
lies in Mx, as M contains 1), and each step at least doubles the sum (the old
sum is a subgroup of the new one), so ``_span_path`` finds it by
iterative-deepening search over those spans to at most log2 |S| steps.  It
is the path by which a breadth-first walk (the test reference) first reaches
the set: by induction on the depth, a FIFO queue takes the nodes of each
depth in lexicographic order of their first-found paths, because every
prefix of a shortest span sequence for a node is a node at exactly its own
depth.  The spans inside S sum to S exactly when S is M-stable (x lies in
Mx), so ``is_stable_set`` decides that before any span is built, and a set
that is not M-stable is rejected in O(|S|) steps.

Caches.  Every cached result here and in ``grading``, ``graded_ideals``,
``spectrum`` and ``maxfield`` is a pure function of one ring or graded ring
(and of a key), stored in that owner's ``_cache`` by ``_memo``: the first
call computes it, and every later call returns the identical object.  The
interning ``lru_cache`` constructors are the only other caches.  Bound
rule: a function that takes a ``bound`` first fetches its bounded inputs
(``enumerate_ideals``, ``submodules`` and ``spec`` check the bound at entry;
``classify_ideal`` and ``enumerate_graded_ideals`` fetch from them) and only
then reads its own memo.  So a call raises ``EnumerationLimitError`` exactly
when the same call on empty caches would, and no cache hit checks the bound
another way.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache, partial, reduce
from operator import attrgetter, or_

from .errors import (
    EnumerationLimitError,
    InvalidInputError,
    InvalidParameterError,
    RingMismatchError,
)

DEFAULT_ENUMERATION_BOUND = 256


class FiniteRing:
    """A finite commutative ring given by total add/mul tables.

    ``add`` and ``mul`` are tuples of rows (``add[a][b]`` is a code), ``zero``
    and ``one`` are distinct codes, ``names`` renders codes for humans,
    ``provenance`` records the construction recipe.  ``residue_modulus`` is
    set (to n) only on Z/n itself, where codes coincide with residues and
    integer inputs may be reduced mod n.  ``radix`` is the digit radix of the
    codes, least significant first, when the constructor composed the ring
    from digits (module docstring, "Member masks"), and None otherwise.
    """

    def __init__(self, size, add, mul, zero, one, provenance, names,
                 residue_modulus=None, radix=None):
        if one == zero:  # domains and fields need 1 != 0
            raise InvalidParameterError(f"{provenance} has 1 = 0")
        self.size = size
        self.add = add
        self.mul = mul
        self.zero = zero
        self.one = one
        self.provenance = provenance
        self.names = names
        self.residue_modulus = residue_modulus
        self.radix = radix
        self.neg = tuple(row.index(zero) for row in add)
        self._cache: dict = {}

    def __deepcopy__(self, memo=None):  # immutable and compared by identity
        return self

    __copy__ = __deepcopy__

    def __repr__(self):
        return f"FiniteRing({self.provenance}, size={self.size})"

    def element(self, value) -> "RingElement":
        return RingElement(self, as_code(self, value))

    __call__ = element

    def elements(self) -> Iterator["RingElement"]:
        return (RingElement(self, c) for c in range(self.size))

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


class _Record:
    """A record of the fields annotated on its class, in order, each
    defaulting to its class attribute if it has one that is not a slot.
    Records compare and hash by type and the tuple of their field values,
    read by one ``attrgetter`` per class, show as ``Name(field=value, ...)``
    and are read-only; a record with a dict field is unhashable."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = names = tuple(cls.__annotations__)
        cls._defaults = {name: getattr(cls, name) for name in names
                         if hasattr(cls, name) and name not in cls.__slots__}
        if names:  # _values(record) is the tuple of the record's field values
            get = attrgetter(*names)
            cls._values = staticmethod(get if len(names) > 1 else lambda record: (get(record),))

    def __init__(self, *args, **kwargs):
        names = self._fields
        values = dict(self._defaults, **kwargs)
        values.update(zip(names, args))
        if (len(args) > len(names) or kwargs.keys() & set(names[:len(args)])
                or values.keys() != set(names)):
            raise TypeError(f"{type(self).__name__}{names} cannot take {args!r} and {kwargs!r}")
        for name in names:
            object.__setattr__(self, name, values[name])

    def __eq__(self, other):
        return (self._values(self) == other._values(other)
                if other.__class__ is self.__class__ else NotImplemented)

    def __hash__(self):
        return hash(self._values(self))

    def __reduce__(self):  # copy through the constructor: the fields are read-only
        return type(self), self._values(self)

    def __repr__(self):
        fields = zip(self._fields, self._values(self))
        return f"{type(self).__qualname__}({', '.join(f'{n}={v!r}' for n, v in fields)})"

    def __setattr__(self, name, value=None):  # also __delattr__
        raise AttributeError(f"field {name!r} of a {type(self).__name__} is read-only")

    __delattr__ = __setattr__


class RingElement(_Record):
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


class _StableSubgroup(_Record):
    """An M-stable subgroup as its member mask (module docstring, "Member
    masks"); ``members`` decodes it on each read.  ``_family()`` gives (memo
    owner, named in the repr; ring of the codes; span x -> Mx; multipliers;
    units of M as codes; noun for error messages), built once per owner;
    the owner is the first field and the mask the second."""

    __slots__ = ()

    @classmethod
    def _of(cls, owner, mask: int):
        """The record of a mask that is known to be one of ``cls``."""
        record = object.__new__(cls)
        object.__setattr__(record, cls._fields[0], owner)
        object.__setattr__(record, "mask", mask)
        return record

    def __reduce__(self):  # copy (frozen fields); ring caches hold closures, so no pickle
        return type(self)._of, self._values(self)

    @property
    def members(self) -> frozenset:
        return _members(self._family()[1], self.mask)

    @property
    def generators(self) -> tuple:
        """The witness of the member set (module docstring, "Labels")."""
        owner, ring, span, multipliers, units, what = self._family()
        return _memo(owner, ("span_path", self.mask), lambda: _span_path(
            ring, span, multipliers, units, self.mask, what))

    def __contains__(self, value) -> bool:
        return bool(self.mask >> as_code(self._family()[1], value) & 1)

    def key(self):
        return canonical_key(self.members)

    def label(self) -> str:
        """``(g1, g2, ...)`` in element names, or ``(0)`` for no generators."""
        names, gens = self._family()[1].names, self.generators
        return "(" + ", ".join(names[x] for x in gens) + ")" if gens else "(0)"

    def __repr__(self):
        return f"{type(self).__name__}{self.label()} of {self._family()[0].provenance}"


class Ideal(_StableSubgroup):
    """An ideal as its member mask, built from a set of codes of the ring;
    two ideals are equal when they live in the identical ring and have the
    same members."""

    __slots__ = ("ring", "mask")
    ring: FiniteRing
    mask: int

    def __init__(self, ring: FiniteRing, members: frozenset):
        mask = _code_mask(ring, members)
        if mask is None:
            raise InvalidInputError(
                f"a set of {len(members)} codes is not an ideal of {ring.provenance}")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "mask", mask)

    def _family(self) -> tuple:
        return _ideal_family(self.ring)

    def __le__(self, other: "Ideal") -> bool:
        _same_ring(self.ring, other.ring)
        return not self.mask & ~other.mask

    def __lt__(self, other: "Ideal") -> bool:
        return self <= other and self.mask != other.mask

    @property
    def is_proper(self) -> bool:
        return not self.mask >> self.ring.one & 1


def _ideal_family(ring: FiniteRing) -> tuple:
    """``Ideal._family()``: the ideals as the R-stable subgroups (cached)."""
    return _memo(ring, "ideal_family", lambda: (
        ring, ring, partial(principal_span, ring), _additive_generators(ring),
        tuple(_codes(_unit_mask(ring))), f"an ideal of {ring.provenance}"))


def canonical_key(members: frozenset) -> tuple:
    """The canonical order of member sets: cardinality, then the sorted
    member tuple."""
    return (len(members), tuple(sorted(members)))


# byte b -> 255 minus b with its bits reversed (``_mask_key``)
_REVERSED_COMPLEMENT = bytes(255 - int(f"{b:08b}"[::-1], 2) for b in range(256))


def _mask_key(ring: FiniteRing):
    """The sort key (size, -bitreverse(mask)) on member masks of ``ring``,
    which is the order of ``canonical_key`` (module docstring, "Member
    masks"): as w bytes, least significant first, each reversed and
    complemented, a mask reads as 2^(8w) - 1 - bitreverse(mask)."""
    width = ring.size // 8 + 1
    return lambda mask: (mask.bit_count(),
                         mask.to_bytes(width, "little").translate(_REVERSED_COMPLEMENT))


def _same_ring(a, b):
    """Raise unless ``a`` and ``b`` are one ring, or one graded ring."""
    if a is not b:
        raise RingMismatchError(
            f"operands live in different rings: {a.provenance} vs {b.provenance}")


# ---------------------------------------------------------------------------
# constructors


def _tables_by_digits(radix: Sequence[int], add_row, mul_row) -> tuple[tuple, tuple]:
    """The add and mul tables of a ring whose codes are mixed-radix numbers.

    ``add_row(u)`` and ``mul_row(u, add, mul)`` return the rows of u + v and
    u * v over all codes v; they are called only for the single-digit codes u.
    ``mul_row`` may read the complete ``add`` table and the rows ``mul[w]`` of
    every code w < u.  Requires the precondition in the module docstring: code
    0 is zero and each element is the sum of its single-digit elements.  All
    add rows are built before the mul rows, because composing a mul row reads
    the add table.
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
            add.append(add_row(u))
    mul = [(0,) * size]
    for u, rest in splits:
        if rest:
            mul.append(tuple([add[x][y] for x, y in zip(mul[u - rest], mul[rest])]))
        else:
            mul.append(mul_row(u, add, mul))
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
    return FiniteRing(n, add, mul, 0, 1, f"Z/{n}", names, residue_modulus=n,
                      radix=(n,))


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


def _free_symbol(base: FiniteRing, symbol: str | None) -> str:
    """The variable name for a polynomial ring over ``base``: ``symbol``, or
    when it is None the first of x, y, z, t and then the other letters that
    occurs in no element name of ``base``.  A symbol inside a base name
    would give two elements one name, so an explicit one is rejected, as
    is the empty string."""
    def clashes(s):
        return any(s in name for name in base.names)
    if symbol is None:
        symbol = next((s for s in "xyztabcdefghijklmnopqrsuvw" if not clashes(s)), None)
        if symbol is None:
            raise InvalidParameterError(
                f"every letter occurs in an element name of {base.provenance}")
    elif not symbol:
        raise InvalidParameterError("symbol must be a non-empty string")
    elif clashes(symbol):
        raise InvalidParameterError(
            f"symbol {symbol!r} occurs in an element name of {base.provenance}")
    return symbol


@lru_cache(maxsize=None)
def _poly_quotient_cached(base: FiniteRing, modulus: tuple, symbol: str) -> FiniteRing:
    degree = len(modulus) - 1
    bsize = base.size
    size = bsize ** degree
    badd, bmul, bneg = base.add, base.mul, base.neg
    top = bsize ** (degree - 1)  # place value of the X^(degree-1) digit

    def decode(code):
        vec = []
        for _ in range(degree):
            code, c = divmod(code, bsize)
            vec.append(c)
        return vec

    def encode(vec):
        code = 0
        for c in reversed(vec):
            code = code * bsize + c
        return code

    def digitwise(op):
        """The row v -> sum_k op[v_k] * bsize^k, in code order."""
        row = [0]
        place = 1
        for _ in range(degree):
            row = [op[d] * place + x for d in range(bsize) for x in row]
            place *= bsize
        return tuple(row)

    def add_row(u):  # u = c * place: add c to one digit
        place = 1
        while u >= place * bsize:
            place *= bsize
        crow = badd[u // place]
        return tuple([v + (crow[d] - d) * place
                      for v in range(size) for d in [v // place % bsize]])

    lead = [bneg[c] for c in modulus[:degree]]  # X^degree = -(m_0 + .. + m_{d-1} X^{d-1})
    # code of c * X^degree, reduced, for each coefficient c
    overflow = [encode([bmul[c][lc] for lc in lead]) for c in range(bsize)]

    x_row = []  # X: shift up one place, reduce the X^degree term

    def mul_row(u, add, mul):
        if u < bsize:  # constant c: scale every coefficient
            return digitwise(bmul[u])
        if not x_row:
            x_row.extend(add[(v % top) * bsize][overflow[v // top]] for v in range(size))
        return tuple(map(x_row.__getitem__, mul[u // bsize]))  # X * (c X^(k-1))

    vectors = [decode(code) for code in range(size)]
    add, mul = _tables_by_digits((bsize,) * degree, add_row, mul_row)
    one_vec = [base.zero] * degree
    one_vec[0] = base.one
    names = tuple(_poly_name(v, base, symbol) for v in vectors)
    modulus_name = _poly_name(modulus, base, symbol, descending=True)
    provenance = f"{base.provenance}[{symbol}]/({modulus_name})"
    return FiniteRing(size, add, mul, 0, encode(one_vec), provenance, names,
                      radix=base.radix and base.radix * degree)


def poly_quotient(base: FiniteRing, modulus: Sequence,
                  symbol: str | None = None) -> FiniteRing:
    """base[X]/(modulus) for a monic modulus given as a coefficient list.

    ``modulus[k]`` is the coefficient of X^k; the leading coefficient must be
    the unit of ``base``.  X is named ``symbol``, by default the first free
    letter from x on (``_free_symbol``).  Elements are coefficient vectors of
    length deg(modulus), encoded in base-``size`` positional notation (radix
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
    return _poly_quotient_cached(base, coeffs, _free_symbol(base, symbol))


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

    def rows(a_table, b_table):
        def row(x, *_):
            xa, xb = divmod(x, b.size)
            a_row, b_row = a_table[xa], b_table[xb]
            return tuple([pack(pa, pb) for pa in a_row for pb in b_row])
        return row

    add, mul = _tables_by_digits((b.size, a.size), rows(a.add, b.add), rows(a.mul, b.mul))
    names = tuple(
        f"({a.names[xa]},{b.names[xb]})"
        for xc in range(size) for xa, xb in [divmod(xc, b.size)]
    )
    return FiniteRing(size, add, mul, pack(a.zero, b.zero), pack(a.one, b.one),
                      f"{a.provenance} x {b.provenance}", names,
                      radix=a.radix and b.radix and b.radix + a.radix)


# ---------------------------------------------------------------------------
# ideals


def _grow_subgroup(add, shift, base: int, seeds: Iterable[int],
                   inside: int | None = None) -> tuple | None:
    """The additive subgroup H generated by the subgroup ``base`` and ``seeds``,
    as member masks (module docstring, "Member masks").

    Grows H from ``base`` (the mask of an additive subgroup, such as
    ``1 << zero``) one seed s at a time, doubling the run of cosets
    H + k*s until it closes (module docstring, "Closure tests").  ``base``
    may also be G_2 = H | (x + H) when the first seed is 2x: that run goes
    on doubling to H + <x> (``_span_child``).  ``add`` is
    the ring's add table and ``shift`` its ``_translator``.  Returns (the
    mask of H, the seeds that enlarged H), or None as soon as H leaves the
    mask ``inside`` when that is given.
    """
    members = base
    gens = []
    for s in seeds:
        if members >> s & 1:
            continue
        gens.append(s)
        t = s
        while not members >> t & 1:
            members |= shift(members, t)
            t = add[t][t]
        if inside is not None and members & ~inside:
            return None
    return members, gens


def _mask(codes: Iterable[int]) -> int:
    """The member mask of a set of codes: bit c set for each code c."""
    mask = 0
    for c in codes:
        mask |= 1 << c
    return mask


def _code_mask(ring: FiniteRing, codes: Iterable) -> int | None:
    """The member mask of ``codes``, or None if one is no code of the ring."""
    try:
        mask = _mask(codes)
    except (TypeError, ValueError):  # not an int, or a negative shift count
        return None
    return None if mask >> ring.size else mask


def _codes(mask: int) -> Iterator[int]:
    """The codes of a member mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _members(ring: FiniteRing, mask: int) -> frozenset:
    """The codes of a member mask.  Each code is the int object stored in
    the add table (row of zero), so decoded sets share their ints with the
    table rather than allocate one per member above 256.  Built as the
    union of two halves, which sizes the table of a set of 2^k codes as
    small as a grown one's."""
    codes = list(map(ring.add[ring.zero].__getitem__, _codes(mask)))
    half = len(codes) // 2
    return frozenset(codes[:half]).union(codes[half:])


def _translator(ring: FiniteRing):
    """``shift(mask, s)``: the mask of s + H for H given by ``mask`` (cached
    per ring; module docstring, "Member masks").  Two masked shifts per
    nonzero digit of s when the ring has a radix, else one table lookup per
    member of H."""
    def compute():
        if ring.radix is None:
            add = ring.add

            def shift(mask, s):
                row, out = add[s], 0
                while mask:
                    low = mask & -mask
                    out |= 1 << row[low.bit_length() - 1]
                    mask ^= low
                return out
            return shift
        full = (1 << ring.size) - 1
        plan = [()]  # plan[s]: (lo, hi, up, down) per nonzero digit of s
        place = 1
        for r in ring.radix:
            block = full // ((1 << r * place) - 1)  # bit 0 of each run of r*place codes
            steps = [()]
            for d in range(1, r):
                # the codes whose digit is below r - d
                lo = ((1 << (r - d) * place) - 1) * block
                steps.append(((lo, full & ~lo, d * place, (r - d) * place),))
            plan = [p + step for step in steps for p in plan]
            place *= r

        def shift(mask, s):
            for lo, hi, up, down in plan[s]:
                mask = (mask & lo) << up | (mask & hi) >> down
            return mask
        return shift
    return _memo(ring, "translator", compute)


def _memo(owner, key, compute):
    """``owner._cache[key]``, set to ``compute()`` on first use (module
    docstring, "Caches")."""
    cache = owner._cache
    if key not in cache:
        cache[key] = compute()
    return cache[key]


def _additive_generators(ring: FiniteRing) -> tuple:
    """Additive generators of the whole ring (cached)."""
    return _memo(ring, "additive_generators", lambda: tuple(
        _subgroup_generators(ring, range(ring.size))))


def _subgroup_generators(ring: FiniteRing, members: Iterable[int]) -> list:
    """Additive generators of the subgroup generated by ``members``."""
    return _grow_subgroup(ring.add, _translator(ring), 1 << ring.zero, members)[1]


def span_seeds(ring: FiniteRing, multipliers: tuple, x: int) -> tuple:
    """Additive generators of the span Mx: x times the multipliers."""
    return tuple(map(ring.mul[x].__getitem__, multipliers))


def principal_span(ring: FiniteRing, x: int) -> frozenset:
    """The principal ideal Rx: the row of x."""
    return frozenset(ring.mul[x])


def _stable_mask(ring: FiniteRing, multipliers: tuple, codes: Iterable[int]) -> int:
    """Member mask of the M-stable subgroup generated by ``codes``."""
    return _grow_subgroup(ring.add, _translator(ring), 1 << ring.zero,
                          (s for x in codes for s in span_seeds(ring, multipliers, x)))[0]


def stable_members(ring: FiniteRing, multipliers: tuple, codes: Iterable[int]) -> frozenset:
    """Member set of the M-stable subgroup generated by ``codes``."""
    return _members(ring, _stable_mask(ring, multipliers, codes))


def ideal_members(ring: FiniteRing, gen_codes: Iterable[int]) -> frozenset:
    """Member set of the ideal generated by ``gen_codes``."""
    return stable_members(ring, _additive_generators(ring), gen_codes)


def ideal_generate(ring: FiniteRing, gens: Iterable) -> Ideal:
    """Smallest ideal containing ``gens`` (RingElements or codes)."""
    return Ideal(ring, ideal_members(ring, [as_code(ring, g) for g in gens]))


def ideal_from_members(ring: FiniteRing, members: Iterable) -> Ideal:
    """Wrap an already-closed member set (RingElements or codes) as an Ideal."""
    return Ideal(ring, frozenset(as_code(ring, m) for m in members))


def is_stable_set(ring: FiniteRing, multipliers: tuple, members: frozenset) -> bool:
    """Decide whether a member set is an M-stable subgroup, exactly.  A code
    outside 0..|R|-1 makes it False."""
    inside = _code_mask(ring, members)
    return inside is not None and _is_stable_mask(ring, multipliers, inside)


def _is_stable_mask(ring: FiniteRing, multipliers: tuple, inside: int) -> bool:
    """``is_stable_set`` of a member mask: grow its subgroup inside it, then
    test its generators times the multipliers (module docstring)."""
    if not inside >> ring.zero & 1:
        return False
    grown = _grow_subgroup(ring.add, _translator(ring), 1 << ring.zero, _codes(inside),
                           inside)
    if grown is None:
        return False
    mul = ring.mul
    return all(inside >> mul[g][m] & 1 for g in grown[1] for m in multipliers)


def _check_bound(ring: FiniteRing, bound, what: str) -> None:
    limit = DEFAULT_ENUMERATION_BOUND if bound is None else bound
    if ring.size > limit:
        raise EnumerationLimitError(what, ring.size, limit)


def _span_order(ring: FiniteRing, labels: Iterable[int], span,
                multipliers: tuple, units: tuple) -> list:
    """The distinct spans ``span(x)`` in lattice order, as (label, member
    mask, additive seeds): each labelled by the first x of ``labels`` giving
    it, and in canonical order (``_mask_key``).  The seeds are the span's
    own additive generators, picked from x times the multipliers, so each of
    them enlarges the subgroup grown from the ones before it.  ``span`` runs
    on the first label of each orbit x times ``units`` alone (module
    docstring, "Units", rule (a))."""
    first, covered, mul = {}, set(), ring.mul
    for x in labels:
        if x not in covered:
            covered.update(map(mul[x].__getitem__, units))
            first.setdefault(span(x), x)
    key = _mask_key(ring)
    return [(x, members, tuple(_subgroup_generators(
                ring, span_seeds(ring, multipliers, x))))
            for members, x in sorted(((_mask(members), x) for members, x in first.items()),
                                     key=lambda mx: key(mx[0]))]


def _span_child(add, shift, node: int, x: int, members: int, seeds: tuple,
                coset: int | None = None) -> int:
    """The child H + Mx of the node H by the span Mx of label x, as a member
    mask (module docstring, "Lattice enumeration"): the span itself when it
    contains H, else H | coset when the span lies in it, else that grown by
    2x, then by the seeds.  ``members`` and ``seeds`` come from
    ``_span_order``.  ``coset`` is x + H, or in prime characteristic p the
    union of the cosets kx + H for 0 < k < p; given None, x + H is
    translated here, and only when needed."""
    if not node & ~members:
        return members
    child = node | (shift(node, x) if coset is None else coset)
    if members & ~child:
        child = _grow_subgroup(add, shift, child, (add[x][x],) + seeds)[0]
    return child


def _unit_multiples(ring: FiniteRing) -> tuple[tuple, bool]:
    """The codes of k*1 for 1 < k < c with gcd(k, c) = 1, where c is the
    additive order of 1 (the characteristic): the units of Z*1 but 1; and
    whether c is prime, that is, whether they are all the k*1 but 0 and 1."""
    add, one = ring.add, ring.one
    multiples = [one]  # multiples[k - 1] = k*1, up to c*1 = 0
    while multiples[-1] != ring.zero:
        multiples.append(add[multiples[-1]][one])
    c = len(multiples)
    units = tuple(multiples[k - 1] for k in range(2, c) if math.gcd(k, c) == 1)
    return units, len(units) == c - 2


def _subgroup_lattice(ring: FiniteRing, labels: Iterable[int], span,
                      multipliers: tuple, units: tuple) -> list:
    """Every sum of the spans ``span(x)`` for x in ``labels``, as a list of
    member masks, in the order found.

    The spans come from ``_span_order``.  Breadth-first from {0} on member
    masks (module docstring, "Lattice enumeration"): a child new to the
    lattice joins the end of the node list, and the list is the result.
    With each coset x + H it clears the cosets ux + H of the unit multiples
    u of 1 not yet cleared at the node ("Units", rule (b)); in
    characteristic 2 there are none.  Pre-test: the child is H | coset
    whenever the span lies in that set, the common case, so ``_span_child``
    runs only when the span escapes it.
    """
    spans = _span_order(ring, labels, span, multipliers, units)
    add, mul, shift = ring.add, ring.mul, _translator(ring)
    multiples, prime = _unit_multiples(ring)
    by_label = [None] * ring.size
    for x, members, seeds in spans:
        by_label[x] = members, seeds
    labels = _mask(x for x, _, _ in spans)
    bottom = 1 << ring.zero
    found = {bottom}
    nodes = [bottom]
    for node in nodes:  # breadth-first: children join the end of the list
        untried = labels & ~node
        cleared = node
        while untried:
            x = (untried & -untried).bit_length() - 1
            coset = shift(node, x)
            untried &= ~coset
            if multiples:
                cleared |= coset
                for y in map(mul[x].__getitem__, multiples):
                    if not cleared >> y & 1:
                        other = shift(node, y)
                        cleared |= other
                        if prime:  # with H, the cosets kx + H make up H + <x>
                            coset |= other
                untried &= ~cleared
            child = node | coset
            if by_label[x][0] & ~child:
                child = _span_child(add, shift, node, x, *by_label[x], coset)
            if child not in found:
                found.add(child)
                nodes.append(child)
    return nodes


def _span_path(ring: FiniteRing, span, multipliers: tuple, units: tuple, goal: int,
               what: str) -> tuple:
    """The generator witness of the M-stable set of mask ``goal``: the
    lexicographically least shortest sequence of spans ``span(x)`` summing
    to it (module docstring, "Labels").

    A set that is not M-stable (``is_stable_set``), and so not ``what``
    (such as "an ideal of Z/6"), raises ``InvalidInputError`` before any
    span is built.  The spans inside an M-stable set are the Mx with x in
    it, so ``_span_order`` takes its members in code order as labels: Mx = My puts
    x and y in it together, so this keeps each span's label, and spans one
    label per orbit of ``units`` ("Units", rule (a)).  Iterative
    deepening on member masks: depth-first in span order with 0, 1, 2, ...
    steps, so the first path found is the answer.  A node H with k steps
    left is pruned when even k of the widest spans cannot grow it to the
    target (|H + S| <= |H| * |S|), and a (node, steps left) pair that failed
    once is never searched again.
    """
    size = goal.bit_count()
    if not _is_stable_mask(ring, multipliers, goal):
        raise InvalidInputError(f"a set of {size} codes is not {what}")
    spans = _span_order(ring, _codes(goal), span, multipliers, units)
    add, shift = ring.add, _translator(ring)
    widest = max(members.bit_count() for _, members, _ in spans)
    dead = set()

    def search(node, left):
        if left == 0:
            return () if node == goal else None
        if (node, left) in dead or node.bit_count() * widest ** left < size:
            return None
        for x, members, seeds in spans:
            if not members & ~node:
                continue
            child = _span_child(add, shift, node, x, members, seeds)
            path = search(child, left - 1)
            if path is not None:
                return (x,) + path
        dead.add((node, left))
        return None

    # the spans sum to the target, each step at least doubling the sum
    return next(path for depth in range(size.bit_length())
                if (path := search(1 << ring.zero, depth)) is not None)


def enumerate_ideals(ring: FiniteRing, bound: int | None = None) -> tuple[Ideal, ...]:
    """Every ideal of the ring, canonically ordered: the lattice of sums of
    principal ideals Rx (``_subgroup_lattice``), by cardinality then member
    encoding."""
    _check_bound(ring, bound, f"ideal enumeration in {ring.provenance}")

    def compute():
        _, _, span, multipliers, units, _ = _ideal_family(ring)
        found = _subgroup_lattice(ring, range(ring.size), span, multipliers, units)
        return tuple(Ideal._of(ring, mask) for mask in sorted(found, key=_mask_key(ring)))
    return _memo(ring, "ideals", compute)


class IdealClassification(_Record):
    is_proper: bool
    is_prime: bool
    is_maximal: bool
    is_radical: bool
    prime_witness: tuple | None  # (r, s) codes with rs inside, r and s outside


def prime_violation(ring: FiniteRing, members: frozenset) -> tuple | None:
    """First pair (r, s) in code order with rs in the set but r, s outside."""
    return _pair_inside(ring.mul, [c for c in range(ring.size) if c not in members],
                        members)


def _no_pair_inside(ring: FiniteRing, codes: Iterable[int], inside: int) -> bool:
    """True when no pair (r, s) of ``codes`` outside the member mask
    ``inside`` has rs inside: exactly ``_pair_inside`` finding none.

    Precondition: ``inside`` is the mask of an ideal of ``ring``.  Then no
    such pair holds a unit (rs in I with r a unit puts s = r^-1 rs in I;
    module docstring, "Units", rule (c)), so the units of ``ring`` are
    dropped from the codes.  The pairs (r, r) come first, one lookup each,
    and stop at the first square inside (in most ideals that are not prime,
    a few codes in).  Only a set that no square enters gets the full pair
    scan, on the set of its codes.  Reads ``codes`` once."""
    mul, skip = ring.mul, inside | _unit_mask(ring)
    outside = []
    for r in codes:
        if not skip >> r & 1:
            if inside >> mul[r][r] & 1:
                return False
            outside.append(r)
    return _pair_inside(mul, outside, frozenset(_codes(inside))) is None


def _pair_inside(mul, outside: list, members: frozenset) -> tuple | None:
    """First pair (r, s) of ``outside``, r not after s, with rs in ``members``."""
    for i, r in enumerate(outside):
        row = mul[r]
        for s in outside[i:]:
            if row[s] in members:
                return (r, s)
    return None


def classify_ideal(ring: FiniteRing, ideal: Ideal,
                   bound: int | None = None) -> IdealClassification:
    """Proper/prime/radical flags by exhaustive scan; maximal means a point
    of ``spec``, since every prime of a finite ring is maximal."""
    points = spec(ring, bound)
    _same_ring(ring, ideal.ring)
    proper = ideal.is_proper
    witness = prime_violation(ring, ideal.members) if proper else None
    prime = proper and witness is None
    maximal = ideal in points
    is_rad = radical_members(ring, ideal.mask) == ideal.mask
    return IdealClassification(proper, prime, maximal, is_rad, witness)


def _idempotent_fibres(ring: FiniteRing) -> dict:
    """{e: mask of {x : x^omega = e}} over the idempotents e, in code order
    (cached per ring; module docstring, "Radicals").  x^omega is the first
    of x, x^2, ... that squares to itself."""
    def compute():
        mul, omega = ring.mul, [None] * ring.size
        for x, row in enumerate(mul):
            if omega[x] is not None:
                continue
            path, power = [x], x  # powers of x, which share its x^omega
            while omega[power] is None and mul[power][power] != power:
                power = row[power]
                path.append(power)
            e = power if omega[power] is None else omega[power]
            for y in path:
                omega[y] = e
        fibres = {}
        for x, e in enumerate(omega):
            fibres[e] = fibres.get(e, 0) | 1 << x
        return {e: fibres[e] for e in sorted(fibres)}
    return _memo(ring, "idempotent_fibres", compute)


def _unit_mask(ring: FiniteRing) -> int:
    """The mask of the units: the fibre of 1 in ``_idempotent_fibres``
    (module docstring, "Units")."""
    return _idempotent_fibres(ring)[ring.one]


def radical_members(ring: FiniteRing, inside: int) -> int:
    """The mask of {x : some power of x lies in the set of mask ``inside``},
    for an ideal (such as {0}): the union of the fibres of the idempotents
    in it."""
    return reduce(or_, (fibre for e, fibre in _idempotent_fibres(ring).items()
                        if inside >> e & 1), 0)


def radical(ring: FiniteRing, ideal: Ideal) -> Ideal:
    """{x : x^n lies in the ideal for some n >= 1} (``radical_members``)."""
    _same_ring(ring, ideal.ring)
    return Ideal._of(ring, radical_members(ring, ideal.mask))


def spec(ring: FiniteRing, bound: int | None = None) -> tuple[Ideal, ...]:
    """All prime ideals, in canonical order: P_e = {x : xe nilpotent} for
    each primitive idempotent e (module docstring, "Spectra").  No ideal
    lattice is built; ``spectrum.methods-agree`` compares the result with
    the primes and the maximal ideals among ``enumerate_ideals``."""
    _check_bound(ring, bound, f"spectrum of {ring.provenance}")

    def compute():
        mul, zero = ring.mul, ring.zero
        idempotents = _idempotent_fibres(ring)
        nilradical = idempotents[zero]
        primes = []
        for e in idempotents:
            if e == zero or any(mul[f][e] not in (zero, e) for f in idempotents):
                continue  # not primitive
            primes.append(_mask(x for x in range(ring.size) if nilradical >> mul[x][e] & 1))
        return tuple(Ideal._of(ring, mask) for mask in sorted(primes, key=_mask_key(ring)))
    return _memo(ring, "spec", compute)


def maximal_sets(masks: Iterable[int]) -> frozenset:
    """The member masks whose sets no other of the given sets strictly
    contains.

    Largest first, a set is kept when no kept set strictly contains it: a
    strictly larger set lies in a maximal one, visited and kept earlier.
    """
    kept = []
    for s in sorted(masks, key=int.bit_count, reverse=True):
        if not any(s != k and not s & ~k for k in kept):
            kept.append(s)
    return frozenset(kept)


def is_field(ring: FiniteRing) -> bool:
    """True when every nonzero element has a multiplicative inverse."""
    return _memo(ring, "is_field", lambda: all(
        ring.is_unit(c) for c in range(ring.size) if c != ring.zero))
