"""The subgroup-growth lattice enumerator and the generator-pair
compatibility tests against all-pairs references: ideals, submodules, graded
pairs, residuals and odd parts on every catalog ring and five others."""

import math
import re
import time
from functools import partial

import pytest

import z2spec.grading as grading
import z2spec.rings as rings
from birkhoff import graded_ideal_count, subgroup_count, trivial_extension_recipes
from instance_cases import INSTANCE_CASES
from naive_closure import (
    naive_additive_closure,
    naive_compatible,
    naive_enumerate_ideals,
    naive_graded_pairs,
    naive_maximal_ideals,
    naive_maximal_sets,
    naive_odd_part,
    naive_residual,
    naive_submodules,
)
from z2spec.catalog import CATALOG
from z2spec.errors import InvalidInputError, RingMismatchError
from z2spec.graded_ideals import (
    GradedIdeal,
    enumerate_graded_ideals,
    graded_ideal_from_ideal,
)
from z2spec.grading import (
    Submodule,
    _r0_generators,
    _r1_colon,
    _r1_products,
    cyclic_span,
    gaussian_integers,
    residual,
    submodule_generate,
    submodules,
    trivial_extension,
    trivially_graded,
)
from z2spec.maxfield import graded_max
from z2spec.rings import (
    FiniteRing,
    Ideal,
    _additive_generators,
    _grow_subgroup,
    _mask,
    _mask_key,
    _members,
    _span_child,
    _span_order,
    _subgroup_generators,
    _subgroup_lattice,
    _translator,
    _stable_mask,
    _unit_mask,
    canonical_key,
    classify_ideal,
    enumerate_ideals,
    ideal_from_members,
    ideal_generate,
    maximal_sets,
    principal_span,
    product_ring,
    radical,
    spec,
    span_seeds,
    zmod,
)

RINGS = {entry.instance_id: entry.build for entry in CATALOG}
RINGS.update({
    "Z/16 (+) Z/16": lambda: trivial_extension(zmod(16), [16]),
    "Z/4 (+) (Z/2 (+) Z/4)": lambda: trivial_extension(zmod(4), [2, 4]),
    # odd characteristic: its masks translate by radix-3 digits, d = 1 and 2
    "Z/3 (+) F3^3": lambda: trivial_extension(zmod(3), [3] * 3),
    # characteristic 4: the walk clears 3x + H with x + H unless 2x lies in H
    "Z/4 (+) (Z/4)^2": lambda: trivial_extension(zmod(4), [4] * 2),
    # characteristic 9, not prime: the cosets kx + H with k prime to 9 miss
    # 3x + H, so a child never starts from their union
    "Z/9 x Z/9": lambda: trivially_graded(product_ring(zmod(9), zmod(9))),
})
CATALOG_IDS = [entry.instance_id for entry in CATALOG]


def _ideal_family(ring):
    """(ring, labels, span, multipliers, units) of the ideals of ``ring``."""
    units = tuple(c for c in range(ring.size) if ring.is_unit(c))
    return (ring, range(ring.size), partial(principal_span, ring), _additive_generators(ring),
            units)


def _submodule_family(g):
    """(ring, labels, span, multipliers, units) of the R0-submodules of R1."""
    units = tuple(c for c in sorted(g.r0) if g.ring.is_unit(c))
    return g.ring, sorted(g.r1), partial(cyclic_span, g), _r0_generators(g), units


def _families(g):
    """The families of the ideals of R and R0 and of the submodules of R1."""
    return [*map(_ideal_family, dict.fromkeys((g.ring, g.r0_ring))), _submodule_family(g)]


@pytest.mark.parametrize("base, seeds", [
    ({0, 9, 18}, [1]),  # 1 = (0,1) has order 9 over <(1,0)>
    ({0, 9, 18}, [3, 1]),
    ({0, 3, 6, 9, 12, 15, 18, 21, 24}, [10]),  # 10 = (1,1): three cosets
])
def test_growth_from_a_subgroup_takes_every_coset(base, seeds):
    ring = product_ring(zmod(3), zmod(9))  # code of (a, b) is 9a + b
    grown, gens = _grow_subgroup(ring.add, _translator(ring), _mask(base), seeds)
    assert _members(ring, grown) == naive_additive_closure(ring, base | set(seeds))
    assert gens == seeds


@pytest.mark.parametrize("case", CATALOG_IDS)
def test_span_seeds_are_additive_generators(case):
    """Each lattice span's seeds generate exactly its members, and each seed
    enlarges the subgroup generated by the seeds before it."""
    g = RINGS[case]()
    for ring, *family in _families(g):
        for x, members, seeds in _span_order(ring, *family):
            assert _stable_mask(ring, (ring.one,), seeds) == members, x
            built = frozenset({ring.zero})
            for s in seeds:
                assert s not in built, (x, s)
                built = naive_additive_closure(ring, built | {s})


@pytest.mark.parametrize("case", sorted(RINGS))
def test_lattices_match_all_pairs_closure(case):
    g = RINGS[case]()
    for ring in (g.ring, g.r0_ring):
        got = [(i.members, i.generators) for i in enumerate_ideals(ring, 512)]
        assert got == naive_enumerate_ideals(ring)
    assert [(m.members, m.generators) for m in submodules(g, 512)] == naive_submodules(g)


@pytest.mark.parametrize("case", CATALOG_IDS)
def test_witness_search_finds_the_breadth_first_path(case):
    """One label per member set: however an ideal or a submodule is built,
    its witness is the path by which the all-pairs breadth-first walk first
    reaches it."""
    g = RINGS[case]()
    for ring in dict.fromkeys((g.ring, g.r0_ring)):
        paths = dict(naive_enumerate_ideals(ring))
        for ideal in enumerate_ideals(ring):
            path = paths[ideal.members]
            assert ideal.generators == path, ideal
            assert ideal_from_members(ring, ideal.members).generators == path
            for gens in (path, sorted(ideal.members, reverse=True)):
                assert ideal_generate(ring, gens).generators == path
            rad = radical(ring, ideal)
            assert rad.generators == paths[rad.members]
    paths = dict(naive_submodules(g))
    for m in submodules(g):
        path = paths[m.members]
        assert m.generators == path, m
        assert Submodule(g, m.members).generators == path
        for gens in (path, sorted(m.members, reverse=True)):
            assert submodule_generate(g, gens).generators == path


def test_equal_ideals_print_one_label():
    # Z/4[i]: rebuilt from its members, the lattice ideal (1+i) once took
    # the greedy witness (2, 1+i); code 5 is 1+i
    ring = gaussian_integers(4).ring
    lattice = {i.members: i for i in enumerate_ideals(ring)}
    one_plus_i = lattice[ideal_generate(ring, [5]).members]
    assert one_plus_i.label() == "(1+i)"
    assert ideal_from_members(ring, one_plus_i.members).label() == "(1+i)"
    assert ideal_generate(ring, [2, 5]).label() == "(1+i)"


def test_equal_submodules_print_one_label():
    # (Z/2 x Z/3)[i]: R1 is the span of i alone, though the two smaller
    # spans ((0,1)i) and ((1,0)i) also sum to it; code 24 is i
    g = RINGS["quadratic-2x3-i"]()
    assert Submodule(g, g.r1).label() == "(i)"
    assert submodule_generate(g, [6, 18]).label() == "(i)"
    assert [m.label() for m in submodules(g)] == ["(0)", "((1,0)i)", "((0,1)i)", "(i)"]


def test_ideals_and_submodules_share_one_record_behaviour():
    """Membership, ring checks, repr and key come from one record base; the
    repr names the owner: the ring for an ideal, the graded ring (here a
    manual grading of Z/2[x]/(x^2+1)) for a submodule.  Code 3 is 1+x."""
    g = RINGS["manual-2-x2p1"]()
    ideal = ideal_generate(g.ring, [3])
    module = submodule_generate(g, [3])
    for record in (ideal, module):
        assert record.members == {0, 3}
        assert 3 in record and g.ring(3) in record
        assert 1 not in record and g.ring(1) not in record
        with pytest.raises(RingMismatchError):
            g.r0_ring(1) in record
        assert record.key() == canonical_key(record.members) == (2, (0, 3))
    assert repr(ideal) == "Ideal(1+x) of Z/2[x]/(x^2+1)"
    assert repr(module) == "Submodule(1+x) of Z/2[x]/(x^2+1) (manual grading)"


def _galois_number(k: int, q: int = 2) -> int:
    """G_q(k): the number of subspaces of F_q^k, a sum of Gaussian binomials."""
    total, binomial = 0, 1
    for j in range(k + 1):
        total += binomial
        binomial = binomial * (q ** (k - j) - 1) // (q ** (j + 1) - 1)
    return total


@pytest.mark.parametrize("k, count", [(3, 17), (4, 68), (5, 375), (6, 2826), (7, 29213)])
def test_deep_catalog_lattices_count_every_subspace(k, count):
    # Z/2 (+) F2^k: every subspace of the square-zero odd part is an ideal,
    # and the whole ring is the one ideal outside it; the subspaces are
    # also the submodules.  k = 7 walks 256-bit member masks
    g = trivial_extension(zmod(2), [2] * k)
    assert len(enumerate_ideals(g.ring)) == _galois_number(k) + 1 == count
    assert len(submodules(g)) == _galois_number(k)


@pytest.mark.parametrize("k, count", [(3, 29), (4, 213)])
def test_odd_characteristic_lattices_count_every_subspace(k, count):
    # Z/3 (+) F3^k: the subspaces of F3^k again, with each coset translation
    # a shift by one or two places of a radix-3 digit; the all-pairs closure
    # checks k = 3 member by member (RINGS)
    g = trivial_extension(zmod(3), [3] * k)
    assert len(enumerate_ideals(g.ring)) == _galois_number(k, 3) + 1 == count
    assert len(submodules(g)) == _galois_number(k, 3)


# every catalog trivial extension, and every one with n <= 12 and |R| <= 256;
# CI sweeps on to |R| <= 1024 in a process of its own
TRIVEXT_RECIPES = dict.fromkeys(
    [(entry.recipe["n"], tuple(entry.recipe["orders"])) for entry in CATALOG
     if entry.recipe["kind"] == "trivial_extension"]
    + trivial_extension_recipes(12, 256))


@pytest.mark.parametrize("n, orders", [
    pytest.param(n, orders, id=f"{n}-m{'m'.join(map(str, orders))}")
    for n, orders in TRIVEXT_RECIPES])
def test_trivial_extension_lattices_match_birkhoffs_count(n, orders):
    """Z/n (+) (+) Z/m_i: the submodules are the subgroups of the module, and
    the graded ideals number sum over d | n of S(M/dM) (``birkhoff``)."""
    g = trivial_extension(zmod(n), orders)
    assert len(submodules(g, g.ring.size)) == subgroup_count(orders)
    assert len(enumerate_graded_ideals(g, g.ring.size)) == graded_ideal_count(n, orders)


@pytest.mark.parametrize("case", INSTANCE_CASES)
def test_idempotent_fibres_match_a_power_walk_per_code(case):
    """The fibre table, which stops each walk at the first power already
    placed, equals the walk of every code to the first of its powers that
    squares to itself."""
    g, _ = case()
    for ring in dict.fromkeys((g.ring, g.r0_ring)):
        mul, fibres = ring.mul, {}
        for x in range(ring.size):
            power = x
            while mul[power][power] != power:
                power = mul[x][power]
            fibres[power] = fibres.get(power, 0) | 1 << x
        assert list(rings._idempotent_fibres(ring).items()) == sorted(fibres.items())


@pytest.mark.parametrize("case", INSTANCE_CASES)
def test_unit_masks_are_the_units(case):
    """The units of a ring are the fibre of 1 among its idempotent fibres,
    and the units of R0 are the even codes among those of R: each family
    carries the units of its multiplier ring as codes."""
    g, _ = case()
    for ring in dict.fromkeys((g.ring, g.r0_ring)):
        units = [c for c in range(ring.size) if ring.is_unit(c)]
        assert _unit_mask(ring) == _mask(units)
        assert rings._ideal_family(ring)[4] == tuple(units)
    r0 = g.r0_ring
    even_units = sorted(g.from_r0(c) for c in range(r0.size) if r0.is_unit(c))
    assert grading._submodule_family(g)[4] == tuple(even_units)


def _span_order_of_every_label(ring, labels, span, multipliers):
    """The span list with a span built for every label, then deduplicated."""
    first = {}
    for x in labels:
        first.setdefault(span(x), x)
    return [(x, _mask(members),
             tuple(_subgroup_generators(ring, span_seeds(ring, multipliers, x))))
            for members, x in sorted(first.items(), key=lambda mx: canonical_key(mx[0]))]


@pytest.mark.parametrize("case", INSTANCE_CASES)
def test_span_list_of_one_label_per_orbit_is_that_of_every_label(case):
    """Spanning only the first label of each orbit of units gives the same
    labels, masks, seeds and order as spanning every label."""
    g, _ = case()
    for ring, labels, span, multipliers, units in _families(g):
        assert (_span_order(ring, labels, span, multipliers, units)
                == _span_order_of_every_label(ring, labels, span, multipliers))


def test_span_list_builds_each_span_once():
    """Z/25[i]: two codes with one span are associates, so the span list
    builds each span once: 9 principal ideals, where spanning every label
    built 625, and 3 principal ideals of Z/25 and 3 cyclic submodules,
    where it built 25 each."""
    g = gaussian_integers(25)
    built = []
    for ring, labels, span, multipliers, units in _families(g):
        calls = []

        def counting(x, span=span, calls=calls):
            calls.append(x)
            return span(x)
        spans = _span_order(ring, labels, counting, multipliers, units)
        assert len(calls) == len(spans)
        built.append(len(calls))
    assert built == [9, 3, 3]


@pytest.mark.parametrize("case", INSTANCE_CASES)
def test_mask_key_is_canonical_order(case):
    """On every lattice (the ideals of R and of R0, the submodules, the
    graded ideals), sorting member masks by ``_mask_key`` sorts their sets
    as ``canonical_key`` does, and each lattice comes in that order."""
    g, bound = case()
    lattices = [(ring, [i.mask for i in enumerate_ideals(ring, bound)])
                for ring in dict.fromkeys((g.ring, g.r0_ring))]
    lattices.append((g.ring, [m.mask for m in submodules(g, bound)]))
    lattices.append((g.ring, [j.mask for j in enumerate_graded_ideals(g, bound)]))
    for ring, masks in lattices:
        by_sets = sorted(masks[::-1], key=lambda mask: canonical_key(_members(ring, mask)))
        assert sorted(masks[::-1], key=_mask_key(ring)) == by_sets == masks


def _counting(shift):
    """``shift`` and the list of labels it has been called with."""
    calls = []

    def counting(mask, s):
        calls.append(s)
        return shift(mask, s)
    return counting, calls


@pytest.mark.parametrize("k, count", [(5, 4596), (6, 50082), (7, 747024)])
def test_deep_lattices_take_one_translation_per_child(k, count, monkeypatch):
    """Z/2 (+) F2^k: every child starts from the coset its node clears, so
    building both span lists and walking both lattices makes ``count``
    translations of member masks; a second translation per child would
    nearly double it.  k = 7 runs in its own process in CI."""
    g = trivial_extension(zmod(2), [2] * k)
    ring = g.ring
    _additive_generators(ring)  # known before counting, whichever test ran first
    counting, calls = _counting(_translator(ring))
    monkeypatch.setitem(ring._cache, "translator", counting)
    ideals = _subgroup_lattice(*_ideal_family(ring))
    modules = _subgroup_lattice(*_submodule_family(g))
    assert (len(ideals), len(modules)) == (_galois_number(k) + 1, _galois_number(k))
    assert len(calls) == count


@pytest.mark.parametrize("k, steps, count", [(4, 2452, 5074), (5, 53968, 108432)])
def test_odd_characteristic_walks_clear_the_coset_of_each_unit_multiple(
        k, steps, count, monkeypatch):
    """Z/3 (+) F3^k: each child step clears x + H and 2x + H, the coset of
    the unit multiple 2x = -x, and starts its child from their union with
    H, which is H + <x>.  So building both span lists and walking both
    lattices takes ``steps`` child steps and ``count`` translations; with
    x + H alone they took 4,270 and 8,418 (k = 4), 99,946 and 197,482
    (k = 5).  A node H inside F3^k takes one step per pair {c, -c} of
    nonzero cosets of H, each holding a line's label, and in the ideal walk
    one more for the unit label; the node R takes none.  Only a unit
    label's span R escapes H + <x>, except at H = F3^k, so ``_span_child``
    runs G_3(k) - 1 times: 211 (k = 4) and 2,663 (k = 5).  k = 5 runs in
    its own process in CI."""
    g = trivial_extension(zmod(3), [3] * k)
    ring = g.ring
    _additive_generators(ring)  # known before counting, whichever test ran first
    counting, calls = _counting(_translator(ring))
    monkeypatch.setitem(ring._cache, "translator", counting)
    children = []
    span_child = rings._span_child

    def spy(*args):
        children.append(args[3])
        return span_child(*args)
    monkeypatch.setattr(rings, "_span_child", spy)
    ideals = _subgroup_lattice(*_ideal_family(ring))
    modules = _subgroup_lattice(*_submodule_family(g))
    assert (len(ideals), len(modules)) == (_galois_number(k, 3) + 1, _galois_number(k, 3))

    def coset_pairs(node):  # pairs {c, -c} of nonzero cosets of a node inside F3^k
        return (3 ** k // node.bit_count() - 1) // 2
    whole = (1 << ring.size) - 1
    recount = (sum(coset_pairs(h) + 1 for h in ideals if h != whole)
               + sum(map(coset_pairs, modules)))
    assert (recount, len(children), len(calls)) == (steps, _galois_number(k, 3) - 1, count)


def test_each_child_branch_takes_its_translations():
    """``_span_child`` at every node of every lattice of the catalog rings,
    against the all-pairs sum H + Mx: the span itself when it contains H,
    with no translation; H | (x + H) when the span lies in that, with one;
    else a growth, by 2x alone or by further seeds, with two or more, and
    never more than the coset's one plus a growth from H by the seeds.
    Each of the four occurs."""
    seen = set()
    for case in sorted(RINGS):
        g = RINGS[case]()
        for ring, *family in _families(g):
            spans = _span_order(ring, *family)
            add, shift = ring.add, _translator(ring)
            counting, calls = _counting(shift)
            for node in _subgroup_lattice(ring, *family):
                h = _members(ring, node)
                for x, members, seeds in spans:
                    if not members & ~node:
                        continue  # the span lies in H: no child
                    calls.clear()
                    child = _span_child(add, counting, node, x, members, seeds)
                    span = _members(ring, members)
                    assert _members(ring, child) == {add[a][b] for a in h for b in span}
                    if not node & ~members:
                        branch, cost = "span", len(calls) == 0
                    elif not members & ~(node | shift(node, x)):
                        branch, cost = "coset", len(calls) == 1
                    elif span <= naive_additive_closure(ring, h | {x}):
                        branch, cost = "doubled", len(calls) >= 2
                    else:
                        branch, cost = "seeded", len(calls) >= 2
                    assert cost, (case, branch, sorted(h), x, calls)
                    from_node, grows = _counting(shift)
                    _grow_subgroup(add, from_node, node, seeds)
                    assert len(calls) <= 1 + len(grows), (case, sorted(h), x, calls)
                    seen.add(branch)
    assert seen == {"span", "coset", "doubled", "seeded"}


def _digits(code, radix):
    digits = []
    for r in radix:
        code, d = divmod(code, r)
        digits.append(d)
    return digits


@pytest.mark.parametrize("build", INSTANCE_CASES)
def test_constructor_radix_adds_digitwise(build):
    """Each constructor's radix is the digit radix of its add table: u + v
    adds the digits of u and v, each modulo its radix.  A relabelled even
    part has no radix, so its lattices translate by the add table."""
    g, _ = build()
    assert g.ring.radix is not None
    assert (g.r0_ring.radix is None) == (g.r0_ring is not g.ring)
    ring = g.ring
    radix = ring.radix
    assert math.prod(radix) == ring.size
    places = [math.prod(radix[:k]) for k in range(len(radix))]
    digits = [_digits(c, radix) for c in range(ring.size)]
    for u, row in enumerate(ring.add):
        du = digits[u]
        assert row == tuple(
            sum((a + b) % r * w for a, b, r, w in zip(du, dv, radix, places))
            for dv in digits), u


@pytest.mark.parametrize("case", CATALOG_IDS)
def test_lattice_without_radix_matches_all_pairs_closure(case):
    """The same tables with the radix stripped: the lattice translates by
    the add table and finds the same ideals."""
    ring = RINGS[case]().ring
    bare = FiniteRing(ring.size, ring.add, ring.mul, ring.zero, ring.one,
                      ring.provenance, ring.names)
    found = [_members(bare, mask) for mask in _subgroup_lattice(*_ideal_family(bare))]
    assert sorted(found, key=canonical_key) == [m for m, _ in naive_enumerate_ideals(ring)]


def test_a_set_that_is_not_stable_is_rejected_before_the_search(monkeypatch):
    # Z/2 (+) F2^7: a subspace of 64 codes with one member swapped for an
    # outside code once took over a second to reject, by a full span search;
    # the stability test now rejects it before any span is built
    spans = []
    span_order = rings._span_order

    def spy(*args):
        spans.append(args)
        return span_order(*args)
    monkeypatch.setattr(rings, "_span_order", spy)
    g = trivial_extension(zmod(2), [2] * 7)
    subspace = sorted(c for c in g.r1 if not c >> 7 & 1)
    outside = min(g.r1.difference(subspace))
    target = frozenset(subspace[:-1] + [outside])
    started = time.perf_counter()
    with pytest.raises(InvalidInputError, match="a set of 64 codes is not a submodule"):
        Submodule(g, target).label()
    with pytest.raises(InvalidInputError, match="a set of 64 codes is not an ideal"):
        Ideal(g.ring, target).generators
    assert time.perf_counter() - started < 0.5
    assert spans == []


@pytest.mark.parametrize("case", CATALOG_IDS)
def test_graded_pairs_match_all_pairs_filter(case):
    g = RINGS[case]()
    got = {(g.embed_ideal(j.i0), j.r_part.members) for j in enumerate_graded_ideals(g)}
    assert got == naive_graded_pairs(g)


@pytest.mark.parametrize("case", CATALOG_IDS)
def test_residual_and_odd_part_match_all_pairs(case):
    g = RINGS[case]()
    for rp in submodules(g):
        assert g.embed_ideal(residual(g, rp)) == naive_residual(g, rp.members)
    for i in enumerate_ideals(g.r0_ring):
        odd = graded_ideal_from_ideal(g, i).r_part.members
        assert odd == naive_odd_part(g, g.embed_ideal(i))


@pytest.mark.parametrize("case", sorted(RINGS))
def test_odd_part_products_and_colons_match_all_pairs(case):
    g = RINGS[case]()
    mul = g.ring.mul

    def colon(part, target):
        return frozenset(e for e in part if all(mul[e][x] in target for x in g.r1))

    groups = [g.embed_ideal(i) for i in enumerate_ideals(g.r0_ring)]
    groups += [m.members for m in submodules(g, 512)]
    for members in groups:
        products = _r1_products(g, members)
        assert products <= {mul[a][x] for a in members for x in g.r1}
        assert naive_additive_closure(g.ring, products) == naive_odd_part(g, members)
        for part in (g.r0, g.r1):
            assert _members(g.ring, _r1_colon(g, part, _mask(members))) == colon(part, members)


@pytest.mark.parametrize("case", CATALOG_IDS)
def test_generator_witnesses_match_greedy_reference(case):
    """Submodule labels name the all-pairs breadth-first path of their
    member set.  (The test name is from the greedy witness that the span
    path replaced; it is kept so the test ids stay stable.)"""
    g = RINGS[case]()
    names = g.ring.names
    paths = dict(naive_submodules(g))
    for m in submodules(g):
        path = paths[m.members]
        assert m.label() == ("(" + ", ".join(names[x] for x in path) + ")" if path else "(0)")


@pytest.mark.parametrize("case", CATALOG_IDS)
def test_maximal_elements_match_all_pairs_reference(case):
    g = RINGS[case]()
    for ring in (g.ring, g.r0_ring):
        ideals = enumerate_ideals(ring)
        expected = naive_maximal_ideals(ideals)
        assert list(spec(ring)) == expected
        assert ([classify_ideal(ring, i).is_maximal for i in ideals]
                == [i in expected for i in ideals])
    proper = [m.members for m in submodules(g) if m.is_proper]
    top = maximal_sets(m.mask for m in submodules(g) if m.is_proper)
    assert {_members(g.ring, mask) for mask in top} == naive_maximal_sets(proper)
    graded = [j.flat_members for j in enumerate_graded_ideals(g) if j.is_proper]
    assert {j.flat_members for j in graded_max(g)} == naive_maximal_sets(graded)


_WITNESS = re.compile(r"^(I0\*R1|R1\*R') escapes the (?:odd|even) part: (.+) \* (.+) = (.+)$")


@pytest.mark.parametrize("case", CATALOG_IDS)
def test_incompatible_pair_names_an_escaping_product(case):
    g = RINGS[case]()
    ring = g.ring
    code = {name: c for c, name in enumerate(ring.names)}
    assert len(code) == ring.size
    incompatible = 0
    for i0 in enumerate_ideals(g.r0_ring):
        i0_ambient = g.embed_ideal(i0)
        for rp in submodules(g):
            if naive_compatible(g, i0_ambient, rp.members):
                continue
            incompatible += 1
            with pytest.raises(InvalidInputError) as info:
                GradedIdeal(g, i0, rp)
            side, left, right, product = _WITNESS.match(str(info.value)).groups()
            a, b, p = code[left], code[right], code[product]
            assert ring.mul[a][b] == p
            if side == "I0*R1":
                assert a in i0_ambient and b in g.r1 and p not in rp.members
            else:
                assert a in g.r1 and b in rp.members and p not in i0_ambient
    assert incompatible or len(g.r1) == 1


def test_incompatible_pair_on_the_odd_side_is_named():
    g = gaussian_integers(4)  # I0 = 0 and R' = R1: I0*R1 = 0, but i*i = -1
    zero = Ideal(g.r0_ring, frozenset({g.r0_ring.zero}))
    with pytest.raises(InvalidInputError, match=r"R1\*R' escapes"):
        GradedIdeal(g, zero, Submodule(g, g.r1))
