"""The subgroup-growth lattice enumerator and the generator-pair
compatibility tests against all-pairs references: ideals, submodules, graded
pairs, residuals and odd parts on every catalog ring and two larger ones."""

import re

import pytest

from naive_closure import (
    naive_additive_closure,
    naive_compatible,
    naive_enumerate_ideals,
    naive_graded_pairs,
    naive_maximal_ideals,
    naive_maximal_sets,
    naive_odd_part,
    naive_reduce_generators,
    naive_residual,
    naive_submodules,
)
from z2spec.catalog import CATALOG
from z2spec.errors import InvalidInputError
from z2spec.graded_ideals import (
    GradedIdeal,
    enumerate_graded_ideals,
    graded_ideal_from_ideal,
)
from z2spec.grading import (
    Submodule,
    _r1_colon,
    _r1_products,
    gaussian_integers,
    residual,
    submodules,
    trivial_extension,
)
from z2spec.maxfield import graded_max
from z2spec.rings import (
    Ideal,
    _grow_subgroup,
    _ideal_path,
    classify_ideal,
    enumerate_ideals,
    ideal_from_members,
    maximal_sets,
    product_ring,
    spec,
    zmod,
)

RINGS = {entry.instance_id: entry.build for entry in CATALOG}
RINGS.update({
    "Z/16 (+) Z/16": lambda: trivial_extension(zmod(16), [16]),
    "Z/4 (+) (Z/2 (+) Z/4)": lambda: trivial_extension(zmod(4), [2, 4]),
})
CATALOG_IDS = [entry.instance_id for entry in CATALOG]


@pytest.mark.parametrize("base, seeds", [
    ({0, 9, 18}, [1]),  # 1 = (0,1) has order 9 over <(1,0)>
    ({0, 9, 18}, [3, 1]),
    ({0, 3, 6, 9, 12, 15, 18, 21, 24}, [10]),  # 10 = (1,1): three cosets
])
def test_growth_from_a_subgroup_takes_every_coset(base, seeds):
    ring = product_ring(zmod(3), zmod(9))  # code of (a, b) is 9a + b
    grown, gens = _grow_subgroup(ring.add, frozenset(base), seeds)
    assert grown == naive_additive_closure(ring, base | set(seeds))
    assert gens == seeds


@pytest.mark.parametrize("case", sorted(RINGS))
def test_lattices_match_all_pairs_closure(case):
    g = RINGS[case]()
    for ring in (g.ring, g.r0_ring):
        got = [(i.members, i.generators) for i in enumerate_ideals(ring, 512)]
        assert got == naive_enumerate_ideals(ring)
    assert [m.members for m in submodules(g, 512)] == naive_submodules(g)


@pytest.mark.parametrize("case", CATALOG_IDS)
def test_witness_search_finds_the_breadth_first_path(case):
    g = RINGS[case]()
    for ring in (g.ring, g.r0_ring):
        for ideal in enumerate_ideals(ring):
            assert _ideal_path(ring, ideal.members) == ideal.generators, ideal


def _galois_number(k: int, q: int = 2) -> int:
    """G_q(k): the number of subspaces of F_q^k, a sum of Gaussian binomials."""
    total, binomial = 0, 1
    for j in range(k + 1):
        total += binomial
        binomial = binomial * (q ** (k - j) - 1) // (q ** (j + 1) - 1)
    return total


@pytest.mark.parametrize("k, count", [(3, 17), (4, 68), (5, 375)])
def test_deep_catalog_lattices_count_every_subspace(k, count):
    # Z/2 (+) F2^k: every subspace of the square-zero odd part is an ideal,
    # and the whole ring is the one ideal outside it
    g = RINGS[f"trivext-2-f2x{k}"]()
    assert len(enumerate_ideals(g.ring)) == _galois_number(k) + 1 == count


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
            assert _r1_colon(g, part, members) == colon(part, members)


@pytest.mark.parametrize("case", CATALOG_IDS)
def test_generator_witnesses_match_greedy_reference(case):
    g = RINGS[case]()
    ring, mul = g.ring, g.ring.mul

    def ideal_span(gens):
        return naive_additive_closure(ring, {mul[r][x] for x in gens for r in range(ring.size)})

    def submodule_span(gens):
        return naive_additive_closure(ring, {mul[a][x] for x in gens for a in g.r0})

    for i in enumerate_ideals(ring):
        expected = naive_reduce_generators(i.members, ring.zero, ideal_span)
        assert ideal_from_members(ring, i.members).generators == expected
    names = ring.names
    for m in submodules(g):
        gens = naive_reduce_generators(m.members, ring.zero, submodule_span)
        assert m.label() == ("(" + ", ".join(names[x] for x in gens) + ")" if gens else "(0)")


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
    assert maximal_sets(proper) == naive_maximal_sets(proper)
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
    zero = Ideal(g.r0_ring, frozenset({g.r0_ring.zero}), ())
    with pytest.raises(InvalidInputError, match=r"R1\*R' escapes"):
        GradedIdeal(g, zero, Submodule(g, g.r1))
