"""Property-based checks: ring axioms on generated instances, closure laws,
radical laws, grading invariants, and parse round-trips."""

from hypothesis import given, strategies as st

from z2spec.catalog import CATALOG
from z2spec.graded_ideals import GradedIdeal, decompose_graded, enumerate_graded_ideals
from z2spec.grading import homogeneous_parts, matrix_rep
from z2spec.instances import (
    InstanceSpec,
    build_instance,
    parse_instance,
    recipe_size,
    serialize_instance,
)
from z2spec.maxfield import norm
from z2spec.rings import (
    FiniteRing,
    _mask,
    _members,
    _translator,
    classify_ideal,
    enumerate_ideals,
    ideal_generate,
    poly_quotient,
    product_ring,
    radical,
    zmod,
)
from z2spec.spectrum import graded_spec, phi, phi_inverse

GRADED_RINGS = [entry.build() for entry in CATALOG]


@st.composite
def plain_rings(draw):
    kind = draw(st.sampled_from(["zmod", "product", "poly"]))
    if kind == "zmod":
        return zmod(draw(st.integers(2, 12)))
    if kind == "product":
        return product_ring(zmod(draw(st.integers(2, 4))),
                            zmod(draw(st.integers(2, 4))))
    base = zmod(draw(st.integers(2, 4)))
    degree = draw(st.integers(1, 2))
    low = tuple(draw(st.integers(0, base.size - 1)) for _ in range(degree))
    return poly_quotient(base, low + (1,))


@st.composite
def ring_with_elements(draw, count=3):
    ring = draw(plain_rings())
    codes = tuple(draw(st.integers(0, ring.size - 1)) for _ in range(count))
    return ring, codes


@st.composite
def graded_with_elements(draw, count=2):
    g = draw(st.sampled_from(GRADED_RINGS))
    codes = tuple(draw(st.integers(0, g.ring.size - 1)) for _ in range(count))
    return g, codes


@given(ring_with_elements())
def test_ring_axioms_sampled(data):
    ring, (x, y, z) = data
    add, mul = ring.add, ring.mul
    assert add[x][y] == add[y][x]
    assert mul[x][y] == mul[y][x]
    assert add[add[x][y]][z] == add[x][add[y][z]]
    assert mul[mul[x][y]][z] == mul[x][mul[y][z]]
    assert mul[x][add[y][z]] == add[mul[x][y]][mul[x][z]]
    assert add[x][ring.zero] == x
    assert mul[x][ring.one] == x
    assert add[x][ring.neg[x]] == ring.zero


@given(ring_with_elements(count=2))
def test_ideal_closure_laws(data):
    ring, gens = data
    ideal = ideal_generate(ring, gens)
    assert all(g in ideal.members for g in gens)
    assert ideal_generate(ring, sorted(ideal.members)).members == ideal.members
    add, mul = ring.add, ring.mul
    members = ideal.members
    assert all(add[a][b] in members for a in members for b in members)
    assert all(mul[r][a] in members
               for a in members for r in range(ring.size))


@st.composite
def ring_with_mask(draw):
    """A ring with a radix (a plain ring, or R or R0 of a catalog entry) or
    the same tables with the radix stripped, a member mask and a code."""
    if draw(st.booleans()):
        ring = draw(plain_rings())
    else:
        g = draw(st.sampled_from(GRADED_RINGS))
        ring = draw(st.sampled_from([g.ring, g.r0_ring]))
    if draw(st.booleans()):
        ring = FiniteRing(ring.size, ring.add, ring.mul, ring.zero, ring.one,
                          ring.provenance, ring.names)
    mask = draw(st.integers(0, (1 << ring.size) - 1))
    return ring, mask, draw(st.integers(0, ring.size - 1))


@given(ring_with_mask())
def test_translating_a_mask_adds_the_code_to_each_member(data):
    ring, mask, s = data
    row = ring.add[s]
    assert _translator(ring)(mask, s) == _mask(row[h] for h in _members(ring, mask))


@given(ring_with_elements(count=1))
def test_radical_laws(data):
    ring, (x,) = data
    ideal = ideal_generate(ring, [x])
    rad = radical(ring, ideal)
    assert ideal.members <= rad.members
    assert radical(ring, rad).members == rad.members


@given(plain_rings())
def test_maximal_implies_prime(ring):
    for ideal in enumerate_ideals(ring):
        c = classify_ideal(ring, ideal)
        if c.is_maximal:
            assert c.is_prime
        if c.is_prime:
            assert c.is_radical


@given(graded_with_elements(count=1))
def test_homogeneous_decomposition_reassembles(data):
    g, (x,) = data
    even, odd = homogeneous_parts(g, x)
    assert even.code in g.r0 and odd.code in g.r1
    assert (even + odd).code == x


@given(graded_with_elements())
def test_matrix_rep_homomorphism_sampled(data):
    g, (x, y) = data
    assert matrix_rep(g, x) * matrix_rep(g, y) == matrix_rep(g, g.ring.mul[x][y])
    assert matrix_rep(g, x) + matrix_rep(g, y) == matrix_rep(g, g.ring.add[x][y])


@given(graded_with_elements())
def test_norm_multiplicative_sampled(data):
    g, (x, y) = data
    product = g.ring.mul[x][y]
    expected = norm(g, x) * norm(g, y)
    assert norm(g, product) == expected


def test_graded_ideal_pair_roundtrip():
    """Every graded ideal of every catalog ring splits back into its pair,
    and the checked pair constructor accepts those halves."""
    for g in GRADED_RINGS:
        for j in enumerate_graded_ideals(g):
            again = decompose_graded(g, j.flat_members)
            assert again.i0 == j.i0 and again.r_part == j.r_part
            assert GradedIdeal(g, j.i0, j.r_part) == j


@given(st.sampled_from(GRADED_RINGS), st.data())
def test_contraction_roundtrip(g, data):
    points = graded_spec(g).graded_points
    gp = points[data.draw(st.integers(0, len(points) - 1))]
    assert phi_inverse(g, phi(g, gp)).flat_members == gp.flat_members


@st.composite
def recipes(draw):
    kind = draw(st.sampled_from(
        ["zmod", "product", "poly_quotient", "gaussian", "quadratic",
         "trivial_extension", "truncated_poly", "graded_manual"]))
    if kind == "zmod":
        return {"kind": "zmod", "n": draw(st.integers(2, 12))}
    if kind == "product":
        return {"kind": "product", "a": {"kind": "zmod", "n": draw(st.integers(2, 4))},
                "b": {"kind": "zmod", "n": draw(st.integers(2, 4))}}
    if kind == "poly_quotient":
        n = draw(st.integers(2, 4))
        low = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2))
        symbol = draw(st.sampled_from([{}, {"symbol": "t"}]))
        return {"kind": "poly_quotient", "base": {"kind": "zmod", "n": n},
                "modulus": low + [1], **symbol}
    if kind == "graded_manual":  # Z/n[x]/(x^2 + a), graded by the degree in x
        n = draw(st.integers(2, 4))
        base = {"kind": "poly_quotient", "base": {"kind": "zmod", "n": n},
                "modulus": [draw(st.integers(0, n - 1)), 0, 1]}
        return {"kind": "graded_manual", "base": base, "r0": list(range(n)),
                "r1": [c * n for c in range(n)]}
    if kind == "gaussian":
        return {"kind": "gaussian", "n": draw(st.integers(2, 12))}
    if kind == "quadratic":
        n = draw(st.integers(2, 5))
        return {"kind": "quadratic", "base": {"kind": "zmod", "n": n},
                "alpha": draw(st.integers(0, n - 1))}
    if kind == "trivial_extension":
        n = draw(st.sampled_from([2, 3, 4, 6]))
        divisors = [m for m in range(1, n + 1) if n % m == 0]
        orders = draw(st.lists(st.sampled_from(divisors), max_size=2))
        return {"kind": "trivial_extension", "n": n, "orders": orders}
    n = draw(st.sampled_from([2, 3, 4]))
    return {"kind": "truncated_poly", "base": {"kind": "zmod", "n": n},
            "k": draw(st.integers(1, 3))}


@given(recipes(), st.one_of(st.none(), st.integers(1, 512)))
def test_instance_round_trip_and_size(recipe, bound):
    spec = InstanceSpec(recipe, bound)
    assert parse_instance(serialize_instance(spec)) == spec
    size = recipe_size(recipe, 256)
    if size is not None:
        g = build_instance(spec, bound=512)
        assert g.ring.size == size
