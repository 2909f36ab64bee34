"""Graded primes, the contraction homeomorphism, graded radical, dimension."""

import pytest

from instance_cases import INSTANCE_CASES
from naive_closure import (
    naive_enumerate_ideals,
    naive_graded_radical,
    naive_maximal_ideals,
    naive_radical,
)
from z2spec.catalog import CATALOG
from z2spec.errors import EnumerationLimitError, InvalidInputError
from z2spec.instances import InstanceSpec
from z2spec.graded_ideals import (
    decompose_graded,
    enumerate_graded_ideals,
    graded_ideal_from_ideal,
)
from z2spec.grading import (
    Submodule,
    gaussian_integers,
    quadratic_extension,
    submodules,
    trivial_extension,
    trivially_graded,
    truncated_poly,
)
from z2spec.rings import (
    IdealClassification,
    _no_pair_inside,
    classify_ideal,
    enumerate_ideals,
    ideal_from_members,
    ideal_generate,
    prime_violation,
    radical,
    spec,
    zmod,
)
from z2spec.maxfield import graded_max
from z2spec.spectrum import (
    PrimeKind,
    classify_graded_prime,
    graded_radical,
    graded_spec,
    homogeneous_dim,
    is_graded_prime,
    is_prime_submodule,
    phi,
    phi_inverse,
    r1_bracket,
)
from z2spec.verify import run_verify


GAUSSIAN4 = gaussian_integers(4)
GAUSSIAN10 = gaussian_integers(10)
TRIVEXT = trivial_extension(zmod(2), [2])


def even_prime_span(g):
    """The graded ideal (p, p*R1) for the even prime generated by 2."""
    p = ideal_generate(g.r0_ring, [g.to_r0(2)])
    return graded_ideal_from_ideal(g, p)


def test_graded_prime_but_flat_not_prime_in_gaussian10():
    j = even_prime_span(GAUSSIAN10)
    assert is_graded_prime(GAUSSIAN10, j)
    flat = ideal_from_members(GAUSSIAN10.ring, j.flat_members)
    classification = classify_ideal(GAUSSIAN10.ring, flat)
    assert not classification.is_prime
    three_plus = GAUSSIAN10.ring(13)   # 3 + i
    three_minus = GAUSSIAN10.ring(93)  # 3 - i
    assert (three_plus * three_minus).code == 0
    assert 0 in j.flat_members
    assert three_plus.code not in j.flat_members
    assert three_minus.code not in j.flat_members


def test_whole_ring_is_not_graded_prime():
    whole = decompose_graded(GAUSSIAN4, frozenset(range(16)))
    assert not is_graded_prime(GAUSSIAN4, whole)


def test_trivial_extension_zero_even_part_is_graded_prime():
    j = [x for x in enumerate_graded_ideals(TRIVEXT)
         if len(x.i0.members) == 1 and x.r_part.members == TRIVEXT.r1][0]
    assert is_graded_prime(TRIVEXT, j)


def test_is_prime_submodule():
    subs = submodules(GAUSSIAN4)
    assert is_prime_submodule(GAUSSIAN4, subs[1])        # {0, 2i}
    assert not is_prime_submodule(GAUSSIAN4, subs[2])    # R1 itself: not proper
    g2 = gaussian_integers(2)
    zero = Submodule(g2, frozenset({0}))
    assert is_prime_submodule(g2, zero)
    from z2spec.grading import residual
    assert residual(g2, zero).members == frozenset({0})
    # zero submodule is not prime in Z4[i]: 2 * i = 2i is in {0}^c but 2*2i = 0
    assert not is_prime_submodule(GAUSSIAN4, Submodule(GAUSSIAN4, frozenset({0})))


def test_classify_cases():
    te_prime = graded_spec(TRIVEXT).graded_points[0]
    assert te_prime.kind is PrimeKind.FULL_ODD_PART
    assert te_prime.p.members == frozenset({0})

    g4_prime = graded_spec(GAUSSIAN4).graded_points[0]
    assert g4_prime.kind is PrimeKind.PRIME_SUBMODULE
    assert sorted(g4_prime.ideal.r_part.members) == [0, 8]
    assert sorted(g4_prime.p.members) == [0, 2]

    g2 = gaussian_integers(2)
    z2_prime = graded_spec(g2).graded_points[0]
    assert z2_prime.kind is PrimeKind.PRIME_SUBMODULE
    assert z2_prime.ideal.r_part.members == frozenset({0})
    assert z2_prime.p.members == frozenset({0})


def test_classify_rejects_non_prime():
    zero_pair = enumerate_graded_ideals(GAUSSIAN4)[0]
    assert not is_graded_prime(GAUSSIAN4, zero_pair)
    with pytest.raises(InvalidInputError):
        classify_graded_prime(GAUSSIAN4, zero_pair)


def test_phi_and_phi_inverse():
    point = graded_spec(GAUSSIAN4).graded_points[0]
    assert sorted(phi(GAUSSIAN4, point).members) == [0, 2]
    p = ideal_generate(GAUSSIAN4.r0_ring, [2])
    back = phi_inverse(GAUSSIAN4, p)
    assert back.ideal == point.ideal

    q = quadratic_extension(zmod(5), 1)
    zero_prime = phi_inverse(q, ideal_generate(q.r0_ring, []))
    assert zero_prime.ideal.flat_members == frozenset({0})

    te_point = phi_inverse(TRIVEXT, ideal_generate(TRIVEXT.r0_ring, []))
    assert te_point.kind is PrimeKind.FULL_ODD_PART
    assert te_point.ideal.r_part.members == TRIVEXT.r1


def test_phi_inverse_rejects_non_prime():
    with pytest.raises(InvalidInputError):
        phi_inverse(GAUSSIAN4, ideal_generate(GAUSSIAN4.r0_ring, []))  # (0) not prime in Z4


def test_graded_spec_both_methods():
    """``spec --graded`` and ``export-dot`` print the constructive spectrum;
    it matches the definitional one in everything they print, in order."""
    def printed(g, method):
        return [(gp.label(), gp.kind, gp.flat_members, gp.p.members, gp.p.label())
                for gp in graded_spec(g, method).graded_points]
    for entry in CATALOG:
        g = entry.build()
        assert printed(g, "constructive") == printed(g, "definitional"), entry.instance_id
    with pytest.raises(InvalidInputError):
        graded_spec(GAUSSIAN4, "magic")


def test_graded_spec_strictly_smaller_than_flat_spec():
    q = quadratic_extension(zmod(5), 1)
    assert len(graded_spec(q).graded_points) == 1
    assert len(spec(q.ring)) == 2


def _records(recipe: dict, suite: str) -> dict:
    """Record name -> (status, witness) of one suite run on a recipe."""
    return {r.name: (r.status, r.witness)
            for r in run_verify(InstanceSpec(recipe), [suite]).checks}


def _truncpoly(n: int, k: int) -> dict:
    return {"kind": "truncated_poly", "base": {"kind": "zmod", "n": n}, "k": k}


def test_check_homeomorphism_passes():
    for recipe in ({"kind": "gaussian", "n": 4}, {"kind": "zmod", "n": 6},
                   _truncpoly(2, 3), {"kind": "gaussian", "n": 10}):
        assert _records(recipe, "homeo") == {
            f"homeo.{name}": ("pass", None)
            for name in ("contraction-bijective",
                         "contraction-roundtrip", "even-variety-pullback",
                         "homogeneous-variety-image")}


def test_check_nil_case():
    name = "spectrum.nil-square-collapse"
    trivext = {"kind": "trivial_extension", "n": 2, "orders": [2]}
    assert _records(trivext, "spectrum")[name] == ("pass", None)
    assert _records(_truncpoly(4, 2), "spectrum")[name] == ("pass", None)
    assert _records({"kind": "gaussian", "n": 4}, "spectrum")[name] == (
        "not-applicable", "odd part squared is not nilpotent")


def test_r1_bracket():
    tp = truncated_poly(zmod(4), 2)
    zero = ideal_generate(tp.r0_ring, [])
    assert r1_bracket(tp, zero).members == tp.r1
    two = ideal_generate(GAUSSIAN4.r0_ring, [2])
    assert sorted(r1_bracket(GAUSSIAN4, two).members) == [0, 8]
    whole = ideal_generate(GAUSSIAN4.r0_ring, [1])
    assert r1_bracket(GAUSSIAN4, whole).members == GAUSSIAN4.r1


def test_graded_radical_examples():
    tp = truncated_poly(zmod(4), 2)
    zero = enumerate_graded_ideals(tp)[0]
    expected = None
    for method in ("definitional", "intersection", "formula"):
        result = graded_radical(tp, zero, method)
        assert sorted(result.i0.members) == [0, tp.to_r0(2)]
        assert result.r_part.members == tp.r1
        expected = expected or result
        assert result == expected

    whole = decompose_graded(GAUSSIAN4, frozenset(range(16)))
    for method in ("definitional", "intersection", "formula"):
        assert not graded_radical(GAUSSIAN4, whole, method).is_proper

    zero4 = enumerate_graded_ideals(GAUSSIAN4)[0]
    point = graded_spec(GAUSSIAN4).graded_points[0]
    for method in ("definitional", "intersection", "formula"):
        assert graded_radical(GAUSSIAN4, zero4, method).flat_members == \
            point.flat_members


def test_graded_radical_nonradical_even_part_regression():
    # R = Z4[x]/(x^2 - 2), J = ((0), {0, 2x}): the odd bracket must be taken
    # against sqrt(J0), not J0 itself, or the closed form loses half of R1.
    q = quadratic_extension(zmod(4), 2)
    j = [x for x in enumerate_graded_ideals(q)
         if len(x.i0.members) == 1 and len(x.r_part.members) == 2][0]
    results = [graded_radical(q, j, m)
               for m in ("definitional", "intersection", "formula")]
    assert results[0] == results[1] == results[2]
    assert results[0].r_part.members == q.r1


@pytest.mark.parametrize("g", [
    GAUSSIAN4,
    gaussian_integers(2),
    TRIVEXT,
    trivial_extension(zmod(4), [4]),
    quadratic_extension(zmod(4), 2),
    quadratic_extension(zmod(5), 1),
    truncated_poly(zmod(4), 3),
    trivially_graded(zmod(12)),
])
def test_graded_radical_three_way_and_laws(g):
    for j in enumerate_graded_ideals(g):
        by_def = graded_radical(g, j, "definitional")
        by_int = graded_radical(g, j, "intersection")
        by_formula = graded_radical(g, j, "formula")
        assert by_def == by_int == by_formula
        assert j.flat_members <= by_def.flat_members
        assert graded_radical(g, by_def, "formula") == by_def


@pytest.mark.parametrize("case", INSTANCE_CASES)
def test_radicals_match_the_power_walk_cold_and_warm(case, monkeypatch):
    # empty caches: the first call of each radical computes it, the second
    # one may read the idempotent fibres and memos the first call left behind
    g, bound = case()
    for owner in (g, g.ring, g.r0_ring):
        monkeypatch.setattr(owner, "_cache", {})
    for ring in dict.fromkeys((g.ring, g.r0_ring)):
        for ideal in enumerate_ideals(ring, bound):
            first = radical(ring, ideal)
            assert first.members == naive_radical(ring, ideal.members), ideal
            again = radical(ring, ideal)
            assert again == first and again.generators == first.generators
    for j in enumerate_graded_ideals(g, bound):
        expected = naive_graded_radical(g, j.flat_members)
        for method in ("definitional", "intersection", "formula"):
            first = graded_radical(g, j, method, bound)
            assert first.flat_members == expected, (j.label(), method)
            again = graded_radical(g, j, method, bound)
            assert again == first and again.label() == first.label()


@pytest.mark.parametrize("case", INSTANCE_CASES)
def test_spec_from_idempotents_matches_the_prime_filter(case, monkeypatch):
    """Spec is the primes by definition, and also Max: in a finite ring
    every prime is maximal."""
    g, bound = case()
    for ring in dict.fromkeys((g.ring, g.r0_ring)):
        monkeypatch.setattr(ring, "_cache", {})
        points = spec(ring, bound)
        assert "ideals" not in ring._cache
        ideals = enumerate_ideals(ring, bound)
        primes = [i for i in ideals
                  if i.is_proper and prime_violation(ring, i.members) is None]
        assert list(points) == primes
        paths = dict(naive_enumerate_ideals(ring))
        assert [p.generators for p in points] == [paths[p.members] for p in points]
        assert list(points) == naive_maximal_ideals(ideals)


@pytest.mark.parametrize("g", [entry.build() for entry in CATALOG],
                         ids=[entry.instance_id for entry in CATALOG])
def test_squares_first_test_agrees_with_the_pair_scan(g):
    """The boolean primality test answers exactly as the first-pair scan
    does, over all codes and over the homogeneous ones, and reads its codes
    once: a one-shot iterator gives the same answer."""
    mul = g.ring.mul
    homogeneous = g.homogeneous_codes()
    for ring in dict.fromkeys((g.ring, g.r0_ring)):
        for i in enumerate_ideals(ring):
            expected = prime_violation(ring, i.members) is None
            assert _no_pair_inside(ring, range(ring.size), i.mask) == expected
            assert _no_pair_inside(ring, iter(range(ring.size)), i.mask) == expected
    for j in enumerate_graded_ideals(g):
        m = j.flat_members
        outside = [c for c in homogeneous if c not in m]
        expected = all(mul[r][s] not in m for r in outside for s in outside)
        assert _no_pair_inside(g.ring, iter(homogeneous), j.mask) == expected


BOUNDED_CALLS = {
    "enumerate_ideals(R)": lambda g, b: enumerate_ideals(g.ring, b),
    "enumerate_ideals(R0)": lambda g, b: enumerate_ideals(g.r0_ring, b),
    "spec(R)": lambda g, b: spec(g.ring, b),
    "spec(R0)": lambda g, b: spec(g.r0_ring, b),
    "classify_ideal (0)": lambda g, b: classify_ideal(
        g.ring, ideal_from_members(g.ring, [g.ring.zero]), b),
    "classify_ideal (1)": lambda g, b: classify_ideal(
        g.ring, ideal_from_members(g.ring, range(g.ring.size)), b),
    "submodules": submodules,
    "enumerate_graded_ideals": enumerate_graded_ideals,
    "graded_spec definitional": lambda g, b: graded_spec(g, "definitional", b).graded_points,
    "graded_spec constructive": lambda g, b: graded_spec(g, "constructive", b).graded_points,
    "graded_max definitional": lambda g, b: graded_max(g, "definitional", b),
    "graded_max constructive": lambda g, b: graded_max(g, "constructive", b),
}


@pytest.mark.parametrize("bound", [4, 8, 16])
def test_bound_gives_the_same_outcome_on_warm_and_cold_caches(bound, monkeypatch):
    # |R0| = 4 and |R| = 16: bound 8 admits the even ring but not the ambient one
    g = GAUSSIAN4

    def outcome(call):
        try:
            return call(g, bound)
        except EnumerationLimitError as exc:
            return str(exc)

    cold = {}
    for name, call in BOUNDED_CALLS.items():
        for owner in (g, g.ring, g.r0_ring):
            monkeypatch.setattr(owner, "_cache", {})
        cold[name] = outcome(call)
    for call in BOUNDED_CALLS.values():
        call(g, None)
    for name, call in BOUNDED_CALLS.items():
        warm = outcome(call)
        assert warm == cold[name], name
        # a hit hands back the cached objects; classify_ideal caches nothing
        if not isinstance(warm, (str, IdealClassification)):
            again = outcome(call)
            assert again is warm or list(map(id, again)) == list(map(id, warm)), name


def test_classify_ideal_checks_the_bound_on_the_unit_ideal_too():
    ring = GAUSSIAN4.ring
    for members in ([ring.zero], range(ring.size)):
        with pytest.raises(EnumerationLimitError):
            classify_ideal(ring, ideal_from_members(ring, members), 8)


def test_homogeneous_dim():
    assert homogeneous_dim(GAUSSIAN4) == (0, 0)
    assert homogeneous_dim(trivially_graded(zmod(6))) == (0, 0)
    assert homogeneous_dim(TRIVEXT) == (0, 0)
