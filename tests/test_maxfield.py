"""Graded maximal ideals, local/field/domain predicates, presentation, norm."""

import pytest

from z2spec.catalog import CATALOG
from z2spec.errors import NotGradedFieldError
from z2spec.graded_ideals import enumerate_graded_ideals, graded_ideal_from_ideal
from z2spec.grading import (
    gaussian_integers,
    quadratic_extension,
    trivial_extension,
    trivially_graded,
    truncated_poly,
)
from z2spec.maxfield import (
    domain_equivalence_check,
    graded_field_presentation,
    graded_max,
    is_graded_domain,
    is_graded_field,
    is_graded_local,
    is_graded_maximal,
    maximal_submodule_check,
    norm,
    norm_set,
    strongly_graded_domain_matches_base,
)
from z2spec.rings import (
    classify_ideal,
    ideal_from_members,
    max_spec,
    poly_quotient,
    zmod,
)
from z2spec.spectrum import graded_spec


GAUSSIAN4 = gaussian_integers(4)
GAUSSIAN2 = gaussian_integers(2)
GAUSSIAN3 = gaussian_integers(3)
GAUSSIAN5 = gaussian_integers(5)
TRIVEXT = trivial_extension(zmod(2), [2])
Q51 = quadratic_extension(zmod(5), 1)


def test_graded_maximal_but_flat_not_maximal():
    j = [x for x in enumerate_graded_ideals(GAUSSIAN4)
         if x.label() == "(2) + (2i)"][0]
    assert is_graded_maximal(GAUSSIAN4, j)
    flat = ideal_from_members(GAUSSIAN4.ring, j.flat_members)
    classification = classify_ideal(GAUSSIAN4.ring, flat)
    assert not classification.is_prime and not classification.is_maximal
    whole = [x for x in enumerate_graded_ideals(GAUSSIAN4) if not x.is_proper][0]
    assert not is_graded_maximal(GAUSSIAN4, whole)
    zero = enumerate_graded_ideals(Q51)[0]
    assert is_graded_maximal(Q51, zero)


def test_graded_max_examples():
    assert [j.label() for j in graded_max(GAUSSIAN4)] == ["(2) + (2i)"]
    assert [j.label() for j in graded_max(GAUSSIAN4, "constructive")] == \
        ["(2) + (2i)"]
    te_max = graded_max(TRIVEXT)
    assert len(te_max) == 1
    assert te_max[0].i0.members == frozenset({0})
    assert te_max[0].r_part.members == TRIVEXT.r1
    tz = trivially_graded(zmod(6))
    assert len(graded_max(tz)) == 2
    assert graded_max(tz) == graded_max(tz, "constructive")


@pytest.mark.parametrize("g", [
    GAUSSIAN4, GAUSSIAN2, GAUSSIAN5, gaussian_integers(10), TRIVEXT, Q51,
    quadratic_extension(zmod(4), 2), truncated_poly(zmod(4), 3),
    trivially_graded(zmod(12)),
])
def test_graded_max_methods_agree(g):
    assert graded_max(g, "definitional") == graded_max(g, "constructive")


def _maximal_by_definition(g):
    """O(N^2) reference: proper, and no proper graded ideal strictly above."""
    ideals = enumerate_graded_ideals(g)
    return [j for j in ideals if j.is_proper and not any(
        j.flat_members < k.flat_members and k.is_proper for k in ideals)]


@pytest.mark.parametrize("g", [entry.build() for entry in CATALOG]
                         + [trivial_extension(zmod(2), [2] * 5)],
                         ids=[entry.instance_id for entry in CATALOG] + ["trivext-2-f2x5"])
def test_one_pass_graded_max_matches_definition(g):
    expected = _maximal_by_definition(g)
    result = graded_max(g)
    assert result == expected
    for j in enumerate_graded_ideals(g):
        assert is_graded_maximal(g, j) == (j in expected)
    result.clear()  # a fresh list each call: the cache is not shared
    assert graded_max(g) == expected


def test_maximal_submodule_check():
    report = maximal_submodule_check(GAUSSIAN4)
    assert report.passed and report.applicable_count == 2
    report = maximal_submodule_check(quadratic_extension(zmod(5), 2))
    assert report.passed and report.applicable_count == 1
    report = maximal_submodule_check(truncated_poly(zmod(2), 3))
    assert report.passed and report.applicable_count == 0
    assert report.witness == "no applicable submodules"


def test_is_graded_local():
    assert is_graded_local(GAUSSIAN4)
    assert not is_graded_local(trivially_graded(zmod(6)))
    assert is_graded_local(Q51)


def test_is_graded_domain():
    # Z2[i] is a graded domain although (1+i)^2 = 0 in the flat ring
    assert is_graded_domain(GAUSSIAN2)
    one_plus = GAUSSIAN2.ring(3)
    assert (one_plus * one_plus).code == 0
    assert is_graded_domain(Q51)
    assert not is_graded_domain(TRIVEXT)
    for g in (GAUSSIAN2, GAUSSIAN3, GAUSSIAN4, GAUSSIAN5, Q51, TRIVEXT,
              truncated_poly(zmod(2), 3), trivially_graded(zmod(12))):
        assert is_graded_domain(g) == is_graded_domain(g, "structural")


def test_is_graded_field():
    assert is_graded_field(Q51)
    assert any(not Q51.ring.is_unit(c) and c != 0 for c in range(25))  # not a field
    assert is_graded_field(GAUSSIAN2)
    assert not is_graded_field(TRIVEXT)
    for g in (GAUSSIAN2, GAUSSIAN3, GAUSSIAN4, Q51, TRIVEXT,
              quadratic_extension(zmod(5), 0), trivially_graded(zmod(4))):
        assert is_graded_field(g) == is_graded_field(g, "structural")


def test_graded_field_iff_zero_ideal_maximal_and_two_ideals():
    for g in (GAUSSIAN2, GAUSSIAN3, Q51, TRIVEXT, GAUSSIAN4):
        zero = enumerate_graded_ideals(g)[0]
        assert zero.flat_members == frozenset({g.ring.zero})
        assert is_graded_field(g) == is_graded_maximal(g, zero)
        assert is_graded_field(g) == (len(enumerate_graded_ideals(g)) == 2)


def test_graded_field_presentation():
    pres = graded_field_presentation(quadratic_extension(zmod(5), 2))
    assert pres.b.code == 5 and pres.alpha.code == 2
    assert pres.iso_table == tuple(range(25))  # already in target shape

    pres2 = graded_field_presentation(GAUSSIAN2)
    assert pres2.b.code == 2 and pres2.alpha.code == 1
    assert sorted(pres2.iso_table) == list(range(4))

    pres3 = graded_field_presentation(GAUSSIAN3)
    assert pres3.b.code == 3 and pres3.alpha.code == 2  # i^2 = -1 = 2


def test_presentation_variable_is_apart_from_even_part_names():
    f4 = poly_quotient(zmod(2), (1, 1, 1))
    pres = graded_field_presentation(quadratic_extension(f4, 1, symbol="i"))
    assert pres.target.provenance.endswith("[i]/(i^2+1)[y]/(y^2+1)")
    assert not any("y" in name for name in pres.target.r0_ring.names)
    pres = graded_field_presentation(GAUSSIAN3)  # digit-named even part
    assert pres.target.provenance.endswith("[i]/(i^2+1)[x]/(x^2+1)")


def test_graded_field_presentation_rejects_non_fields():
    with pytest.raises(NotGradedFieldError):
        graded_field_presentation(TRIVEXT)
    with pytest.raises(NotGradedFieldError):
        graded_field_presentation(trivially_graded(zmod(5)))  # zero odd part


def test_norm_values():
    x = GAUSSIAN5.ring(7)  # 2 + i
    assert norm(GAUSSIAN5, x).code == 0
    conj = GAUSSIAN5.ring(2) - GAUSSIAN5.ring(5)  # 2 - i
    assert (x * conj).code == 0
    for g in (GAUSSIAN4, Q51, TRIVEXT):
        assert norm(g, g.ring.one).code == g.r0_ring.one
        assert norm(g, 0).code == g.r0_ring.zero
    assert norm_set(GAUSSIAN3) == frozenset({0})


def test_norm_multiplicative_exhaustive_small():
    for g in (GAUSSIAN2, GAUSSIAN3, GAUSSIAN4, TRIVEXT, Q51):
        report = domain_equivalence_check(g)
        assert report.norm_multiplicative
        assert report.pairs_checked == g.ring.size ** 2


def test_norm_multiplicative_exhaustive_large():
    report = domain_equivalence_check(gaussian_integers(12))
    assert report.pairs_checked == 144 ** 2
    assert report.norm_multiplicative


def test_domain_equivalence():
    r3 = domain_equivalence_check(GAUSSIAN3)
    assert r3.is_domain and r3.is_graded_domain and r3.norm_kernel_trivial
    assert r3.equivalence_holds

    r5 = domain_equivalence_check(GAUSSIAN5)
    assert not r5.is_domain and r5.is_graded_domain
    assert not r5.norm_kernel_trivial
    assert GAUSSIAN5.ring(7).code in norm_set(GAUSSIAN5)  # 2+i
    assert r5.equivalence_holds

    r2 = domain_equivalence_check(GAUSSIAN2)
    assert not r2.is_domain and r2.is_graded_domain
    assert 3 in norm_set(GAUSSIAN2)  # 1+i
    assert r2.equivalence_holds


def test_strongly_graded_corollaries():
    for g in (GAUSSIAN2, GAUSSIAN3, GAUSSIAN4, GAUSSIAN5, Q51):
        assert strongly_graded_domain_matches_base(g)
        expected = sorted(
            (graded_ideal_from_ideal(g, p) for p in max_spec(g.r0_ring)),
            key=lambda j: j.key())
        assert graded_max(g) == expected


def test_graded_max_are_graded_prime():
    for g in (GAUSSIAN4, gaussian_integers(10), TRIVEXT,
              trivially_graded(zmod(12))):
        primes = {p.flat_members for p in graded_spec(g).graded_points}
        for j in graded_max(g):
            assert j.flat_members in primes


def test_contraction_restricts_to_maximal_bijection():
    for g in (GAUSSIAN4, gaussian_integers(10), TRIVEXT, Q51,
              trivially_graded(zmod(12)), truncated_poly(zmod(4), 3)):
        images = [j.i0.members for j in graded_max(g)]
        assert len(set(images)) == len(images)
        assert set(images) == {p.members for p in max_spec(g.r0_ring)}
