"""The subgroup-growth closure tests against all-pairs references, on every
subset of a few small rings."""

import pytest

from naive_closure import (
    naive_additive_closure,
    naive_is_ideal_set,
    naive_is_submodule_set,
)
from z2spec.grading import (
    gaussian_integers,
    is_submodule_set,
    quadratic_extension,
    trivial_extension,
    trivially_graded,
    truncated_poly,
)
from z2spec.rings import (
    additive_closure,
    is_ideal_set,
    poly_quotient,
    product_ring,
    zmod,
)


def _subsets(codes):
    codes = sorted(codes)
    for bits in range(2 ** len(codes)):
        yield frozenset(c for k, c in enumerate(codes) if bits >> k & 1)


GRADED = {
    "Z/12": lambda: trivially_graded(zmod(12)),
    "Z/2 x Z/4": lambda: trivially_graded(product_ring(zmod(2), zmod(4))),
    "Z/2[x]/(x^3)": lambda: truncated_poly(zmod(2), 3),
    "Z/2 (+) F2^2": lambda: trivial_extension(zmod(2), [2, 2]),
}


@pytest.mark.parametrize("case", sorted(GRADED))
def test_closure_tests_agree_with_all_pairs_on_every_subset(case):
    g = GRADED[case]()
    ring = g.ring
    ideals = 0
    for members in _subsets(range(ring.size)):
        expected = naive_is_ideal_set(ring, members)
        assert is_ideal_set(ring, members) == expected, sorted(members)
        assert is_submodule_set(g, members) == naive_is_submodule_set(g, members)
        assert additive_closure(ring, members) == naive_additive_closure(ring, members)
        ideals += expected
    assert ideals > 2  # the subsets include proper nonzero ideals


@pytest.mark.parametrize("g", [
    trivial_extension(zmod(2), [2, 2, 2]),
    gaussian_integers(4),
    # R0 = F4 x Z/2 needs several additive generators, so R0-stability is
    # not implied by additive closure as it is for the two rings above
    quadratic_extension(product_ring(poly_quotient(zmod(2), (1, 1, 1)), zmod(2)), 1),
], ids=["Z/2 (+) F2^3", "Z/4[i]", "(F4 x Z/2)[x]/(x^2-(0,1))"])
def test_submodule_test_agrees_with_all_pairs_on_every_odd_subset(g):
    found = 0
    for members in _subsets(g.r1):
        expected = naive_is_submodule_set(g, members)
        assert is_submodule_set(g, members) == expected, sorted(members)
        found += expected
    assert found > 2
