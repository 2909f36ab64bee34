"""Grading constructors, validation, odd-part powers, submodules, matrices."""

import itertools
import re

import pytest

from naive_closure import naive_is_submodule_set
from z2spec.errors import (
    GradingAxiomError,
    GradingDecompositionError,
    InvalidInputError,
    InvalidModuleError,
    InvalidParameterError,
    NotStronglyGradedError,
    RingMismatchError,
)
from z2spec.grading import (
    Matrix2,
    Submodule,
    cyclic_span,
    gaussian_integers,
    grade_manual,
    homogeneous_parts,
    _r0_generators,
    is_strongly_graded,
    matrix_rep,
    quadratic_extension,
    r1_cubed,
    r1_squared,
    residual,
    strong_grading_certificate,
    submodule_generate,
    submodules,
    trivial_extension,
    trivially_graded,
    truncated_poly,
)
from z2spec.rings import is_stable_set, zmod


GAUSSIAN4 = gaussian_integers(4)


def test_grade_manual_gaussian():
    g = grade_manual(GAUSSIAN4.ring, [0, 1, 2, 3], [0, 4, 8, 12])
    assert g.r0 == frozenset({0, 1, 2, 3})
    assert g.r1 == frozenset({0, 4, 8, 12})


def test_grade_manual_trivial():
    g = trivially_graded(zmod(6))
    assert g.r1 == frozenset({0})
    assert g.r0_ring is g.ring


def test_grade_manual_rejects_bad_partition():
    with pytest.raises((GradingDecompositionError, GradingAxiomError)):
        grade_manual(zmod(6), [0, 2, 4], [0, 3])


def test_grade_manual_rejects_overlap():
    with pytest.raises(GradingDecompositionError):
        grade_manual(zmod(6), [0, 1, 2, 3, 4, 5], [0, 3])


def test_grade_manual_rejects_non_subgroup():
    with pytest.raises(GradingDecompositionError):
        grade_manual(GAUSSIAN4.ring, [0, 1, 2, 3], [0, 4])


def test_quadratic_extension_shape():
    g = quadratic_extension(zmod(4), -1)
    i = g.ring(4)
    assert (i * i).code == 3
    assert is_strongly_graded(g)
    assert gaussian_integers(4) is quadratic_extension(zmod(4), -1, symbol="i")


def test_quadratic_graded_field_shape():
    g = quadratic_extension(zmod(5), 1)
    x = g.ring(5)
    assert ((g.ring(1) + x) * (g.ring(1) - x)).code == 0


def test_quadratic_alpha_zero_square_zero_part():
    g = quadratic_extension(zmod(2), 0)
    x = g.ring(2)
    assert (x * x).code == 0
    assert r1_squared(g).members == frozenset({g.r0_ring.zero})


def test_trivial_extension_matches_square_zero_quadratic():
    from test_rings import find_isomorphism
    te = trivial_extension(zmod(2), [2])
    q = quadratic_extension(zmod(2), 0)
    assert te.ring.size == 4
    assert find_isomorphism(te.ring, q.ring) is not None


def test_trivial_extension_square_zero():
    te = trivial_extension(zmod(4), [2])
    assert te.ring.size == 8
    mul = te.ring.mul
    assert all(mul[x][y] == 0 for x in te.r1 for y in te.r1)


def test_trivial_extension_empty_module():
    te = trivial_extension(zmod(3), [])
    assert te.ring.size == 3
    assert te.r1 == frozenset({0})


def test_trivial_extension_rejects_bad_orders():
    with pytest.raises(InvalidModuleError):
        trivial_extension(zmod(4), [3])
    with pytest.raises(InvalidModuleError):
        trivial_extension(zmod(4), [0])
    with pytest.raises(InvalidParameterError):
        trivial_extension(gaussian_integers(2).ring, [2])


def test_truncated_poly_grading():
    g = truncated_poly(zmod(4), 2)
    x = g.ring(4)
    assert (x * x).code == 0
    h = truncated_poly(zmod(2), 3)
    assert sorted(h.r0) == [0, 1, 4, 5]
    assert sorted(h.r1) == [0, 2]
    assert sorted(h.embed_ideal(r1_squared(h))) == [0, 4]
    assert r1_cubed(h).members == frozenset({0})
    k1 = truncated_poly(zmod(2), 1)
    assert k1.r1 == frozenset({0})
    with pytest.raises(InvalidParameterError):
        truncated_poly(zmod(2), 0)


def test_homogeneous_parts():
    even, odd = homogeneous_parts(GAUSSIAN4, 11)  # 3 + 2i
    assert even.code == 3 and odd.code == 8
    z_even, z_odd = homogeneous_parts(GAUSSIAN4, 0)
    assert z_even.code == 0 and z_odd.code == 0
    h = truncated_poly(zmod(2), 2)
    even, odd = homogeneous_parts(h, 3)  # 1 + x
    assert even.code == 1 and odd.code == 2
    with pytest.raises(RingMismatchError):
        homogeneous_parts(GAUSSIAN4, zmod(6)(1))


def test_homogeneous_parts_unique_and_total():
    for g in (GAUSSIAN4, truncated_poly(zmod(2), 3), trivial_extension(zmod(4), [2])):
        seen = {}
        for x0 in g.r0:
            for x1 in g.r1:
                s = g.ring.add[x0][x1]
                assert s not in seen
                seen[s] = (x0, x1)
        assert len(seen) == g.ring.size
        for x in range(g.ring.size):
            assert g.parts(x) == seen[x]


def test_r1_squared_and_cubed_gaussian():
    assert r1_squared(GAUSSIAN4).members == frozenset(range(4))
    assert r1_cubed(GAUSSIAN4).members == GAUSSIAN4.r1
    te = trivial_extension(zmod(2), [2])
    assert te.embed_ideal(r1_squared(te)) == frozenset({0})
    assert r1_cubed(te).members == frozenset({0})


def test_is_strongly_graded():
    assert is_strongly_graded(GAUSSIAN4)
    assert is_strongly_graded(quadratic_extension(zmod(5), 2))
    assert not is_strongly_graded(trivial_extension(zmod(2), [2]))
    assert not is_strongly_graded(quadratic_extension(zmod(4), 2))


def test_strong_grading_certificate():
    for g in (GAUSSIAN4, quadratic_extension(zmod(5), 2), gaussian_integers(12)):
        pairs = strong_grading_certificate(g)
        total = g.ring(0)
        for a, b in pairs:
            total = total + a * b
        assert total.code == g.ring.one
        assert submodule_generate(g, [a for a, _ in pairs]).members == g.r1
    with pytest.raises(NotStronglyGradedError):
        strong_grading_certificate(trivial_extension(zmod(2), [2]))


def test_matrix_rep_values():
    m = matrix_rep(GAUSSIAN4, 9)  # 1 + 2i
    assert m.entries == ((1, 8), (8, 1))
    assert matrix_rep(GAUSSIAN4, GAUSSIAN4.ring.one).entries == ((1, 0), (0, 1))
    assert matrix_rep(GAUSSIAN4, 0).entries == ((0, 0), (0, 0))
    square = GAUSSIAN4.ring(9) * GAUSSIAN4.ring(9)
    assert m * m == matrix_rep(GAUSSIAN4, square)


@pytest.mark.parametrize("g", [
    GAUSSIAN4,
    truncated_poly(zmod(2), 3),
    trivial_extension(zmod(4), [2]),
    quadratic_extension(zmod(5), 1),
    truncated_poly(zmod(4), 3),
])
def test_matrix_rep_is_injective_homomorphism(g):
    size = g.ring.size
    for x in range(size):
        for y in range(size):
            xy = g.ring.mul[x][y]
            s = g.ring.add[x][y]
            assert matrix_rep(g, x) * matrix_rep(g, y) == matrix_rep(g, xy)
            assert matrix_rep(g, x) + matrix_rep(g, y) == matrix_rep(g, s)
    zero = Matrix2(g.ring, ((0, 0), (0, 0)))
    assert [x for x in range(size) if matrix_rep(g, x) == zero] == [0]


def test_submodules_gaussian():
    subs = submodules(GAUSSIAN4)
    assert [sorted(s.members) for s in subs] == [[0], [0, 8], [0, 4, 8, 12]]


def test_submodules_are_brute_force_complete():
    # oracles: filter all subsets of R1 for closure (|R1| <= 4), by the
    # library's closure test and by the all-pairs reference
    for g in (GAUSSIAN4, trivial_extension(zmod(4), [2]), truncated_poly(zmod(2), 3)):
        odd = sorted(g.r1 - {0})
        expected, naive = set(), set()
        for bits in range(2 ** len(odd)):
            members = frozenset({0} | {c for k, c in enumerate(odd) if bits >> k & 1})
            if members <= g.r1 and is_stable_set(g.ring, _r0_generators(g), members):
                expected.add(members)
            if naive_is_submodule_set(g, members):
                naive.add(members)
        assert {s.members for s in submodules(g)} == expected == naive


def test_residual():
    subs = submodules(GAUSSIAN4)
    assert sorted(residual(GAUSSIAN4, subs[1]).members) == [0, 2]
    assert residual(GAUSSIAN4, subs[2]).members == frozenset(range(4))
    res = residual(GAUSSIAN4, subs[0])
    assert sorted(res.members) == [0]
    # residual * R1 always lands back in the submodule
    for rp in subs:
        amb = GAUSSIAN4.embed_ideal(residual(GAUSSIAN4, rp))
        assert all(GAUSSIAN4.ring.mul[a][x] in rp.members
                   for a in amb for x in GAUSSIAN4.r1)


def test_cyclic_span():
    assert cyclic_span(GAUSSIAN4, 8) == frozenset({0, 8})
    assert cyclic_span(GAUSSIAN4, 4) == GAUSSIAN4.r1


def test_submodule_rejects_members_outside_the_odd_part():
    # 3 is even in the trivially graded Z/6, so {0, 3} is no odd part
    g = trivially_graded(zmod(6))
    with pytest.raises(InvalidParameterError, match="3 is not in the odd part"):
        Submodule(g, frozenset({0, 3}))
    assert Submodule(g, frozenset({0})).members == g.r1


@pytest.mark.parametrize("code", [99, 16, -1])
def test_submodule_rejects_a_code_outside_the_ring(code):
    # Z/4[i] has the codes 0..15; the member mask is built at construction
    with pytest.raises(InvalidParameterError, match=f"code {code} is not in the odd part"):
        Submodule(GAUSSIAN4, frozenset({0, code}))


@pytest.mark.parametrize("member", ["a", 1.0])
def test_submodule_names_a_member_that_is_no_code(member):
    with pytest.raises(InvalidParameterError,
                       match=re.escape(f"code {member!r} is not in the odd part")):
        Submodule(gaussian_integers(3), frozenset({0, member}))


def test_label_of_a_set_that_is_no_submodule_is_an_input_error():
    # {0, i} lies in R1 of Z/4[i] but is no submodule: R0*i is all of R1
    with pytest.raises(InvalidInputError,
                       match=r"not a submodule of the odd part of Z/4\[i\]"):
        Submodule(GAUSSIAN4, frozenset({0, 4})).label()
    assert Submodule(GAUSSIAN4, frozenset({0, 8})).label() == "(2i)"
