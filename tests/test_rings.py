"""Core ring arithmetic, ideal enumeration, classification, radicals.

The brute-force oracles here work straight off the operation tables and never
call the library's ideal machinery, so they can disagree with it.
"""

import itertools
import math

import pytest

from z2spec.errors import (
    EnumerationLimitError,
    InvalidInputError,
    InvalidParameterError,
    RingMismatchError,
)
from z2spec.rings import (
    Ideal,
    classify_ideal,
    enumerate_ideals,
    ideal_from_members,
    ideal_generate,
    is_field,
    poly_quotient,
    product_ring,
    radical,
    spec,
    zmod,
)


def brute_force_ideals(ring):
    """All ideals by filtering every subset containing 0 (oracle)."""
    rest = [c for c in range(ring.size) if c != ring.zero]
    found = []
    for bits in range(2 ** len(rest)):
        members = {ring.zero}
        members.update(c for k, c in enumerate(rest) if bits >> k & 1)
        if all(ring.add[a][b] in members for a in members for b in members) and \
           all(ring.mul[r][a] in members for a in members for r in range(ring.size)):
            found.append(frozenset(members))
    return set(found)


def find_isomorphism(a, b):
    """Exhaustive search for a ring isomorphism (oracle; |a| <= 6)."""
    if a.size != b.size:
        return None
    for image in itertools.permutations(range(b.size)):
        if image[a.zero] != b.zero or image[a.one] != b.one:
            continue
        if all(image[a.add[x][y]] == b.add[image[x]][image[y]]
               and image[a.mul[x][y]] == b.mul[image[x]][image[y]]
               for x in range(a.size) for y in range(a.size)):
            return image
    return None


def test_zmod_basics():
    z2 = zmod(2)
    assert z2.size == 2 and z2.one == 1
    z6 = zmod(6)
    assert (z6(2) * z6(3)).code == 0
    assert zmod(6) is z6  # interned


def test_zmod_field_by_inverse_search():
    z5 = zmod(5)
    inverses = {}
    for a in range(1, 5):
        inverses[a] = [b for b in range(5) if z5.mul[a][b] == 1]
    assert all(len(v) == 1 for v in inverses.values())
    assert is_field(z5)
    assert not is_field(zmod(6))


@pytest.mark.parametrize("bad", [1, 0, -3, 2.5, "6", True])
def test_zmod_rejects_bad_modulus(bad):
    with pytest.raises(InvalidParameterError):
        zmod(bad)


def test_gaussian_table():
    g = poly_quotient(zmod(4), (1, 0, 1), symbol="i")
    assert g.size == 16
    i = g(4)
    assert (i * i).code == 3  # i^2 = -1 = 3
    assert g.names[11] == "3+2i"


def test_poly_quotient_zero_divisor():
    q = poly_quotient(zmod(5), (-1, 0, 1))
    assert q.size == 25
    one_plus = q(6)   # 1 + x
    one_minus = q(21)  # 1 + 4x = 1 - x
    assert (one_plus * one_minus).code == 0


def test_poly_quotient_degree_one_is_base():
    q = poly_quotient(zmod(2), (0, 1))
    z2 = zmod(2)
    assert q.size == 2 and q.add == z2.add and q.mul == z2.mul


def test_poly_quotient_rejects_nonmonic():
    with pytest.raises(InvalidParameterError):
        poly_quotient(zmod(4), (1, 2))
    with pytest.raises(InvalidParameterError):
        poly_quotient(zmod(4), (1,))


def test_default_symbol_is_the_first_letter_free_in_the_base_names():
    from z2spec.grading import quadratic_extension, truncated_poly

    f4 = poly_quotient(zmod(2), (1, 1, 1))
    assert f4 is poly_quotient(zmod(2), (1, 1, 1), "x")
    f4_y = quadratic_extension(f4, 1)  # x already names elements of F4
    assert f4_y is quadratic_extension(f4, 1, "y")
    assert f4_y.ring.provenance == "Z/2[x]/(x^2+x+1)[y]/(y^2+1)"
    assert poly_quotient(f4_y.ring, (0, 1)).provenance.endswith("[z]/(z)")
    for ring in (f4_y.ring, truncated_poly(f4, 2).ring):
        assert len(set(ring.names)) == ring.size
    with pytest.raises(InvalidParameterError, match="occurs in an element name"):
        quadratic_extension(f4, 1, "x")
    with pytest.raises(InvalidParameterError):
        poly_quotient(zmod(2), (1, 1), "1")


def test_an_empty_symbol_is_rejected_as_such():
    # "" occurs in every element name, so it once read as a clash
    from z2spec.grading import quadratic_extension

    for build in (lambda: poly_quotient(zmod(2), [1, 1, 1], symbol=""),
                  lambda: quadratic_extension(zmod(3), 1, "")):
        with pytest.raises(InvalidParameterError,
                           match="^symbol must be a non-empty string$"):
            build()


def test_table_builders_require_zero_code_zero():
    from z2spec.rings import FiniteRing

    # Z/2 with the codes swapped: code 1 is zero, code 0 is one
    swapped = FiniteRing(2, ((1, 0), (0, 1)), ((0, 1), (1, 1)), 1, 0,
                         "swapped Z/2", ("1", "0"))
    with pytest.raises(InvalidParameterError):
        product_ring(zmod(2), swapped)
    with pytest.raises(InvalidParameterError):
        poly_quotient(swapped, [1, 0])


def test_product_crt_isomorphism():
    p = product_ring(zmod(2), zmod(3))
    assert p.size == 6
    assert find_isomorphism(p, zmod(6)) is not None


def test_product_orthogonal_idempotents():
    p = product_ring(zmod(2), zmod(2))
    e1, e2 = p(2), p(1)  # (1,0) and (0,1)
    assert (e1 * e2).code == p.zero
    p55 = product_ring(zmod(5), zmod(5))
    assert p55.size == 25
    assert classify_ideal(p55, ideal_generate(p55, [])).is_prime is False


def test_ideal_generate():
    z6 = zmod(6)
    assert ideal_generate(z6, [2]).members == frozenset({0, 2, 4})
    assert ideal_generate(z6, []).members == frozenset({0})
    g = poly_quotient(zmod(4), (1, 0, 1), symbol="i")
    assert ideal_generate(g, [2, 8]).members == frozenset({0, 2, 8, 10})


def test_ideal_generate_rejects_foreign_elements():
    z6, z4 = zmod(6), zmod(4)
    with pytest.raises(RingMismatchError):
        ideal_generate(z6, [z4(2)])


def test_ideal_from_members_rejects_foreign_elements_and_bad_codes():
    with pytest.raises(RingMismatchError):
        ideal_from_members(zmod(6), [zmod(4)(2)])
    with pytest.raises(InvalidParameterError):
        ideal_from_members(_f4(), [0, 4])  # F4 has codes 0..3


def test_ideal_members_close_generators():
    z12 = zmod(12)
    for ideal in enumerate_ideals(z12):
        assert ideal_generate(z12, ideal.generators).members == ideal.members


def test_enumerate_ideals_zmod6():
    members = [sorted(i.members) for i in enumerate_ideals(zmod(6))]
    assert members == [[0], [0, 3], [0, 2, 4], [0, 1, 2, 3, 4, 5]]


def test_enumerate_ideals_counts():
    assert len(enumerate_ideals(zmod(5))) == 2
    assert len(enumerate_ideals(product_ring(zmod(2), zmod(2)))) == 4


@pytest.mark.parametrize("ring", [
    zmod(6), zmod(8), zmod(12),
    product_ring(zmod(2), zmod(2)),
    product_ring(zmod(2), zmod(3)),
    poly_quotient(zmod(2), (0, 0, 1)),
])
def test_enumerate_ideals_against_brute_force(ring):
    assert {i.members for i in enumerate_ideals(ring)} == brute_force_ideals(ring)


def test_enumerate_ideals_respects_bound():
    with pytest.raises(EnumerationLimitError) as err:
        enumerate_ideals(zmod(12), bound=6)
    assert "6" in str(err.value)


def test_classify_zmod6():
    z6 = zmod(6)
    two = ideal_generate(z6, [2])
    c = classify_ideal(z6, two)
    assert c.is_prime and c.is_maximal and c.is_radical


def test_classify_nilpotent_witness():
    z4 = zmod(4)
    c = classify_ideal(z4, ideal_generate(z4, []))
    assert not c.is_prime and c.prime_witness == (2, 2)


def test_classify_gaussian_ideal_not_prime():
    g = poly_quotient(zmod(4), (1, 0, 1), symbol="i")
    ideal = ideal_generate(g, [2, 8])
    c = classify_ideal(g, ideal)
    assert not c.is_prime
    # the named analogue witness: (1+i)(1-i) = 2 lies inside, both factors outside
    one_plus, one_minus = g(5), g(13)
    assert (one_plus * one_minus).code in ideal
    assert one_plus.code not in ideal and one_minus.code not in ideal


def test_classify_rejects_foreign_ideal():
    z6, z4 = zmod(6), zmod(4)
    with pytest.raises(RingMismatchError):
        classify_ideal(z4, ideal_generate(z6, [2]))


def test_radical():
    z4 = zmod(4)
    assert radical(z4, ideal_generate(z4, [])).members == frozenset({0, 2})
    z6 = zmod(6)
    assert radical(z6, ideal_generate(z6, [])).members == frozenset({0})
    whole = ideal_generate(z6, [1])
    assert radical(z6, whole).members == whole.members


def test_radical_is_intersection_of_primes():
    for ring in (zmod(12), poly_quotient(zmod(4), (1, 0, 1), symbol="i")):
        primes = spec(ring)
        for ideal in enumerate_ideals(ring):
            over = [p.members for p in primes if ideal.members <= p.members]
            expected = frozenset.intersection(*over) if over \
                else frozenset(range(ring.size))
            assert radical(ring, ideal).members == expected


def test_spec_of_zmod():
    assert [sorted(p.members) for p in spec(zmod(6))] == [[0, 3], [0, 2, 4]]
    assert [sorted(p.members) for p in spec(zmod(4))] == [[0, 2]]
    assert [p.members for p in spec(zmod(5))] == [frozenset({0})]


def test_maximal_implies_prime_on_small_rings():
    for ring in (zmod(12), product_ring(zmod(2), zmod(3)),
                 poly_quotient(zmod(2), (0, 0, 1))):
        for ideal in enumerate_ideals(ring):
            c = classify_ideal(ring, ideal)
            if c.is_maximal:
                assert c.is_prime


def test_element_arithmetic_and_mismatch():
    z6 = zmod(6)
    a = z6(5)
    assert (a + 1).code == 0 and (-a).code == 1 and (a - 2).code == 3
    assert (a ** 2).code == 1 and (a ** 0).code == 1
    with pytest.raises(RingMismatchError):
        a + zmod(4)(1)
    with pytest.raises(InvalidParameterError):
        poly_quotient(zmod(2), (1, 1))(7)


def test_ideal_equality_ignores_generators():
    z6 = zmod(6)
    assert ideal_generate(z6, [2]) == ideal_generate(z6, [4, 2])
    assert ideal_generate(z6, [2]) != ideal_generate(z6, [3])
    assert ideal_generate(z6, [3]) < ideal_generate(z6, [1])
    assert ideal_generate(z6, [2]) <= ideal_generate(z6, [2])
    with pytest.raises(RingMismatchError):
        ideal_generate(z6, [2]) < ideal_generate(zmod(4), [2])


def test_ideal_from_members_reduces_generators():
    z12 = zmod(12)
    ideal = ideal_from_members(z12, [0, 2, 4, 6, 8, 10])
    assert ideal.generators == (2,)
    assert ideal.label() == "(2)"


def test_witness_of_a_set_that_is_no_ideal_is_an_input_error():
    # {0, 1} is no sum of principal ideals of Z/6: the search stops after
    # log2 |{0, 1}| = 1 step instead of deepening forever
    z6 = zmod(6)
    with pytest.raises(InvalidInputError, match="not an ideal of Z/6"):
        Ideal(z6, frozenset({0, 1})).generators
    with pytest.raises(InvalidInputError, match="not an ideal of Z/6"):
        ideal_from_members(z6, [0, 1]).label()


def test_catalog_flat_ideals_satisfy_invariants():
    from z2spec.catalog import CATALOG
    from z2spec.rings import ideal_members, is_ideal_set

    for entry in CATALOG:
        ring = entry.build().ring
        for ideal in enumerate_ideals(ring):
            assert is_ideal_set(ring, ideal.members)
            assert ideal_members(ring, ideal.generators) == ideal.members


def test_cached_enumerations_cannot_be_mutated_by_callers():
    from z2spec.graded_ideals import enumerate_graded_ideals
    from z2spec.grading import gaussian_integers, submodules

    z12 = zmod(12)
    ideals = enumerate_ideals(z12)
    assert isinstance(ideals, tuple) and len(ideals) == 6
    with pytest.raises(AttributeError):
        ideals.pop()
    assert len(enumerate_ideals(z12)) == 6
    assert isinstance(spec(z12), tuple) and len(spec(z12)) == 2
    g = gaussian_integers(4)
    assert isinstance(submodules(g), tuple)
    assert isinstance(enumerate_graded_ideals(g), tuple)


# ---------------------------------------------------------------------------
# operation tables against a naive per-pair reference


def _digits(code, radix):
    out = []
    for r in radix:
        code, d = divmod(code, r)
        out.append(d)
    return tuple(out)


def _encode(digits, radix):
    code = 0
    for d, r in zip(reversed(digits), reversed(radix)):
        code = code * r + d
    return code


def reference_tables(radix, add, mul, neg, zero, one, name):
    """Tables built pair by pair: decode both codes into their digit tuples
    (least significant first), operate on the digits, encode the result."""
    elements = [_digits(c, radix) for c in range(math.prod(radix))]
    return {
        "add": tuple(tuple(_encode(add(x, y), radix) for y in elements)
                     for x in elements),
        "mul": tuple(tuple(_encode(mul(x, y), radix) for y in elements)
                     for x in elements),
        "neg": tuple(_encode(neg(x), radix) for x in elements),
        "zero": _encode(zero, radix),
        "one": _encode(one, radix),
        "names": tuple(name(x) for x in elements),
    }


def reference_poly_quotient(base, modulus, symbol):
    """base[X]/(modulus) by schoolbook product and long division."""
    d = len(modulus) - 1
    badd, bmul, bneg = base.add, base.mul, base.neg

    def mul(u, v):
        prod = [base.zero] * (2 * d - 1)
        for i, j in itertools.product(range(d), repeat=2):
            prod[i + j] = badd[prod[i + j]][bmul[u[i]][v[j]]]
        for k in range(2 * d - 2, d - 1, -1):  # subtract prod[k] X^(k-d) m(X)
            c = bneg[prod[k]]
            for j, m in enumerate(modulus):
                prod[k - d + j] = badd[prod[k - d + j]][bmul[c][m]]
        return prod[:d]

    def name(v):
        terms = []
        for k, c in enumerate(v):
            if c == base.zero:
                continue
            coeff = base.names[c]
            if k == 0:
                terms.append(coeff)
                continue
            if c == base.one:
                coeff = ""
            elif "+" in coeff:
                coeff = f"({coeff})"
            terms.append(coeff + (symbol if k == 1 else f"{symbol}^{k}"))
        return "+".join(terms) or base.names[base.zero]

    return reference_tables(
        (base.size,) * d,
        lambda u, v: [badd[a][b] for a, b in zip(u, v)], mul,
        lambda u: [bneg[a] for a in u],
        [base.zero] * d, [base.one] + [base.zero] * (d - 1), name)


def reference_product(a, b):
    """Digits (b-part, a-part): the code is ca * |b| + cb."""
    return reference_tables(
        (b.size, a.size),
        lambda x, y: (b.add[x[0]][y[0]], a.add[x[1]][y[1]]),
        lambda x, y: (b.mul[x[0]][y[0]], a.mul[x[1]][y[1]]),
        lambda x: (b.neg[x[0]], a.neg[x[1]]),
        (b.zero, a.zero), (b.one, a.one),
        lambda x: f"({a.names[x[1]]},{b.names[x[0]]})")


def reference_trivial_extension(n, orders):
    """Digits (r, m_1, .., m_k) with (r,m)(r',m') = (rr', rm' + r'm)."""
    radix = (n,) + tuple(orders)

    def module_name(m):
        return str(m[0]) if len(m) == 1 else "(" + ",".join(map(str, m)) + ")"

    return reference_tables(
        radix,
        lambda x, y: tuple((p + q) % o for p, q, o in zip(x, y, radix)),
        lambda x, y: ((x[0] * y[0]) % n,) + tuple(
            (x[0] * q + y[0] * p) % o
            for p, q, o in zip(x[1:], y[1:], radix[1:])),
        lambda x: tuple(-p % o for p, o in zip(x, radix)),
        (0,) * len(radix), (1,) + (0,) * len(orders),
        lambda x: f"({x[0]},{module_name(x[1:])})")


def _f4():
    return poly_quotient(zmod(2), [1, 1, 1])


def _table_cases():
    from z2spec.grading import (gaussian_integers, quadratic_extension,
                                trivial_extension, truncated_poly)

    f4 = _f4()
    return {
        "Z/16[i]": lambda: (gaussian_integers(16).ring,
                            reference_poly_quotient(zmod(16), (1, 0, 1), "i")),
        "Z/2[x]/(x^8)": lambda: (truncated_poly(zmod(2), 8).ring,
                                 reference_poly_quotient(zmod(2), (0,) * 8 + (1,), "x")),
        "F4": lambda: (f4, reference_poly_quotient(zmod(2), (1, 1, 1), "x")),
        "F4[i]": lambda: (quadratic_extension(f4, 1, "i").ring,
                          reference_poly_quotient(f4, (1, 0, 1), "i")),
        "(Z/2 x Z/3) x F4": lambda: (
            product_ring(product_ring(zmod(2), zmod(3)), f4),
            reference_product(product_ring(zmod(2), zmod(3)), f4)),
        "Z/4 + Z/2 + Z/4": lambda: (trivial_extension(zmod(4), [2, 4]).ring,
                                    reference_trivial_extension(4, [2, 4])),
        "Z/2 + F2^3": lambda: (trivial_extension(zmod(2), [2, 2, 2]).ring,
                               reference_trivial_extension(2, [2, 2, 2])),
        # product bases, whose unit is not code 1, so X is not code |base|
        "(Z/2 x Z/3)[x]/(x^2-1)": lambda: (
            quadratic_extension(product_ring(zmod(2), zmod(3)), 4).ring,
            reference_poly_quotient(product_ring(zmod(2), zmod(3)), (5, 0, 4), "x")),
        "(F4 x Z/2)[x]/(x^2-1)": lambda: (
            quadratic_extension(product_ring(f4, zmod(2)), 3).ring,
            reference_poly_quotient(product_ring(f4, zmod(2)), (3, 0, 3), "y")),
    }


@pytest.mark.parametrize("case", list(_table_cases()))
def test_tables_match_per_pair_reference(case):
    ring, reference = _table_cases()[case]()
    for field, expected in reference.items():
        assert getattr(ring, field) == expected, field


def test_catalog_mul_tables_are_symmetric():
    from z2spec.catalog import CATALOG

    for entry in CATALOG:
        g = entry.build()
        for ring in (g.ring, g.r0_ring):
            mul = ring.mul
            assert all(mul[x][y] == mul[y][x]
                       for x in range(ring.size) for y in range(x)), entry.instance_id
