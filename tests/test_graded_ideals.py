"""Graded ideal pairs: decomposition criterion, the two construction classes,
enumeration, and the strongly graded bijection."""

import dataclasses
import sys

import pytest

from instance_cases import INSTANCE_CASES
from naive_closure import naive_compatible, naive_is_graded_ideal
from z2spec import grading
from z2spec.catalog import CATALOG
from z2spec.errors import InvalidInputError
from z2spec.graded_ideals import (
    GradedIdeal,
    decompose_graded,
    enumerate_graded_ideals,
    graded_ideal_from_ideal,
    graded_ideal_from_submodule,
    is_graded_ideal,
)
from z2spec.grading import (
    GradedRing,
    Submodule,
    _pair_bounds,
    gaussian_integers,
    quadratic_extension,
    submodules,
    trivial_extension,
    trivially_graded,
    truncated_poly,
)
from z2spec.instances import InstanceSpec, build_instance
from z2spec.rings import Ideal, _mask, enumerate_ideals, ideal_generate, zmod
from z2spec.spectrum import graded_spec
from z2spec.verify import RECORDS, _run, run_verify


GAUSSIAN4 = gaussian_integers(4)


def test_is_graded_ideal_and_decompose():
    ideal = ideal_generate(GAUSSIAN4.ring, [2, 8])
    assert is_graded_ideal(GAUSSIAN4, ideal)
    pair = decompose_graded(GAUSSIAN4, ideal)
    assert sorted(pair.i0.members) == [0, 2]
    assert sorted(pair.r_part.members) == [0, 8]
    assert pair.flat_members == ideal.members
    assert pair.is_proper


def test_one_plus_i_is_not_graded_in_gaussian4():
    # (1+i)^4 = 0 here, so (1+i) is a proper ideal; it does not split.
    ideal = ideal_generate(GAUSSIAN4.ring, [5])
    assert ideal.is_proper
    assert len(ideal.members) == 8
    assert not is_graded_ideal(GAUSSIAN4, ideal)
    with pytest.raises(InvalidInputError):
        decompose_graded(GAUSSIAN4, ideal)


def test_unit_generates_improper_graded_ideal_in_gaussian3():
    g = gaussian_integers(3)
    ideal = ideal_generate(g.ring, [4])  # 1 + i, a unit mod 3
    assert not ideal.is_proper
    assert is_graded_ideal(g, ideal)
    assert not decompose_graded(g, ideal).is_proper


def test_trivial_grading_makes_every_ideal_graded():
    g = trivially_graded(zmod(6))
    for ideal in enumerate_ideals(g.ring):
        assert is_graded_ideal(g, ideal)


def test_is_graded_ideal_rejects_non_ideal():
    with pytest.raises(InvalidInputError):
        is_graded_ideal(GAUSSIAN4, [0, 1])


def test_decompose_graded_rejects_non_ideal_and_non_graded_sets():
    with pytest.raises(InvalidInputError):
        decompose_graded(GAUSSIAN4, [0, 1])
    one_plus_i = ideal_generate(GAUSSIAN4.ring, [5])
    for members in (one_plus_i, one_plus_i.members):
        with pytest.raises(InvalidInputError):
            decompose_graded(GAUSSIAN4, members)


def test_counting_test_agrees_with_all_pairs_sums_on_the_catalog():
    total = not_graded = 0
    for entry in CATALOG:
        g = entry.build()
        for ideal in enumerate_ideals(g.ring):
            expected = naive_is_graded_ideal(g, ideal.members)
            assert is_graded_ideal(g, ideal) == expected, (entry.instance_id, ideal)
            total += 1
            not_graded += not expected
    assert (total, not_graded) == (655, 45)


def test_counting_test_agrees_with_all_pairs_sums_on_a_deep_lattice():
    g = trivial_extension(zmod(2), [2] * 5)
    ideals = enumerate_ideals(g.ring)
    assert len(ideals) == 375
    assert all(is_graded_ideal(g, i) == naive_is_graded_ideal(g, i.members)
               for i in ideals)


def test_from_ideal():
    two = ideal_generate(GAUSSIAN4.r0_ring, [2])
    pair = graded_ideal_from_ideal(GAUSSIAN4, two)
    assert pair.i0 == two
    assert sorted(pair.r_part.members) == [0, 8]
    zero = ideal_generate(GAUSSIAN4.r0_ring, [])
    assert graded_ideal_from_ideal(GAUSSIAN4, zero).flat_members == frozenset({0})
    te = trivial_extension(zmod(4), [2])
    two_te = ideal_generate(te.r0_ring, [te.to_r0(2)])
    pair_te = graded_ideal_from_ideal(te, two_te)
    mul = te.ring.mul
    expected = {mul[a][x] for a in te.embed_ideal(two_te) for x in te.r1}
    assert pair_te.r_part.members == frozenset(expected) | {0}


def test_from_submodule():
    rp = submodules(GAUSSIAN4)[1]  # {0, 2i}
    pair = graded_ideal_from_submodule(GAUSSIAN4, rp)
    assert sorted(pair.i0.members) == [0, 2]
    assert pair.r_part == rp
    whole = graded_ideal_from_submodule(GAUSSIAN4, Submodule(GAUSSIAN4, GAUSSIAN4.r1))
    assert not whole.is_proper
    assert whole.flat_members == frozenset(range(16))


def test_from_submodule_truncated():
    h = truncated_poly(zmod(2), 3)
    rp = Submodule(h, frozenset({0, 2}))  # all of R1 = {0, x}
    pair = graded_ideal_from_submodule(h, rp)
    mul = h.ring.mul
    expected = frozenset(
        a for a in h.r0 if all(mul[a][x] in rp.members for x in h.r1))
    assert h.embed_ideal(pair.i0) == expected


def test_enumerate_graded_ideals_examples():
    te = trivial_extension(zmod(2), [2])
    assert len(enumerate_graded_ideals(te)) == 3
    q = quadratic_extension(zmod(5), 1)
    assert len(enumerate_graded_ideals(q)) == 2
    tz = trivially_graded(zmod(6))
    assert len(enumerate_graded_ideals(tz)) == 4


@pytest.mark.parametrize("g", [
    GAUSSIAN4,
    gaussian_integers(10),
    trivial_extension(zmod(2), [2]),
    trivial_extension(zmod(4), [4]),
    quadratic_extension(zmod(5), 1),
    quadratic_extension(zmod(4), 2),
    truncated_poly(zmod(2), 3),
    trivially_graded(zmod(12)),
])
def test_pair_enumeration_matches_flat_filter(g):
    pair_flats = {j.flat_members for j in enumerate_graded_ideals(g)}
    filtered = {i.members for i in enumerate_ideals(g.ring)
                if is_graded_ideal(g, i)}
    assert pair_flats == filtered


def test_graded_ideal_compatibility_enforced():
    # (R0, {0}) is incompatible whenever R1 != 0: 1 * R1 escapes {0}
    whole = ideal_generate(GAUSSIAN4.r0_ring, [1])
    with pytest.raises(InvalidInputError):
        GradedIdeal(GAUSSIAN4, whole, Submodule(GAUSSIAN4, frozenset({0})))


def test_strongly_graded_correspondence():
    def record(recipe):
        report = run_verify(InstanceSpec(recipe), ["ideals"])
        return next((r.status, r.witness) for r in report.checks
                    if r.name == "ideals.strong-correspondence")

    def quadratic(n, alpha):
        return {"kind": "quadratic", "base": {"kind": "zmod", "n": n}, "alpha": alpha}

    assert record({"kind": "gaussian", "n": 4}) == (
        "pass", "3 even ideals <-> 3 graded ideals")
    for recipe, count in ((quadratic(5, 2), 2), (quadratic(2, 1), 2)):
        assert record(recipe) == (
            "pass", f"{count} even ideals <-> {count} graded ideals")
    assert record({"kind": "trivial_extension", "n": 2, "orders": [2]}) == (
        "not-applicable", "not strongly graded")


def test_graded_ideal_ordering_is_canonical():
    for g in (GAUSSIAN4, gaussian_integers(10)):
        keys = [j.key() for j in enumerate_graded_ideals(g)]
        assert keys == sorted(keys)


@pytest.mark.parametrize("case", INSTANCE_CASES)
def test_pair_bounds_decide_compatibility(case):
    """(I0, R') is compatible exactly when
    I0*R1 <= R' <= (I0 : R1) intersect R1."""
    g, bound = case()
    subs = submodules(g, bound)
    for i0 in enumerate_ideals(g.r0_ring, bound):
        bounds = _pair_bounds(g, i0)
        i0_ambient, low, high = bounds
        assert i0_ambient == _mask(g.embed_ideal(i0))
        assert type(low) is int and type(high) is int  # member masks
        assert _pair_bounds(g, Ideal(i0.ring, i0.members)) is bounds
        for rp in subs:
            between = not low & ~rp.mask and not rp.mask & ~high
            assert between == naive_compatible(g, g.embed_ideal(i0), rp.members)


def test_pair_checks_grow_no_submodule(monkeypatch):
    """A cold graded enumeration plus the ideals suite forms odd-part products
    of even ideals and of R1 only, never of a proper nonzero submodule."""
    g = next(entry.build() for entry in CATALOG if entry.instance_id == "trivext-2-f2x5")
    for owner in (g, g.ring, g.r0_ring):
        monkeypatch.setattr(owner, "_cache", {})
    seen = []
    products = grading._r1_products

    def recording(graded_ring, members):
        members = frozenset(members)
        seen.append(members)
        return products(graded_ring, members)

    for name, module in list(sys.modules.items()):
        if name.startswith("z2spec") and getattr(module, "_r1_products", None) is products:
            monkeypatch.setattr(module, "_r1_products", recording)
    enumerate_graded_ideals(g)
    statuses = {_run(name, check, g, None).status for name, check in RECORDS
                if name.startswith("ideals.")}
    assert statuses <= {"pass", "not-applicable"}
    inner = {m.members for m in submodules(g) if m.is_proper and len(m.members) > 1}
    assert seen and inner.isdisjoint(seen)


def test_cached_graded_ideals_and_primes_are_frozen():
    """Rebinding a field of a cached graded ideal or prime raises, so the
    next call returns the same objects unchanged."""
    g = gaussian_integers(10)
    ideals, points = enumerate_graded_ideals(g), graded_spec(g).graded_points
    j, gp = ideals[0], points[0]
    before = (j.flat_members, j.i0, gp.kind, gp.p)
    for obj, name in ((j, "flat_members"), (j, "i0"), (gp, "kind"), (gp, "p")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, None)
    assert enumerate_graded_ideals(g) is ideals
    assert graded_spec(g).graded_points is points
    assert (j.flat_members, j.i0, gp.kind, gp.p) == before


def test_cold_verify_embeds_no_even_ideal_per_graded_ideal(monkeypatch):
    """A cold full verify of Z/2 x F2^6 (2,826 graded ideals over 2 even
    ideals) embeds even ideals a bounded number of times: each pair reads
    its even ideal's embedding from ``grading._pair_bounds``.  Every
    embedding, ``embed_ideal`` included, goes through ``_embed_mask``."""
    spec_ = InstanceSpec({"kind": "trivial_extension", "n": 2, "orders": [2] * 6})
    g = build_instance(spec_)
    for owner in (g, g.ring, g.r0_ring):
        monkeypatch.setattr(owner, "_cache", {})
    calls = []
    embed = GradedRing._embed_mask

    def counting(self, ideal):
        calls.append(ideal)
        return embed(self, ideal)
    monkeypatch.setattr(GradedRing, "_embed_mask", counting)
    assert run_verify(spec_).status == "pass"
    assert 0 < len(calls) <= 16
