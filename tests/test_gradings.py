"""Every Z/2-grading of a pinned list of small rings passes every verify
record.

A grading of R is a pair (A, B) of additive subgroups with 1 in A,
A & B = 0 and |A|*|B| = |R| that ``grade_manual`` accepts.  The additive
subgroups of R are its stable subgroups for the multipliers Z*1, so one
lattice walk lists them all.  The catalog grades rings by four
constructors; this sweep shows the verifier grading shapes it has not.
"""

import pytest

from naive_closure import naive_enumerate_ideals
from z2spec.errors import GradingAxiomError, GradingDecompositionError
from z2spec.grading import grade_manual
from z2spec.instances import InstanceSpec, build_instance
from z2spec.rings import (
    _members,
    _subgroup_lattice,
    _unit_multiples,
    additive_closure,
    enumerate_ideals,
)
from z2spec.verify import FAIL, RECORDS, _run, run_verify


def _zmod(n):
    return {"kind": "zmod", "n": n}


def _product(a, b):
    return {"kind": "product", "a": a, "b": b}


def _quotient(base, modulus):
    return {"kind": "poly_quotient", "base": base, "modulus": modulus}


def _truncated(base, k):
    """base[x]/(x^k) as a plain ring."""
    return _quotient(base, [0] * k + [1])


F2 = _zmod(2)
F2_XY = _truncated(_truncated(F2, 2), 2)  # F2[x]/(x^2)[y]/(y^2)

# each ring's recipe and its number of gradings
RINGS = {
    "Z/4": (_zmod(4), 1),
    "Z/8": (_zmod(8), 1),
    "Z/9": (_zmod(9), 1),
    "F2xF2": (_product(F2, F2), 1),
    "F2xZ/4": (_product(F2, _zmod(4)), 1),
    "Z/4xZ/4": (_product(_zmod(4), _zmod(4)), 1),
    "F2[x]/(x^2)": (_truncated(F2, 2), 3),
    "F2[x]/(x^3)": (_truncated(F2, 3), 3),
    "F2[x]/(x^4)": (_truncated(F2, 4), 5),
    "F2[x]/(x^2+1)": (_quotient(F2, [1, 0, 1]), 3),
    "Z/4[x]/(x^2)": (_truncated(_zmod(4), 2), 3),
    "Z/4[x]/(x^2+3)": (_quotient(_zmod(4), [3, 0, 1]), 3),
    "F2[x]/(x^2)[y]/(y^2)": (F2_XY, 29),
    "F2[x]/(x^5)": (_truncated(F2, 5), 5),
    "Z/32": (_zmod(32), 1),
    "F2xF2[x]/(x^2)[y]/(y^2)": (_product(F2, F2_XY), 29),
    "F2[x]/(x^2)xF2[x]/(x^3)": (_product(_truncated(F2, 2), _truncated(F2, 3)), 9),
    "Z/4[x]/(x^2)xF2": (_product(_truncated(_zmod(4), 2), F2), 3),
    "F4[x]/(x^2)xF2": (_product(_truncated(_quotient(F2, [1, 1, 1]), 2), F2), 5),
}


def gradings(recipe):
    """Every grading of the recipe's ring, as a graded ring."""
    ring = build_instance(InstanceSpec(recipe)).ring
    one = ring.one
    masks = _subgroup_lattice(ring, range(ring.size), lambda x: additive_closure(ring, [x]),
                              (one,), (one,) + _unit_multiples(ring)[0])
    groups = [_members(ring, mask) for mask in masks]
    found = []
    for even in groups:
        for odd in groups:
            if one in even and len(even & odd) == 1 and len(even) * len(odd) == ring.size:
                try:
                    found.append(grade_manual(ring, even, odd))
                except (GradingAxiomError, GradingDecompositionError):
                    pass
    return found


@pytest.mark.parametrize("name", RINGS)
def test_every_grading_passes_every_record(name):
    recipe, count = RINGS[name]
    graded = gradings(recipe)
    assert len(graded) == count
    for g in graded:
        records = [_run(record_name, check, g, None) for record_name, check in RECORDS]
        failed = [(record.name, record.witness) for record in records if record.status == FAIL]
        assert failed == [], (sorted(g.r0), sorted(g.r1))


def test_every_grading_of_a_four_dimensional_ring_verifies_as_a_recipe():
    """The 29 gradings of F2[x]/(x^2)[y]/(y^2) as ``graded_manual`` recipes:
    each builds through the nested poly_quotient recipes and verifies."""
    for g in gradings(F2_XY):
        recipe = {"kind": "graded_manual", "base": F2_XY, "r0": sorted(g.r0), "r1": sorted(g.r1)}
        assert run_verify(InstanceSpec(recipe)).status == "pass", recipe


def test_a_trivially_graded_ring_of_256_elements_verifies():
    """F2[x]/(x^2)[y]/(y^2)[z]/(z^2), graded with R1 = 0, is larger than
    every catalog ring: its even part is the whole ring, so each lattice and
    spectrum of R0 is the one of R.  Its 47 ideals are first checked
    against the naive all-pairs closure."""
    recipe = F2
    for symbol in "xyz":
        recipe = {"kind": "poly_quotient", "base": recipe, "modulus": [0, 0, 1],
                  "symbol": symbol}
    ring = build_instance(InstanceSpec(recipe)).ring
    assert ring.size == 256
    naive = [members for members, _ in naive_enumerate_ideals(ring)]
    assert [ideal.members for ideal in enumerate_ideals(ring)] == naive
    assert len(naive) == 47
    report = run_verify(InstanceSpec(recipe))
    assert report.status == "pass"
    assert report.counts == {"ideals": 47, "primes": 1, "graded_ideals": 47,
                             "graded_primes": 1, "graded_maximals": 1}
