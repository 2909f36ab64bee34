"""Each structural theorem is checked once, by its named verify record.

The library's constructors validate only their inputs, so a theorem that
stops holding must surface as a ``fail`` of the record that checks it, and
``z2spec verify`` must exit 1, not raise.  Every case below breaks one
theorem by monkeypatching the code that relies on it and names the records
that must catch the break.
"""

import json
import pathlib
from types import SimpleNamespace

import pytest

from naive_norm import naive_domain_equivalence
import z2spec.graded_ideals as graded_ideals
import z2spec.grading as grading
import z2spec.maxfield as maxfield
import z2spec.rings as rings
import z2spec.spectrum as spectrum
import z2spec.verify as verify
from z2spec.catalog import CATALOG
from z2spec.cli import main
from z2spec.errors import TheoremViolationError
from z2spec.grading import Submodule
from z2spec.instances import InstanceSpec, build_instance
from z2spec.rings import Ideal, spec
from z2spec.spectrum import GradedPrime, PrimeKind
from z2spec.verify import run_verify

GOLDEN_DIR = pathlib.Path(__file__).resolve().parents[1] / "golden"
GAUSSIAN2 = {"kind": "gaussian", "n": 2}
GAUSSIAN3 = {"kind": "gaussian", "n": 3}
GAUSSIAN4 = {"kind": "gaussian", "n": 4}
TRIVEXT2 = {"kind": "trivial_extension", "n": 2, "orders": [2]}
TRUNCATED2_5 = {"kind": "truncated_poly", "base": {"kind": "zmod", "n": 2}, "k": 5}
TRIVEXT4 = {"kind": "trivial_extension", "n": 4, "orders": [4]}
TRIVEXT4_M2 = {"kind": "trivial_extension", "n": 4, "orders": [2]}
TRUNCATED4_1 = {"kind": "truncated_poly", "base": {"kind": "zmod", "n": 4}, "k": 1}
QUADRATIC2_0 = {"kind": "quadratic", "base": {"kind": "zmod", "n": 2}, "alpha": 0}
ZMOD6 = {"kind": "zmod", "n": 6}
Z2_X_Z3_I = {"kind": "quadratic", "alpha": 5, "symbol": "i", "base": {
    "kind": "product", "a": {"kind": "zmod", "n": 2}, "b": {"kind": "zmod", "n": 3}}}


def _drop_largest(members: frozenset) -> frozenset:
    """The set without its largest code; a subgroup of more than two
    elements loses closure under addition this way."""
    return members - {max(members)}


def _drop_largest_bit(mask: int) -> int:
    """``_drop_largest`` on a member mask."""
    return mask ^ 1 << mask.bit_length() - 1


def flat_set_not_an_ideal(monkeypatch):
    original = graded_ideals._pair_sum

    def broken(g, even, odd):
        flat = original(g, even, odd)
        return _drop_largest_bit(flat) if flat.bit_count() == g.ring.size else flat
    monkeypatch.setattr(graded_ideals, "_pair_sum", broken)


def _plant_submodules(monkeypatch, module, smallest: int):
    """``module`` builds its submodules from member masks (``Submodule._of``):
    each of more than ``smallest`` members loses its largest code."""
    def broken(g, mask):
        return Submodule._of(g, _drop_largest_bit(mask) if mask.bit_count() > smallest
                             else mask)
    monkeypatch.setattr(module, "Submodule", SimpleNamespace(_of=broken))


def odd_part_not_a_submodule(monkeypatch):
    _plant_submodules(monkeypatch, graded_ideals, 2)


def residual_missing_a_member(monkeypatch):
    original = graded_ideals.residual

    def broken(g, rp):
        ideal = original(g, rp)
        if len(ideal.members) > 2:
            return Ideal(ideal.ring, _drop_largest(ideal.members))
        return ideal
    monkeypatch.setattr(graded_ideals, "residual", broken)


def bracket_missing_an_element(monkeypatch):
    original = spectrum.r1_bracket

    def broken(g, i0):
        bracket = original(g, i0)
        if len(bracket.members) > 1:
            return Submodule(g, _drop_largest(bracket.members))
        return bracket
    monkeypatch.setattr(spectrum, "r1_bracket", broken)
    monkeypatch.setattr(verify, "r1_bracket", broken)


def flat_radical_missing_an_element(monkeypatch):
    original = spectrum.radical_members

    def broken(ring, inside):
        # the smallest nonzero code: in Z/4[i] a homogeneous one, which the
        # split of the radical along the grading cannot step over
        rad = original(ring, inside)
        nonzero = rad & ~(1 << ring.zero)
        return rad ^ (nonzero & -nonzero)
    monkeypatch.setattr(spectrum, "radical_members", broken)


def wrong_prime_tag(monkeypatch):
    original = GradedPrime.kind.fget
    flipped = {PrimeKind.FULL_ODD_PART: PrimeKind.PRIME_SUBMODULE,
               PrimeKind.PRIME_SUBMODULE: PrimeKind.FULL_ODD_PART}
    monkeypatch.setattr(GradedPrime, "kind", property(lambda gp: flipped[original(gp)]))


def non_prime_accepted(monkeypatch):
    # the zero ideal of Z/2 (+) Z/2 is tagged as a prime-submodule prime,
    # but R1^3 = 0 lies inside its odd part
    monkeypatch.setattr(spectrum, "is_graded_prime", lambda g, j: j.is_proper)


def contraction_not_prime(monkeypatch):
    def broken(gp):
        r0 = gp.ideal.graded_ring.r0_ring
        return Ideal(r0, frozenset({r0.zero}))
    monkeypatch.setattr(GradedPrime, "p", property(broken))


def contraction_not_reindexed(monkeypatch):
    # p read off the even half of the prime's mask in ambient codes, not
    # re-indexed into the codes of R0: in Z/2[x]/(x^5) the even part holds
    # 1, x^2 and x^4, which are not the first codes
    def broken(gp):
        g = gp.ideal.graded_ring
        return Ideal._of(g.r0_ring, gp.ideal.mask & g.r0_mask)
    monkeypatch.setattr(GradedPrime, "p", property(broken))


def odd_part_as_the_complement(monkeypatch):
    # R' taken as J minus its even half, which keeps the mixed sums a + m
    # and drops 0
    def broken(j):
        g = j.graded_ring
        return Submodule._of(g, j.mask & ~g.r0_mask)
    monkeypatch.setattr(graded_ideals.GradedIdeal, "r_part", property(broken))


def odd_fiber_not_a_submodule(monkeypatch):
    _plant_submodules(monkeypatch, spectrum, 1)


def contraction_misses_p(monkeypatch):
    original = spectrum.phi_inverse

    def broken(g, p):
        return original(g, spec(g.r0_ring)[0])
    monkeypatch.setattr(spectrum, "phi_inverse", broken)
    monkeypatch.setattr(verify, "phi_inverse", broken)


def flat_prime_missing(monkeypatch):
    original = verify.spec

    def broken(ring, bound=None):
        return original(ring, bound)[1:]
    monkeypatch.setattr(verify, "spec", broken)


def maximal_ideal_missing(monkeypatch):
    original = verify.maximal_sets

    def broken(masks):
        return frozenset(sorted(original(masks))[1:])
    monkeypatch.setattr(verify, "maximal_sets", broken)


def formula_radical_of_zero(monkeypatch):
    # sqrt(J0) taken as sqrt(0), the nilradical of R0, whatever J0 is
    original = spectrum.radical

    def broken(ring, ideal):
        return original(ring, Ideal(ring, frozenset({ring.zero})))
    monkeypatch.setattr(spectrum, "radical", broken)


def formula_radical_one_step(monkeypatch):
    # sqrt(I) taken as {x : x^2 in I}, one step of the radical: the even
    # part of Z/2[x]/(x^5) is Z/2[y]/(y^3) with y = x^2, where the step
    # takes 0 to (y^2) and (y^2) to (y)
    def broken(ring, ideal):
        mul = ring.mul
        return Ideal(ring, frozenset(x for x in range(ring.size) if mul[x][x] in ideal))
    monkeypatch.setattr(spectrum, "radical", broken)


def chain_counts_members(monkeypatch):
    monkeypatch.setattr(spectrum, "_longest_chain",
                        lambda sets: max(map(len, sets), default=0))


def graded_maximal_missing(monkeypatch):
    original = maxfield.graded_max

    def broken(g, method="definitional", bound=None):
        return original(g, method, bound)[:-1]
    monkeypatch.setattr(maxfield, "graded_max", broken)


def pair_contracts_to_its_residual(monkeypatch):
    # (I, I*R1) built as ((I*R1 : R1), I*R1): over Z/4 (+) Z/2 the pair of
    # I = 0 then contracts to (0 : R1) = (2)
    def broken(g, i):
        span = graded_ideals.graded_ideal_from_ideal(g, i).r_part
        return graded_ideals.graded_ideal_from_submodule(g, span)
    monkeypatch.setattr(verify, "graded_ideal_from_ideal", broken)


def graded_enumeration_drops_one(monkeypatch):
    original = verify.enumerate_graded_ideals

    def broken(g, bound=None):
        return original(g, bound)[:-1]
    monkeypatch.setattr(verify, "enumerate_graded_ideals", broken)


def residual_by_the_submodule_itself(monkeypatch):
    # (R' : R') in place of (R' : R1): every even a maps R' into itself, so
    # the residual is all of R0, and R0*R1 = R1 differs from each proper R'
    def broken(g, rp):
        mul = g.ring.mul
        return Ideal(g.r0_ring, frozenset(
            g.to_r0(a) for a in g.r0 if all(mul[a][m] in rp for m in rp.members)))
    monkeypatch.setattr(verify, "residual", broken)


def span_of_the_radical(monkeypatch):
    # I*R1 taken as rad(I)*R1: over Z/4[i] the ideals 0 and (2) then share
    # the span (2i), though 0 does not contain (2)
    original = verify.graded_ideal_from_ideal

    def broken(g, i):
        return original(g, rings.radical(g.r0_ring, i))
    monkeypatch.setattr(verify, "graded_ideal_from_ideal", broken)


def _whole_even_part(g):
    return Ideal(g.r0_ring, frozenset(range(g.r0_ring.size)))


def odd_square_taken_as_whole(monkeypatch):
    # the two-branch recipe reads R1^2 as all of R0: over Z/2 (+) Z/2, where
    # R1^2 = 0, it pairs the prime 0 with 0*R1 = 0 instead of with R1
    monkeypatch.setattr(maxfield, "r1_squared", _whole_even_part)


def odd_square_read_as_whole(monkeypatch):
    # the same in the records: over Z/2 (+) Z/2, R1^2 + p = R0 then seems to
    # hold for the prime 0 + R1, which is not (0, 0*R1)
    monkeypatch.setattr(verify, "r1_squared", _whole_even_part)


def _plant_norm(monkeypatch, norm):
    """N(x0 + x1) := norm(ring, x0, x1) where maxfield's norm table
    ``_norms`` reads it, and so in every record of the norm suite."""
    def broken(g, code):
        return norm(g.ring, *g.parts(code))
    monkeypatch.setattr(maxfield, "_norm_code", broken)


def norm_unsquared_odd_part(monkeypatch):
    # x0^2 - x1: odd wherever x1 != 0
    _plant_norm(monkeypatch, lambda r, x0, x1: r.add[r.mul[x0][x0]][r.neg[x1]])


def norm_sign_flipped(monkeypatch):
    # x1^2 - x0^2: N(1) = -1
    _plant_norm(monkeypatch, lambda r, x0, x1:
                r.add[r.mul[x1][x1]][r.neg[r.mul[x0][x0]]])


def norm_odd_square_added(monkeypatch):
    # x0^2 + x1^2: even, N(0) = 0 and N(1) = 1, but over Z/3[i]
    # N((1+i)^2) = N(2i) = 2 while N(1+i)^2 = 0
    _plant_norm(monkeypatch, lambda r, x0, x1:
                r.add[r.mul[x0][x0]][r.mul[x1][x1]])


def norm_of_the_last_code_is_one(monkeypatch):
    # over Z/2[i] the last code is 1+i, of norm 0; with N(1+i) = 1 the
    # norm stays multiplicative on every pair but the last, where
    # N((1+i)^2) = N(0) = 0 while N(1+i)^2 = 1
    original = maxfield._norm_code

    def broken(g, code):
        return g.ring.one if code == g.ring.size - 1 else original(g, code)
    monkeypatch.setattr(maxfield, "_norm_code", broken)


def norm_kernel_gains_one(monkeypatch):
    # a field with 1 in its norm kernel would be a domain whose kernel is
    # not trivial
    original = maxfield.norm_set
    monkeypatch.setattr(maxfield, "norm_set", lambda g: original(g) | {g.ring.one})


def presentation_over_alpha_plus_one(monkeypatch):
    # R0[X]/(X^2 - (alpha + 1)): over F9 = Z/3[i], alpha = -1, so X^2 = 0,
    # and the map c0 + c1*i -> c0 + c1*X does not preserve products
    original = maxfield.quadratic_extension

    def broken(base, alpha, symbol=None):
        return original(base, base.add[alpha][base.one], symbol)
    monkeypatch.setattr(maxfield, "quadratic_extension", broken)


def pair_scan_of_squares_only(monkeypatch):
    # the domain tests stop after the squares: over (Z/2 x Z/3)[i] no
    # nonzero homogeneous element squares to 0, though (1,0) * (0,1) = 0
    def broken(ring, codes, inside):
        mul = ring.mul
        return not any(inside >> mul[r][r] & 1 for r in codes if not inside >> r & 1)
    monkeypatch.setattr(maxfield, "_no_pair_inside", broken)


def zero_divisor_taken_for_a_unit(monkeypatch):
    # 3 joins the units of Z/6, though 3 * 2 = 0: the pair scans skip it,
    # and the zero ideal, outside which only 2 and 4 are left, passes for
    # a prime
    original = rings._unit_mask
    monkeypatch.setattr(rings, "_unit_mask", lambda ring: original(ring) | 1 << 3)


def every_set_maximal(monkeypatch):
    # the definitional graded maximals keep every proper graded ideal: over
    # Z/2[x]/(x^2) the zero ideal, which is not graded prime, joins (x)
    monkeypatch.setattr(maxfield, "maximal_sets", frozenset)


def every_nonzero_code_a_unit(monkeypatch):
    # over Z/4[x]/(x) = Z/4 and Z/2[x]/(x^2) the nonzero nilpotent (2, or x)
    # passes for a unit, so both rings seem graded fields; the second has no
    # odd b with b^2 != 0 to present it by
    monkeypatch.setattr(rings.FiniteRing, "is_unit",
                        lambda ring, value: rings.as_code(ring, value) != ring.zero)


def every_even_part_a_field(monkeypatch):
    # the structural test reads Z/4 as a field, so Z/4 (odd part 0) seems
    # a graded field to it alone
    monkeypatch.setattr(maxfield, "is_field", lambda ring: True)


def span_missing_a_member(monkeypatch):
    # a span of more than two members loses its largest: over Z/3[i] the
    # unit certificate's components no longer seem to generate R1 = {0, i, 2i}
    original = grading.submodule_members

    def broken(g, gen_codes):
        members = original(g, gen_codes)
        return _drop_largest(members) if len(members) > 2 else members
    monkeypatch.setattr(grading, "submodule_members", broken)


def strong_grading_read_as_not_strong(monkeypatch):
    # over Z/3[i], where i * 2i = 1, every strong-* record turns
    # not-applicable; the unit certificate finds 1 in R1*R1 without it
    monkeypatch.setattr(grading, "is_strongly_graded", lambda g: False)
    monkeypatch.setattr(verify, "is_strongly_graded", lambda g: False)


CASES = [
    pytest.param(flat_set_not_an_ideal, GAUSSIAN4, ["ideals"],
                 ["ideals.pair-enumeration-oracle"], id="GradedIdeal"),
    pytest.param(odd_part_not_a_submodule, GAUSSIAN4, ["ideals"],
                 ["ideals.submodule-closure"], id="decompose_graded"),
    pytest.param(residual_missing_a_member, TRIVEXT4, ["ideals"],
                 ["ideals.submodule-closure"], id="residual"),
    pytest.param(bracket_missing_an_element, TRIVEXT2, ["radical", "spectrum"],
                 ["radical.three-way-agreement", "spectrum.prime-odd-part-bracket"],
                 id="r1_bracket"),
    pytest.param(flat_radical_missing_an_element, GAUSSIAN4, ["radical"],
                 ["radical.three-way-agreement"], id="radical"),
    pytest.param(wrong_prime_tag, GAUSSIAN4, ["spectrum"],
                 ["spectrum.classification-valid"], id="classify-tag"),
    pytest.param(non_prime_accepted, TRIVEXT2, ["spectrum"],
                 ["spectrum.classification-valid"], id="classify-shape"),
    pytest.param(contraction_not_prime, GAUSSIAN4, ["homeo"],
                 ["homeo.contraction-bijective"], id="phi"),
    pytest.param(contraction_not_reindexed, TRUNCATED2_5, ["homeo"],
                 ["homeo.even-variety-pullback", "homeo.homogeneous-variety-image"],
                 id="p-codes"),
    pytest.param(odd_part_as_the_complement, GAUSSIAN4, ["spectrum"],
                 ["spectrum.prime-residual-recovery"], id="r_part"),
    pytest.param(odd_part_as_the_complement, TRIVEXT4, ["spectrum"],
                 ["spectrum.nil-square-collapse"], id="r_part-nil"),
    pytest.param(formula_radical_of_zero, TRIVEXT4, ["radical"],
                 ["radical.three-way-agreement"], id="formula-radical-of-zero"),
    pytest.param(formula_radical_one_step, TRUNCATED2_5, ["radical"],
                 ["radical.three-way-agreement"], id="formula-radical-one-step"),
    pytest.param(odd_square_read_as_whole, TRIVEXT2, ["spectrum"],
                 ["spectrum.unit-sum-prime-form", "spectrum.classification-valid"],
                 id="r1_squared"),
    pytest.param(odd_fiber_not_a_submodule, GAUSSIAN4, ["homeo", "spectrum"],
                 ["spectrum.methods-agree"], id="phi_inverse-fiber"),
    pytest.param(contraction_misses_p, ZMOD6, ["homeo", "spectrum"],
                 ["spectrum.methods-agree", "homeo.contraction-roundtrip"],
                 id="phi_inverse-contraction"),
    pytest.param(flat_prime_missing, ZMOD6, ["spectrum"],
                 ["spectrum.methods-agree"], id="spec"),
    pytest.param(maximal_ideal_missing, ZMOD6, ["spectrum"],
                 ["spectrum.methods-agree"], id="maximal_sets"),
    pytest.param(chain_counts_members, GAUSSIAN4, ["spectrum"],
                 ["spectrum.dimension-matches-base"], id="homogeneous_dim"),
    pytest.param(graded_maximal_missing, ZMOD6, ["maximal"],
                 ["maximal.local-iff-base-local"], id="is_graded_local"),
    pytest.param(pair_contracts_to_its_residual, TRIVEXT4_M2, ["ideals"],
                 ["ideals.even-ideal-closure"], id="graded_ideal_from_ideal"),
    pytest.param(graded_enumeration_drops_one, GAUSSIAN4, ["ideals"],
                 ["ideals.strong-correspondence"], id="enumerate_graded_ideals"),
    pytest.param(residual_by_the_submodule_itself, GAUSSIAN4, ["ideals", "maximal"],
                 ["ideals.strong-multiplication-module",
                  "maximal.submodule-residual-equivalence"], id="strong-residual"),
    pytest.param(span_of_the_radical, GAUSSIAN4, ["ideals"],
                 ["ideals.strong-span-cancellation"], id="strong-span"),
    pytest.param(odd_square_taken_as_whole, TRIVEXT2, ["maximal"],
                 ["maximal.methods-agree"], id="graded_max-constructive"),
    pytest.param(norm_unsquared_odd_part, GAUSSIAN4, ["norm"],
                 ["norm.lands-in-even-part"], id="norm-degree"),
    pytest.param(norm_sign_flipped, GAUSSIAN4, ["norm"],
                 ["norm.zero-one"], id="norm-sign"),
    pytest.param(norm_odd_square_added, GAUSSIAN3, ["norm"],
                 ["norm.multiplicative"], id="norm-multiplicative"),
    pytest.param(norm_kernel_gains_one, GAUSSIAN3, ["norm"],
                 ["norm.domain-equivalence"], id="norm_set"),
    pytest.param(presentation_over_alpha_plus_one, GAUSSIAN3, ["field"],
                 ["field.quadratic-presentation"], id="quadratic_extension"),
    pytest.param(pair_scan_of_squares_only, Z2_X_Z3_I, ["field"],
                 ["field.graded-domain-methods-agree", "field.strong-domain-iff-base"],
                 id="is_graded_domain"),
    pytest.param(zero_divisor_taken_for_a_unit, ZMOD6, ["spectrum"],
                 ["spectrum.methods-agree"], id="unit_mask"),
    pytest.param(every_set_maximal, QUADRATIC2_0, ["field", "maximal"],
                 ["field.field-iff-zero-maximal", "maximal.maximal-implies-graded-prime"],
                 id="maximal_sets-in-graded_max"),
    pytest.param(every_nonzero_code_a_unit, TRUNCATED4_1, ["field"],
                 ["field.field-iff-two-graded-ideals", "field.field-iff-zero-maximal"],
                 id="is_unit"),
    pytest.param(every_nonzero_code_a_unit, QUADRATIC2_0, ["field"],
                 ["field.quadratic-presentation"], id="is_unit-presentation"),
    pytest.param(every_even_part_a_field, TRUNCATED4_1, ["field"],
                 ["field.graded-field-methods-agree"], id="is_field"),
    pytest.param(span_missing_a_member, GAUSSIAN3, ["ideals"],
                 ["ideals.strong-unit-certificate"], id="submodule_members"),
    pytest.param(strong_grading_read_as_not_strong, GAUSSIAN3, ["ideals"],
                 ["ideals.strong-unit-certificate"], id="is_strongly_graded"),
]

# The records no case above makes fail: the observation record passes by
# design, and a defect shows only in its witness
# (``test_observation_witness_counts_the_open_brackets``).
UNCOVERED = (
    "radical.bracket-closure-observation",
)


@pytest.mark.parametrize("breakage, recipe, suites, records", CASES)
def test_broken_theorem_fails_its_named_record(breakage, recipe, suites, records,
                                               monkeypatch, tmp_path, capsys):
    spec_ = InstanceSpec(dict(recipe))
    assert run_verify(spec_, suites).status == "pass"
    # the rings are interned: give the broken run its own caches, including
    # the idempotent fibres and ideal lattices cached on the ambient and even rings
    g = build_instance(spec_)
    for owner in (g, g.ring, g.r0_ring):
        monkeypatch.setattr(owner, "_cache", {})
    breakage(monkeypatch)

    report = run_verify(spec_, suites)
    statuses = {record.name: record.status for record in report.checks}
    assert report.status == "fail"
    for name in records:
        assert statuses[name] == "fail", (name, statuses)

    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"ring": recipe}))
    argv = ["verify", str(path)]
    for suite in suites:
        argv += ["--suite", suite]
    assert main(argv) == 1
    capsys.readouterr()


def test_label_of_a_broken_residual_is_reported_as_a_fail(monkeypatch):
    """A record that prints the label of a set that is no ideal records the
    witness search's error as a ``fail``; the search does not run on."""
    spec_ = InstanceSpec(dict(TRIVEXT4))
    g = build_instance(spec_)
    for owner in (g, g.ring, g.r0_ring):
        monkeypatch.setattr(owner, "_cache", {})
    residual_missing_a_member(monkeypatch)
    whole = grading.submodules(g)[-1]  # residual R0, which loses a member

    def print_label(g, bound):
        return verify.PASS, graded_ideals.residual(g, whole).label()
    record = verify._run("probe", print_label, g, None)
    assert record.status == verify.FAIL
    assert "not an ideal of even part of" in record.witness


def test_label_of_a_broken_bracket_is_reported_as_a_fail(monkeypatch):
    """The same for a submodule: a record that prints the label of a set
    that is no submodule records ``fail``."""
    g = build_instance(InstanceSpec(dict(GAUSSIAN4)))
    monkeypatch.setattr(g, "_cache", {})
    bracket_missing_an_element(monkeypatch)
    whole = Ideal(g.r0_ring, frozenset(range(g.r0_ring.size)))  # bracket R1 loses 3i

    def print_label(g, bound):
        return verify.PASS, spectrum.r1_bracket(g, whole).label()
    record = verify._run("probe", print_label, g, None)
    assert record.status == verify.FAIL
    assert "not a submodule of the odd part of" in record.witness


def test_error_inside_a_check_is_reported_with_its_text(monkeypatch):
    spec_ = InstanceSpec(dict(GAUSSIAN4))
    monkeypatch.setattr(build_instance(spec_), "_cache", {})
    odd_fiber_not_a_submodule(monkeypatch)
    report = run_verify(spec_, ["homeo", "spectrum"])
    records = {record.name: record for record in report.checks}
    assert "escapes the odd part" in records["spectrum.methods-agree"].witness


def test_observation_witness_counts_the_open_brackets(monkeypatch):
    """The observation record always passes, but a bracket that loses a
    member changes the count its witness reports."""
    spec_ = InstanceSpec(dict(GAUSSIAN4))

    def observation():
        return next((r.status, r.witness) for r in run_verify(spec_, ["radical"]).checks
                    if r.name == "radical.bracket-closure-observation")
    assert observation() == ("pass", "literal bracket closed for 3/3 even parts")
    g = build_instance(spec_)
    for owner in (g, g.ring, g.r0_ring):
        monkeypatch.setattr(owner, "_cache", {})
    bracket_missing_an_element(monkeypatch)
    assert observation() == (
        "pass", "literal bracket closed for 2/3 even parts; first open case at I0=(1)")


@pytest.mark.parametrize("suite", verify.SUITE_NAMES)
def test_no_record_is_billed_for_a_lattice(suite, monkeypatch):
    """``run_verify`` enumerates every lattice before the first record starts,
    so a record's time is its check alone."""
    spec_ = InstanceSpec(dict(GAUSSIAN4))
    g = build_instance(spec_)
    for owner in (g, g.ring, g.r0_ring):
        monkeypatch.setattr(owner, "_cache", {})
    started, built, late = [], [], []
    lattice, run = rings._subgroup_lattice, verify._run

    def spy_lattice(*args, **kwargs):
        built.append(args[0])
        if started:
            late.append(started[-1])
        return lattice(*args, **kwargs)

    def spy_run(name, check, g, bound):
        started.append(name)
        return run(name, check, g, bound)
    monkeypatch.setattr(rings, "_subgroup_lattice", spy_lattice)
    monkeypatch.setattr(grading, "_subgroup_lattice", spy_lattice)
    monkeypatch.setattr(verify, "_run", spy_run)
    assert run_verify(spec_, [suite]).status == "pass"
    assert started[1:]  # the records ran
    assert set(late) == {"counts"}  # the caches were empty: counting built all


def test_every_record_has_a_case_or_is_listed_uncovered():
    names = [name for name, _ in verify.RECORDS]
    assert names == sorted(set(names))  # each record once, in name order
    covered = {name for case in CASES for name in case.values[3]}
    assert sorted(set(names) - covered - set(UNCOVERED)) == []
    assert sorted(covered & set(UNCOVERED)) == []
    assert sorted(set(UNCOVERED) - set(names)) == []


@pytest.mark.parametrize("suite", verify.SUITE_NAMES)
def test_one_suite_alone_gives_its_slice_of_every_golden(suite):
    for entry in CATALOG:
        golden = json.loads((GOLDEN_DIR / f"{entry.instance_id}.json").read_text())
        expected = [check for check in golden["checks"]
                    if check["name"].partition(".")[0] == suite]
        report = verify.report_payload(run_verify(entry.spec(), [suite]))
        assert report["checks"] == expected, entry.instance_id


def test_pairs_checked_counts_the_pairs_compared(monkeypatch):
    g = build_instance(InstanceSpec(dict(GAUSSIAN3)))
    monkeypatch.setattr(g, "_cache", {})
    norm_odd_square_added(monkeypatch)
    size, mul, norm = g.ring.size, g.ring.mul, maxfield._norm_code
    first = next(x * size + y for x in range(size) for y in range(size)
                 if norm(g, mul[x][y]) != mul[norm(g, x)][norm(g, y)])
    report = maxfield.domain_equivalence_check(g)
    assert not report.norm_multiplicative
    assert report.pairs_checked == first + 1 < size * size


@pytest.mark.parametrize("entry", CATALOG, ids=lambda entry: entry.instance_id)
def test_norm_report_matches_the_per_pair_reference(entry):
    g = build_instance(entry.spec())
    assert maxfield.domain_equivalence_check(g) == naive_domain_equivalence(g)


@pytest.mark.parametrize("breakage, recipe", [
    pytest.param(norm_unsquared_odd_part, GAUSSIAN4, id="norm-degree"),
    pytest.param(norm_sign_flipped, GAUSSIAN4, id="norm-sign"),
    pytest.param(norm_odd_square_added, GAUSSIAN3, id="norm-multiplicative"),
    pytest.param(norm_of_the_last_code_is_one, GAUSSIAN2, id="norm-last-pair"),
])
def test_broken_norm_report_matches_the_per_pair_reference(breakage, recipe,
                                                            monkeypatch):
    g = build_instance(InstanceSpec(dict(recipe)))
    monkeypatch.setattr(g, "_cache", {})
    breakage(monkeypatch)
    report = maxfield.domain_equivalence_check(g)
    assert report == naive_domain_equivalence(g)
    if breakage is norm_of_the_last_code_is_one:  # the scan reaches the last pair
        assert not report.norm_multiplicative
        assert report.pairs_checked == g.ring.size ** 2


def _planted(*args):
    raise TheoremViolationError("planted: step raised")


@pytest.mark.parametrize("module, name, suite, failed", [
    pytest.param(maxfield, "norm_set", "norm",
                 ["norm.domain-equivalence", "norm.multiplicative"],
                 id="domain_equivalence_check"),
    pytest.param(spectrum, "is_graded_prime", "field", ["counts"], id="counts"),
])
def test_a_raising_step_is_a_fail_of_the_record_that_reads_it(
        module, name, suite, failed, monkeypatch, tmp_path, capsys):
    """A step that raises, even one several records share, is a ``fail``
    of each record that reads it: ``z2spec verify`` exits 1, not 2."""
    spec_ = InstanceSpec(dict(GAUSSIAN4))
    g = build_instance(spec_)
    for owner in (g, g.ring, g.r0_ring):
        monkeypatch.setattr(owner, "_cache", {})
    monkeypatch.setattr(module, name, _planted)

    report = run_verify(spec_, [suite])
    witnesses = {record.name: record.witness for record in report.checks
                 if record.status == "fail"}
    assert report.status == "fail"
    assert witnesses == dict.fromkeys(failed, "planted: step raised")

    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"ring": GAUSSIAN4}))
    assert main(["verify", str(path), "--suite", suite]) == 1
    out, err = capsys.readouterr()
    assert "planted: step raised" in out and err == ""


def test_a_count_stopped_by_an_error_keeps_the_counts_before_it(monkeypatch):
    spec_ = InstanceSpec(dict(GAUSSIAN4))
    g = build_instance(spec_)
    for owner in (g, g.ring, g.r0_ring):
        monkeypatch.setattr(owner, "_cache", {})
    monkeypatch.setattr(spectrum, "is_graded_prime", _planted)
    counts = run_verify(spec_, ["field"]).counts
    assert counts["graded_ideals"] is not None
    assert counts["graded_primes"] is None and counts["graded_maximals"] is None
