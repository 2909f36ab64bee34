"""Each structural theorem is checked once, by its named verify record.

The library's constructors validate only their inputs, so a theorem that
stops holding must surface as a ``fail`` of the record that checks it, and
``z2spec verify`` must exit 1, not raise.  Every case below breaks one
theorem by monkeypatching the code that relies on it and names the records
that must catch the break.
"""

import json

import pytest

import z2spec.graded_ideals as graded_ideals
import z2spec.grading as grading
import z2spec.maxfield as maxfield
import z2spec.rings as rings
import z2spec.spectrum as spectrum
import z2spec.verify as verify
from z2spec.cli import main
from z2spec.graded_ideals import GradedIdeal
from z2spec.grading import Submodule
from z2spec.instances import InstanceSpec, build_instance
from z2spec.rings import Ideal, spec
from z2spec.spectrum import GradedPrime, PrimeKind
from z2spec.verify import run_verify

GAUSSIAN4 = {"kind": "gaussian", "n": 4}
TRIVEXT2 = {"kind": "trivial_extension", "n": 2, "orders": [2]}
TRIVEXT4 = {"kind": "trivial_extension", "n": 4, "orders": [4]}
ZMOD6 = {"kind": "zmod", "n": 6}


def _drop_largest(members: frozenset) -> frozenset:
    """The set without its largest code; a subgroup of more than two
    elements loses closure under addition this way."""
    return members - {max(members)}


def flat_set_not_an_ideal(monkeypatch):
    original = GradedIdeal.__init__

    def broken(self, g, i0, r_part):
        original(self, g, i0, r_part)
        if len(self.flat_members) == g.ring.size:
            self.flat_members = _drop_largest(self.flat_members)
    monkeypatch.setattr(GradedIdeal, "__init__", broken)


def odd_part_not_a_submodule(monkeypatch):
    def broken(g, members):
        return Submodule(g, _drop_largest(members) if len(members) > 2 else members)
    monkeypatch.setattr(graded_ideals, "Submodule", broken)


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

    def broken(ring, members):
        # the smallest nonzero code: in Z/4[i] a homogeneous one, which the
        # split of the radical along the grading cannot step over
        rad = original(ring, members)
        return rad - {min(rad - {ring.zero})} if len(rad) > 1 else rad
    monkeypatch.setattr(spectrum, "radical_members", broken)


def wrong_prime_tag(monkeypatch):
    original = spectrum._tagged
    flipped = {PrimeKind.FULL_ODD_PART: PrimeKind.PRIME_SUBMODULE,
               PrimeKind.PRIME_SUBMODULE: PrimeKind.FULL_ODD_PART}

    def broken(g, q):
        gp = original(g, q)
        return GradedPrime(gp.ideal, flipped[gp.kind], gp.p)
    monkeypatch.setattr(spectrum, "_tagged", broken)


def non_prime_accepted(monkeypatch):
    # the zero ideal of Z/2 (+) Z/2 is tagged as a prime-submodule prime,
    # but R1^3 = 0 lies inside its odd part
    monkeypatch.setattr(spectrum, "is_graded_prime", lambda g, j: j.is_proper)


def contraction_not_prime(monkeypatch):
    original = spectrum._tagged

    def broken(g, q):
        gp = original(g, q)
        zero = Ideal(g.r0_ring, frozenset({g.r0_ring.zero}))
        return GradedPrime(gp.ideal, gp.kind, zero)
    monkeypatch.setattr(spectrum, "_tagged", broken)


def odd_fiber_not_a_submodule(monkeypatch):
    def broken(g, members):
        return Submodule(g, _drop_largest(members) if len(members) > 1 else members)
    monkeypatch.setattr(spectrum, "Submodule", broken)


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

    def broken(sets):
        return frozenset(sorted(original(sets), key=sorted)[1:])
    monkeypatch.setattr(verify, "maximal_sets", broken)


def chain_counts_members(monkeypatch):
    monkeypatch.setattr(spectrum, "_longest_chain",
                        lambda sets: max(map(len, sets), default=0))


def graded_maximal_missing(monkeypatch):
    original = maxfield.graded_max

    def broken(g, method="definitional", bound=None):
        return original(g, method, bound)[:-1]
    monkeypatch.setattr(maxfield, "graded_max", broken)


CASES = [
    pytest.param(flat_set_not_an_ideal, GAUSSIAN4, ["ideals"],
                 ["ideals.pair-enumeration-oracle"], id="GradedIdeal"),
    pytest.param(odd_part_not_a_submodule, GAUSSIAN4, ["ideals"],
                 ["ideals.pair-decomposition-roundtrip"], id="decompose_graded"),
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
    pytest.param(odd_fiber_not_a_submodule, GAUSSIAN4, ["homeo", "spectrum"],
                 ["spectrum.methods-agree", "homeo.methods-agree"],
                 id="phi_inverse-fiber"),
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
]


@pytest.mark.parametrize("breakage, recipe, suites, records", CASES)
def test_broken_theorem_fails_its_named_record(breakage, recipe, suites, records,
                                               monkeypatch, tmp_path, capsys):
    spec_ = InstanceSpec(dict(recipe))
    assert run_verify(spec_, suites).status == "pass"
    # the rings are interned: give the broken run its own caches, including
    # the power orbits and ideal lattices cached on the ambient and even rings
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
    records = []

    def print_label():
        return verify.PASS, graded_ideals.residual(g, whole).label()
    verify._run(records, "probe", print_label)
    assert records[0].status == verify.FAIL
    assert "not an ideal of even part of" in records[0].witness


def test_label_of_a_broken_bracket_is_reported_as_a_fail(monkeypatch):
    """The same for a submodule: a record that prints the label of a set
    that is no submodule records ``fail``."""
    g = build_instance(InstanceSpec(dict(GAUSSIAN4)))
    monkeypatch.setattr(g, "_cache", {})
    bracket_missing_an_element(monkeypatch)
    whole = Ideal(g.r0_ring, frozenset(range(g.r0_ring.size)))  # bracket R1 loses 3i
    records = []

    def print_label():
        return verify.PASS, spectrum.r1_bracket(g, whole).label()
    verify._run(records, "probe", print_label)
    assert records[0].status == verify.FAIL
    assert "not a submodule of the odd part of" in records[0].witness


def test_error_inside_a_check_is_reported_with_its_text(monkeypatch):
    spec_ = InstanceSpec(dict(GAUSSIAN4))
    monkeypatch.setattr(build_instance(spec_), "_cache", {})
    odd_fiber_not_a_submodule(monkeypatch)
    report = run_verify(spec_, ["homeo", "spectrum"])
    records = {record.name: record for record in report.checks}
    for name in ("spectrum.methods-agree", "homeo.methods-agree"):
        assert "escapes the odd part" in records[name].witness


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

    def spy_run(records, name, body):
        started.append(name)
        run(records, name, body)
    monkeypatch.setattr(rings, "_subgroup_lattice", spy_lattice)
    monkeypatch.setattr(grading, "_subgroup_lattice", spy_lattice)
    monkeypatch.setattr(verify, "_run", spy_run)
    assert run_verify(spec_, [suite]).status == "pass"
    assert built and started  # the caches were empty, and the records ran
    assert late == []
