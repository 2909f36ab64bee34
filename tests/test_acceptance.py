"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All checks are exact (tolerance zero).  Run with ``pytest -s`` to see the
per-criterion lines.
"""

import json
import pathlib
import time

from dotcheck import parse_dot
from naive_closure import naive_maximal_ideals
from z2spec.catalog import CATALOG
from z2spec.cli import main
from z2spec.dot import render_dot
from z2spec.graded_ideals import (
    enumerate_graded_ideals,
    graded_ideal_from_ideal,
)
from z2spec.grading import gaussian_integers, is_strongly_graded, quadratic_extension
from z2spec.maxfield import (
    domain_equivalence_check,
    graded_field_presentation,
    graded_max,
    is_graded_domain,
    is_graded_field,
    norm_set,
)
from z2spec.rings import (
    classify_ideal,
    enumerate_ideals,
    ideal_from_members,
    ideal_generate,
    prime_violation,
    spec,
    zmod,
)
from z2spec.spectrum import (
    graded_radical,
    graded_spec,
    homogeneous_dim,
    is_graded_prime,
)
from z2spec.verify import report_to_json, run_verify

GOLDEN_DIR = pathlib.Path(__file__).resolve().parents[1] / "golden"
INSTANCES = [(entry, entry.build()) for entry in CATALOG]


def _records(entry, suite):
    """Record name -> CheckRecord of one suite run on a catalog entry."""
    return {r.name: r for r in run_verify(entry.spec(), [suite]).checks}


def _report(number, title, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number}] {title}: {status}{suffix}")
    assert ok, f"criterion {number} failed: {title} {detail}"


def test_criterion_1_graded_prime_is_not_prime():
    start = time.perf_counter()
    g = gaussian_integers(10)
    two = ideal_generate(g.r0_ring, [2])
    j = graded_ideal_from_ideal(g, two)
    graded_prime = is_graded_prime(g, j)
    flat = ideal_from_members(g.ring, j.flat_members)
    flat_classification = classify_ideal(g.ring, flat)
    three_plus, three_minus = g.ring(13), g.ring(93)  # 3+i and 3-i
    witness_valid = (
        (three_plus * three_minus).code == g.ring.zero
        and g.ring.zero in j.flat_members
        and three_plus.code not in j.flat_members
        and three_minus.code not in j.flat_members
    )
    elapsed = time.perf_counter() - start
    ok = (graded_prime and not flat_classification.is_prime
          and flat_classification.prime_witness is not None
          and witness_valid and elapsed < 1.0)
    _report(1, "graded prime with non-prime flat set in Z/10[i]", ok,
            f"witness (3+i)(3-i)=0, {elapsed:.3f}s")


def test_criterion_2_homeomorphism_suite():
    assert len(INSTANCES) >= 25
    start = time.perf_counter()
    failures = []
    for entry, _ in INSTANCES:
        records = _records(entry, "homeo").values()
        if len(records) != 3 or any(r.status != "pass" for r in records):
            failures.append(entry.instance_id)
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 10.0
    _report(2, "contraction homeomorphism on the whole catalog", ok,
            f"{len(INSTANCES)} instances, {elapsed:.2f}s"
            + (f"; failures: {failures}" if failures else ""))


def test_criterion_3_graded_radical_three_way():
    failures = []
    checked = 0
    for entry, g in INSTANCES:
        if g.ring.size > 64:
            continue
        for j in enumerate_graded_ideals(g):
            checked += 1
            results = {
                method: graded_radical(g, j, method)
                for method in ("definitional", "intersection", "formula")
            }
            if len({r.flat_members for r in results.values()}) != 1:
                failures.append((entry.instance_id, j.label()))
    _report(3, "graded radical: definitional = intersection = formula",
            not failures, f"{checked} graded ideals"
            + (f"; failures: {failures[:3]}" if failures else ""))


def test_criterion_4_graded_maximal_suite():
    failures = []
    for entry, g in INSTANCES:
        if graded_max(g, "definitional") != graded_max(g, "constructive"):
            failures.append((entry.instance_id, "methods disagree"))
        submodule = _records(entry, "maximal")["maximal.submodule-residual-equivalence"]
        if submodule.status not in ("pass", "not-applicable"):
            failures.append((entry.instance_id, submodule.witness))
        graded_local = len(graded_max(g, "definitional")) == 1
        base_max = naive_maximal_ideals(enumerate_ideals(g.r0_ring))
        if graded_local != (len(base_max) == 1):
            failures.append((entry.instance_id, "local flag mismatch"))
    _report(4, "graded maximal ideals: two-branch recipe and residual lemma",
            not failures, f"{len(INSTANCES)} instances"
            + (f"; failures: {failures[:3]}" if failures else ""))


def test_criterion_5_strongly_graded_correspondence():
    failures = []
    strong = [(entry, g) for entry, g in INSTANCES if is_strongly_graded(g)]
    assert strong
    for entry, g in strong:
        correspondence = _records(entry, "ideals")["ideals.strong-correspondence"]
        if correspondence.status != "pass":
            failures.append((entry.instance_id, "ideal bijection"))
        expected_spec = {graded_ideal_from_ideal(g, p).flat_members
                         for p in spec(g.r0_ring)}
        actual_spec = {gp.flat_members for gp in graded_spec(g).graded_points}
        if expected_spec != actual_spec:
            failures.append((entry.instance_id, "spectrum shape"))
        base_max = naive_maximal_ideals(enumerate_ideals(g.r0_ring))
        expected_max = {graded_ideal_from_ideal(g, p).flat_members for p in base_max}
        actual_max = {j.flat_members for j in graded_max(g)}
        if expected_max != actual_max:
            failures.append((entry.instance_id, "maximal shape"))
    _report(5, "strongly graded: ideals/spec/max via (p, p*R1)",
            not failures, f"{len(strong)} strongly graded instances"
            + (f"; failures: {failures[:3]}" if failures else ""))


def test_criterion_6_graded_field_and_domain_suite():
    failures = []
    q51 = quadratic_extension(zmod(5), 1)
    if not is_graded_field(q51):
        failures.append("Z/5[x]/(x^2-1) should be a graded field")
    if all(q51.ring.is_unit(c) for c in range(1, q51.ring.size)):
        failures.append("Z/5[x]/(x^2-1) should not be a field")
    g2 = gaussian_integers(2)
    if not is_graded_domain(g2):
        failures.append("Z/2[i] should be a graded domain")
    if prime_violation(g2.ring, frozenset({0})) is None:
        failures.append("Z/2[i] should not be a domain")
    presentations = 0
    for entry, g in INSTANCES:
        if is_graded_field(g) != is_graded_field(g, "structural"):
            failures.append(f"{entry.instance_id}: field methods disagree")
        if is_graded_domain(g) != is_graded_domain(g, "structural"):
            failures.append(f"{entry.instance_id}: domain methods disagree")
        if is_graded_field(g) and g.r1 != {g.ring.zero}:
            presentation = graded_field_presentation(g)  # verifies the iso
            presentations += 1
            if sorted(presentation.iso_table) != list(range(g.ring.size)):
                failures.append(f"{entry.instance_id}: presentation not bijective")
    _report(6, "graded field/domain predicates and quadratic presentations",
            not failures, f"{presentations} graded fields presented"
            + (f"; failures: {failures[:3]}" if failures else ""))


def test_criterion_7_norm_suite():
    failures = []
    for entry, g in INSTANCES:
        report = domain_equivalence_check(g)
        if not report.norm_multiplicative:
            failures.append(f"{entry.instance_id}: norm not multiplicative")
        if report.pairs_checked != g.ring.size ** 2:
            failures.append(f"{entry.instance_id}: not exhaustive")
        if not report.equivalence_holds:
            failures.append(f"{entry.instance_id}: equivalence fails")
    positive = domain_equivalence_check(gaussian_integers(3))
    if not (positive.is_domain and positive.is_graded_domain
            and positive.norm_kernel_trivial):
        failures.append("Z/3[i] should witness the positive case")
    for n in (5, 2):
        negative = domain_equivalence_check(gaussian_integers(n))
        if negative.is_domain or not negative.is_graded_domain \
                or negative.norm_kernel_trivial:
            failures.append(f"Z/{n}[i] should witness the negative case")
    if norm_set(gaussian_integers(5)) == {0}:
        failures.append("Z/5[i] norm kernel should be nontrivial")
    _report(7, "norm multiplicativity and the integrality equivalence",
            not failures, f"{len(INSTANCES)} instances"
            + (f"; failures: {failures[:3]}" if failures else ""))


def test_criterion_8_dimension():
    failures = []
    for entry, g in INSTANCES:
        hdim, basedim = homogeneous_dim(g)
        if hdim != basedim or hdim != 0:
            failures.append((entry.instance_id, hdim, basedim))
    _report(8, "homogeneous dimension equals base dimension (all zero here)",
            not failures, f"{len(INSTANCES)} instances"
            + (f"; failures: {failures[:3]}" if failures else ""))


def test_criterion_9_cli_goldens_and_dot(tmp_path, capsys):
    failures = []
    for entry, g in INSTANCES:
        instance_file = tmp_path / f"{entry.instance_id}.json"
        instance_file.write_text(json.dumps({"ring": entry.recipe}))
        code = main(["verify", str(instance_file), "--suite", "all",
                     "--format", "json"])
        produced = capsys.readouterr().out
        if code != 0:
            failures.append(f"{entry.instance_id}: exit {code}")
            continue
        golden = (GOLDEN_DIR / f"{entry.instance_id}.json").read_text()
        if produced != golden:
            failures.append(f"{entry.instance_id}: report differs from golden")
        try:
            parse_dot(render_dot(g))
        except SyntaxError as exc:
            failures.append(f"{entry.instance_id}: DOT does not parse: {exc}")
    # independently re-derive one golden through the library path
    sample = CATALOG[0]
    if report_to_json(run_verify(sample.spec())) != \
            (GOLDEN_DIR / f"{sample.instance_id}.json").read_text():
        failures.append("library path and golden disagree")
    with capsys.disabled():
        _report(9, "CLI verify exits 0 with byte-identical golden reports",
                not failures, f"{len(INSTANCES)} instances"
                + (f"; failures: {failures[:3]}" if failures else ""))
