"""Verification suites: every structural theorem as a named pass/fail check.

A suite maps to a list of CheckRecords; ``run_verify`` assembles them into a
VerificationReport.  Each structural theorem is checked here, in its named
record, and not again by the library, whose constructors validate only their
inputs.  Hitting the enumeration bound inside a check is recorded as a
distinguished ``resource-limit`` status, any other library error as ``fail``
with the error as witness; neither is raised out of the run.  Reports
serialize deterministically; timings are kept in memory and in the text
rendering but omitted from JSON so reports are byte-identical across runs.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from .errors import AlgebraError, EnumerationLimitError
from .graded_ideals import (
    GradedIdeal,
    enumerate_graded_ideals,
    graded_ideal_from_ideal,
    graded_ideal_from_submodule,
    decompose_graded,
    is_graded_ideal,
    strongly_graded_correspondence,
)
from .grading import (
    GradedRing,
    Submodule,
    is_strongly_graded,
    is_submodule_set,
    r1_cubed,
    r1_squared,
    residual,
    strong_grading_certificate,
    submodules,
)
from .instances import InstanceSpec, build_instance, effective_bound
from .maxfield import (
    domain_equivalence_check,
    graded_field_presentation,
    graded_max,
    is_graded_domain,
    is_graded_field,
    is_graded_local,
    is_graded_maximal,
    maximal_submodule_check,
    norm_set,
    strongly_graded_domain_matches_base,
    _norm_code,
)
from .rings import (
    additive_closure,
    enumerate_ideals,
    ideal_from_members,
    max_spec,
    spec,
)
from .spectrum import (
    PrimeKind,
    check_homeomorphism,
    check_nil_case,
    graded_radical,
    graded_spec,
    homogeneous_dim,
    is_graded_prime,
    is_prime_submodule,
    r1_bracket,
)

SUITE_NAMES = ("field", "homeo", "ideals", "maximal", "norm", "radical",
               "spectrum")

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"
RESOURCE_LIMIT = "resource-limit"


@dataclass
class CheckRecord:
    name: str
    status: str
    witness: str | None
    elapsed: float


@dataclass
class VerificationReport:
    instance: dict
    counts: dict
    suites: tuple
    checks: list
    status: str


def _run(records: list, name: str, body) -> None:
    start = time.perf_counter()
    try:
        status, witness = body()
    except EnumerationLimitError as exc:
        status, witness = RESOURCE_LIMIT, str(exc)
    except AlgebraError as exc:
        status, witness = FAIL, str(exc)
    records.append(CheckRecord(name, status, witness, time.perf_counter() - start))


def _zero_graded_ideal(g: GradedRing) -> GradedIdeal:
    zero = ideal_from_members(g.r0_ring, [g.r0_ring.zero])
    return GradedIdeal(g, zero, Submodule(g, frozenset({g.ring.zero})))


# ---------------------------------------------------------------------------
# suites


def _suite_ideals(g: GradedRing, bound) -> list:
    records: list = []
    strong = is_strongly_graded(g)

    def oracle():
        pair_flats = {j.flat_members for j in enumerate_graded_ideals(g, bound)}
        filtered = {i.members for i in enumerate_ideals(g.ring, bound)
                    if is_graded_ideal(g, i)}
        if pair_flats != filtered:
            return FAIL, (f"{len(pair_flats)} pair-built vs {len(filtered)}"
                          " filter-built graded ideals")
        return PASS, None
    _run(records, "ideals.pair-enumeration-oracle", oracle)

    def roundtrip():
        for j in enumerate_graded_ideals(g, bound):
            again = decompose_graded(g, j.flat_members)
            if again.i0 != j.i0 or again.r_part != j.r_part:
                return FAIL, f"{j.label()} does not decompose back to its pair"
            if j.is_proper != (g.ring.one not in j.flat_members):
                return FAIL, f"{j.label()} has an inconsistent properness flag"
        return PASS, None
    _run(records, "ideals.pair-decomposition-roundtrip", roundtrip)

    def even_closure():
        graded = set(enumerate_graded_ideals(g, bound))
        for i in enumerate_ideals(g.r0_ring, bound):
            j = graded_ideal_from_ideal(g, i)
            if j.i0 != i:
                return FAIL, f"(I, I*R1) does not contract to I for I={i.label()}"
            if j not in graded:
                return FAIL, f"(I, I*R1) is not a graded ideal for I={i.label()}"
        return PASS, None
    _run(records, "ideals.even-ideal-closure", even_closure)

    def submodule_closure():
        graded = set(enumerate_graded_ideals(g, bound))
        for rp in submodules(g, bound):
            j = graded_ideal_from_submodule(g, rp)
            if j.r_part != rp:
                return FAIL, f"((R':R1), R') loses the odd part for R'={rp.label()}"
            if j not in graded:
                return FAIL, f"((R':R1), R') is not a graded ideal for R'={rp.label()}"
        return PASS, None
    _run(records, "ideals.submodule-closure", submodule_closure)

    def correspondence():
        if not strong:
            return NOT_APPLICABLE, "not strongly graded"
        report = strongly_graded_correspondence(g, bound)
        if not report.is_bijection:
            return FAIL, report.counterexample
        return PASS, (f"{report.ideal_count} even ideals <->"
                      f" {report.graded_ideal_count} graded ideals")
    _run(records, "ideals.strong-correspondence", correspondence)

    def multiplication_module():
        if not strong:
            return NOT_APPLICABLE, "not strongly graded"
        for rp in submodules(g, bound):
            span = graded_ideal_from_ideal(g, residual(g, rp)).r_part
            if span != rp:
                return FAIL, f"R' != (R':R1)*R1 for R'={rp.label()}"
        return PASS, None
    _run(records, "ideals.strong-multiplication-module", multiplication_module)

    def span_cancellation():
        if not strong:
            return NOT_APPLICABLE, "not strongly graded"
        ideals = enumerate_ideals(g.r0_ring, bound)
        spans = [graded_ideal_from_ideal(g, i).r_part.members for i in ideals]
        for i, si in zip(ideals, spans):
            for k, sk in zip(ideals, spans):
                if si <= sk and not i.members <= k.members:
                    return FAIL, (f"I*R1 <= I'*R1 but I !<= I' for"
                                  f" I={i.label()}, I'={k.label()}")
        return PASS, None
    _run(records, "ideals.strong-span-cancellation", span_cancellation)

    def unit_certificate():
        if not strong:
            return NOT_APPLICABLE, "not strongly graded"
        pairs = strong_grading_certificate(g)
        return PASS, f"unit reached with {len(pairs)} odd product(s)"
    _run(records, "ideals.strong-unit-certificate", unit_certificate)

    return records


def _suite_spectrum(g: GradedRing, bound) -> list:
    records: list = []

    def methods_agree():
        d = {p.flat_members for p in graded_spec(g, "definitional", bound).graded_points}
        c = {p.flat_members for p in graded_spec(g, "constructive", bound).graded_points}
        if d != c:
            return FAIL, f"{len(d)} definitional vs {len(c)} constructive points"
        return PASS, None
    _run(records, "spectrum.methods-agree", methods_agree)

    def classification():
        primes = set(spec(g.r0_ring, bound))
        square, cube = r1_squared(g).members, r1_cubed(g).members
        for gp in graded_spec(g, "definitional", bound).graded_points:
            full_odd = g.r1 <= gp.flat_members
            if (gp.kind is PrimeKind.FULL_ODD_PART) != full_odd:
                return FAIL, f"{gp.label()} has the wrong case tag"
            if gp.p != gp.ideal.i0:
                return FAIL, f"{gp.label()} has an inconsistent contraction"
            if gp.p not in primes:
                return FAIL, f"{gp.label()} contracts to a non-prime"
            rp = gp.ideal.r_part
            if not (square <= gp.p.members if full_odd else
                    residual(g, rp) == gp.p and is_prime_submodule(g, rp)
                    and not cube <= rp.members):
                return FAIL, f"{gp.label()} does not have the shape of its case"
        return PASS, None
    _run(records, "spectrum.classification-valid", classification)

    def odd_part_bracket():
        add = g.ring.add
        for gp in graded_spec(g, "definitional", bound).graded_points:
            bracket = r1_bracket(g, gp.p)
            rebuilt = frozenset(
                add[a][m]
                for a in g.embed_ideal(gp.p) for m in bracket.members)
            if rebuilt != gp.flat_members:
                return FAIL, f"{gp.label()} != p + bracket(p)"
        return PASS, None
    _run(records, "spectrum.prime-odd-part-bracket", odd_part_bracket)

    def residual_recovery():
        sq = r1_squared(g).members
        for p in spec(g.r0_ring, bound):
            if sq <= p.members:
                continue
            span = graded_ideal_from_ideal(g, p).r_part
            if residual(g, span).members != p.members:
                return FAIL, f"(pR1 : R1) != p for p={p.label()}"
        return PASS, None
    _run(records, "spectrum.prime-residual-recovery", residual_recovery)

    def unit_sum_form():
        whole = frozenset(range(g.r0_ring.size))
        sq = r1_squared(g).members
        for gp in graded_spec(g, "definitional", bound).graded_points:
            if additive_closure(g.r0_ring, sq | gp.p.members) != whole:
                continue
            expected = graded_ideal_from_ideal(g, gp.p)
            if gp.ideal != expected:
                return FAIL, f"{gp.label()} != (p, p*R1) despite R1^2 + p = R0"
        return PASS, None
    _run(records, "spectrum.unit-sum-prime-form", unit_sum_form)

    def nil_case():
        report = check_nil_case(g, bound)
        if not report.applicable:
            return NOT_APPLICABLE, report.witness
        return (PASS, None) if report.passed else (FAIL, report.witness)
    _run(records, "spectrum.nil-square-collapse", nil_case)

    def dimension():
        hdim, basedim = homogeneous_dim(g, bound)
        if hdim != basedim:
            return FAIL, f"hdim {hdim} != dim R0 {basedim}"
        return PASS, f"hdim = dim R0 = {hdim}"
    _run(records, "spectrum.dimension-matches-base", dimension)

    return records


def _suite_homeo(g: GradedRing, bound) -> list:
    start = time.perf_counter()
    try:
        report = check_homeomorphism(g, bound)
    except EnumerationLimitError as exc:
        status, witness = RESOURCE_LIMIT, str(exc)
    except AlgebraError as exc:
        status, witness = FAIL, str(exc)
    else:
        return [CheckRecord(f"homeo.{check.name}", PASS if check.passed else FAIL,
                            check.witness, check.elapsed)
                for check in report.topology_checks]
    return [CheckRecord("homeo.contraction-homeomorphism", status, witness,
                        time.perf_counter() - start)]


def _suite_radical(g: GradedRing, bound) -> list:
    records: list = []

    def three_way():
        for j in enumerate_graded_ideals(g, bound):
            by_def = graded_radical(g, j, "definitional", bound)
            by_int = graded_radical(g, j, "intersection", bound)
            by_formula = graded_radical(g, j, "formula", bound)
            if not (by_def == by_int == by_formula):
                return FAIL, (f"methods disagree on {j.label()}:"
                              f" {by_def.label()} / {by_int.label()}"
                              f" / {by_formula.label()}")
        return PASS, None
    _run(records, "radical.three-way-agreement", three_way)

    def idempotent():
        for j in enumerate_graded_ideals(g, bound):
            once = graded_radical(g, j, "formula", bound)
            twice = graded_radical(g, once, "formula", bound)
            if once != twice:
                return FAIL, f"radical not idempotent on {j.label()}"
        return PASS, None
    _run(records, "radical.idempotent", idempotent)

    def contains():
        for j in enumerate_graded_ideals(g, bound):
            if not j.flat_members <= graded_radical(g, j, "formula", bound).flat_members:
                return FAIL, f"{j.label()} escapes its radical"
        return PASS, None
    _run(records, "radical.contains-ideal", contains)

    def bracket_observation():
        graded = enumerate_graded_ideals(g, bound)
        closed = {}  # the literal bracket depends on J0 alone: test it once per J0
        for j in graded:
            if j.i0.members not in closed:
                closed[j.i0.members] = is_submodule_set(g, r1_bracket(g, j.i0).members)
        flags = [closed[j.i0.members] for j in graded]
        example = next((j.i0.label() for j, flag in zip(graded, flags) if not flag), None)
        note = f"literal bracket closed for {sum(flags)}/{len(graded)} even parts"
        if example is not None:
            note += f"; first open case at I0={example}"
        return PASS, note
    _run(records, "radical.bracket-closure-observation", bracket_observation)

    return records


def _suite_maximal(g: GradedRing, bound) -> list:
    records: list = []

    def methods_agree():
        d = graded_max(g, "definitional", bound)
        c = graded_max(g, "constructive", bound)
        if d != c:
            return FAIL, (f"{len(d)} definitional vs {len(c)} constructive"
                          " graded maximal ideals")
        return PASS, f"{len(d)} graded maximal ideal(s)"
    _run(records, "maximal.methods-agree", methods_agree)

    def submodule_residual():
        report = maximal_submodule_check(g, bound)
        if report.applicable_count == 0:
            return NOT_APPLICABLE, report.witness
        if not report.passed:
            return FAIL, report.witness
        return PASS, f"{report.applicable_count} applicable submodule(s)"
    _run(records, "maximal.submodule-residual-equivalence", submodule_residual)

    def local():
        graded_local = is_graded_local(g, bound)
        base_local = len(max_spec(g.r0_ring, bound)) == 1
        if graded_local != base_local:
            return FAIL, (f"graded-local={graded_local} but"
                          f" base-local={base_local}")
        return PASS, None
    _run(records, "maximal.local-iff-base-local", local)

    def maximal_prime():
        prime_flats = {p.flat_members
                       for p in graded_spec(g, "definitional", bound).graded_points}
        for j in graded_max(g, "definitional", bound):
            if j.flat_members not in prime_flats:
                return FAIL, f"{j.label()} is graded maximal but not graded prime"
        return PASS, None
    _run(records, "maximal.maximal-implies-graded-prime", maximal_prime)

    def contraction_bijective():
        maximals = graded_max(g, "definitional", bound)
        images = [j.i0.members for j in maximals]
        targets = {p.members for p in max_spec(g.r0_ring, bound)}
        if len(set(images)) != len(images) or set(images) != targets:
            return FAIL, ("contraction of the graded maximal ideals is not a"
                          " bijection onto the maximal ideals of the even part")
        return PASS, None
    _run(records, "maximal.contraction-bijective", contraction_bijective)

    def strong_form():
        if not is_strongly_graded(g):
            return NOT_APPLICABLE, "not strongly graded"
        expected = sorted(
            (graded_ideal_from_ideal(g, p) for p in max_spec(g.r0_ring, bound)),
            key=GradedIdeal.key)
        actual = graded_max(g, "definitional", bound)
        if expected != actual:
            return FAIL, "graded maximals are not {(p, p*R1) : p maximal}"
        return PASS, None
    _run(records, "maximal.strong-form", strong_form)

    return records


def _suite_field(g: GradedRing, bound) -> list:
    records: list = []

    def field_methods():
        d, s = is_graded_field(g), is_graded_field(g, "structural")
        if d != s:
            return FAIL, f"definitional={d}, structural={s}"
        return PASS, f"graded field: {d}"
    _run(records, "field.graded-field-methods-agree", field_methods)

    def domain_methods():
        d, s = is_graded_domain(g), is_graded_domain(g, "structural")
        if d != s:
            return FAIL, f"definitional={d}, structural={s}"
        return PASS, f"graded domain: {d}"
    _run(records, "field.graded-domain-methods-agree", domain_methods)

    def zero_maximal():
        zero = _zero_graded_ideal(g)
        if is_graded_field(g) != is_graded_maximal(g, zero, bound):
            return FAIL, "graded field flag disagrees with zero ideal maximality"
        return PASS, None
    _run(records, "field.field-iff-zero-maximal", zero_maximal)

    def zero_prime():
        zero = _zero_graded_ideal(g)
        if is_graded_domain(g) != is_graded_prime(g, zero):
            return FAIL, "graded domain flag disagrees with zero ideal primality"
        return PASS, None
    _run(records, "field.domain-iff-zero-prime", zero_prime)

    def two_ideals():
        field_flag = is_graded_field(g)
        two = len(enumerate_graded_ideals(g, bound)) == 2
        if field_flag != two:
            return FAIL, (f"graded field = {field_flag} but"
                          f" {len(enumerate_graded_ideals(g, bound))} graded ideals")
        return PASS, None
    _run(records, "field.field-iff-two-graded-ideals", two_ideals)

    def presentation():
        if not is_graded_field(g):
            return NOT_APPLICABLE, "not a graded field"
        if g.r1 == {g.ring.zero}:
            return NOT_APPLICABLE, "odd part is zero; nothing to present"
        pres = graded_field_presentation(g)
        return PASS, (f"b={pres.b!r}, alpha={pres.alpha!r};"
                      f" isomorphic to {pres.target.provenance}")
    _run(records, "field.quadratic-presentation", presentation)

    def strong_domain():
        if not is_strongly_graded(g):
            return NOT_APPLICABLE, "not strongly graded"
        if not strongly_graded_domain_matches_base(g):
            return FAIL, "graded domain flag disagrees with the even part"
        return PASS, None
    _run(records, "field.strong-domain-iff-base", strong_domain)

    return records


def _suite_norm(g: GradedRing, bound) -> list:
    records: list = []

    def lands_even():
        for c in range(g.ring.size):
            if _norm_code(g, c) not in g.r0:
                return FAIL, f"N({g.ring.names[c]}) is not even"
        return PASS, None
    _run(records, "norm.lands-in-even-part", lands_even)

    def zero_one():
        ring = g.ring
        if _norm_code(g, ring.zero) != ring.zero:
            return FAIL, "N(0) != 0"
        if _norm_code(g, ring.one) != ring.one:
            return FAIL, "N(1) != 1"
        return PASS, None
    _run(records, "norm.zero-one", zero_one)

    report = domain_equivalence_check(g)

    def multiplicative():
        if not report.norm_multiplicative:
            return FAIL, report.witness
        return PASS, None
    _run(records, "norm.multiplicative", multiplicative)

    def equivalence():
        if not report.equivalence_holds:
            return FAIL, report.witness
        kernel = sorted(norm_set(g))
        return PASS, (f"domain={report.is_domain},"
                      f" graded domain={report.is_graded_domain},"
                      f" |norm kernel|={len(kernel)}")
    _run(records, "norm.domain-equivalence", equivalence)

    return records


_SUITES = {
    "field": _suite_field,
    "homeo": _suite_homeo,
    "ideals": _suite_ideals,
    "maximal": _suite_maximal,
    "norm": _suite_norm,
    "radical": _suite_radical,
    "spectrum": _suite_spectrum,
}


# ---------------------------------------------------------------------------
# report assembly


def _instance_summary(spec: InstanceSpec, g: GradedRing | None) -> dict:
    summary = {"recipe": spec.recipe}
    if g is not None:
        summary.update({
            "provenance": g.provenance,
            "size": g.ring.size,
            "r0_size": len(g.r0),
            "r1_size": len(g.r1),
            "strongly_graded": is_strongly_graded(g),
        })
    return summary


def _counts(g: GradedRing, bound) -> dict:
    counts = {}
    try:
        counts["ideals"] = len(enumerate_ideals(g.ring, bound))
        counts["primes"] = len(spec(g.ring, bound))
        counts["graded_ideals"] = len(enumerate_graded_ideals(g, bound))
        counts["graded_primes"] = len(
            graded_spec(g, "definitional", bound).graded_points)
        counts["graded_maximals"] = len(graded_max(g, "definitional", bound))
    except EnumerationLimitError:
        for key in ("ideals", "primes", "graded_ideals", "graded_primes",
                    "graded_maximals"):
            counts.setdefault(key, None)
    return counts


def normalize_suites(names) -> tuple:
    requested = set(names or ["all"])
    unknown = requested - set(SUITE_NAMES) - {"all"}
    if unknown:
        raise ValueError(f"unknown suite(s): {sorted(unknown)}")
    if "all" in requested:
        return SUITE_NAMES
    return tuple(sorted(requested))


def run_verify(spec: InstanceSpec, suites=("all",),
               bound: int | None = None) -> VerificationReport:
    """Run the selected suites on one instance and assemble the report."""
    chosen = normalize_suites(suites)
    limit = effective_bound(spec, bound)
    start = time.perf_counter()
    try:
        g = build_instance(spec, limit)
    except EnumerationLimitError as exc:
        record = CheckRecord("build", RESOURCE_LIMIT, str(exc),
                             time.perf_counter() - start)
        return VerificationReport(
            _instance_summary(spec, None),
            {key: None for key in ("ideals", "primes", "graded_ideals",
                                   "graded_primes", "graded_maximals")},
            chosen, [record], RESOURCE_LIMIT)
    checks: list = []
    for name in chosen:
        checks.extend(_SUITES[name](g, limit))
    checks.sort(key=lambda record: record.name)
    if any(record.status == FAIL for record in checks):
        status = FAIL
    elif any(record.status == RESOURCE_LIMIT for record in checks):
        status = RESOURCE_LIMIT
    else:
        status = PASS
    return VerificationReport(_instance_summary(spec, g), _counts(g, limit),
                              chosen, checks, status)


def report_payload(report: VerificationReport,
                   include_timings: bool = False) -> dict:
    checks = []
    for record in report.checks:
        item = {"name": record.name, "status": record.status,
                "witness": record.witness}
        if include_timings:
            item["elapsed"] = record.elapsed
        checks.append(item)
    return {
        "instance": report.instance,
        "counts": report.counts,
        "suites": list(report.suites),
        "checks": checks,
        "status": report.status,
    }


def report_to_json(report: VerificationReport,
                   include_timings: bool = False) -> str:
    return json.dumps(report_payload(report, include_timings),
                      sort_keys=True, indent=2) + "\n"


def report_to_text(report: VerificationReport) -> str:
    lines = []
    instance = report.instance
    header = instance.get("provenance", "instance")
    if "size" in instance:
        header += (f"  |R|={instance['size']} |R0|={instance['r0_size']}"
                   f" |R1|={instance['r1_size']}"
                   f" strongly_graded={instance['strongly_graded']}")
    lines.append(header)
    if any(v is not None for v in report.counts.values()):
        lines.append("counts: " + ", ".join(
            f"{k}={v}" for k, v in sorted(report.counts.items())))
    for record in report.checks:
        line = f"  [{record.status:>14}] {record.name} ({record.elapsed:.3f}s)"
        if record.witness:
            line += f" -- {record.witness}"
        lines.append(line)
    lines.append(f"status: {report.status}")
    return "\n".join(lines) + "\n"
