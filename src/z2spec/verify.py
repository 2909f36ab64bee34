"""Verification records: every structural theorem as a named pass/fail check.

``RECORDS`` lists every record once, in name order: its name, whose prefix
up to the first dot is its suite, and its check ``(g, bound) -> (status,
witness)``.  ``run_verify`` runs the records of the chosen suites in that
order and assembles them into a VerificationReport.  Each structural
theorem is checked here, in its named record, and not again by the library,
whose constructors validate only their inputs.

Every step runs inside a record, timed by ``_run``: hitting the enumeration
bound is recorded as a distinguished ``resource-limit`` status, any other
library error as ``fail`` with the error's text as witness, and any other
``Exception`` as ``fail`` with the witness ``"<TypeName>: <text>"``; none is
raised out of the run.  Before the first record, ``run_verify`` counts every
lattice in a step of its own, so a record's time is its check alone, and
the report keeps that step's time as ``lattice_elapsed``; should counting
raise anything but the bound, the step is reported as a ``fail`` record
named ``counts``.  Reports serialize deterministically; timings are kept in
memory and in the text rendering but omitted from JSON so reports are
byte-identical across runs.
"""

from __future__ import annotations

import json
import time

from .errors import AlgebraError, EnumerationLimitError
from .graded_ideals import (
    enumerate_graded_ideals,
    graded_ideal_from_ideal,
    graded_ideal_from_submodule,
    is_graded_ideal,
)
from .grading import (
    GradedRing,
    _r0_generators,
    is_strongly_graded,
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
    norm_set,
    _norms,
)
from .rings import (
    _Record,
    _grow_subgroup,
    _is_stable_mask,
    _no_pair_inside,
    _translator,
    enumerate_ideals,
    maximal_sets,
    radical_members,
    spec,
)
from .spectrum import (
    PrimeKind,
    graded_radical,
    graded_spec,
    homogeneous_dim,
    is_prime_submodule,
    phi,
    phi_inverse,
    r1_bracket,
)

COUNT_NAMES = ("ideals", "primes", "graded_ideals", "graded_primes",
               "graded_maximals")

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"
RESOURCE_LIMIT = "resource-limit"


class CheckRecord(_Record):
    name: str
    status: str
    witness: str | None
    elapsed: float


class VerificationReport(_Record):
    instance: dict
    counts: dict
    suites: tuple
    checks: list
    status: str
    lattice_elapsed: float | None = None  # seconds in _counts; None if never built


def _run(name: str, check, g: GradedRing, bound) -> CheckRecord:
    start = time.perf_counter()
    try:
        status, witness = check(g, bound)
    except EnumerationLimitError as exc:
        status, witness = RESOURCE_LIMIT, str(exc)
    except AlgebraError as exc:
        status, witness = FAIL, str(exc)
    except Exception as exc:  # a step that breaks outside the library's errors
        status, witness = FAIL, f"{type(exc).__name__}: {exc}"
    return CheckRecord(name, status, witness, time.perf_counter() - start)


# ---------------------------------------------------------------------------
# records: each a check (g, bound) -> (status, witness), in RECORDS below


def _ideals_oracle(g, bound):
    pair_flats = {j.mask for j in enumerate_graded_ideals(g, bound)}
    # distinct ideals: equal counts and containment make the sets equal
    filtered = [i.mask for i in enumerate_ideals(g.ring, bound)
                if is_graded_ideal(g, i)]
    if len(pair_flats) != len(filtered) or not pair_flats.issuperset(filtered):
        return FAIL, (f"{len(pair_flats)} pair-built vs {len(filtered)}"
                      " filter-built graded ideals")
    return PASS, None


def _ideals_even_closure(g, bound):
    graded = set(enumerate_graded_ideals(g, bound))
    for i in enumerate_ideals(g.r0_ring, bound):
        j = graded_ideal_from_ideal(g, i)
        if j.i0 != i:
            return FAIL, f"(I, I*R1) does not contract to I for I={i.label()}"
        if j not in graded:
            return FAIL, f"(I, I*R1) is not a graded ideal for I={i.label()}"
    return PASS, None


def _ideals_submodule_closure(g, bound):
    graded = {j.mask for j in enumerate_graded_ideals(g, bound)}
    for rp in submodules(g, bound):
        flat = graded_ideal_from_submodule(g, rp).mask
        if flat & g.r1_mask != rp.mask:
            return FAIL, f"((R':R1), R') loses the odd part for R'={rp.label()}"
        if flat not in graded:
            return FAIL, f"((R':R1), R') is not a graded ideal for R'={rp.label()}"
    return PASS, None


def _ideals_strong_correspondence(g, bound):
    if not is_strongly_graded(g):
        return NOT_APPLICABLE, "not strongly graded"
    # I -> (I, I*R1) is a bijection onto the graded ideals; that J -> J
    # intersect R0 inverts it is ideals.even-ideal-closure, on every ring
    ideals = enumerate_ideals(g.r0_ring, bound)
    graded = enumerate_graded_ideals(g, bound)
    forward = [graded_ideal_from_ideal(g, i) for i in ideals]
    hit = set(forward)
    if len(hit) != len(forward):
        return FAIL, "two even-part ideals map to the same graded ideal"
    missing = [j for j in graded if j not in hit]
    if missing:
        return FAIL, f"graded ideal not hit: {missing[0].label()}"
    if len(hit) != len(graded):
        return FAIL, "an even-part ideal maps outside the graded ideals"
    return PASS, f"{len(ideals)} even ideals <-> {len(graded)} graded ideals"


def _ideals_strong_multiplication_module(g, bound):
    if not is_strongly_graded(g):
        return NOT_APPLICABLE, "not strongly graded"
    for rp in submodules(g, bound):
        span = graded_ideal_from_ideal(g, residual(g, rp)).r_part
        if span != rp:
            return FAIL, f"R' != (R':R1)*R1 for R'={rp.label()}"
    return PASS, None


def _ideals_strong_span_cancellation(g, bound):
    if not is_strongly_graded(g):
        return NOT_APPLICABLE, "not strongly graded"
    ideals = enumerate_ideals(g.r0_ring, bound)
    spans = [graded_ideal_from_ideal(g, i).r_part.mask for i in ideals]
    for i, si in zip(ideals, spans):
        for k, sk in zip(ideals, spans):
            if not si & ~sk and i.mask & ~k.mask:
                return FAIL, (f"I*R1 <= I'*R1 but I !<= I' for"
                              f" I={i.label()}, I'={k.label()}")
    return PASS, None


def _ideals_strong_unit_certificate(g, bound):
    if not is_strongly_graded(g):
        # R1*R1 is the additive closure of the odd products, grown here as a
        # member mask without ``r1_squared``: 1 must lie outside it
        ring = g.ring
        products = {ring.mul[a][b] for a in g.r1 for b in g.r1}
        closure = _grow_subgroup(ring.add, _translator(ring), 1 << ring.zero, products)[0]
        if closure >> ring.one & 1:
            return FAIL, "1 is a sum of odd products, yet the grading reads as not strong"
        return NOT_APPLICABLE, "not strongly graded"
    pairs = strong_grading_certificate(g)
    return PASS, f"unit reached with {len(pairs)} odd product(s)"


def _points(g, bound):
    """The graded primes, by definition."""
    return graded_spec(g, "definitional", bound).graded_points


def _spectrum_methods_agree(g, bound):
    d = {p.ideal.mask for p in _points(g, bound)}
    c = {p.ideal.mask for p in graded_spec(g, "constructive", bound).graded_points}
    if d != c:
        return FAIL, f"{len(d)} definitional vs {len(c)} constructive points"
    for name, ring in (("R", g.ring), ("R0", g.r0_ring)):
        # spec builds no lattice: the prime and the maximal ideals are its oracles
        proper = [i.mask for i in enumerate_ideals(ring, bound) if i.is_proper]
        primes = {m for m in proper
                  if _no_pair_inside(ring, range(ring.size), m)}
        maximal = maximal_sets(proper)
        points = {p.mask for p in spec(ring, bound)}
        if not points == primes == maximal:
            return FAIL, (f"Spec {name}: {len(points)} points from idempotents vs"
                          f" {len(primes)} prime, {len(maximal)} maximal ideals")
    return PASS, None


def _spectrum_classification(g, bound):
    primes = set(spec(g.r0_ring, bound))
    square, cube = r1_squared(g).mask, r1_cubed(g).mask
    for gp in _points(g, bound):
        if gp.p not in primes:
            return FAIL, f"{gp.label()} contracts to a non-prime"
        rp = gp.ideal.r_part
        if not (not square & ~gp.p.mask if gp.kind is PrimeKind.FULL_ODD_PART else
                residual(g, rp) == gp.p and is_prime_submodule(g, rp)
                and cube & ~rp.mask):
            return FAIL, f"{gp.label()} does not have the shape of its case"
    return PASS, None


def _spectrum_odd_part_bracket(g, bound):
    # P splits and its even part is p, so P = p + bracket(p) exactly when
    # its odd part is the bracket
    for gp in _points(g, bound):
        if r1_bracket(g, gp.p).mask != gp.ideal.mask & g.r1_mask:
            return FAIL, f"{gp.label()} != p + bracket(p)"
    return PASS, None


def _spectrum_residual_recovery(g, bound):
    sq = r1_squared(g).mask
    for p in spec(g.r0_ring, bound):
        if not sq & ~p.mask:
            continue
        span = graded_ideal_from_ideal(g, p).r_part
        if residual(g, span) != p:
            return FAIL, f"(pR1 : R1) != p for p={p.label()}"
    return PASS, None


def _spectrum_unit_sum_form(g, bound):
    # p is maximal (spectrum.methods-agree), so R1^2 + p is p or R0: it is
    # R0 exactly when R1^2 does not lie in p
    sq = r1_squared(g).mask
    for gp in _points(g, bound):
        if not sq & ~gp.p.mask:
            continue
        expected = graded_ideal_from_ideal(g, gp.p)
        if gp.ideal != expected:
            return FAIL, f"{gp.label()} != (p, p*R1) despite R1^2 + p = R0"
    return PASS, None


def _spectrum_nil_case(g, bound):
    # R1^2 inside the nilradical of R0: the graded primes are the primes
    # of R, and each contains the whole odd part
    nilradical = radical_members(g.r0_ring, 1 << g.r0_ring.zero)
    if r1_squared(g).mask & ~nilradical:
        return NOT_APPLICABLE, "odd part squared is not nilpotent"
    points = _points(g, bound)
    if ({gp.ideal.mask for gp in points}
            != {i.mask for i in spec(g.ring, bound)}):
        return FAIL, "graded primes and flat primes differ as sets"
    for gp in points:
        if gp.ideal.r_part.mask != g.r1_mask:
            return FAIL, f"{gp.label()} does not contain the odd part"
    return PASS, None


def _spectrum_dimension(g, bound):
    hdim, basedim = homogeneous_dim(g, bound)
    if hdim != basedim:
        return FAIL, f"hdim {hdim} != dim R0 {basedim}"
    return PASS, f"hdim = dim R0 = {hdim}"


# The homeo records: the contraction P -> P intersect R0 onto Spec R0 is a
# bijection with the explicit inverse ``phi_inverse``, and a homeomorphism.
# Closed sets are compared through their defining elements: for every even
# a, the graded primes containing a must be exactly the pullbacks of the
# base primes containing a; for every homogeneous r, the contractions of the
# graded primes containing r must be the base primes containing r^2.


def _homeo_roundtrip(g, bound):
    # the first loop makes the contraction injective, the second onto
    base, points = spec(g.r0_ring, bound), _points(g, bound)
    for gp in points:
        p = phi(g, gp)
        if p not in base:  # phi_inverse would reject it
            return FAIL, f"phi({gp.label()}) is not a prime of the even part"
        if phi_inverse(g, p).ideal != gp.ideal:
            return FAIL, f"phi_inverse(phi({gp.label()})) differs"
    masks = {gp.ideal.mask for gp in points}
    for p in base:
        gp = phi_inverse(g, p)
        if gp.ideal.mask not in masks:
            return FAIL, "contraction is not a bijection onto the base spectrum"
        if phi(g, gp) != p:
            return FAIL, f"phi(phi_inverse({p.label()})) differs"
    return PASS, None


def _homeo_even_pullback(g, bound):
    graded = _points(g, bound)
    for a in sorted(g.r0):
        direct = {gp for gp in graded if gp.ideal.mask >> a & 1}
        via_base = {gp for gp in graded if gp.p.mask >> g.to_r0(a) & 1}
        if direct != via_base:
            return FAIL, f"closed set of {g.ring.names[a]} does not pull back"
    return PASS, None


def _homeo_homogeneous_image(g, bound):
    graded, base, mul = _points(g, bound), spec(g.r0_ring, bound), g.ring.mul
    for r in g.homogeneous_codes():
        image = {gp.p for gp in graded if gp.ideal.mask >> r & 1}
        square = g.to_r0(mul[r][r])
        if image != {p for p in base if p.mask >> square & 1}:
            return FAIL, (f"image of the closed set of {g.ring.names[r]}"
                          f" is not the closed set of its square")
    return PASS, None


def _radical_three_way(g, bound):
    for j in enumerate_graded_ideals(g, bound):
        by_def = graded_radical(g, j, "definitional", bound)
        by_int = graded_radical(g, j, "intersection", bound)
        by_formula = graded_radical(g, j, "formula", bound)
        if not (by_def == by_int == by_formula):
            return FAIL, (f"methods disagree on {j.label()}:"
                          f" {by_def.label()} / {by_int.label()}"
                          f" / {by_formula.label()}")
    return PASS, None


def _radical_bracket_observation(g, bound):
    graded = enumerate_graded_ideals(g, bound)
    evens = [j.mask & g.r0_mask for j in graded]  # the literal bracket reads J0 alone
    # the bracket lies in R1: it is a submodule when it is R0-stable
    closed = {even: _is_stable_mask(g.ring, _r0_generators(g),
                                    r1_bracket(g, g._restrict_mask(even)).mask)
              for even in dict.fromkeys(evens)}
    flags = [closed[even] for even in evens]
    example = next((j.i0.label() for j, flag in zip(graded, flags) if not flag), None)
    note = f"literal bracket closed for {sum(flags)}/{len(graded)} even parts"
    if example is not None:
        note += f"; first open case at I0={example}"
    return PASS, note


def _maximal_methods_agree(g, bound):
    d = graded_max(g, "definitional", bound)
    c = graded_max(g, "constructive", bound)
    if d != c:
        return FAIL, (f"{len(d)} definitional vs {len(c)} constructive"
                      " graded maximal ideals")
    return PASS, f"{len(d)} graded maximal ideal(s)"


def _maximal_submodule_residual(g, bound):
    # over the submodules not containing R1^3: maximal exactly when the
    # residual is maximal, and then equal to residual*R1
    subs = submodules(g, bound)
    cube = r1_cubed(g).mask
    applicable = [rp for rp in subs if cube & ~rp.mask]
    if not applicable:
        return NOT_APPLICABLE, "no applicable submodules"
    top = maximal_sets(rp.mask for rp in subs if rp.is_proper)
    base_max = set(spec(g.r0_ring, bound))
    for rp in applicable:
        res = residual(g, rp)
        is_max_sub, res_max = rp.mask in top, res in base_max
        if is_max_sub != res_max:
            return FAIL, (f"{rp.label()}: maximal-submodule={is_max_sub},"
                          f" residual-maximal={res_max}")
        if is_max_sub and graded_ideal_from_ideal(g, res).r_part != rp:
            return FAIL, f"{rp.label()} is not residual*R1"
    return PASS, f"{len(applicable)} applicable submodule(s)"


def _maximal_prime(g, bound):
    prime_flats = {p.ideal for p in _points(g, bound)}
    for j in graded_max(g, "definitional", bound):
        if j not in prime_flats:
            return FAIL, f"{j.label()} is graded maximal but not graded prime"
    return PASS, None


def _field_methods(g, bound):
    d, s = is_graded_field(g), is_graded_field(g, "structural")
    if d != s:
        return FAIL, f"definitional={d}, structural={s}"
    return PASS, f"graded field: {d}"


def _field_domain_methods(g, bound):
    d, s = is_graded_domain(g), is_graded_domain(g, "structural")
    if d != s:
        return FAIL, f"definitional={d}, structural={s}"
    return PASS, f"graded domain: {d}"


def _field_two_ideals(g, bound):
    field_flag = is_graded_field(g)
    count = len(enumerate_graded_ideals(g, bound))
    if field_flag != (count == 2):
        return FAIL, f"graded field = {field_flag} but {count} graded ideals"
    return PASS, None


def _field_presentation(g, bound):
    if not is_graded_field(g):
        return NOT_APPLICABLE, "not a graded field"
    if g.r1 == {g.ring.zero}:
        return NOT_APPLICABLE, "odd part is zero; nothing to present"
    pres = graded_field_presentation(g)
    return PASS, (f"b={pres.b!r}, alpha={pres.alpha!r};"
                  f" isomorphic to {pres.target.provenance}")


def _field_strong_domain(g, bound):
    if not is_strongly_graded(g):
        return NOT_APPLICABLE, "not strongly graded"
    r0 = g.r0_ring
    base_domain = _no_pair_inside(r0, range(r0.size), 1 << r0.zero)
    if is_graded_domain(g) != base_domain:
        return FAIL, "graded domain flag disagrees with the even part"
    return PASS, None


def _norm_lands_even(g, bound):
    for c, value in enumerate(_norms(g)):
        if value not in g.r0:
            return FAIL, f"N({g.ring.names[c]}) is not even"
    return PASS, None


def _norm_zero_one(g, bound):
    ring, norms = g.ring, _norms(g)
    if norms[ring.zero] != ring.zero:
        return FAIL, "N(0) != 0"
    if norms[ring.one] != ring.one:
        return FAIL, "N(1) != 1"
    return PASS, None


def _norm_multiplicative(g, bound):
    report = domain_equivalence_check(g)
    if not report.norm_multiplicative:
        return FAIL, report.witness
    return PASS, None


def _norm_equivalence(g, bound):
    report = domain_equivalence_check(g)
    if not report.equivalence_holds:
        return FAIL, report.witness
    return PASS, (f"domain={report.is_domain},"
                  f" graded domain={report.is_graded_domain},"
                  f" |norm kernel|={len(norm_set(g))}")


RECORDS = (
    ("field.field-iff-two-graded-ideals", _field_two_ideals),
    ("field.graded-domain-methods-agree", _field_domain_methods),
    ("field.graded-field-methods-agree", _field_methods),
    ("field.quadratic-presentation", _field_presentation),
    ("field.strong-domain-iff-base", _field_strong_domain),
    ("homeo.contraction-roundtrip", _homeo_roundtrip),
    ("homeo.even-variety-pullback", _homeo_even_pullback),
    ("homeo.homogeneous-variety-image", _homeo_homogeneous_image),
    ("ideals.even-ideal-closure", _ideals_even_closure),
    ("ideals.pair-enumeration-oracle", _ideals_oracle),
    ("ideals.strong-correspondence", _ideals_strong_correspondence),
    ("ideals.strong-multiplication-module", _ideals_strong_multiplication_module),
    ("ideals.strong-span-cancellation", _ideals_strong_span_cancellation),
    ("ideals.strong-unit-certificate", _ideals_strong_unit_certificate),
    ("ideals.submodule-closure", _ideals_submodule_closure),
    ("maximal.maximal-implies-graded-prime", _maximal_prime),
    ("maximal.methods-agree", _maximal_methods_agree),
    ("maximal.submodule-residual-equivalence", _maximal_submodule_residual),
    ("norm.domain-equivalence", _norm_equivalence),
    ("norm.lands-in-even-part", _norm_lands_even),
    ("norm.multiplicative", _norm_multiplicative),
    ("norm.zero-one", _norm_zero_one),
    ("radical.bracket-closure-observation", _radical_bracket_observation),
    ("radical.three-way-agreement", _radical_three_way),
    ("spectrum.classification-valid", _spectrum_classification),
    ("spectrum.dimension-matches-base", _spectrum_dimension),
    ("spectrum.methods-agree", _spectrum_methods_agree),
    ("spectrum.nil-square-collapse", _spectrum_nil_case),
    ("spectrum.prime-odd-part-bracket", _spectrum_odd_part_bracket),
    ("spectrum.prime-residual-recovery", _spectrum_residual_recovery),
    ("spectrum.unit-sum-prime-form", _spectrum_unit_sum_form),
)
SUITE_NAMES = tuple(dict.fromkeys(name.partition(".")[0] for name, _ in RECORDS))


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


def _counts(g: GradedRing, bound) -> tuple:
    """The size of every lattice, which builds them all, and the record of
    that step."""
    counts = dict.fromkeys(COUNT_NAMES)  # None where the count stopped

    def count(g, bound):
        counts["ideals"] = len(enumerate_ideals(g.ring, bound))
        counts["primes"] = len(spec(g.ring, bound))
        counts["graded_ideals"] = len(enumerate_graded_ideals(g, bound))
        counts["graded_primes"] = len(_points(g, bound))
        counts["graded_maximals"] = len(graded_max(g, "definitional", bound))
        return PASS, None
    return counts, _run("counts", count, g, bound)


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
            dict.fromkeys(COUNT_NAMES),
            chosen, [record], RESOURCE_LIMIT)
    counts, lattices = _counts(g, limit)  # so no record is billed for a lattice
    # a bound that stops the count stops the records too, and each says so
    checks = [lattices] if lattices.status == FAIL else []
    checks += [_run(name, check, g, limit) for name, check in RECORDS
               if name.partition(".")[0] in chosen]
    if any(record.status == FAIL for record in checks):
        status = FAIL
    elif any(record.status == RESOURCE_LIMIT for record in checks):
        status = RESOURCE_LIMIT
    else:
        status = PASS
    return VerificationReport(_instance_summary(spec, g), counts,
                              chosen, checks, status, lattices.elapsed)


def report_payload(report: VerificationReport,
                   include_timings: bool = False) -> dict:
    payload = {
        "instance": report.instance,
        "counts": report.counts,
        "suites": list(report.suites),
        "checks": [{"name": record.name, "status": record.status, "witness": record.witness,
                    **({"elapsed": record.elapsed} if include_timings else {})}
                   for record in report.checks],
        "status": report.status,
    }
    if include_timings:
        payload["lattice_elapsed"] = report.lattice_elapsed
    return payload


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
    if report.lattice_elapsed is not None:
        lines.append(f"lattices built in {report.lattice_elapsed:.3f}s")
    for record in report.checks:
        line = f"  [{record.status:>14}] {record.name} ({record.elapsed:.3f}s)"
        if record.witness:
            line += f" -- {record.witness}"
        lines.append(line)
    lines.append(f"status: {report.status}")
    return "\n".join(lines) + "\n"
