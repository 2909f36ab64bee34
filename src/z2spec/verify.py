"""Verification suites: every structural theorem as a named pass/fail check.

A suite maps to a list of CheckRecords; ``run_verify`` assembles them into a
VerificationReport.  Each structural theorem is checked here, in its named
record, and not again by the library, whose constructors validate only their
inputs.  ``run_verify`` enumerates every lattice before the first record
starts, so a record's time is its check alone, and the report keeps the
enumeration's own time as ``lattice_elapsed``.  Hitting the enumeration bound
inside a check is recorded as a distinguished ``resource-limit`` status, any
other library error as ``fail`` with the error as witness; neither is raised
out of the run.  Reports serialize deterministically; timings are kept in
memory and in the text rendering but omitted from JSON so reports are
byte-identical across runs.
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
    norm_set,
    _norm_code,
)
from .rings import (
    _no_pair_inside,
    additive_closure,
    enumerate_ideals,
    ideal_from_members,
    maximal_sets,
    radical_members,
    spec,
)
from .spectrum import (
    PrimeKind,
    graded_radical,
    graded_spec,
    homogeneous_dim,
    is_graded_prime,
    is_prime_submodule,
    phi,
    phi_inverse,
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
    lattice_elapsed: float | None = None  # seconds in _counts; None if never built


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
        # distinct ideals: equal counts and containment make the sets equal
        filtered = [i.members for i in enumerate_ideals(g.ring, bound)
                    if is_graded_ideal(g, i)]
        if len(pair_flats) != len(filtered) or not pair_flats.issuperset(filtered):
            return FAIL, (f"{len(pair_flats)} pair-built vs {len(filtered)}"
                          " filter-built graded ideals")
        return PASS, None
    _run(records, "ideals.pair-enumeration-oracle", oracle)

    def roundtrip():
        for j in enumerate_graded_ideals(g, bound):
            again = decompose_graded(g, j)
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
        # I -> (I, I*R1) is a bijection onto the graded ideals, with inverse
        # J -> J intersect R0
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
        for i, j in zip(ideals, forward):
            if j.i0 != i:
                return FAIL, f"contraction does not invert on {i.label()}"
        return PASS, f"{len(ideals)} even ideals <-> {len(graded)} graded ideals"
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
        for name, ring in (("R", g.ring), ("R0", g.r0_ring)):
            # spec builds no lattice: the prime and the maximal ideals are its oracles
            proper = [i.members for i in enumerate_ideals(ring, bound) if i.is_proper]
            primes = {m for m in proper
                      if _no_pair_inside(ring.mul, range(ring.size), m)}
            maximal = maximal_sets(proper)
            points = {p.members for p in spec(ring, bound)}
            if not points == primes == maximal:
                return FAIL, (f"Spec {name}: {len(points)} points from idempotents vs"
                              f" {len(primes)} prime, {len(maximal)} maximal ideals")
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
        # R1^2 inside the nilradical of R0: the graded primes are the primes
        # of R, and each contains the whole odd part
        nilradical = radical_members(g.r0_ring, frozenset({g.r0_ring.zero}))
        if not r1_squared(g).members <= nilradical:
            return NOT_APPLICABLE, "odd part squared is not nilpotent"
        points = graded_spec(g, "definitional", bound).graded_points
        if ({gp.flat_members for gp in points}
                != {i.members for i in spec(g.ring, bound)}):
            return FAIL, "graded primes and flat primes differ as sets"
        for gp in points:
            if gp.ideal.r_part.members != g.r1:
                return FAIL, f"{gp.label()} does not contain the odd part"
        return PASS, None
    _run(records, "spectrum.nil-square-collapse", nil_case)

    def dimension():
        hdim, basedim = homogeneous_dim(g, bound)
        if hdim != basedim:
            return FAIL, f"hdim {hdim} != dim R0 {basedim}"
        return PASS, f"hdim = dim R0 = {hdim}"
    _run(records, "spectrum.dimension-matches-base", dimension)

    return records


def _suite_homeo(g: GradedRing, bound) -> list:
    """The contraction P -> P intersect R0 onto Spec R0: a bijection with the
    explicit inverse ``phi_inverse``, and a homeomorphism.

    Closed sets are compared through their defining elements: for every even
    a, the graded primes containing a must be exactly the pullbacks of the
    base primes containing a; for every homogeneous r, the contractions of
    the graded primes containing r must be the base primes containing r^2.
    """
    records: list = []

    def points():
        return graded_spec(g, "definitional", bound).graded_points

    def methods_agree():
        d = {gp.flat_members for gp in points()}
        c = {gp.flat_members
             for gp in graded_spec(g, "constructive", bound).graded_points}
        if d != c:
            return FAIL, f"{len(d ^ c)} points differ between methods"
        return PASS, None
    _run(records, "homeo.methods-agree", methods_agree)

    def bijective():
        images = [gp.p.members for gp in points()]
        if (len(set(images)) != len(images)
                or set(images) != {p.members for p in spec(g.r0_ring, bound)}):
            return FAIL, "contraction is not a bijection onto the base spectrum"
        return PASS, None
    _run(records, "homeo.contraction-bijective", bijective)

    def roundtrip():
        base = spec(g.r0_ring, bound)
        base_sets = {p.members for p in base}
        for gp in points():
            p = phi(g, gp)
            if p.members not in base_sets:  # phi_inverse would reject it
                return FAIL, f"phi({gp.label()}) is not a prime of the even part"
            if phi_inverse(g, p).flat_members != gp.flat_members:
                return FAIL, f"phi_inverse(phi({gp.label()})) differs"
        for p in base:
            if phi(g, phi_inverse(g, p)).members != p.members:
                return FAIL, f"phi(phi_inverse({p.label()})) differs"
        return PASS, None
    _run(records, "homeo.contraction-roundtrip", roundtrip)

    def even_pullback():
        graded = points()
        for a in sorted(g.r0):
            direct = {gp.flat_members for gp in graded if a in gp.flat_members}
            via_base = {gp.flat_members for gp in graded
                        if g.to_r0(a) in gp.p.members}
            if direct != via_base:
                return FAIL, f"closed set of {g.ring.names[a]} does not pull back"
        return PASS, None
    _run(records, "homeo.even-variety-pullback", even_pullback)

    def homogeneous_image():
        graded, base, mul = points(), spec(g.r0_ring, bound), g.ring.mul
        for r in g.homogeneous_codes():
            image = {gp.p.members for gp in graded if r in gp.flat_members}
            square = g.to_r0(mul[r][r])
            if image != {p.members for p in base if square in p.members}:
                return FAIL, (f"image of the closed set of {g.ring.names[r]}"
                              f" is not the closed set of its square")
        return PASS, None
    _run(records, "homeo.homogeneous-variety-image", homogeneous_image)

    return records


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
        # over the submodules not containing R1^3: maximal exactly when the
        # residual is maximal, and then equal to residual*R1
        subs = submodules(g, bound)
        cube = r1_cubed(g).members
        applicable = [rp for rp in subs if not cube <= rp.members]
        if not applicable:
            return NOT_APPLICABLE, "no applicable submodules"
        top = maximal_sets(rp.members for rp in subs if rp.is_proper)
        base_max = {m.members for m in spec(g.r0_ring, bound)}
        for rp in applicable:
            res = residual(g, rp)
            is_max_sub, res_max = rp.members in top, res.members in base_max
            if is_max_sub != res_max:
                return FAIL, (f"{rp.label()}: maximal-submodule={is_max_sub},"
                              f" residual-maximal={res_max}")
            if is_max_sub and (graded_ideal_from_ideal(g, res).r_part.members
                               != rp.members):
                return FAIL, f"{rp.label()} is not residual*R1"
        return PASS, f"{len(applicable)} applicable submodule(s)"
    _run(records, "maximal.submodule-residual-equivalence", submodule_residual)

    def local():
        graded_local = is_graded_local(g, bound)
        base_local = len(spec(g.r0_ring, bound)) == 1
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
        targets = {p.members for p in spec(g.r0_ring, bound)}
        if len(set(images)) != len(images) or set(images) != targets:
            return FAIL, ("contraction of the graded maximal ideals is not a"
                          " bijection onto the maximal ideals of the even part")
        return PASS, None
    _run(records, "maximal.contraction-bijective", contraction_bijective)

    def strong_form():
        if not is_strongly_graded(g):
            return NOT_APPLICABLE, "not strongly graded"
        expected = sorted(
            (graded_ideal_from_ideal(g, p) for p in spec(g.r0_ring, bound)),
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
        r0 = g.r0_ring
        base_domain = _no_pair_inside(r0.mul, range(r0.size), frozenset({r0.zero}))
        if is_graded_domain(g) != base_domain:
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
    start = time.perf_counter()
    counts = _counts(g, limit)  # every lattice, so no record is billed for one
    lattice_elapsed = time.perf_counter() - start
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
    return VerificationReport(_instance_summary(spec, g), counts,
                              chosen, checks, status, lattice_elapsed)


def report_payload(report: VerificationReport,
                   include_timings: bool = False) -> dict:
    checks = []
    for record in report.checks:
        item = {"name": record.name, "status": record.status,
                "witness": record.witness}
        if include_timings:
            item["elapsed"] = record.elapsed
        checks.append(item)
    payload = {
        "instance": report.instance,
        "counts": report.counts,
        "suites": list(report.suites),
        "checks": checks,
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
