"""Child process of a traced benchmark pass: one instance, one fresh process.

    python3 perfbench/traced.py <instance file> verify <suite>...
    python3 perfbench/traced.py <instance file> queries

Calls the public entry point of each z2spec module in dependency order, so
each lattice is billed once, to its own layer, and the verify suites run warm.
Every call gets a span (name, start, end, parent, instance); all spans are
children of the ``instance`` root span, which starts before ``import z2spec``,
so the self times add up to the traced wall time by construction.  Spans are kept in memory
and printed as one JSON object on stdout at the end, with the instance's
lattice sizes, the verify check count and status, and (``queries``) the DOT
text.
"""

import json
import sys
import time


class Tracer:
    def __init__(self, instance: str):
        self.instance = instance
        self.spans = []
        self._stack = []

    def begin(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "start": time.perf_counter(),
                           "end": None, "parent": parent,
                           "instance": self.instance})
        self._stack.append(len(self.spans) - 1)

    def end(self) -> None:
        self.spans[self._stack.pop()]["end"] = time.perf_counter()

    def call(self, name: str, fn, *args):
        self.begin(name)
        try:
            return fn(*args)
        finally:
            self.end()


def ambient_tables(recipe: dict):
    """Build the plain ring the recipe's graded constructor will ask for,
    with the same arguments, so ``build_instance`` finds it interned."""
    from z2spec.rings import as_code, poly_quotient, product_ring, zmod

    def plain(r):
        if r["kind"] == "zmod":
            return zmod(r["n"])
        if r["kind"] == "product":
            return product_ring(plain(r["a"]), plain(r["b"]))
        return poly_quotient(plain(r["base"]), tuple(r["modulus"]),
                             r.get("symbol", "x"))

    kind = recipe["kind"]
    if kind in ("zmod", "product", "poly_quotient"):
        return plain(recipe)
    if kind == "trivial_extension":  # its tables are built by the grading
        return zmod(recipe["n"])
    if kind == "gaussian":
        recipe = {"kind": "quadratic", "base": {"kind": "zmod", "n": recipe["n"]},
                  "alpha": -1, "symbol": "i"}
    base = plain(recipe["base"])
    if recipe["kind"] == "truncated_poly":
        return poly_quotient(base, (base.zero,) * recipe["k"] + (base.one,))
    if recipe["kind"] == "quadratic":
        alpha = as_code(base, recipe["alpha"])
        return poly_quotient(base, (base.neg[alpha], base.zero, base.one),
                             recipe.get("symbol", "x"))
    return base  # graded_manual


def trace_instance(source: str, mode: str, suites: list) -> dict:
    tracer = Tracer(source)
    tracer.begin("instance")
    tracer.begin("z2spec.import")
    from z2spec import (build_instance, domain_equivalence_check,
                        enumerate_graded_ideals, enumerate_ideals,
                        graded_max, graded_radical, graded_spec,
                        parse_instance, render_dot, run_verify, spec,
                        submodules)
    from z2spec.instances import effective_bound
    tracer.end()

    def parse():
        with open(source, "r", encoding="utf-8") as handle:
            return parse_instance(handle.read())

    inst = tracer.call("instances.parse", parse)
    bound = effective_bound(inst)
    tracer.call("rings.tables", ambient_tables, inst.recipe)
    g = tracer.call("grading.build", build_instance, inst)
    ideals = tracer.call("rings.enumerate_ideals", enumerate_ideals,
                         g.ring, bound)
    ideals_r0 = tracer.call("rings.enumerate_ideals_r0", enumerate_ideals,
                            g.r0_ring, bound)
    primes = tracer.call("rings.spec", lambda: (
        spec(g.ring, bound), spec(g.r0_ring, bound))[0])
    subs = tracer.call("grading.submodules", submodules, g, bound)
    graded = tracer.call("graded_ideals.enumerate", enumerate_graded_ideals,
                         g, bound)
    graded_primes = tracer.call("spectrum.graded_spec_definitional",
                                graded_spec, g, "definitional", bound)
    if mode == "verify":
        tracer.call("spectrum.graded_spec_constructive", graded_spec, g,
                    "constructive", bound)
    if "radical" in suites:
        for method in ("definitional", "intersection", "formula"):
            tracer.call(f"spectrum.graded_radical_{method}", lambda m=method: [
                graded_radical(g, j, m, bound) for j in graded])
    maximals = tracer.call("maxfield.graded_max_definitional", graded_max, g,
                           "definitional", bound)
    if mode == "verify":
        tracer.call("maxfield.graded_max_constructive", graded_max, g,
                    "constructive", bound)
    if "norm" in suites:
        tracer.call("maxfield.domain_equivalence", domain_equivalence_check, g)
    checks = 0
    status = {}
    for suite in suites:
        report = tracer.call(f"verify.{suite}", run_verify, inst, [suite])
        checks += len(report.checks)
        status[suite] = report.status
    dot = tracer.call("dot.render", render_dot, g, bound) \
        if mode == "queries" else None
    tracer.end()
    return {
        "spans": tracer.spans,
        "lattice": {
            "size": g.ring.size, "r0_size": len(g.r0), "r1_size": len(g.r1),
            "ideals": len(ideals), "ideals_r0": len(ideals_r0),
            "primes": len(primes), "submodules": len(subs),
            "graded_ideals": len(graded),
            "graded_primes": len(graded_primes.graded_points),
            "graded_maximals": len(maximals),
        },
        "checks": checks,
        "status": status,
        "dot": dot,
    }


if __name__ == "__main__":
    result = trace_instance(sys.argv[1], sys.argv[2], sys.argv[3:])
    sys.stdout.write(json.dumps(result))
