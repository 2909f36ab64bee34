"""Per-pair reference for the norm suite's domain-equivalence report.

One Python step per pair, straight off the operation tables, with the norm
read as ``maxfield._norm_code`` at each call, so a norm defect planted
there reaches the reference too.  It shares no scan with the library's
row comparison, so the tests can compare the two.
"""

import z2spec.maxfield as maxfield
from z2spec.maxfield import DomainEquivalenceReport


def _no_zero_product(ring, codes):
    """No two nonzero codes of ``codes`` multiply to 0."""
    nonzero = [c for c in codes if c != ring.zero]
    return all(ring.mul[x][y] != ring.zero for x in nonzero for y in nonzero)


def naive_domain_equivalence(g):
    """The seven fields of ``domain_equivalence_check``: the flat and graded
    domain tests over all pairs, the norm kernel, and N(xy) = N(x)N(y)
    compared pair by pair in row-major order up to the first failure."""
    ring = g.ring
    size, mul, zero = ring.size, ring.mul, ring.zero

    def norm(code):
        return maxfield._norm_code(g, code)

    flat_domain = _no_zero_product(ring, range(size))
    graded_domain = _no_zero_product(ring, g.r0 | g.r1)
    kernel_trivial = {c for c in range(size) if norm(c) == zero} == {zero}
    equivalence = flat_domain == (graded_domain and kernel_trivial)
    witness = None
    pairs = 0
    for x in range(size):
        for y in range(size):
            pairs += 1
            if norm(mul[x][y]) != mul[norm(x)][norm(y)]:
                witness = f"N({ring.names[x]} * {ring.names[y]}) != N*N"
                break
        if witness is not None:
            break
    multiplicative = witness is None
    if multiplicative and not equivalence:
        witness = (f"domain={flat_domain}, graded domain={graded_domain},"
                   f" trivial norm kernel={kernel_trivial}")
    return DomainEquivalenceReport(
        flat_domain, graded_domain, kernel_trivial, equivalence,
        multiplicative, pairs, witness)
