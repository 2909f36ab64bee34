"""All-pairs reference closure tests, straight off the operation tables.

They share no code with the library's subgroup-growth kernel, so the tests
can compare the two.
"""

from collections import deque


def naive_is_ideal_set(ring, members):
    """0 inside, closed under + over all of I x I and under * over I x R."""
    add, mul = ring.add, ring.mul
    return (ring.zero in members
            and all(add[x][y] in members for x in members for y in members)
            and all(mul[x][r] in members for x in members for r in range(ring.size)))


def naive_is_submodule_set(g, members):
    """Subset of R1 with 0, closed under + over all pairs and under R0 x M."""
    add, mul = g.ring.add, g.ring.mul
    return (g.ring.zero in members and members <= g.r1
            and all(add[x][y] in members for x in members for y in members)
            and all(mul[a][x] in members for a in g.r0 for x in members))


def naive_additive_closure(ring, codes):
    """Add every pair until nothing new appears."""
    members = {ring.zero, *codes}
    while True:
        sums = {ring.add[x][y] for x in members for y in members}
        if sums <= members:
            return frozenset(members)
        members |= sums


def _naive_lattice(ring, spans):
    """Breadth-first closure over all pairs: extend each known sum S by
    every span Mx (``spans`` maps its members to its label x) with x outside
    S, closing S + Mx over all |S|*|Mx| sums, spans taken by size and then
    sorted members.  Returns (members, generator path) in canonical order,
    the path being the spans by which the walk first reaches the sum."""
    add = ring.add
    extensions = sorted(spans.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
    zero_members = frozenset({ring.zero})
    found = {zero_members: ()}
    queue = deque([zero_members])
    while queue:
        current = queue.popleft()
        gens = found[current]
        for span, x in extensions:
            if x in current:  # Mx <= current, nothing new
                continue
            bigger = frozenset(add[a][b] for a in current for b in span)
            if bigger not in found:
                found[bigger] = gens + (x,)
                queue.append(bigger)
    return sorted(found.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))


def naive_enumerate_ideals(ring):
    """Every ideal, as the sums of principal ideals Rx (``_naive_lattice``)."""
    mul = ring.mul
    principals = {}
    for x in range(ring.size):
        principals.setdefault(frozenset(mul[r][x] for r in range(ring.size)), x)
    return _naive_lattice(ring, principals)


def naive_submodules(g):
    """Every R0-submodule of R1, as the sums of cyclic spans R0x
    (``_naive_lattice``)."""
    mul = g.ring.mul
    spans = {}
    for x in sorted(g.r1):
        spans.setdefault(frozenset(mul[a][x] for a in g.r0), x)
    return _naive_lattice(g.ring, spans)


def naive_compatible(g, i0_ambient, odd):
    """I0*R1 <= R' and R1*R' <= I0, over all pairs."""
    mul = g.ring.mul
    return (all(mul[a][x] in odd for a in i0_ambient for x in g.r1)
            and all(mul[x][y] in i0_ambient for x in g.r1 for y in odd))


def naive_graded_pairs(g):
    """Compatible (I0, R') pairs, as ambient member sets, filtered over all
    pairs of the all-pairs ideal and submodule lattices."""
    r0_embed = sorted(g.r0)  # r0_ring code k is the k-th smallest even code
    evens = [frozenset(r0_embed[c] for c in members)
             for members, _ in naive_enumerate_ideals(g.r0_ring)]
    return {(i0, odd) for i0 in evens for odd, _ in naive_submodules(g)
            if naive_compatible(g, i0, odd)}


def naive_residual(g, odd):
    """(R' : R1) = {a in R0 : a*x in R' for every x in R1}, ambient codes."""
    mul = g.ring.mul
    return frozenset(a for a in g.r0 if all(mul[a][x] in odd for x in g.r1))


def naive_odd_part(g, i0_ambient):
    """I0*R1: the additive closure of all |I0|*|R1| products."""
    mul = g.ring.mul
    return naive_additive_closure(g.ring, {mul[a][x] for a in i0_ambient for x in g.r1})


def naive_is_graded_ideal(g, members):
    """An ideal's member set equals the set of all sums of its even and odd
    parts, formed over all pairs."""
    add = g.ring.add
    return {add[a][m] for a in members & g.r0 for m in members & g.r1} == members


def naive_maximal_sets(sets):
    """The sets not strictly inside another, by comparing every pair."""
    sets = list(sets)
    return {s for s in sets if not any(s < t for t in sets)}


def naive_maximal_ideals(ideals):
    """The proper ideals of the list that no other strictly contains, in the
    list's order: Max of a ring by definition, given all its ideals."""
    top = naive_maximal_sets(i.members for i in ideals if i.is_proper)
    return [i for i in ideals if i.members in top]


def naive_radical(ring, members):
    """{x : some power of x lies in the set}, walking x, x^2, ... for each
    element until a power repeats, anew for every set."""
    mul = ring.mul
    out = set()
    for x in range(ring.size):
        power = x
        seen = set()
        while power not in seen:
            if power in members:
                out.add(x)
                break
            seen.add(power)
            power = mul[power][x]
    return frozenset(out)


def naive_graded_radical(g, flat):
    """The sums a + b of an even a and an odd b that both lie in the flat
    radical of the graded ideal with member set ``flat``."""
    rad = naive_radical(g.ring, flat)
    add = g.ring.add
    return frozenset(add[a][b] for a in g.r0 & rad for b in g.r1 & rad)
