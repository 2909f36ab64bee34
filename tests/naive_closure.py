"""All-pairs reference closure tests, straight off the operation tables.

They share no code with the library's subgroup-growth kernel, so the tests
can compare the two.
"""


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
