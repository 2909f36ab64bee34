"""Closed-form lattice counts of the trivial extensions Z/n (+) M, with
M = (+) Z/m_i and each m_i dividing n: an oracle independent of the walk.

Z/n acts on M through the integers, so the R0-submodules of R1 are the
subgroups of M, and as R1^2 = 0 the graded ideals are the pairs ((d), N)
with d | n and dM <= N <= M: there are sum over d | n of S(M/dM), with
M/dM = (+) Z/gcd(m_i, d).  S(A), the number of subgroups of a finite
abelian group A, is a product over the primes p.  For the p-part of type
lambda it is the sum over partitions mu <= lambda of the number of
subgroups of type mu, Birkhoff's formula

    prod_{i>=1} p^(mu'_{i+1} (lambda'_i - mu'_i))
                * [lambda'_i - mu'_{i+1} choose mu'_i - mu'_{i+1}]_p,

with lambda' and mu' the conjugate partitions and [.]_p the Gaussian
binomial (L. M. Butler, Subgroup Lattices and Symmetric Functions,
Mem. AMS 539, 1994, Lemma 1.4.1).
"""

import math


def gaussian_binomial(n: int, k: int, p: int) -> int:
    """[n choose k]_p: the number of k-dimensional subspaces of F_p^n."""
    if not 0 <= k <= n:
        return 0
    top = bottom = 1
    for i in range(k):
        top *= p ** (n - i) - 1
        bottom *= p ** (i + 1) - 1
    return top // bottom


def _conjugate(parts: list) -> list:
    return [sum(1 for part in parts if part > i) for i in range(max(parts, default=0))]


def _p_subgroup_count(exponents: list, p: int) -> int:
    """Subgroups of (+) Z/p^e over ``exponents``: Birkhoff's sum over the
    conjugates mu' <= lambda', built column by column."""
    lam = _conjugate(exponents)

    def count(mu):
        mu = mu + [0]
        return math.prod(
            p ** (mu[i + 1] * (lam[i] - mu[i]))
            * gaussian_binomial(lam[i] - mu[i + 1], mu[i] - mu[i + 1], p)
            for i in range(len(lam)))

    def columns(mu):
        if len(mu) == len(lam):
            yield mu
            return
        top = min(lam[len(mu)], mu[-1]) if mu else lam[0]
        for part in range(top + 1):
            yield from columns(mu + [part])
    return sum(map(count, columns([])))


def _prime_exponents(m: int) -> dict:
    exponents, p = {}, 2
    while m > 1:
        while m % p == 0:
            exponents[p] = exponents.get(p, 0) + 1
            m //= p
        p += 1
    return exponents


def subgroup_count(orders) -> int:
    """The number of subgroups of (+) Z/m over ``orders``."""
    parts = {}
    for m in orders:
        for p, e in _prime_exponents(m).items():
            parts.setdefault(p, []).append(e)
    return math.prod(_p_subgroup_count(sorted(e, reverse=True), p) for p, e in parts.items())


def graded_ideal_count(n: int, orders) -> int:
    """The number of graded ideals of Z/n (+) (+) Z/m over ``orders``."""
    return sum(subgroup_count([math.gcd(m, d) for m in orders])
               for d in range(1, n + 1) if n % d == 0)


def trivial_extension_recipes(max_n: int, max_size: int) -> list:
    """Every (n, orders) with 2 <= n <= max_n, orders a non-empty
    non-increasing tuple of divisors m > 1 of n, and n * prod(orders) at
    most ``max_size``."""
    recipes = []

    def extend(n, orders, size):
        if orders:
            recipes.append((n, tuple(orders)))
        for m in range(orders[-1] if orders else n, 1, -1):
            if n % m == 0 and size * m <= max_size:
                extend(n, orders + [m], size * m)
    for n in range(2, max_n + 1):
        extend(n, [], n)
    return recipes
