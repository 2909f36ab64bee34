"""The shipped instance catalog: one entry per graded ring exercised by the
verification suites and the golden reports.

Families: Z/n[i] for n in {2,3,4,5,9,10,12}; quadratic extensions of Z/2..Z/5
with every alpha; square-zero extensions of Z/2, Z/3, Z/4 by each nontrivial
cyclic module, of Z/4 by Z/2 (+) Z/4, and of Z/2 by F2^k for k in {3,4,5};
truncated polynomial rings over Z/2 and Z/4 with k in {1,2,3}; Z/4, Z/6,
Z/12 and the product Z/4 x F4 with the trivial grading; F4[i] over
F4 = Z/2[x]/(x^2+x+1); (Z/2 x Z/3)[i], a quadratic extension of a product
whose unit is not code 1; and Z/2[x]/(x^2+1) with the manual grading
R1 = {0, 1+x}.  42 instances in all.
"""

from __future__ import annotations

import copy

from .grading import GradedRing
from .instances import InstanceSpec, build_instance
from .rings import _Record


class CatalogEntry(_Record):
    instance_id: str
    recipe: dict

    def spec(self) -> InstanceSpec:
        """A spec with its own copy of the recipe: entries share sub-recipes
        (the F4 base), so a caller's edit must not reach the catalog."""
        return InstanceSpec(copy.deepcopy(self.recipe))

    def build(self) -> GradedRing:
        return build_instance(self.spec())


def _entries() -> list[CatalogEntry]:
    out = []
    for n in (2, 3, 4, 5, 9, 10, 12):
        out.append(CatalogEntry(f"gaussian-{n}", {"kind": "gaussian", "n": n}))
    for n in (2, 3, 4, 5):
        for alpha in range(n):
            out.append(CatalogEntry(
                f"quadratic-{n}-a{alpha}",
                {"kind": "quadratic", "base": {"kind": "zmod", "n": n},
                 "alpha": alpha}))
    for n in (2, 3, 4):
        for m in range(2, n + 1):
            if n % m == 0:
                out.append(CatalogEntry(
                    f"trivext-{n}-m{m}",
                    {"kind": "trivial_extension", "n": n, "orders": [m]}))
    out.append(CatalogEntry(  # a mixed-order odd part
        "trivext-4-m2m4", {"kind": "trivial_extension", "n": 4, "orders": [2, 4]}))
    for k in (3, 4, 5):  # deep lattices: G_2(k) + 1 ideals
        out.append(CatalogEntry(
            f"trivext-2-f2x{k}",
            {"kind": "trivial_extension", "n": 2, "orders": [2] * k}))
    for n in (2, 4):
        for k in (1, 2, 3):
            out.append(CatalogEntry(
                f"truncpoly-{n}-k{k}",
                {"kind": "truncated_poly", "base": {"kind": "zmod", "n": n},
                 "k": k}))
    for n in (4, 6, 12):
        out.append(CatalogEntry(f"zmod-{n}", {"kind": "zmod", "n": n}))
    f4 = {"kind": "poly_quotient", "base": {"kind": "zmod", "n": 2},
          "modulus": [1, 1, 1]}
    out.append(CatalogEntry(
        "product-4-f4", {"kind": "product", "a": {"kind": "zmod", "n": 4}, "b": f4}))
    out.append(CatalogEntry(
        "quadratic-f4-i", {"kind": "quadratic", "base": f4, "alpha": 1, "symbol": "i"}))
    z2_x_z3 = {"kind": "product", "a": {"kind": "zmod", "n": 2}, "b": {"kind": "zmod", "n": 3}}
    out.append(CatalogEntry(  # alpha = (1,2) = -1: the CRT twin of Z/6[i]
        "quadratic-2x3-i", {"kind": "quadratic", "base": z2_x_z3, "alpha": 5, "symbol": "i"}))
    z2_x = {"kind": "poly_quotient", "base": {"kind": "zmod", "n": 2},
            "modulus": [1, 0, 1]}
    out.append(CatalogEntry(  # odd part {0, 1+x} (code 3), not the root x
        "manual-2-x2p1", {"kind": "graded_manual", "base": z2_x,
                          "r0": [0, 1], "r1": [0, 3]}))
    return out


CATALOG: tuple[CatalogEntry, ...] = tuple(_entries())


def catalog_ids() -> list[str]:
    return [e.instance_id for e in CATALOG]


def catalog_entry(instance_id: str) -> CatalogEntry:
    for entry in CATALOG:
        if entry.instance_id == instance_id:
            return entry
    raise KeyError(instance_id)
