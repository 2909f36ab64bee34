"""Instance files: a JSON recipe tree that builds one graded ring.

The top level is ``{"ring": <recipe>, "limits": {"bound": N}?}``.  Each
recipe kind is one row of ``_KINDS``; ``_validate_recipe`` (with ``_CHECKS``
per key), ``recipe_size`` and ``_build_ring`` read the rows and never name a
kind.  Only the top recipe may build a graded ring; a plain one there is
graded trivially, and the recipes under ``a``, ``b`` and ``base`` are plain.
"""

from __future__ import annotations

import json
import sys

from .errors import EnumerationLimitError, InstanceParseError
from .grading import (
    GradedRing,
    grade_manual,
    gaussian_integers,
    quadratic_extension,
    trivial_extension,
    trivially_graded,
    truncated_poly,
)
from .rings import (
    DEFAULT_ENUMERATION_BOUND,
    FiniteRing,
    _Record,
    poly_quotient,
    product_ring,
    zmod,
)


# each recipe kind: (builds a graded ring, required keys, optional keys,
# size rule: recipe -> (factor, exponent) pairs, where a factor is an int or
# a ring recipe, constructor: (recipe, *the rings of its ring keys) -> ring)
_KINDS = {
    "zmod": (False, ("n",), (), lambda r: [(r["n"], 1)],
             lambda r: zmod(r["n"])),
    "product": (False, ("a", "b"), (), lambda r: [(r["a"], 1), (r["b"], 1)],
                lambda r, a, b: product_ring(a, b)),
    "poly_quotient": (
        False, ("base", "modulus"), ("symbol",),
        lambda r: [(r["base"], len(r["modulus"]) - 1)],
        lambda r, base: poly_quotient(base, tuple(r["modulus"]), r.get("symbol"))),
    "quadratic": (True, ("base", "alpha"), ("symbol",), lambda r: [(r["base"], 2)],
                  lambda r, base: quadratic_extension(base, r["alpha"], r.get("symbol"))),
    "gaussian": (True, ("n",), (), lambda r: [(r["n"], 2)],  # Z/n[X]/(X^2 + 1), X named i
                 lambda r: gaussian_integers(r["n"])),
    "trivial_extension": (True, ("n", "orders"), (),
                          lambda r: ((m, 1) for m in (r["n"], *r["orders"])),
                          lambda r: trivial_extension(zmod(r["n"]), tuple(r["orders"]))),
    "truncated_poly": (True, ("base", "k"), (), lambda r: [(r["base"], r["k"])],
                       lambda r, base: truncated_poly(base, r["k"])),
    "graded_manual": (True, ("base", "r0", "r1"), (), lambda r: [(r["base"], 1)],
                      lambda r, base: grade_manual(base, r["r0"], r["r1"])),
}
_RING_KEYS = ("a", "b", "base")  # each holds a plain-ring recipe


class InstanceSpec(_Record):
    recipe: dict
    bound: int | None = None


def _fail(path: str, message: str):
    raise InstanceParseError(path, message)


def _expect_int(value, path: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        _fail(path, f"must be >= {minimum}, got {value}")
    return value


def _expect_int_list(value, path: str) -> list:
    if not isinstance(value, list):
        _fail(path, f"expected a list of integers, got {value!r}")
    return [_expect_int(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _kind(recipe, path: str = "ring") -> tuple:
    """The recipe's row of ``_KINDS``: the one lookup, so an unvalidated
    recipe, such as a hand-built ``InstanceSpec``, fails as an input error."""
    if not isinstance(recipe, dict):
        _fail(path, f"expected an object, got {recipe!r}")
    kind = recipe.get("kind")
    if kind is None:
        _fail(path, 'missing "kind"')
    if not isinstance(kind, str) or kind not in _KINDS:  # a list is unhashable
        _fail(f"{path}.kind", f"unknown kind {kind!r}")
    return _KINDS[kind]


def _validate_recipe(recipe, path: str, parent: dict | None = None) -> None:
    """Check a recipe and, by ``_CHECKS``, its children; a child (``parent`` set) is plain."""
    graded, required, optional, _, _ = _kind(recipe, path)
    if graded and parent is not None:
        _fail(path, f"{recipe['kind']} builds a graded ring and cannot be a base")
    extra = set(recipe) - set(required) - set(optional) - {"kind"}
    if extra:
        _fail(path, f"unknown keys for {recipe['kind']}: {sorted(extra)}")
    for key in required:
        if key not in recipe:
            _fail(path, f'missing "{key}"')
    for key in required + optional:
        if key in recipe:
            _CHECKS[key](recipe[key], f"{path}.{key}", recipe)


def _check_modulus(value, path: str, recipe: dict) -> None:
    if len(_expect_int_list(value, path)) < 2:
        _fail(path, "modulus must have degree >= 1")


def _check_orders(value, path: str, recipe: dict) -> None:
    n = recipe["n"]  # checked first: it precedes orders in the row
    for i, m in enumerate(_expect_int_list(value, path)):
        if m < 1:
            _fail(f"{path}[{i}]", f"must be >= 1, got {m}")
        if n % m != 0:
            _fail(f"{path}[{i}]", f"{m} does not divide {n}")


def _check_symbol(value, path: str, recipe: dict) -> None:
    if not isinstance(value, str):
        _fail(path, "expected a string")


# each key's check: (value, path, the recipe that holds it) -> None
_CHECKS = {
    **dict.fromkeys(_RING_KEYS, _validate_recipe),
    "n": lambda value, path, recipe: _expect_int(value, path, minimum=2),
    "k": lambda value, path, recipe: _expect_int(value, path, minimum=1),
    "alpha": lambda value, path, recipe: _expect_int(value, path),
    **dict.fromkeys(("r0", "r1"), lambda value, path, recipe: _expect_int_list(value, path)),
    "modulus": _check_modulus,
    "orders": _check_orders,
    "symbol": _check_symbol,
}


def parse_instance(text: str) -> InstanceSpec:
    """Parse and validate instance-file content."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceParseError("", f"invalid JSON: {exc}") from exc
    except ValueError as exc:  # an integer literal past int's digit limit
        raise InstanceParseError("", "an integer literal has more than "
                                 f"{sys.get_int_max_str_digits()} digits") from exc
    except RecursionError as exc:  # the decoder recurses once per [ or {
        raise InstanceParseError("", "invalid JSON: nested too deeply") from exc
    if not isinstance(payload, dict):
        _fail("", "top level must be an object")
    extra = set(payload) - {"ring", "limits"}
    if extra:
        _fail("", f"unknown top-level keys: {sorted(extra)}")
    if "ring" not in payload:
        _fail("", 'missing "ring"')
    _validate_recipe(payload["ring"], "ring")
    bound = None
    if "limits" in payload:
        limits = payload["limits"]
        if not isinstance(limits, dict):
            _fail("limits", "expected an object")
        extra = set(limits) - {"bound"}
        if extra:
            _fail("limits", f"unknown keys: {sorted(extra)}")
        if "bound" in limits:
            bound = _expect_int(limits["bound"], "limits.bound", minimum=1)
    return InstanceSpec(payload["ring"], bound)


def serialize_instance(spec: InstanceSpec) -> str:
    payload: dict = {"ring": spec.recipe}
    if spec.bound is not None:
        payload["limits"] = {"bound": spec.bound}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def recipe_size(recipe: dict, cap: int) -> int | None:
    """Number of elements the recipe will construct (computed statically),
    or None as soon as it is known to pass ``cap``.

    Every size is a product of integers >= 1, so a partial product past the
    cap stays past it, and a recipe such as (Z/3)[x]/(x^10000) is never
    multiplied out."""
    _, _, _, rule, _ = _kind(recipe)
    size = 1
    for factor, exponent in rule(recipe):
        if isinstance(factor, dict):  # a ring recipe
            factor = recipe_size(factor, cap)
            if factor is None:
                return None
        # every ring has >= 2 elements, and 2 ** (cap.bit_length() + 1) > cap
        for _ in range(min(exponent, cap.bit_length() + 1)):
            size *= factor
            if size > cap:
                return None
    return size


def effective_bound(spec: InstanceSpec, override: int | None = None) -> int:
    if override is not None:
        return override
    if spec.bound is not None:
        return spec.bound
    return DEFAULT_ENUMERATION_BOUND


def _build_ring(recipe: dict, top: bool = False) -> FiniteRing | GradedRing:
    """The recipe's ring, built after its ring keys' rings; only the top one may be graded."""
    graded, required, _, _, build = _kind(recipe)
    if graded and not top:
        _fail("ring.kind", f"{recipe['kind']} is not a plain ring kind")
    rings = []
    for key in required:  # a loop, not a comprehension: one frame per level
        if key in _RING_KEYS:
            rings.append(_build_ring(recipe[key]))
    return build(recipe, *rings)


def build_instance(spec: InstanceSpec, bound: int | None = None) -> GradedRing:
    """Construct the graded ring, gated by the effective enumeration bound."""
    limit = effective_bound(spec, bound)
    if recipe_size(spec.recipe, limit) is None:
        # the exact size is shown unless it has more than 100 digits
        raise EnumerationLimitError("instance construction",
                                    recipe_size(spec.recipe, 10 ** 100), limit)
    ring = _build_ring(spec.recipe, top=True)
    return ring if isinstance(ring, GradedRing) else trivially_graded(ring)
