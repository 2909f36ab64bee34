"""Instance files: a JSON recipe tree that builds one graded ring.

The top level is ``{"ring": <recipe>, "limits": {"bound": N}?}``.  Recipe
kinds ``zmod``, ``product`` and ``poly_quotient`` build plain rings (graded
trivially when they appear at top level); ``quadratic``, ``gaussian``,
``trivial_extension``, ``truncated_poly`` and ``graded_manual`` build graded
rings.  ``gaussian`` is sugar for a quadratic extension with alpha = -1 and
symbol i.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

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
    poly_quotient,
    product_ring,
    zmod,
)

# each recipe kind: (builds a graded ring, required keys, optional keys)
_KINDS = {
    "zmod": (False, ("n",), ()),
    "product": (False, ("a", "b"), ()),
    "poly_quotient": (False, ("base", "modulus"), ("symbol",)),
    "quadratic": (True, ("base", "alpha"), ("symbol",)),
    "gaussian": (True, ("n",), ()),
    "trivial_extension": (True, ("n", "orders"), ()),
    "truncated_poly": (True, ("base", "k"), ()),
    "graded_manual": (True, ("base", "r0", "r1"), ()),
}


@dataclass
class InstanceSpec:
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


def _validate_recipe(recipe, path: str, graded_ok: bool) -> None:
    if not isinstance(recipe, dict):
        _fail(path, f"expected an object, got {recipe!r}")
    kind = recipe.get("kind")
    if kind is None:
        _fail(path, 'missing "kind"')
    if not isinstance(kind, str) or kind not in _KINDS:  # a list is unhashable
        _fail(f"{path}.kind", f"unknown kind {kind!r}")
    graded, required, optional = _KINDS[kind]
    if graded and not graded_ok:
        _fail(path, f"{kind} builds a graded ring and cannot be a base")
    extra = set(recipe) - set(required) - set(optional) - {"kind"}
    if extra:
        _fail(path, f"unknown keys for {kind}: {sorted(extra)}")
    for key in required:
        if key not in recipe:
            _fail(path, f'missing "{key}"')
    if kind in ("zmod", "gaussian"):
        _expect_int(recipe["n"], f"{path}.n", minimum=2)
    elif kind == "product":
        _validate_recipe(recipe["a"], f"{path}.a", graded_ok=False)
        _validate_recipe(recipe["b"], f"{path}.b", graded_ok=False)
    elif kind == "poly_quotient":
        _validate_recipe(recipe["base"], f"{path}.base", graded_ok=False)
        coeffs = _expect_int_list(recipe["modulus"], f"{path}.modulus")
        if len(coeffs) < 2:
            _fail(f"{path}.modulus", "modulus must have degree >= 1")
        if "symbol" in recipe and not isinstance(recipe["symbol"], str):
            _fail(f"{path}.symbol", "expected a string")
    elif kind == "quadratic":
        _validate_recipe(recipe["base"], f"{path}.base", graded_ok=False)
        _expect_int(recipe["alpha"], f"{path}.alpha")
        if "symbol" in recipe and not isinstance(recipe["symbol"], str):
            _fail(f"{path}.symbol", "expected a string")
    elif kind == "trivial_extension":
        n = _expect_int(recipe["n"], f"{path}.n", minimum=2)
        orders = _expect_int_list(recipe["orders"], f"{path}.orders")
        for i, m in enumerate(orders):
            if m < 1:
                _fail(f"{path}.orders[{i}]", f"must be >= 1, got {m}")
            if n % m != 0:
                _fail(f"{path}.orders[{i}]", f"{m} does not divide {n}")
    elif kind == "truncated_poly":
        _validate_recipe(recipe["base"], f"{path}.base", graded_ok=False)
        _expect_int(recipe["k"], f"{path}.k", minimum=1)
    elif kind == "graded_manual":
        _validate_recipe(recipe["base"], f"{path}.base", graded_ok=False)
        _expect_int_list(recipe["r0"], f"{path}.r0")
        _expect_int_list(recipe["r1"], f"{path}.r1")


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
    _validate_recipe(payload["ring"], "ring", graded_ok=True)
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
    def capped(size):
        return None if size is None or size > cap else size

    def times(*factors):
        size = 1
        for factor in factors:
            size = capped(None if factor is None else size * factor)
            if size is None:
                return None
        return size

    def power(base, k):
        # every ring has >= 2 elements, and 2 ** (cap.bit_length() + 1) > cap
        return times(*[base] * min(k, cap.bit_length() + 1))

    kind = recipe["kind"]
    if kind == "zmod":
        return capped(recipe["n"])
    if kind == "product":
        return times(recipe_size(recipe["a"], cap), recipe_size(recipe["b"], cap))
    if kind == "poly_quotient":
        return power(recipe_size(recipe["base"], cap), len(recipe["modulus"]) - 1)
    if kind in ("quadratic", "gaussian"):
        base = capped(recipe["n"]) if kind == "gaussian" else recipe_size(recipe["base"], cap)
        return power(base, 2)
    if kind == "trivial_extension":
        return times(recipe["n"], *recipe["orders"])
    if kind == "truncated_poly":
        return power(recipe_size(recipe["base"], cap), recipe["k"])
    if kind == "graded_manual":
        return recipe_size(recipe["base"], cap)
    raise InstanceParseError("ring.kind", f"unknown kind {kind!r}")


def effective_bound(spec: InstanceSpec, override: int | None = None) -> int:
    if override is not None:
        return override
    if spec.bound is not None:
        return spec.bound
    return DEFAULT_ENUMERATION_BOUND


def _build_ring(recipe: dict) -> FiniteRing:
    kind = recipe["kind"]
    if kind == "zmod":
        return zmod(recipe["n"])
    if kind == "product":
        return product_ring(_build_ring(recipe["a"]), _build_ring(recipe["b"]))
    if kind == "poly_quotient":
        return poly_quotient(_build_ring(recipe["base"]),
                             tuple(recipe["modulus"]),
                             recipe.get("symbol"))
    raise InstanceParseError("ring.kind", f"{kind} is not a plain ring kind")


def build_instance(spec: InstanceSpec, bound: int | None = None) -> GradedRing:
    """Construct the graded ring, gated by the effective enumeration bound."""
    limit = effective_bound(spec, bound)
    if recipe_size(spec.recipe, limit) is None:
        # the exact size is shown unless it has more than 100 digits
        raise EnumerationLimitError("instance construction",
                                    recipe_size(spec.recipe, 10 ** 100), limit)
    kind = spec.recipe["kind"]
    if not _KINDS[kind][0]:
        return trivially_graded(_build_ring(spec.recipe))
    if kind == "quadratic":
        return quadratic_extension(_build_ring(spec.recipe["base"]),
                                   spec.recipe["alpha"],
                                   spec.recipe.get("symbol"))
    if kind == "gaussian":
        return gaussian_integers(spec.recipe["n"])
    if kind == "trivial_extension":
        return trivial_extension(zmod(spec.recipe["n"]),
                                 tuple(spec.recipe["orders"]))
    if kind == "truncated_poly":
        return truncated_poly(_build_ring(spec.recipe["base"]), spec.recipe["k"])
    if kind == "graded_manual":
        return grade_manual(_build_ring(spec.recipe["base"]),
                            spec.recipe["r0"], spec.recipe["r1"])
    raise InstanceParseError("ring.kind", f"unknown kind {kind!r}")
