"""Graphviz rendering of the contraction between the graded spectrum and the
spectrum of the even part: two ranked clusters of points, and dashed pairing
edges between them.

Neither cluster holds an inclusion.  Every prime of a finite commutative
ring is maximal (``rings`` docstring, "Spectra"; checked by
``spectrum.methods-agree``), so Spec R0 is an antichain; the contraction
preserves inclusion and is a bijection onto Spec R0
(``homeo.contraction-roundtrip``), so the graded points are one too."""

from __future__ import annotations

from .grading import GradedRing
from .instances import InstanceSpec, build_instance, effective_bound
from .spectrum import graded_spec


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def render_dot(g: GradedRing, bound: int | None = None) -> str:
    """DOT text of the correspondence, its graded points pulled back from
    Spec R0, one pairing edge per point and no inclusion edges (module
    docstring).  No lattice is built: Spec R0 comes from the idempotents of
    R0, and the bound applies to |R0|, so it may be smaller than |R|."""
    report = graded_spec(g, "constructive", bound)
    graded = list(report.graded_points)
    base = list(report.base_points)
    base_index = {p.mask: k for k, p in enumerate(base)}

    lines = ["digraph spectrum_correspondence {", "  rankdir=LR;",
             "  node [shape=box];"]
    lines.append("  subgraph cluster_graded {")
    lines.append(f"    label={_quote('Z2Spec ' + g.provenance)};")
    for k, gp in enumerate(graded):
        lines.append(f"    g{k} [label={_quote(gp.label())}];")
    lines.append("  }")
    lines.append("  subgraph cluster_base {")
    lines.append(f"    label={_quote('Spec of the even part')};")
    for k, p in enumerate(base):
        lines.append(f"    b{k} [label={_quote(p.label())}];")
    lines.append("  }")
    for k, gp in enumerate(graded):
        lines.append(f"  g{k} -> b{base_index[gp.p.mask]} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_dot(spec: InstanceSpec, bound: int | None = None) -> str:
    """Build the instance and render its spectrum correspondence as DOT."""
    limit = effective_bound(spec, bound)
    return render_dot(build_instance(spec, limit), limit)
