"""Graphviz rendering of the contraction between the graded spectrum and the
spectrum of the even part: two ranked clusters, inclusion edges inside each
(covering relations only), dashed pairing edges between them."""

from __future__ import annotations

from .grading import GradedRing
from .instances import InstanceSpec, build_instance, effective_bound
from .spectrum import graded_spec


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _cover_edges(member_sets) -> list[tuple[int, int]]:
    edges = []
    for i, small in enumerate(member_sets):
        for j, big in enumerate(member_sets):
            if not small < big:
                continue
            if any(small < mid < big for mid in member_sets):
                continue
            edges.append((i, j))
    return edges


def render_dot(g: GradedRing, bound: int | None = None) -> str:
    """DOT text of the correspondence, its graded points pulled back from
    Spec R0.  Only the ideals of R0 are enumerated, so the bound applies to
    |R0|: it may be smaller than |R|."""
    report = graded_spec(g, "constructive", bound)
    graded = list(report.graded_points)
    base = list(report.base_points)
    base_index = {p.members: k for k, p in enumerate(base)}

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
    for i, j in _cover_edges([gp.flat_members for gp in graded]):
        lines.append(f"  g{i} -> g{j};")
    for i, j in _cover_edges([p.members for p in base]):
        lines.append(f"  b{i} -> b{j};")
    for k, gp in enumerate(graded):
        lines.append(f"  g{k} -> b{base_index[gp.p.members]} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_dot(spec: InstanceSpec, bound: int | None = None) -> str:
    """Build the instance and render its spectrum correspondence as DOT."""
    limit = effective_bound(spec, bound)
    return render_dot(build_instance(spec, limit), limit)
