"""Command line entry point.

Subcommands: ``build`` (parse and summarize an instance), ``verify`` (run
theorem suites), ``spec`` (list the classical or graded spectrum), and
``export-dot`` (Graphviz rendering of the spectrum correspondence).  Only
``verify`` builds lattices.  ``spec`` finds Spec R from the primitive
idempotents of R, and the graded spectrum is printed through the
contraction: ``phi_inverse`` applied to Spec R0.  The record
``spectrum.methods-agree`` ties both to the definitions.

Exit codes: 0 all checks pass, 1 some check failed, 2 input error,
3 enumeration bound exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import AlgebraError, EnumerationLimitError, InstanceParseError
from .instances import build_instance, effective_bound, parse_instance
from .dot import export_dot
from .rings import spec as ring_spec
from .spectrum import graded_spec
from .verify import (
    FAIL,
    RESOURCE_LIMIT,
    SUITE_NAMES,
    _instance_summary,
    report_to_json,
    report_to_text,
    run_verify,
)


def _read_instance(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise InstanceParseError(
                "", f"not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    return parse_instance(text)


def _emit_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _cmd_build(args) -> int:
    instance = _read_instance(args.file)
    summary = _instance_summary(instance, build_instance(instance, args.bound))
    if args.format == "json":
        _emit_json(summary)
    else:
        print(f"{summary['provenance']}: |R|={summary['size']} |R0|={summary['r0_size']}"
              f" |R1|={summary['r1_size']} strongly_graded={summary['strongly_graded']}")
    return 0


def _cmd_verify(args) -> int:
    instance = _read_instance(args.file)
    report = run_verify(instance, args.suite or ["all"], args.bound)
    if args.format == "json":
        sys.stdout.write(report_to_json(report, include_timings=args.timings))
    else:
        sys.stdout.write(report_to_text(report))
    if report.status == FAIL:
        return 1
    if report.status == RESOURCE_LIMIT:
        return 3
    return 0


def _cmd_spec(args) -> int:
    instance = _read_instance(args.file)
    bound = effective_bound(instance, args.bound)
    g = build_instance(instance, bound)
    if args.graded:
        report = graded_spec(g, "constructive", bound)
        points = [
            {"label": gp.label(), "kind": gp.kind.value,
             "members": [g.ring.names[c] for c in sorted(gp.flat_members)]}
            for gp in report.graded_points
        ]
        payload = {"graded": True, "points": points}
    else:
        points = [
            {"label": p.label(),
             "members": [g.ring.names[c] for c in sorted(p.members)]}
            for p in ring_spec(g.ring, bound)
        ]
        payload = {"graded": False, "points": points}
    if args.format == "json":
        _emit_json(payload)
    else:
        kind = "graded spectrum" if args.graded else "spectrum"
        print(f"{kind} of {g.provenance}: {len(points)} point(s)")
        for point in points:
            print(f"  {point['label']}")
    return 0


def _cmd_export_dot(args) -> int:
    sys.stdout.write(export_dot(_read_instance(args.file), args.bound))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="z2spec",
        description="Finite parity-graded commutative rings: build instances, "
                    "verify the structure theorems, and export spectra.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="instance file (JSON)")
        p.add_argument("--bound", type=int, default=None,
                       help="enumeration bound override (default 256)")

    p_build = sub.add_parser("build", help="parse and summarize an instance")
    common(p_build)
    p_build.add_argument("--format", choices=("json", "text"), default="text")

    p_verify = sub.add_parser("verify", help="run verification suites")
    common(p_verify)
    p_verify.add_argument("--suite", action="append",
                          choices=SUITE_NAMES + ("all",),
                          help="suite to run (repeatable; default all)")
    p_verify.add_argument("--format", choices=("json", "text"), default="text")
    p_verify.add_argument("--timings", action="store_true",
                          help="include per-check timings in JSON output")

    p_spec = sub.add_parser("spec", help="list the spectrum")
    common(p_spec)
    p_spec.add_argument("--graded", action="store_true",
                        help="graded spectrum instead of the classical one")
    p_spec.add_argument("--format", choices=("json", "text"), default="text")

    p_dot = sub.add_parser("export-dot",
                           help="Graphviz view of the spectrum correspondence")
    common(p_dot)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.bound is not None and args.bound < 1:  # as limits.bound requires
        parser.error(f"argument --bound: must be >= 1, got {args.bound}")
    handlers = {
        "build": _cmd_build,
        "verify": _cmd_verify,
        "spec": _cmd_spec,
        "export-dot": _cmd_export_dot,
    }
    try:
        return handlers[args.command](args)
    except EnumerationLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except (AlgebraError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
