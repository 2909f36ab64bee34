"""Command line entry point.

Subcommands: ``build`` (parse and summarize an instance), ``verify`` (run
theorem suites), ``spec`` (list the classical or graded spectrum), and
``export-dot`` (Graphviz rendering of the spectrum correspondence).  Only
``verify`` builds lattices.  ``spec`` finds Spec R from the primitive
idempotents of R, and the graded spectrum is printed through the
contraction: ``phi_inverse`` applied to Spec R0.  The record
``spectrum.methods-agree`` ties both to the definitions.

argv is read from the ``_COMMANDS`` table: ``_read_argv`` takes a plainly
written command; help, usage errors and other spellings (``--flag=value``,
option prefixes) go to the argparse parser built from the same table.

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


# Each subcommand's help, handler and options after the ``file`` positional.  An
# option is (flag, kind, choices, default, help); its kind is "int", "choice",
# "append" (a repeatable choice) or "flag" (no value).
_BOUND = ("--bound", "int", None, None, "enumeration bound override (default 256)")
_FORMAT = ("--format", "choice", ("json", "text"), "text", None)
_COMMANDS = {
    "build": ("parse and summarize an instance", _cmd_build, (_BOUND, _FORMAT)),
    "verify": ("run verification suites", _cmd_verify, (
        _BOUND,
        ("--suite", "append", SUITE_NAMES + ("all",), None,
         "suite to run (repeatable; default all)"),
        _FORMAT,
        ("--timings", "flag", None, False, "include per-check timings in JSON output"))),
    "spec": ("list the spectrum", _cmd_spec, (
        _BOUND,
        ("--graded", "flag", None, False, "graded spectrum instead of the classical one"),
        _FORMAT)),
    "export-dot": ("Graphviz view of the spectrum correspondence", _cmd_export_dot,
                   (_BOUND,)),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="z2spec",
        description="Finite parity-graded commutative rings: build instances, "
                    "verify the structure theorems, and export spectra.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, _, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("file", help="instance file (JSON)")
        for flag, kind, choices, default, help_ in options:
            if kind == "flag":
                p.add_argument(flag, action="store_true", help=help_)
            else:
                p.add_argument(flag, action="append" if kind == "append" else "store",
                               type=int if kind == "int" else None, choices=choices,
                               default=default, help=help_)
    return parser


def _read_argv(argv: list) -> argparse.Namespace | None:
    """argparse's Namespace for a plainly written command: one ``file`` not
    starting with "-", each option as ``--flag value`` or a bare flag, valid
    values, no option twice unless repeatable.  None for anything else."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    options = {opt[0]: opt for opt in _COMMANDS[argv[0]][2]}
    files, values = [], {}
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            files.append(token)
            continue
        if token not in options:
            return None
        _, kind, choices, _, _ = options[token]
        value = True if kind == "flag" else next(tokens, "")
        if kind == "int" and value.isascii() and value.isdigit():
            try:
                value = int(value)
            except ValueError:  # more digits than sys.get_int_max_str_digits()
                return None
        elif kind != "flag" and value not in (choices or ()):  # "int" has no choices
            return None
        if kind == "append":
            values.setdefault(token, []).append(value)
        elif token in values:
            return None
        else:
            values[token] = value
    if len(files) != 1:
        return None
    args = argparse.Namespace(command=argv[0], file=files[0])
    for flag, _, _, default, _ in options.values():
        setattr(args, flag[2:], values.get(flag, default))
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_argv(argv) or _build_parser().parse_args(argv)
    if args.bound is not None and args.bound < 1:  # as limits.bound requires
        _build_parser().error(f"argument --bound: must be >= 1, got {args.bound}")
    try:
        return _COMMANDS[args.command][1](args)
    except EnumerationLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except (AlgebraError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
