#!/usr/bin/env python3
"""Run one ``z2spec verify`` in this process and check what it reports.

Run from the repository root, in a fresh interpreter (rings are interned,
so a second run in one process would find its caches warm):

    python scripts/cold_verify.py RECIPE [--bound N] [--suite NAME ...]
        [--expect NAME=VALUE ...] [--max-rss-mib MIB]

RECIPE is a ring recipe as JSON, such as
'{"kind": "trivial_extension", "n": 2, "orders": [2, 2, 2]}'.  The script
runs ``verify --format json --timings`` on it through ``z2spec.cli.main``
and prints the status, the lattice counts, ``lattice_elapsed``, the peak
resident set size (VmHWM, read from /proc/self/status) and the five
slowest records.  It exits 1 when the status is not ``pass``, when an
``--expect`` does not hold, or when VmHWM reaches ``--max-rss-mib``.  The
NAME of an ``--expect`` is a count of the report (``ideals``,
``graded_ideals``, ...) or a record status (``pass``, ``not-applicable``,
...), which counts the records that have it.
"""

import argparse
import collections
import contextlib
import io
import json
import pathlib
import re
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from z2spec import cli
from z2spec.verify import COUNT_NAMES, FAIL, NOT_APPLICABLE, PASS, RESOURCE_LIMIT

STATUSES = (PASS, FAIL, NOT_APPLICABLE, RESOURCE_LIMIT)


def peak_rss_kib() -> int | None:
    """VmHWM of this process in KiB, or None where /proc is not there."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            return int(re.search(r"VmHWM:\s+(\d+) kB", status.read()).group(1))
    except OSError:
        return None


def cold_verify(recipe: dict, bound: int | None = None, suites=()) -> dict:
    """The JSON report of ``z2spec verify --format json --timings`` on
    ``recipe``, with the VmHWM after it as ``vmhwm_kib``."""
    argv = ["--format", "json", "--timings"]
    if bound is not None:
        argv += ["--bound", str(bound)]
    for suite in suites:
        argv += ["--suite", suite]
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "instance.json"
        path.write_text(json.dumps({"ring": recipe}), encoding="utf-8")
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", str(path), *argv])
    if not out.getvalue():
        raise SystemExit(f"verify printed no report (exit code {code})")
    report = json.loads(out.getvalue())
    report["vmhwm_kib"] = peak_rss_kib()
    return report


def _expectation(text: str) -> tuple:
    name, sep, value = text.partition("=")
    if not sep or name not in COUNT_NAMES + STATUSES:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not NAME=VALUE with NAME one of {', '.join(COUNT_NAMES + STATUSES)}")
    return name, value


def _seconds(value) -> str:
    return "n/a" if value is None else f"{value:.3f} s"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("recipe", type=json.loads, help="ring recipe as JSON")
    parser.add_argument("--bound", type=int, help="enumeration bound for verify")
    parser.add_argument("--suite", action="append", default=[], help="suite to run (repeatable)")
    parser.add_argument("--expect", type=_expectation, action="append", default=[],
                        metavar="NAME=VALUE", help="a count or a status tally (repeatable)")
    parser.add_argument("--max-rss-mib", type=float, help="fail at this VmHWM or above")
    args = parser.parse_args(argv)

    report = cold_verify(args.recipe, args.bound, args.suite)
    peak = report["vmhwm_kib"]
    print(f"{report['status']}, lattice_elapsed {_seconds(report['lattice_elapsed'])},"
          f" VmHWM {'n/a' if peak is None else f'{peak / 1024:.1f} MiB'}")
    print("counts: " + ", ".join(f"{k}={v}" for k, v in sorted(report["counts"].items())))
    for check in sorted(report["checks"], key=lambda check: -check["elapsed"])[:5]:
        print(f"  {_seconds(check['elapsed'])}  {check['name']}")

    problems = [] if report["status"] == PASS else [f"status is {report['status']}"]
    tally = collections.Counter(check["status"] for check in report["checks"])
    for name, value in args.expect:
        got = report["counts"][name] if name in COUNT_NAMES else tally[name]
        if str(got) != value:
            problems.append(f"{name} is {got}, expected {value}")
    if args.max_rss_mib is not None and (peak is None or peak >= args.max_rss_mib * 1024):
        problems.append(f"VmHWM is not under {args.max_rss_mib:g} MiB")
    for problem in problems:
        print(f"FAIL: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
