#!/usr/bin/env python3
"""Regenerate perfbench/expected.json from the program in this checkout.

    python3 perfbench/pin.py

Runs every untraced command and every traced instance of the benchmark once
and pins what they print: exit code, status and ``counts`` for ``verify``,
the whole stdout for ``spec`` and ``export-dot``, and the lattice sizes.
Refuses to pin a failing command or a count that contradicts a closed form.
Only rerun it after a change that is meant to alter these outputs.
"""

import json
import sys
import time

import run


def main() -> int:
    env = run.child_env()
    problem = run.preflight(env)
    if problem:
        print(f"pin: {problem}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + 600
    expected = {"commands": {}, "lattice": {}}
    commands = {argv for w in run.PLANS for argv in run.cli_commands(w)}
    for argv in sorted(commands):
        code, stdout, stderr = run.spawn(["-m", "z2spec"] + list(argv), env,
                                         deadline)
        key = " ".join(argv)
        if code != 0:
            print(f"pin: {key} exited {code}: {stderr}", file=sys.stderr)
            return 1
        if argv[0] == "verify":
            report = json.loads(stdout)
            expected["commands"][key] = {"exit": code,
                                         "status": report["status"],
                                         "counts": report["counts"]}
        else:
            expected["commands"][key] = {"exit": code, "stdout": stdout}
    plans = {step for w in run.PLANS for step in run.trace_plan(w)}
    for source, mode, suites in sorted(plans):
        code, stdout, stderr = run.spawn(
            ["perfbench/traced.py", source, mode] + list(suites), env, deadline)
        if code != 0:
            print(f"pin: tracing {source} exited {code}: {stderr}",
                  file=sys.stderr)
            return 1
        expected["lattice"][source] = json.loads(stdout)["lattice"]
    for argv in commands:
        if argv[0] == "verify":
            counts = expected["commands"][" ".join(argv)]["counts"]
            problem = (run.check_counts(argv[1], counts,
                                        run.CLOSED_FORMS.get(argv[1], {}))
                       or run.check_counts(argv[1], expected["lattice"][argv[1]],
                                           counts))
            if problem:
                print(f"pin: {problem}", file=sys.stderr)
                return 1
    with open(run.BENCH / "expected.json", "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"pinned {len(expected['commands'])} commands and "
          f"{len(expected['lattice'])} lattices")
    return 0


if __name__ == "__main__":
    sys.exit(main())
