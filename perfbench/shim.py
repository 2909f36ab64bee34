"""Child process of an untraced benchmark pass.

    python3 perfbench/shim.py <z2spec CLI arguments...>

Times ``import z2spec`` + ``parse_instance`` + ``build_instance`` for the
instance file named in the arguments (set-up), then hands over to
``z2spec.cli.main``, whose own build hits the intern caches, and times it until
the output is written (work).

The last line on stderr is ``PERFBENCH {"setup_s", "work_s", "maxrss_kb"}``.
``maxrss_kb`` is the process's peak resident set (``VmHWM`` of
/proc/self/status), which starts afresh at exec; ``ru_maxrss`` would not do:
it keeps the parent's resident set from before the exec.
The exit code is the CLI's.
"""

import json
import sys
import time


def peak_rss_kb() -> int:
    with open("/proc/self/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_cli(argv: list) -> int:
    start = time.perf_counter()
    import z2spec.cli
    from z2spec import build_instance, parse_instance

    with open(argv[1], "r", encoding="utf-8") as handle:
        build_instance(parse_instance(handle.read()))
    built = time.perf_counter()
    code = z2spec.cli.main(argv)
    sys.stdout.flush()
    work_s = time.perf_counter() - built
    maxrss_kb = peak_rss_kb()
    sys.stderr.write("PERFBENCH " + json.dumps(
        {"setup_s": built - start, "work_s": work_s, "maxrss_kb": maxrss_kb})
        + "\n")
    sys.stderr.flush()
    return code


if __name__ == "__main__":
    sys.exit(run_cli(sys.argv[1:]))
