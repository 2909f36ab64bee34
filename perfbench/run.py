#!/usr/bin/env python3
"""Cold-process benchmark of the z2spec verifier.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout, never from an installed copy.  Every pass is a
closed loop: one client, one child interpreter at a time, no threads.  Rings
are interned process-wide, so each child starts cold and no warm number is
reported.  Passes repeat while the next one is expected to end within
``--seconds`` (there is at least one).  The seed sets the order in which each
pass visits its commands, nothing else.

``--trace 0`` reports the end-to-end metrics (medians over the passes):
``pass_s`` (wall time of the pass's processes, interpreter start-up
included), ``setup_s`` (import + parse + build, summed over the pass's
processes), ``work_s`` (built ring to written output, summed),
``peak_rss_mb`` (largest child RSS).  Beside each it prints the spread over
the run's passes (interquartile range as a share of the median) and the
metric's bound from BENCHMARK.json, marked ``unresolved`` when the spread
exceeds the bound.  Times are scaled to a reference host speed, because the
host's speed swings: a fixed pure-Python loop is timed in this process
before the first child and after each child, and each child's times are
multiplied by REFERENCE_NOMINAL_S over the mean of its two readings.  The
unscaled medians are printed as ``wall.<name>`` and kept in the record.
``--trace 1`` runs each instance in its own traced process (perfbench/
traced.py) and reports per-layer self times and lattice sizes, summed over
the workload's instances, scaled the same way.  Every output is checked
against perfbench/expected.json; a mismatch counts as failed (``failed /
attempted`` is the error ratio) and never stops the run.

Human-readable lines go first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(per-pass values, spans, per-instance rows of lattice sizes, traced wall time
and layer self times, failures) is written to
``.perfbench/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"
RUN_LIMIT_S = 170.0  # hard stop: every run must exit within 180 s
# The reference loop's median time on the machine the benchmark was written
# on (Python 3.11.7, 2 shared cores).  Reported times are wall times scaled to
# a host on which the loop takes this long.
REFERENCE_ITERATIONS = 100000
REFERENCE_NOMINAL_S = 0.030

ALL_SUITES = ("ideals", "spectrum", "homeo", "radical", "maximal", "field",
              "norm")
# The radical suite alone takes over 40 s on Z/2 x F2^6.
NO_RADICAL = tuple(s for s in ALL_SUITES if s != "radical")


def _inst(name: str) -> str:
    return f"perfbench/instances/{name}.json"


# Instances of each workload with the verify suites they run; None means
# the three query commands instead of verify.
PLANS = {
    "big-rings": [(name, ALL_SUITES) for name in (
        "gaussian-16", "truncpoly-2-k8", "trivext-16-m16", "gaussian-25")],
    "deep-lattice": [("trivext-2-f2x5", ALL_SUITES),
                     ("trivext-2-f2x6", NO_RADICAL)],
    "queries": [("trivext-16-m16", None), ("trivext-2-f2x6", None)],
}


def cli_commands(workload: str) -> list:
    """CLI argument lists of an untraced pass, one child process each."""
    out = []
    for name, suites in PLANS[workload]:
        path = _inst(name)
        if suites is None:
            out += [("spec", path, "--graded"), ("spec", path),
                    ("export-dot", path)]
        else:
            argv = ("verify", path, "--format", "json")
            if suites != ALL_SUITES:
                argv += tuple(x for s in suites for x in ("--suite", s))
            out.append(argv)
    return out


def trace_plan(workload: str) -> list:
    """(source, mode, suites) of a traced pass, one child process each."""
    return [(_inst(name), "queries", ()) if suites is None
            else (_inst(name), "verify", suites)
            for name, suites in PLANS[workload]]


END_TO_END = (("pass_s", "s"), ("setup_s", "s"), ("work_s", "s"),
              ("peak_rss_mb", "MiB"))
# End-to-end times, scaled to the reference speed; "wall.<name>" is unscaled.
SCALED_TIMES = ("pass_s", "setup_s", "work_s")
# Span names of traced.py; each is reported as <name>_s, its self time.
LAYERS = (
    "z2spec.import", "instances.parse", "rings.tables", "grading.build",
    "rings.enumerate_ideals", "rings.enumerate_ideals_r0", "rings.spec",
    "grading.submodules", "graded_ideals.enumerate",
    "spectrum.graded_spec_definitional", "spectrum.graded_spec_constructive",
    "spectrum.graded_radical_definitional",
    "spectrum.graded_radical_intersection", "spectrum.graded_radical_formula",
    "maxfield.graded_max_definitional", "maxfield.graded_max_constructive",
    "maxfield.domain_equivalence",
) + tuple(f"verify.{s}" for s in ALL_SUITES) + ("dot.render",)
# Per-layer counts: metric name -> key of traced.py's result.
COUNTS = {
    "rings.ideals": "ideals", "rings.ideals_r0": "ideals_r0",
    "rings.primes": "primes", "grading.submodules": "submodules",
    "graded_ideals.count": "graded_ideals",
    "spectrum.graded_primes": "graded_primes",
    "maxfield.graded_maximals": "graded_maximals",
    "verify.checks": "checks",
}
TRACE_TOTALS = ("trace.wall_s", "trace.pass_s", "trace.unattributed_s")


def per_layer_names() -> list:
    return [f"{layer}_s" for layer in LAYERS] + list(COUNTS) + list(TRACE_TOTALS)


def galois_number(p: int, k: int) -> int:
    """Number of subspaces of F_p^k: the sum of the Gaussian binomials."""
    total, binom = 0, 1
    for j in range(k + 1):
        total += binom
        binom = binom * (p ** (k - j) - 1) // (p ** (j + 1) - 1)
    return total


# Ideal counts known in closed form.  Z/p x F_p^k (square-zero) has one ideal
# per F_p-subspace of the odd part, plus the whole ring; Z/2[x]/(x^8) is a
# chain ring.
CLOSED_FORMS = {
    _inst("trivext-2-f2x5"): {"ideals": galois_number(2, 5) + 1},
    _inst("trivext-2-f2x6"): {"ideals": galois_number(2, 6) + 1},
    _inst("truncpoly-2-k8"): {"ideals": 9},
}


def load_expected() -> dict:
    with open(BENCH / "expected.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def load_bounds() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return {m["name"]: m["bound"] for m in json.load(handle)["end_to_end"]}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def preflight(env: dict) -> str | None:
    """Why the checkout cannot be benchmarked, or None.  Also compiles the
    bytecode once, so no pass pays for it."""
    if not (ROOT / "src/z2spec/__init__.py").exists():
        return f"src/z2spec/__init__.py is missing under {ROOT}"
    probe = subprocess.run(
        [sys.executable, "-c", "import z2spec, z2spec.cli; print(z2spec.__file__)"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    if probe.returncode != 0:
        return "cannot import z2spec: " + probe.stderr.strip()
    where = Path(probe.stdout.strip()).resolve()
    if (ROOT / "src") not in where.parents:
        return f"z2spec imports from {where}, not from {ROOT / 'src'}"
    return None


def reference_s() -> float:
    """Wall time of a fixed pure-Python loop (dict lookups, integer
    arithmetic), the host-speed reference the child times are scaled by."""
    start = time.perf_counter()
    seen, acc = {}, 0
    for i in range(REFERENCE_ITERATIONS):
        key = (i * 7919) % 4093
        acc = (acc + seen.get(key, i) * 31 + i) % 1000003
        seen[key] = acc
    return time.perf_counter() - start


class Speed:
    """Scales each child's times to the reference speed.  The reference loop
    is timed before the first child and after every child, so each child
    lies between two readings; its scale is REFERENCE_NOMINAL_S over their
    mean.  Nothing runs beside a child: the two cores slow each other."""

    def __init__(self):
        self.last = reference_s()

    def scale_after_child(self) -> float:
        before, self.last = self.last, reference_s()
        return REFERENCE_NOMINAL_S / ((before + self.last) / 2)


def spawn(argv: list, env: dict, deadline: float):
    """Run one child to completion; (exit code, stdout, stderr)."""
    timeout = max(1.0, deadline - time.perf_counter())
    try:
        done = subprocess.run([sys.executable] + argv, cwd=ROOT, env=env,
                              stdin=subprocess.DEVNULL, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, "", f"timed out after {timeout:.0f} s"
    return done.returncode, done.stdout, done.stderr


def shim_timing(stderr: str) -> dict | None:
    lines = stderr.rstrip("\n").split("\n")
    if lines and lines[-1].startswith("PERFBENCH "):
        return json.loads(lines[-1][len("PERFBENCH "):])
    return None


def check_counts(key: str, counts: dict, pinned: dict) -> str | None:
    for name, value in pinned.items():
        if counts.get(name) != value:
            return f"{key}: {name}={counts.get(name)}, expected {value}"
    return None


def check_command(argv: tuple, code, stdout: str, expected: dict) -> str | None:
    """None when the command's exit code and output match the pinned answer."""
    key = " ".join(argv)
    want = expected["commands"][key]
    if code != want["exit"]:
        return f"{key}: exit {code}, expected {want['exit']}"
    if "stdout" in want:
        return None if stdout == want["stdout"] else f"{key}: stdout differs"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return f"{key}: output is not JSON"
    if report.get("status") != want["status"]:
        return f"{key}: status {report.get('status')}, expected {want['status']}"
    return (check_counts(key, report.get("counts", {}), want["counts"])
            or check_counts(key, report.get("counts", {}),
                            CLOSED_FORMS.get(argv[1], {})))


def untraced_pass(workload: str, rng: random.Random, env: dict, deadline: float,
                  expected: dict) -> dict:
    commands = cli_commands(workload)
    rng.shuffle(commands)
    row = {"order": [" ".join(c) for c in commands], "peak_rss_mb": 0.0,
           "attempted": 0, "failures": [], "scales": []}
    row.update({name: 0.0 for name in SCALED_TIMES + tuple(
        "wall." + name for name in SCALED_TIMES)})
    start = time.perf_counter()
    speed = Speed()
    for argv in commands:
        t0 = time.perf_counter()
        code, stdout, stderr = spawn(["perfbench/shim.py"] + list(argv), env,
                                     deadline)
        wall = {"pass_s": time.perf_counter() - t0}
        scale = speed.scale_after_child()
        row["scales"].append(scale)
        timing = shim_timing(stderr)
        if timing is not None:
            wall.update(setup_s=timing["setup_s"], work_s=timing["work_s"])
            row["peak_rss_mb"] = max(row["peak_rss_mb"],
                                     timing["maxrss_kb"] / 1024.0)
        for name, seconds in wall.items():
            row["wall." + name] += seconds
            row[name] += seconds * scale
        row["attempted"] += 1
        problem = check_command(argv, code, stdout, expected)
        if problem is None and timing is None:
            problem = f"{' '.join(argv)}: no timing record"
        if problem:
            row["failures"].append(problem)
    row["elapsed_s"] = time.perf_counter() - start
    return row


def self_times(spans: list) -> list:
    """Each span's duration minus the part its child spans cover.  Every span
    but the root has a parent, so they add up to the root's duration."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def check_spans(spans: list, process_s: float) -> str | None:
    """None when the spans form one tree under a root that fits in the
    process's wall time (as this script measured it), every span is closed
    and lies within its parent, and no span overlaps its previous sibling,
    so that no self time is negative."""
    if not spans or spans[0]["parent"] is not None or \
            any(s["parent"] is None for s in spans[1:]):
        return "spans do not have one root"
    if any(s["end"] is None for s in spans):
        return "a span was never closed"
    last_child = {}
    for i, s in enumerate(spans[1:], 1):
        parent = spans[s["parent"]]
        if s["start"] < parent["start"] or s["end"] > parent["end"]:
            return f"span {s['name']} lies outside {parent['name']}"
        before = last_child.get(s["parent"])
        if before is not None and spans[before]["end"] > s["start"]:
            return f"span {s['name']} overlaps {spans[before]['name']}"
        last_child[s["parent"]] = i
    if spans[0]["end"] - spans[0]["start"] > process_s:
        return "traced wall time exceeds the process's wall time"
    return None


def check_trace(source: str, mode: str, result: dict, expected: dict,
                process_s: float) -> str | None:
    lattice = result["lattice"]
    problem = (check_counts(source, lattice, expected["lattice"][source])
               or check_counts(source, lattice, CLOSED_FORMS.get(source, {})))
    if problem:
        return problem
    bad = sorted(s for s, status in result["status"].items() if status != "pass")
    if bad:
        return f"{source}: suites {bad} did not pass"
    if mode == "queries" and \
            result["dot"] != expected["commands"][f"export-dot {source}"]["stdout"]:
        return f"{source}: DOT differs from export-dot"
    problem = check_spans(result["spans"], process_s)
    return f"{source}: {problem}" if problem else None


def traced_pass(workload: str, rng: random.Random, env: dict, deadline: float,
                expected: dict) -> dict:
    plan = trace_plan(workload)
    rng.shuffle(plan)
    row = {name: 0 if name in COUNTS else 0.0 for name in per_layer_names()}
    row.update({"attempted": 0, "failures": [], "scales": [], "spans": [],
                "instances": {}})
    start = time.perf_counter()
    speed = Speed()
    for source, mode, suites in plan:
        row["attempted"] += 1
        t0 = time.perf_counter()
        code, stdout, stderr = spawn(["perfbench/traced.py", source, mode]
                                     + list(suites), env, deadline)
        process_s = time.perf_counter() - t0
        scale = speed.scale_after_child()
        row["scales"].append(scale)
        row["trace.pass_s"] += process_s * scale
        try:
            result = json.loads(stdout) if code == 0 else None
        except json.JSONDecodeError:
            result = None
        if result is None:
            row["failures"].append(f"{source}: exit {code} {stderr.strip()[-200:]}")
            continue
        problem = check_trace(source, mode, result, expected, process_s)
        if problem:
            row["failures"].append(problem)
            continue
        instance = dict(result["lattice"], scale=scale, self_s={})
        for span, own in zip(result["spans"], self_times(result["spans"])):
            if span["parent"] is None:
                instance["wall_s"] = span["end"] - span["start"]
                row["trace.wall_s"] += instance["wall_s"] * scale
                row["trace.unattributed_s"] += own * scale
            else:
                row[span["name"] + "_s"] += own * scale
            instance["self_s"][span["name"]] = own
        for metric, key in COUNTS.items():
            row[metric] += result["checks"] if key == "checks" \
                else result["lattice"][key]
        row["spans"].extend(result["spans"])
        row["instances"][source] = instance
    row["elapsed_s"] = time.perf_counter() - start
    return row


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLANS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    run_start = time.perf_counter()
    env = child_env()
    problem = preflight(env)
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    expected = load_expected()
    bounds = load_bounds()
    rng = random.Random(args.seed)
    one_pass = traced_pass if args.trace else untraced_pass
    hard_deadline = run_start + RUN_LIMIT_S

    passes = []
    measure_start = time.perf_counter()
    while True:
        passes.append(one_pass(args.workload, rng, env, hard_deadline,
                               expected))
        now = time.perf_counter()
        typical = statistics.median(p["elapsed_s"] for p in passes)
        if (now + typical - measure_start > args.seconds
                or now + 2 * typical > hard_deadline):
            break

    names = per_layer_names() if args.trace else [n for n, _ in END_TO_END]
    units = dict(END_TO_END)
    metrics = {}
    spreads = {}
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"trace={args.trace} passes={len(passes)}")
    for name in names:
        values = [p[name] for p in passes]
        unit = units.get(name) or ("s" if name.endswith("_s") else "count")
        median = statistics.median(values)
        q1, q3 = quartiles(values)
        metrics[name] = {"value": median, "unit": unit}
        note = ""
        if name in bounds and median > 0:  # 0 only when every child failed
            spreads[name] = (q3 - q1) / median
            note = f" spread {spreads[name]:.3f} bound {bounds[name]:g}" + (
                " unresolved" if spreads[name] > bounds[name] else "")
        print(f"  {name:40s} median {median:.6g} q1 {q1:.6g} q3 {q3:.6g} "
              f"n={len(values)}{note} {unit}")
    if not args.trace:
        for name in SCALED_TIMES:
            print(f"  {'wall.' + name:40s} median "
                  f"{statistics.median(p['wall.' + name] for p in passes):.6g}"
                  " unscaled s")
    scales = [x for p in passes for x in p["scales"]]
    print(f"  {'speed_scale':40s} median {statistics.median(scales):.4g} "
          f"min {min(scales):.4g} max {max(scales):.4g} "
          f"(reference {REFERENCE_NOMINAL_S:g} s / measured)")
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    print(f"  {'error_ratio':40s} {len(failures) / attempted:.6g} fraction "
          f"({len(failures)}/{attempted})")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")
    if args.trace:
        for source, row in sorted(passes[0]["instances"].items()):
            print("  lattice " + source + " " + " ".join(
                f"{k}={v:.6g}" for k, v in row.items() if k != "self_s"))

    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "metrics": metrics, "spreads": spreads, "passes": passes,
              "failures": failures}
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
