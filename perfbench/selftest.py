#!/usr/bin/env python3
"""Self-test of the benchmark (about two minutes on two cores).

    python3 perfbench/selftest.py

1. A one-pass smoke run of every workload, untraced and traced, prints every
   metric of BENCHMARK.json with its unit (and, untraced, its spread and
   bound) and reports no failure.
2. In a copy of the checkout with a corrupted pinned DOT output and a
   corrupted pinned ideal count, the affected workloads report failures
   instead of a pass, untraced and traced.
3. The closed-form cross-check rejects a count that matches its pin but not
   the closed form, and the span checks reject malformed traces.
4. In a directory holding only BENCHMARK.json and the benchmark, the run
   exits non-zero without printing a result.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run

ROOT = Path(__file__).resolve().parents[1]
F2X5 = "perfbench/instances/trivext-2-f2x5.json"


def bench(root: Path, workload: str, trace: int):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=180)
    lines = done.stdout.strip().split("\n")
    return done.returncode, lines


def copy_tree(dest: Path, parts) -> None:
    ignore = shutil.ignore_patterns("__pycache__")
    for part in parts:
        src = ROOT / part
        if src.is_dir():
            shutil.copytree(src, dest / part, ignore=ignore)
        else:
            shutil.copy2(src, dest / part)


def span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "instance": "x"}


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
            cls.spec = json.load(handle)
        (ROOT / ".perfbench").mkdir(exist_ok=True)

    def scratch(self) -> Path:
        tmp = tempfile.TemporaryDirectory(dir=ROOT / ".perfbench")
        self.addCleanup(tmp.cleanup)
        return Path(tmp.name)

    def test_listed_workloads_are_the_implemented_ones(self):
        self.assertEqual({w["name"] for w in self.spec["workloads"]},
                         set(run.PLANS))

    def test_smoke_every_workload_prints_every_metric(self):
        for workload in sorted(run.PLANS):
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, lines = bench(ROOT, workload, trace)
                    self.assertEqual(code, 0, lines)
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], lines)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    wanted = {m["name"]: m["unit"] for m in self.spec[key]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, wanted)
                    for name, unit in wanted.items():
                        printed = [line for line in lines[:-1]
                                   if line.split()[:1] == [name]
                                   and line.endswith(" " + unit)]
                        self.assertTrue(printed, f"{name} not printed")
                        if trace == 0:
                            self.assertIn(" bound ", printed[0])
                    self.assertTrue(any(line.split()[:1] == ["error_ratio"]
                                        for line in lines[:-1]))

    def test_corrupted_expected_output_counts_as_failure(self):
        root = self.scratch()
        copy_tree(root, ("BENCHMARK.json", "perfbench", "src"))
        pinned_file = root / "perfbench" / "expected.json"
        pinned = json.loads(pinned_file.read_text())
        key = "export-dot perfbench/instances/trivext-16-m16.json"
        pinned["commands"][key]["stdout"] += "// corrupted\n"
        pinned["commands"][f"verify {F2X5} --format json"]["counts"]["ideals"] += 1
        pinned["lattice"][F2X5]["ideals"] += 1
        pinned_file.write_text(json.dumps(pinned))
        for workload in ("deep-lattice", "queries"):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    code, lines = bench(root, workload, trace)
                    self.assertEqual(code, 0, lines)
                    result = json.loads(lines[-1])
                    self.assertFalse(result["correct"])
                    self.assertGreaterEqual(result["failed"], 1)
                    ratio = [line for line in lines
                             if line.split()[:1] == ["error_ratio"]]
                    self.assertNotEqual(float(ratio[0].split()[1]), 0.0)

    def test_closed_form_rejects_a_count_that_matches_its_pin(self):
        argv = ("verify", F2X5, "--format", "json")
        counts = {"ideals": 376}
        expected = {"commands": {" ".join(argv): {
            "exit": 0, "status": "pass", "counts": counts}}}
        stdout = json.dumps({"status": "pass", "counts": counts})
        problem = run.check_command(argv, 0, stdout, expected)
        self.assertIn("ideals=376, expected 375", problem or "")
        counts["ideals"] = 375
        stdout = json.dumps({"status": "pass", "counts": counts})
        self.assertIsNone(run.check_command(argv, 0, stdout, expected))

    def test_span_checks_reject_malformed_traces(self):
        good = [span("instance", 0.0, 3.0, None), span("a", 0.5, 1.0, 0),
                span("b", 1.0, 2.5, 0), span("c", 1.5, 2.0, 2)]
        self.assertIsNone(run.check_spans(good, 3.5))
        self.assertAlmostEqual(sum(run.self_times(good)), 3.0)
        bad = {
            "never closed": [span("instance", 0.0, 3.0, None),
                             span("a", 0.5, None, 0)],
            "outside": [span("instance", 0.0, 3.0, None),
                        span("a", 2.0, 3.5, 0)],
            "overlap": [span("instance", 0.0, 3.0, None),
                        span("a", 0.5, 2.0, 0), span("b", 1.0, 2.5, 0)],
            "root": [span("instance", 0.0, 3.0, None),
                     span("a", 0.5, 1.0, None)],
            "process": good,
        }
        for why, spans in bad.items():
            with self.subTest(why=why):
                self.assertIsNotNone(run.check_spans(spans, 2.0 if why ==
                                                     "process" else 3.5))

    def test_without_the_program_there_is_no_result(self):
        root = self.scratch()
        copy_tree(root, ("BENCHMARK.json", "perfbench"))
        code, lines = bench(root, "big-rings", 0)
        self.assertNotEqual(code, 0)
        self.assertFalse(any(line.startswith("{") for line in lines))


if __name__ == "__main__":
    unittest.main()
