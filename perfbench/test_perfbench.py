#!/usr/bin/env python3
"""The benchmark's own test: a run against the committed reference values
passes and prints exactly the metrics of BENCHMARK.json, and a run against a
deliberately wrong expected value exits nonzero and names the failing check.

    python3 perfbench/test_perfbench.py
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

BUILD_DIR = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                            or os.path.join(run.ROOT, ".bench_build"))
BINARY = os.path.join(BUILD_DIR, "perfbench", run.TARGET)
REFERENCE = os.path.join(run.BENCH_DIR, "reference")


def run_serve(reference_dir, out_dir, trace="0"):
    """One short serve run at the default seed against `reference_dir`."""
    return subprocess.run(
        [BINARY, "--workload", "serve", "--seed", "2020", "--seconds", "1",
         "--trace", trace, "--reference", reference_dir, "--out", out_dir],
        capture_output=True, text=True, stdin=subprocess.DEVNULL)


class WrongReferenceTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build(BUILD_DIR):
            raise RuntimeError("benchmark build failed")
        cls.tmp = tempfile.mkdtemp(dir=BUILD_DIR, prefix="perfbench-test-")

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp)

    def test_committed_reference_passes(self):
        result = run_serve(REFERENCE, os.path.join(self.tmp, "ok"))
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertNotIn("check failed", result.stdout)
        self.assertTrue(json.loads(result.stdout.splitlines()[-1])["correct"])

    def test_result_line_carries_the_manifest_metrics(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            manifest = json.load(f)
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            result = run_serve(REFERENCE,
                               os.path.join(self.tmp, "trace" + trace), trace)
            self.assertEqual(result.returncode, 0, result.stdout)
            final = json.loads(result.stdout.splitlines()[-1])
            self.assertEqual(set(final),
                             {"correct", "attempted", "failed", "metrics"})
            want = {m["name"]: m["unit"] for m in manifest[key]}
            got = {name: m["unit"] for name, m in final["metrics"].items()}
            self.assertEqual(got, want)

    def test_wrong_expected_value_fails_and_is_named(self):
        wrong = os.path.join(self.tmp, "wrong-reference")
        shutil.copytree(REFERENCE, wrong)
        path = os.path.join(wrong, "serve.txt")
        with open(path) as f:
            lines = f.read().splitlines()
        # One more snapshot than the hour really takes.
        lines = [f"checkpointed.snapshots {int(line.split()[1]) + 1}"
                 if line.startswith("checkpointed.snapshots ") else line
                 for line in lines]
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")

        result = run_serve(wrong, os.path.join(self.tmp, "wrong"))
        self.assertNotEqual(result.returncode, 0)
        self.assertIn("check failed: reference.checkpointed.snapshots",
                      result.stdout)
        final = json.loads(result.stdout.splitlines()[-1])
        self.assertFalse(final["correct"])


if __name__ == "__main__":
    unittest.main()
