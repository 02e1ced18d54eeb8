"""Self-test of the benchmark on tiny inputs (``--smoke``).

Run from the root of a checkout with ``python3 -m unittest perfbench/test_perfbench.py``
or ``python3 -m pytest perfbench``.  It is kept out of the package's own
test paths.
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seconds", "1", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def test_end_to_end_metrics_on_every_workload(self):
        names = {m["name"] for m in SPEC["end_to_end"]}
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                result = bench("--workload", workload, "--seed", "5", "--trace", "0")
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(set(result["metrics"]), names)
                for value in result["metrics"].values():
                    self.assertGreater(value["value"], 0)

    def test_traced_counts_repeat_exactly(self):
        counts = [
            m["name"]
            for m in SPEC["per_layer"]
            if m["unit"] in ("count", "bits") or m["name"] == "fuzzing.accept_ratio"
        ]
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                first, second = (
                    bench("--workload", workload, "--seed", "11", "--trace", "1")
                    for _ in range(2)
                )
                self.assertTrue(first["correct"] and second["correct"])
                self.assertEqual(
                    {name: first["metrics"][name]["value"] for name in counts},
                    {name: second["metrics"][name]["value"] for name in counts},
                )


class MissingHookTest(unittest.TestCase):
    def test_deleted_target_is_missing_not_zero(self):
        sys.path[:0] = [str(ROOT / "src"), str(HERE)]
        import hypident.asymptotics as asymptotics
        import tracer as tracing

        original = asymptotics.exp_series_coefficient
        del asymptotics.exp_series_coefficient
        try:
            tracer = tracing.Tracer()
            with tracer.installed():
                pass
        finally:
            asymptotics.exp_series_coefficient = original
        self.assertEqual(tracer.missing, {"hypident.asymptotics.exp_series_coefficient"})
        metrics = tracer.metrics([m["name"] for m in SPEC["per_layer"]])
        self.assertNotIn("asymptotics.exp_series_coefficient.calls", metrics)
        self.assertNotIn("asymptotics.exp_series_coefficient.self_s", metrics)
        self.assertEqual(metrics["residues.residue_kernel.calls"], 0)


class StrippedCheckoutTest(unittest.TestCase):
    def test_fails_without_the_package(self):
        import shutil
        import tempfile

        (HERE / "out").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(
                HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
            )
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "cli-fuzz", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp,
                capture_output=True,
                text=True,
                timeout=170,
            )
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
