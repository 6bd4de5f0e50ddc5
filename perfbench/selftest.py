"""Self-check of the benchmark; run from the checkout root (about two minutes):

    python3 perfbench/selftest.py

It runs every workload once with tracing at seed 1, whose prime pair differs
from the one golden.json was recorded with, and checks that the answers
still match the goldens, that traced and untraced passes return identical
task outputs, and that each layer metric is nonzero on the workloads it is
mapped to and zero where no call can reach it.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 1

POLY = ("polyring.poly_mul.calls", "polyring.poly_mul.terms", "polyring.poly_mul.self_s")
RANK = tuple(f"modlinalg.rank_mod.{f}" for f in ("calls", "rows", "nnz", "self_s"))
NULL = tuple(
    f"modlinalg.nullspace_mod.{f}" for f in ("calls", "rows", "nnz", "self_s", "kernel_ratio")
)
REES = (
    "rees.ReesEngine.kernel_block.calls",
    "rees.ReesEngine.kernel_block.self_s",
    "rees.ReesEngine.min_gens.calls",
    "rees.ReesEngine.min_gens.self_s",
)
CHARS = (
    "bott.verify_lemma_4_4.self_s",
    "bott.tor_geometric.self_s",
    "bott.bott_projective.calls",
    "bott.bott_projective.self_s",
    "symfunc.schur_multiply.calls",
    "symfunc.schur_multiply.self_s",
    "symfunc.plethysm_schur.calls",
    "symfunc.plethysm_schur.self_s",
)
ALWAYS = ("tasks.run.self_s", "trace_overhead_ratio")

NONZERO = {
    "relations": POLY + RANK + NULL + ALWAYS + (
        "witness.relation_dims.self_s",
        "witness.veronese_presentation_dims.self_s",
        "witness.subspace_variety_gens.self_s",
    ),
    "rees": POLY + RANK + NULL + REES + ALWAYS,
    "koszul": RANK + ALWAYS + ("witness.koszul_h1_blocks.self_s",),
    "characters": CHARS + ALWAYS,
}
ZERO = {
    "relations": REES,
    "rees": CHARS,
    "koszul": POLY + NULL + REES + CHARS,
    "characters": POLY + RANK + NULL + REES,
}
# self time that should stay near zero: glue around the layers
GLUE = ("birep.predicted_character.self_s", "birep.dim_at.self_s", "tasks.run.self_s")


def bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


class TracedRuns(unittest.TestCase):
    results = {}

    @classmethod
    def setUpClass(cls):
        for workload in WORKLOADS:
            proc = bench(workload, 1)
            if proc.returncode != 0:
                raise RuntimeError(proc.stderr)
            out = ROOT / ".perfbench_out" / f"result-{workload}-seed{SEED}-trace1.json"
            cls.results[workload] = json.loads(out.read_text())

    def test_goldens_hold_at_another_prime_pair(self):
        golden = json.loads(run.GOLDEN.read_text())["recorded_with"]
        for workload, rec in self.results.items():
            with self.subTest(workload=workload):
                self.assertNotEqual(rec["context"]["primes"], golden["primes"])
                self.assertEqual(rec["failures"], [])
                self.assertTrue(rec["result"]["correct"])
                self.assertEqual(rec["context"]["fail_ratio"], 0)

    def test_traced_matches_untraced(self):
        for workload, rec in self.results.items():
            with self.subTest(workload=workload):
                self.assertTrue(rec["traced_matches_untraced"])

    def test_layer_pattern(self):
        for workload, rec in self.results.items():
            metrics = rec["result"]["metrics"]
            self.assertEqual(set(metrics), set(run.PER_LAYER))
            for name in NONZERO[workload]:
                with self.subTest(workload=workload, metric=name):
                    self.assertGreater(metrics[name]["value"], 0)
            for name in ZERO[workload]:
                with self.subTest(workload=workload, metric=name):
                    self.assertEqual(metrics[name]["value"], 0)
            glue = sum(metrics[name]["value"] for name in GLUE)
            wall = rec["samples"]["traced_wall_s"]["median"]
            with self.subTest(workload=workload, metric="glue"):
                self.assertLess(glue, 0.02 * wall)

    def test_wrapped_where_callers_bind(self):
        wrapped = self.results["relations"]["wrapped_in"]
        self.assertEqual(wrapped["modlinalg.rank_mod"], ["minorrel.rees", "minorrel.witness"])
        self.assertEqual(wrapped["polyring.poly_mul"], ["minorrel.rees", "minorrel.witness"])
        self.assertIn("minorrel.bott", wrapped["symfunc.plethysm_schur"])


class ResultFormat(unittest.TestCase):
    def test_benchmark_json_matches_run(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)

    def test_untraced_result_line(self):
        proc = bench("koszul", 0)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(result["metrics"]), set(run.END_TO_END))
        self.assertTrue(result["correct"])

    def test_fails_without_sources(self):
        bare = ROOT / ".perfbench_out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = bench("koszul", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main(verbosity=2)
