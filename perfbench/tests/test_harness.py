"""Self-test of the benchmark harness on tiny inputs (a few seconds).

    python3 -m unittest discover -s perfbench/tests

Runs split-check up to degree 2, a 2-prime sample, gassmann over F_3 and a
small torsion/factor pair through the same code paths as the real workloads,
and checks the result format, the metric names and units against
BENCHMARK.json, the self-time accounting, the repeatability of call counts
and that the output checks catch wrong output.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import Sample, Workload, check  # noqa: E402

TINY = (
    Workload(
        "tiny-split",
        (("split-check", "--pair", "gl2_f3_deg8", "--max-degree", "2", "--jobs", "1"),),
        setup=(("pair", "gl2_f3_deg8"),),
        split=True,
    ),
    Workload(
        "tiny-sampled",
        (("split-check", "--pair", "gl2_f4_deg15", "--samples", "2", "--degree", "4",
          "--seed", "{seed}", "--jobs", "1"),),
        setup=(("pair", "gl2_f4_deg15"),),
        split=True,
        sample=Sample(2, 4, 15),
    ),
    Workload(
        "tiny-gassmann",
        (("gassmann", "--p", "3", "--n", "2", "--construction", "example1"),),
        setup=(("field", 3),),
    ),
    Workload(
        "tiny-torsion-factor",
        (
            ("torsion", "--p", "2", "--rho", "tau^2 + tau + T", "--a", "T + 1", "--strip"),
            ("factor", "--p", "2", "--prime", "T^2 + T + 1", "--poly", "@{prev}"),
        ),
        setup=(("parse", 2, "twisted", "tau^2 + tau + T"), ("parse", 2, "t_poly", "T + 1")),
    ),
)


def quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        refs = Path(cls.tmp.name)
        cls.tiny = {}
        for w in TINY:
            w = Workload(**{**w.__dict__, "reference_dir": refs})
            # the untraced program's own output is the tiny reference
            with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench-") as work:
                runner = run.Runner(Path(work))
                outs = [Path(work) / f"step{i}.out" for i in range(len(w.steps))]
                for i, argv in enumerate(w.argvs(workloads.TIMED_SEED, str(outs[0]))):
                    proc = runner.spawn([sys.executable, "-m", "ffequiv.cli", *argv], outs[i])
                    assert proc.code == 0, (w.name, proc.code)
                    name = f"{w.name}.out" if len(w.steps) == 1 else f"{w.name}.{argv[0]}.out"
                    shutil.copy(outs[i], refs / name)
            cls.tiny[w.name] = w
        cls.micro_cache = None
        cls._micro = run.Runner.micro

        def cached_micro(runner):
            if cls.micro_cache is None:
                cls.micro_cache = cls._micro(runner)
            return cls.micro_cache

        run.Runner.micro = cached_micro

    @classmethod
    def tearDownClass(cls):
        run.Runner.micro = cls._micro
        cls.tmp.cleanup()

    def test_tiny_split_reference_agrees_with_the_checked_in_one(self):
        full = (workloads.REFERENCE / "split-f3-exh.out").read_text().splitlines()
        rows = [r for r in full[:-1] if int(r.split("\t")[1]) <= 2]
        bad = sum(1 for r in rows if r.split("\t")[4].startswith("bad:"))
        good = len(rows) - bad
        rows.append(f"good={good} equal={good} unequal=0 bad={bad} overall=consistent")
        self.assertEqual(self.tiny["tiny-split"].references()[0].decode().splitlines(), rows)

    def test_benchmark_json_matches_the_harness(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual(
            spec["workloads"], [{"name": w.name, "why": w.why} for w in workloads.WORKLOADS.values()]
        )

    def assert_result(self, result, units):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, units)

    def test_untraced_runs_emit_every_end_to_end_metric(self):
        for w in self.tiny.values():
            with self.subTest(w.name):
                result = quiet(run.measure, w, 5, 0.1, False)
                self.assert_result(result, run.END_TO_END)
                self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))

    def test_traced_runs_emit_every_layer_metric_and_counts_repeat(self):
        for w in self.tiny.values():
            with self.subTest(w.name):
                first = quiet(run.measure, w, 5, 0.1, True)
                second = quiet(run.measure, w, 5, 0.1, True)
                self.assert_result(first, run.PER_LAYER)
                for name, unit in run.PER_LAYER.items():
                    if unit == "count":
                        self.assertEqual(first["metrics"][name], second["metrics"][name], name)
                m = {k: v["value"] for k, v in first["metrics"].items()}
                self.assertLessEqual(m["trace.self_sum_s"], m["trace.wall_s"])

    def test_self_times_add_up_in_a_traced_cli_run(self):
        for w in self.tiny.values():
            with self.subTest(w.name), tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench-") as work:
                inv = run.Runner(Path(work)).workload(w, traced=True)
                self.assertEqual(inv.outcome.failed, 0)
                for data in inv.traces:
                    roots = sum(t for p, _, _, t, _ in data["edges"] if p == tracer.ROOT)
                    selfs = sum(s for *_, s in data["edges"])
                    self.assertAlmostEqual(roots, selfs, delta=1e-6 * max(1.0, roots))
                    self.assertIn((tracer.ROOT, "cli"), {(p, n) for p, n, *_ in data["edges"]})

    def test_tracer_self_time_with_a_fake_clock(self):
        now = [0.0]
        t = tracer.Tracer(clock=lambda: now[0])

        def leaf():
            now[0] += 2.0

        def middle():
            now[0] += 1.0
            wrapped_leaf()
            wrapped_leaf()

        wrapped_leaf = t.span("leaf", leaf)
        t.span("middle", middle)()
        snap = t.snapshot()
        self.assertEqual(
            snap["edges"], [["<root>", "middle", 1, 5.0, 1.0], ["middle", "leaf", 2, 4.0, 4.0]]
        )

    def test_checks_catch_wrong_output(self):
        w = self.tiny["tiny-split"]
        ref = w.references()[0]
        self.assertEqual(check(w, 0, [(ref, 0)]).failed, 0)
        self.assertEqual(check(w, 0, [(ref, 1)]).failed, 1)
        broken = ref.replace(b"equal", b"UNEQUAL", 1)
        self.assertEqual(check(w, 0, [(broken, 0)]).failed, 1)
        self.assertGreater(check(w, 0, [(ref + b"extra\n", 0)]).failed, 0)

    def test_sample_invariants(self):
        w = self.tiny["tiny-sampled"]
        good = b"T^4 + T + 1\t4\t[15]\t[15]\tequal\nT^4 + T^3 + 1\t4\t[3,6,6]\t[3,6,6]\tequal\n"
        summary = b"good=2 equal=2 unequal=0 bad=0 overall=consistent\n"
        self.assertEqual(check(w, 7, [(good + summary, 0)]).failed, 0)
        for bad_out in (
            good.replace(b"T^4 + T^3 + 1", b"T^4 + 1") + summary,  # (T + 1)^4
            good.replace(b"[3,6,6]\tequal", b"[3,6,5]\tequal") + summary,
            good.replace(b"T^4 + T^3 + 1", b"T^4 + T + 1") + summary,  # repeated prime
            good + summary.replace(b"consistent", b"refuted"),
        ):
            self.assertGreater(check(w, 7, [(bad_out, 0)]).failed, 0, bad_out)

    def test_gf2_irreducible_matches_the_count_of_irreducibles(self):
        counts = [sum(1 for b in range(1 << d, 1 << (d + 1)) if workloads.gf2_irreducible(b))
                  for d in range(1, 11)]
        self.assertEqual(counts, [2, 1, 2, 3, 6, 9, 18, 30, 56, 99])

    def test_refuses_to_run_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(BENCH, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "split-f3-exh", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
