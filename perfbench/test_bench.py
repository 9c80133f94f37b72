#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/test_bench.py

They build the benchmark (as run.py does) and check that
  * the output check compares counts exactly and reals within 1e-6;
  * a changed reference makes run.py fail with a non-zero exit code;
  * the work ledger repeats exactly across two runs and across 1 vs 4
    workers, on every workload.
"""
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SCRATCH = os.path.join(run.ROOT, ".bench_build", "perfbench-test")


def ledger(workload, jobs):
    proc = subprocess.run(
        [run.BINARY, "--workload", workload, "--seed", "3", "--seconds",
         "0.1", "--trace", "1", "--jobs", str(jobs), "--out", SCRATCH],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        cwd=run.ROOT, check=True)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("LEDGER ")]
    assert len(lines) == 1, proc.stdout
    return json.loads(lines[0][len("LEDGER "):])


class CompareRows(unittest.TestCase):
    ROW = {"key": "a", "labels": {"final_state": "ended"},
           "counts": {"stalls": 2, "total_bytes": 1000},
           "reals": {"stall_s": 3.25, "startup_s": 0.0}}

    def changed(self, kind, name, value):
        row = json.loads(json.dumps(self.ROW))
        row[kind][name] = value
        return run.compare_rows([self.ROW], [row])

    def test_identical_rows_match(self):
        self.assertEqual(run.compare_rows([self.ROW], [self.ROW]), [])

    def test_reals_within_tolerance_match(self):
        self.assertEqual(self.changed("reals", "stall_s", 3.25 * (1 + 5e-7)),
                         [])

    def test_reals_beyond_tolerance_differ(self):
        self.assertEqual(
            len(self.changed("reals", "stall_s", 3.25 * (1 + 2e-6))), 1)
        self.assertEqual(len(self.changed("reals", "startup_s", 1e-6)), 1)

    def test_counts_and_labels_are_exact(self):
        self.assertEqual(len(self.changed("counts", "total_bytes", 1001)), 1)
        self.assertEqual(len(self.changed("labels", "final_state", "error")),
                         1)

    def test_missing_and_extra_rows_differ(self):
        extra = dict(self.ROW, key="b")
        self.assertEqual(len(run.compare_rows([self.ROW], [])), 1)
        self.assertEqual(len(run.compare_rows([self.ROW], [self.ROW, extra])),
                         1)


class EndToEnd(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.makedirs(SCRATCH, exist_ok=True)
        with contextlib.redirect_stdout(sys.stderr):
            if not run.build():
                raise unittest.SkipTest("benchmark does not build")

    def test_changed_reference_fails_the_run(self):
        reference = os.path.join(SCRATCH, "reference")
        os.makedirs(reference, exist_ok=True)
        rows = run.read_jsonl(
            os.path.join(run.REFERENCE, "sweep_paper.jsonl"))
        rows[0]["reals"]["stall_s"] += 1.0
        with open(os.path.join(reference, "sweep_paper.jsonl"), "w") as f:
            f.writelines(json.dumps(row) + "\n" for row in rows)
        saved_reference, saved_argv = run.REFERENCE, sys.argv
        run.REFERENCE = reference
        sys.argv = ["run.py", "--workload", "sweep_paper", "--seed", "0",
                    "--seconds", "0.1", "--trace", "0"]
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = run.main()
        finally:
            run.REFERENCE, sys.argv = saved_reference, saved_argv
            shutil.rmtree(reference)
        result = json.loads(out.getvalue().splitlines()[-1])
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)

    def test_ledger_repeats_across_runs_and_workers(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = ledger(workload, 4)
                self.assertGreater(first["services.builds"], 0)
                self.assertEqual(ledger(workload, 4), first)
                self.assertEqual(ledger(workload, 1), first)


if __name__ == "__main__":
    unittest.main()
