"""Tests for the benchmark's parsers, readers and metric catalogue.

    python3 -m unittest discover -s edbpbench/tests
"""

import json
import math
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
import benchlib as bl  # noqa: E402


class SummaryLine(unittest.TestCase):
    def test_cold_suite_line(self):
        text = (
            "wrote /tmp/r/exp_table1.txt\n"
            "suite: 20 experiments, 4080 runs requested, 2440 unique after dedup, "
            "2440 simulated, 0 failed, 19.8s\n"
        )
        self.assertEqual(
            bl.parse_suite_summary(text),
            {"experiments": 20, "requested": 4080, "unique": 2440, "simulated": 2440, "failed": 0,
             "seconds": 19.8},
        )

    def test_failed_jobs_are_read(self):
        s = bl.parse_suite_summary(
            "suite: 20 experiments, 4080 runs requested, 2440 unique after dedup, 3 simulated, 2 failed, 0.1s"
        )
        self.assertEqual((s["simulated"], s["failed"]), (3, 2))

    def test_missing_or_mangled_line(self):
        self.assertIsNone(bl.parse_suite_summary("wrote x\n"))
        self.assertIsNone(bl.parse_suite_summary("suite: 20 experiments, many runs requested"))


class WorkerLine(unittest.TestCase):
    def test_worker_summary(self):
        line = (
            "worker pid=5034: completed=1253 adopted=1187 stolen_leases=0 busy_skips=787 "
            "retries=2 failed=0 wall=5.0s"
        )
        w = bl.parse_worker_line("shard 0/2: 10 of 20 unique job(s)\n" + line + "\n")
        self.assertEqual(w["pid"], 5034)
        self.assertEqual((w["completed"], w["adopted"], w["busy_skips"], w["retries"]), (1253, 1187, 787, 2))
        self.assertEqual(w["failed"], 0)
        self.assertEqual(w["wall"], 5.0)

    def test_no_worker_line(self):
        self.assertIsNone(bl.parse_worker_line("worker failure summary (1 job(s)):\n"))


class HelperRecords(unittest.TestCase):
    def test_records(self):
        rec = bl.parse_records(
            "M wall_s 5.97529377 s\n"
            "C solo.deterministic ok 2 pass(es)\n"
            "C cpu.instructions_match_committed FAIL 1 stepped vs 2 committed\n"
            "I digest 6cb5307b8c0bc772\n"
            "A 24 1\n"
            "A 6 0\n"
            "thread 'main' panicked at ...\n"
        )
        self.assertEqual(rec["metrics"], {"wall_s": (5.97529377, "s")})
        self.assertEqual(rec["checks"][0], ("solo.deterministic", True, "2 pass(es)"))
        self.assertEqual(rec["checks"][1][:2], ("cpu.instructions_match_committed", False))
        self.assertEqual(rec["info"]["digest"], "6cb5307b8c0bc772")
        self.assertEqual((rec["attempted"], rec["failed"]), (30, 1))

    def test_failed_runs_fail_the_verdict_without_a_failed_check(self):
        rec = bl.parse_records("C solo.deterministic ok 1 pass(es)\nA 24 1\n")
        self.assertFalse(bl.is_correct([], rec["attempted"], rec["failed"]))
        rec = bl.parse_records("C solo.deterministic ok 1 pass(es)\nA 24 0\n")
        self.assertTrue(bl.is_correct([], rec["attempted"], rec["failed"]))
        self.assertFalse(bl.is_correct(["solo.runs_completed: 1 of 24 failed"], 24, 0))
        self.assertFalse(bl.is_correct([], 0, 0))


class Host(unittest.TestCase):
    def test_host_context_reads_proc(self):
        host = bl.host_context()
        self.assertGreaterEqual(host["nproc"], 1)
        self.assertEqual(len(host["loadavg"].split(",")), 3)
        self.assertTrue(host["cpu"])
        self.assertGreaterEqual(host["steal_ticks"], 0)

    def test_steal_ticks_from_proc_stat(self):
        line = "cpu  173292 0 8804 357683 2144 0 382 3168 0 0\n"
        self.assertEqual(bl.cpu_ticks(line), (3168, 173292 + 8804 + 357683 + 2144 + 382 + 3168))
        self.assertEqual(bl.cpu_ticks("intr 1 2 3"), (0, 0))


class ChildUsage(unittest.TestCase):
    def test_reap_reports_cpu_rss_and_output_of_one_child(self):
        import tempfile

        import run

        with tempfile.TemporaryDirectory() as tmp:
            log = Path(tmp) / "child.log"
            busy = "x = bytearray(64 << 20)\nfor i in range(3_000_000): pass\nprint('done')"
            proc = run.reap(run.spawn([sys.executable, "-c", busy], log))
        self.assertEqual(proc.code, 0)
        self.assertEqual(proc.text.strip(), "done")
        self.assertGreater(proc.cpu, 0.0)
        self.assertGreaterEqual(proc.wall, proc.cpu * 0.5)
        self.assertGreater(proc.rss_mb, 64)
        self.assertFalse(run.LIVE)


class Catalogue(unittest.TestCase):
    def test_names_and_units_are_valid(self):
        for cat in (bl.E2E, bl.PER_LAYER):
            for name, (unit, better) in cat.items():
                self.assertRegex(name, bl.NAME_RE)
                self.assertRegex(unit, bl.UNIT_RE)
                self.assertIn(better, ("lower", "higher"))
        self.assertFalse(set(bl.E2E) & set(bl.PER_LAYER))
        self.assertLessEqual(len(bl.PER_LAYER), 128)

    def test_benchmark_json_lists_the_catalogue(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}, bl.E2E
        )
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}, bl.PER_LAYER
        )
        self.assertTrue(any(m["name"] == "setup_s" for m in spec["end_to_end"]))
        for m in spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        import run

        names = [w["name"] for w in spec["workloads"]]
        self.assertEqual(names, ["solo_rfhome", "solo_thermal"])
        self.assertEqual(names, run.WORKLOADS)

    def test_validation_flags_bad_output(self):
        good = {name: {"value": 1.5, "unit": unit} for name, (unit, _) in bl.E2E.items()}
        self.assertEqual(bl.validate_metrics(good, bl.E2E), [])
        bad = dict(good)
        bad["wall_s"] = {"value": 1.0, "unit": "ms"}
        bad["sim_mips"] = {"value": math.nan, "unit": "MIPS"}
        bad["bad name!"] = {"value": 1.0, "unit": "s"}
        del bad["cpu_s"]
        problems = "\n".join(bl.validate_metrics(bad, bl.E2E))
        for needle in ("missing metric cpu_s", "wall_s: unit", "sim_mips: value", "invalid metric name"):
            self.assertIn(needle, problems)

    def test_result_line_has_exactly_the_contract_keys(self):
        line = bl.result_line(True, 10, 0, {"wall_s": {"value": 1.25, "unit": "s"}})
        self.assertEqual(list(json.loads(line)), ["correct", "attempted", "failed", "metrics"])


if __name__ == "__main__":
    unittest.main()
