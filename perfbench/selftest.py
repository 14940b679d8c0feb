"""Self-tests of the benchmark: trace accounting, bypass counts, report gate.

Run from the root of a checkout (about a minute; it makes one traced
certification each of heis-id, f2-id and table-z2):

    python3 perfbench/selftest.py
"""

import os
import sys
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402

TRACED = ("heis-id", "f2-id", "table-z2")


def certification(name: str, traced: bool) -> dict:
    seed = workloads.DEFAULT_SEED
    workloads.prepare(name, seed, run.ROOT)
    _, result, error = run.spawn(["certify", name, str(seed), str(int(traced))],
                                 time.perf_counter() + run.DEADLINE_SLACK_S)
    if error is not None:
        raise RuntimeError(f"{name} failed: {error}")
    return result


class TracedRuns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.results = {name: certification(name, traced=True) for name in TRACED}

    def test_self_times_under_run_all_sum_to_its_span(self):
        for name, res in self.results.items():
            with self.subTest(workload=name):
                self.assertGreater(res["run_all_span_s"], 0)
                self.assertAlmostEqual(res["run_all_tree_self_s"], res["run_all_span_s"],
                                       delta=1e-6)

    def test_bypass_counts_are_zero(self):
        layers = {name: res["layers"] for name, res in self.results.items()}
        self.assertEqual(layers["heis-id"]["coarse.estimate_moduli.calls"], 0)
        self.assertEqual(layers["f2-id"]["coarse.estimate_moduli.calls"], 0)
        self.assertEqual(layers["f2-id"]["certify.check_g_action.calls"], 0)
        self.assertEqual(layers["table-z2"]["certify.check_g_action.calls"], 0)
        # the same counters are live where the layer runs, so a zero above
        # is not a wrapper that was never installed
        self.assertEqual(layers["table-z2"]["coarse.estimate_moduli.calls"], 1)
        self.assertEqual(layers["heis-id"]["certify.check_g_action.calls"], 1)

    def test_traced_reports_pass_the_gate(self):
        for name, res in self.results.items():
            with self.subTest(workload=name):
                self.assertIsNone(workloads.check_report(
                    name, workloads.DEFAULT_SEED, res["report"], None))


class ReportGate(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.report = certification("f2-id", traced=False)["report"]

    def tampered(self) -> str:
        return self.report.replace('"population": 17', '"population": 18', 1)

    def test_pinned_report_passes(self):
        self.assertIsNone(workloads.check_report("f2-id", 0, self.report, None))

    def test_tampered_report_fails_at_default_seed(self):
        self.assertNotEqual(self.tampered(), self.report)
        self.assertIsNotNone(workloads.check_report("f2-id", 0, self.tampered(), None))

    def test_tampered_report_fails_at_other_seed(self):
        other = self.report.replace('"seed": 0', '"seed": 7', 1)
        self.assertIsNone(workloads.check_report("f2-id", 7, other, None))
        bad = self.tampered().replace('"seed": 0', '"seed": 7', 1)
        self.assertIsNotNone(workloads.check_report("f2-id", 7, bad, None))

    def test_seeded_input_must_repeat_and_not_fail(self):
        self.assertIsNone(workloads.check_report("table-z2", 7, self.report, None))
        self.assertIsNotNone(workloads.check_report("table-z2", 7, self.tampered(),
                                                    self.report))
        failing = self.report.replace('"status": "pass"', '"status": "fail"', 1)
        self.assertIsNotNone(workloads.check_report("table-z2", 7, failing, None))


if __name__ == "__main__":
    unittest.main()
