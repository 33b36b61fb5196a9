"""Tests of the comparison verdicts on synthetic runs.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from compare import compare, load, verdict  # noqa: E402

BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


class Verdicts(unittest.TestCase):
    def test_clear_gain_is_improved(self):
        v, won, _, _ = verdict(BASE, [x * 0.9 for x in BASE], 0.1, True)
        self.assertEqual((v, won), ("improved", 1.0))

    def test_gain_on_a_higher_is_better_metric(self):
        v, _, _, _ = verdict(BASE, [x * 1.1 for x in BASE], 0.1, False)
        self.assertEqual(v, "improved")

    def test_small_change_is_within_bound(self):
        v, _, _, _ = verdict(BASE, [x * 1.02 for x in BASE], 0.1, True)
        self.assertEqual(v, "within bound")

    def test_gain_smaller_than_the_parents_spread_is_not_claimed(self):
        noisy = [90.0, 110.0, 95.0, 105.0, 100.0, 92.0, 108.0, 97.0, 103.0, 100.0]
        # Wins every pair by 1, but the parent's quartile spread is ~11.
        v, won, _, _ = verdict(noisy, [x - 1 for x in noisy], 0.25, True)
        self.assertEqual((v, won), ("within bound", 1.0))

    def test_regression_past_the_bound_is_worse(self):
        v, won, _, _ = verdict(BASE, [x * 1.2 for x in BASE], 0.1, True)
        self.assertEqual((v, won), ("worse", 0.0))

    def test_spread_wider_than_the_bound_is_unresolved(self):
        wide = [50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0]
        v, _, _, _ = verdict(wide, [x * 1.5 for x in wide], 0.1, True)
        self.assertEqual(v, "unresolved")

    def test_wide_spread_but_every_change_run_better_is_improved(self):
        wide = [100.0, 140.0, 100.0, 140.0]
        v, _, _, _ = verdict(wide, [10.0, 14.0, 10.0, 14.0], 0.1, True)
        self.assertEqual(v, "improved")

    def test_ties_count_for_neither_side(self):
        _, won, _, _ = verdict(BASE, BASE, 0.1, True)
        self.assertEqual(won, 0.0)


class Logs(unittest.TestCase):
    def test_records_pair_by_workload_and_seed(self):
        bench = {
            "workloads": [{"name": "sis"}],
            "end_to_end": [{"name": "p50_us", "unit": "us", "better": "lower", "bound": 0.1}],
        }

        def log(values, trace_value):
            lines = ["report line\n"]
            for seed, v in enumerate(values):
                lines.append('record: {"workload": "sis", "seed": %d, "trace": 0, '
                             '"metrics": {"p50_us": {"value": %s, "unit": "us"}}}\n' % (seed, v))
            lines.append('record: {"workload": "sis", "seed": 0, "trace": 1, '
                         '"metrics": {"p50_us": {"value": %s, "unit": "us"}}}\n' % trace_value)
            f = tempfile.NamedTemporaryFile("w", suffix=".log", delete=False)
            f.writelines(lines)
            f.close()
            self.addCleanup(os.unlink, f.name)
            return f.name

        parent = load(log(BASE, 1e9))
        change = load(log([x * 0.8 for x in BASE], 1.0))
        self.assertEqual(parent[("sis", 0)]["p50_us"], 100.0)
        rows = compare(parent, change, bench)
        self.assertEqual(len(rows), 1)
        self.assertEqual(rows[0][-1], "improved")
        self.assertEqual(rows[0][3], len(BASE))


if __name__ == "__main__":
    unittest.main()
