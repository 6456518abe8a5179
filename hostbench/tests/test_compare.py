"""Tests of compare mode's verdicts on synthetic result sets."""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import compare  # noqa: E402


def write_set(directory, values, metric="iter_ms_p50", better="lower", workload="w"):
    os.makedirs(directory, exist_ok=True)
    for seed, value in enumerate(values):
        rec = {"workload": workload, "seed": seed, "trace": 0,
               "config": {"threads": 2},
               "metrics": {metric: {"value": value, "unit": "ms", "better": better}},
               "per_layer": {}}
        with open(os.path.join(directory, f"{workload}-seed{seed}-trace0.json"), "w") as f:
            json.dump(rec, f)


class VerdictTest(unittest.TestCase):
    def run_compare(self, parent, change, better="lower", bound=0.1):
        with tempfile.TemporaryDirectory() as tmp:
            write_set(os.path.join(tmp, "p"), parent, better=better)
            write_set(os.path.join(tmp, "c"), change, better=better)
            rows = compare.compare(compare.load_records(os.path.join(tmp, "p")),
                                   compare.load_records(os.path.join(tmp, "c")),
                                   {"iter_ms_p50": bound})
        self.assertEqual(len(rows), 1)
        return rows[0]

    def test_improved(self):
        parent = [100, 101, 99, 100.5, 100, 99.5, 100, 101, 99, 100]
        row = self.run_compare(parent, [v * 0.9 for v in parent])
        self.assertEqual(row["verdict"], "improved")
        self.assertEqual((row["wins"], row["pairs"]), (10, 10))

    def test_improved_when_higher_is_better(self):
        parent = [100, 101, 99, 100.5, 100, 99.5, 100, 101, 99, 100]
        row = self.run_compare(parent, [v * 1.1 for v in parent], better="higher")
        self.assertEqual(row["verdict"], "improved")

    def test_worse(self):
        parent = [100, 101, 99, 100.5, 100, 99.5, 100, 101, 99, 100]
        row = self.run_compare(parent, [v * 1.1 for v in parent])
        self.assertEqual(row["verdict"], "worse")
        self.assertEqual(row["wins"], 0)

    def test_no_change(self):
        parent = [100, 101, 99, 100.5, 100, 99.5, 100, 101, 99, 100]
        change = [101, 100, 100, 99.5, 100.5, 100, 99, 100, 100, 101]
        self.assertEqual(self.run_compare(parent, change)["verdict"], "no-change")

    def test_eight_wins_of_ten_is_not_a_gain(self):
        parent = [100] * 10
        change = [90] * 8 + [110, 110]
        self.assertEqual(self.run_compare(parent, change, bound=0.5)["verdict"], "no-change")

    def test_gap_inside_parent_spread_is_not_a_gain(self):
        parent = [80, 90, 100, 110, 120, 80, 90, 100, 110, 120]
        change = [v - 1 for v in parent]
        self.assertEqual(self.run_compare(parent, change, bound=0.5)["verdict"], "no-change")

    def test_unresolved_when_parent_spread_exceeds_bound(self):
        parent = [60, 80, 100, 120, 140, 60, 80, 100, 120, 140]
        change = [v + 1 for v in parent]
        self.assertEqual(self.run_compare(parent, change, bound=0.1)["verdict"], "unresolved")

    def test_worse_by_more_than_bound(self):
        parent = [100, 102, 98, 101, 99, 100, 102, 98, 101, 99]
        change = [108, 109, 107, 108, 97, 108, 109, 97, 108, 97]
        row = self.run_compare(parent, change, bound=0.05)
        self.assertEqual(row["verdict"], "worse")

    def test_fewer_than_ten_pairs_is_unresolved(self):
        row = self.run_compare([100, 101, 99], [80, 81, 79])
        self.assertEqual(row["verdict"], "unresolved")
        self.assertEqual((row["wins"], row["pairs"]), (3, 3))

    def test_one_pair_is_unresolved(self):
        self.assertEqual(self.run_compare([100], [200])["verdict"], "unresolved")

    def test_gap_text_prints_its_base(self):
        row = self.run_compare([100] * 10, [90] * 10)
        self.assertIn("of 100", compare.gap_text(row))


class CliTest(unittest.TestCase):
    def test_usage_error(self):
        self.assertEqual(compare.main(["only-one"]), 2)

    def test_missing_directory(self):
        with tempfile.TemporaryDirectory() as tmp:
            self.assertEqual(compare.main([os.path.join(tmp, "a"), os.path.join(tmp, "b")]), 2)

    def test_prints_a_row_per_metric(self):
        with tempfile.TemporaryDirectory() as tmp:
            write_set(os.path.join(tmp, "p"), [100] * 10)
            write_set(os.path.join(tmp, "c"), [90] * 10)
            self.assertEqual(compare.main([os.path.join(tmp, "p"), os.path.join(tmp, "c")]), 0)


if __name__ == "__main__":
    unittest.main()
