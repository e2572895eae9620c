#!/usr/bin/env python3
"""The verdict rule of scripts/perf_ab.py on canned pairs.

    python3 scripts/perf_ab_test.py
"""
import unittest

from perf_ab import judge

# Ten base runs of a throughput-like metric: median 10.0, IQR 0.175.
BASE = [9.7, 9.8, 9.9, 9.95, 10.0, 10.0, 10.05, 10.1, 10.2, 10.3]


class Verdict(unittest.TestCase):
    def verdict(self, base, change, better="higher", **failed):
        return judge(base, change, better, 0.25, **failed)["verdict"]

    def test_uniform_2x_slowdown_is_slower(self):
        self.assertEqual(self.verdict(BASE, [b / 2 for b in BASE]), "slower")

    def test_identical_runs_are_no_change(self):
        self.assertEqual(self.verdict(BASE, list(BASE)), "no change")

    def test_nine_wins_beyond_the_base_iqr_are_faster(self):
        change = [b + 0.5 for b in BASE]
        change[3] = BASE[3] - 0.1  # one lost pair
        result = judge(BASE, change, "higher", 0.25)
        self.assertEqual((result["wins"], result["losses"]), (9, 1))
        self.assertEqual(result["verdict"], "faster")

    def test_wins_inside_the_base_iqr_are_no_change(self):
        change = [b + 0.1 for b in BASE]
        self.assertEqual(self.verdict(BASE, change), "no change")

    def test_eight_wins_are_no_change(self):
        change = [b + 0.5 for b in BASE]
        change[3] = change[7] = 9.0
        self.assertEqual(self.verdict(BASE, change), "no change")

    def test_losses_within_the_bound_are_no_change(self):
        change = [b * 0.9 for b in BASE]
        self.assertEqual(self.verdict(BASE, change), "no change")

    def test_more_failed_ops_are_slower(self):
        self.assertEqual(
            self.verdict(BASE, list(BASE), base_failed=0.0,
                         change_failed=1e-6), "slower")

    def test_lower_is_better_reads_the_other_way(self):
        doubled = [b * 2 for b in BASE]
        halved = [b / 2 for b in BASE]
        self.assertEqual(self.verdict(BASE, doubled, "lower"), "slower")
        self.assertEqual(self.verdict(BASE, halved, "lower"), "faster")
        self.assertEqual(self.verdict(BASE, doubled, "higher"), "faster")


if __name__ == "__main__":
    unittest.main()
