"""Tests of the benchmark's own statistics (stats.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import statistics
import unittest

import stats


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_on_one_hundred_samples(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 0.5), 50)
        self.assertEqual(stats.percentile(values, 0.9), 90)
        self.assertEqual(stats.percentile(values, 1.0), 100)

    def test_p90_of_one_hundred_samples_has_ten_beyond_it(self):
        self.assertEqual(stats.samples_beyond(100, 0.9), 10)
        self.assertEqual(stats.samples_beyond(99, 0.9), 9)
        self.assertEqual(stats.samples_beyond(150, 0.9), 15)
        values = list(range(150))
        p90 = stats.percentile(values, 0.9)
        self.assertEqual(sum(v > p90 for v in values), stats.samples_beyond(150, 0.9))

    def test_order_of_samples_does_not_matter(self):
        self.assertEqual(stats.percentile([5, 1, 4, 2, 3], 0.5), 3)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 0.5)
        with self.assertRaises(ValueError):
            stats.percentile([1.0], 0.0)


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [3.1, 2.9, 3.3, 3.0, 3.2, 2.8, 3.4, 3.05, 3.15, 2.95]
        q1, median, q3 = stats.quartiles(values)
        self.assertEqual([q1, median, q3], statistics.quantiles(values, n=4))
        self.assertAlmostEqual(stats.relative_iqr(values), (q3 - q1) / median)

    def test_single_run_has_no_spread(self):
        self.assertEqual(stats.quartiles([2.0]), (2.0, 2.0, 2.0))
        self.assertEqual(stats.relative_iqr([2.0]), 0.0)


class VerdictTest(unittest.TestCase):
    parent = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.03, 9.97, 10.0]

    def test_consistent_gain_is_better(self):
        change = [v * 0.9 for v in self.parent]
        self.assertEqual(stats.verdict(self.parent, change, False, 0.1), stats.BETTER)
        self.assertEqual(stats.verdict(self.parent, [v * 1.1 for v in self.parent], True, 0.1),
                         stats.BETTER)

    def test_gain_needs_nine_tenths_of_pairs(self):
        # Eight wins of ten pairs is not enough, however large the shift.
        change = [v * 0.8 for v in self.parent[:8]] + [v * 1.01 for v in self.parent[8:]]
        self.assertNotEqual(stats.verdict(self.parent, change, False, 0.1), stats.BETTER)

    def test_gain_needs_a_shift_beyond_the_parent_spread(self):
        change = [v - 0.001 for v in self.parent]
        self.assertEqual(stats.verdict(self.parent, change, False, 0.1), stats.WITHIN)

    def test_loss_beyond_bound_regresses(self):
        change = [v * 1.2 for v in self.parent]
        self.assertEqual(stats.verdict(self.parent, change, False, 0.1), stats.REGRESSED)

    def test_loss_within_bound(self):
        change = [v * 1.05 for v in self.parent]
        self.assertEqual(stats.verdict(self.parent, change, False, 0.1), stats.WITHIN)

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
        self.assertEqual(stats.verdict(self.parent, noisy, False, 0.1), stats.UNRESOLVED)

    def test_wide_spread_that_always_wins_is_not_unresolved(self):
        # The parent's spread exceeds the bound and the shift is smaller
        # than the parent's interquartile range, so no gain is claimed;
        # but every change run beats every parent run, so the metric is
        # not unresolved either.
        parent = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
        change = [9.5, 9.55, 9.6, 9.65, 9.7, 9.75, 9.8, 9.85, 9.9, 9.95]
        self.assertEqual(stats.verdict(parent, change, False, 0.1), stats.WITHIN)
        self.assertEqual(stats.verdict(parent, change[:-1] + [10.5], False, 0.1), stats.UNRESOLVED)

    def test_pair_wins_ignore_ties(self):
        self.assertEqual(stats.pair_wins([1, 2, 3], [1, 1, 4], False), (1, 1))
        self.assertEqual(stats.pair_wins([1, 2, 3], [1, 1, 4], True), (1, 1))


if __name__ == "__main__":
    unittest.main()
