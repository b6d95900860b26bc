"""Tests of spread.py's summary: quartiles, spread and the bound verdict."""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import spread  # noqa: E402


class SpreadTest(unittest.TestCase):
    def test_quartiles_and_spread(self):
        s = spread.summarize([10, 1, 9, 2, 8, 3, 7, 4, 6, 5])
        self.assertEqual((s["q1"], s["median"], s["q3"]), (2.75, 5.5, 8.25))
        self.assertAlmostEqual(s["spread"], 1.0)
        # Two values extrapolate past both ends, as statistics.quantiles does.
        s = spread.summarize([1, 2])
        self.assertEqual((s["q1"], s["median"], s["q3"]), (0.75, 1.5, 2.25))

    def test_median_of_even_count_is_the_middle_mean(self):
        self.assertEqual(spread.summarize([4, 1, 3, 2])["median"], 2.5)

    def test_seed_lists(self):
        self.assertEqual(spread.parse_seeds("101-104"), [101, 102, 103, 104])
        self.assertEqual(spread.parse_seeds("3,7-8"), [3, 7, 8])

    def test_bound_verdict_exempts_setup(self):
        bounds = {"setup_s": 0.25, "query_p50_ms": 0.25}
        wide = {"spread": 0.3}
        self.assertTrue(spread.over_bound("query_p50_ms", wide, bounds))
        self.assertFalse(spread.over_bound("setup_s", wide, bounds))
        self.assertFalse(spread.over_bound("query_p50_ms", {"spread": 0.25}, bounds))
        self.assertFalse(spread.over_bound("text.analyze_us", wide, bounds))


if __name__ == "__main__":
    unittest.main()
