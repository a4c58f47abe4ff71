"""The gain rule of tools/ab_pairs.py."""
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)

PARENT = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]


def _shifted(delta, losers=()):
    """PARENT moved by delta, except the pairs in ``losers``, moved back."""
    return [p - delta if k in losers else p + delta
            for k, p in enumerate(PARENT)]


def test_a_clear_gain_holds_in_the_better_direction():
    verdict = ab_pairs.compare(PARENT, _shifted(2.0), higher=True)
    assert verdict["wins"] == 10 and verdict["losses"] == 0
    assert verdict["gain"]
    assert verdict["relative"] == pytest.approx(0.2)
    # the same numbers are a loss where lower is better
    verdict = ab_pairs.compare(PARENT, _shifted(2.0), higher=False)
    assert verdict["wins"] == 0 and verdict["losses"] == 10
    assert not verdict["gain"]
    assert ab_pairs.compare(PARENT, _shifted(-2.0), higher=False)["gain"]


def test_wins_must_reach_nine_tenths_of_the_pairs():
    assert ab_pairs.compare(PARENT, _shifted(2.0, losers={3}), True)["gain"]
    verdict = ab_pairs.compare(PARENT, _shifted(2.0, losers={3, 5}), True)
    assert verdict["wins"] == 8 and verdict["losses"] == 2
    assert not verdict["gain"]


def test_the_median_gap_must_exceed_the_parents_interquartile_range():
    q1, _, q3 = ab_pairs._quartiles(PARENT)
    iqr = q3 - q1
    assert ab_pairs.compare(PARENT, _shifted(1.01 * iqr), True)["gain"]
    verdict = ab_pairs.compare(PARENT, _shifted(0.99 * iqr), True)
    assert verdict["wins"] == 10
    assert not verdict["gain"]


def test_ties_count_for_neither_side():
    change = _shifted(2.0)
    change[0] = PARENT[0]
    verdict = ab_pairs.compare(PARENT, change, higher=True)
    assert verdict["wins"] == 9 and verdict["losses"] == 0
    assert verdict["gain"]
    change[1] = PARENT[1]
    verdict = ab_pairs.compare(PARENT, change, higher=True)
    assert verdict["wins"] == 8 and verdict["losses"] == 0
    assert not verdict["gain"]
    verdict = ab_pairs.compare(PARENT, list(PARENT), higher=True)
    assert (verdict["wins"], verdict["losses"]) == (0, 0)
    assert verdict["relative"] == 0.0 and not verdict["gain"]


def test_worse_beyond_bound_follows_the_better_direction():
    # medians 10.0 -> 7.0: -30% where higher is better, beyond a 25% bound
    verdict = ab_pairs.compare(PARENT, _shifted(-3.0), True, bound=0.25)
    assert verdict["relative"] == pytest.approx(-0.3)
    assert verdict["worse"] and not verdict["gain"]
    assert not ab_pairs.compare(PARENT, _shifted(-3.0), True, bound=0.35)["worse"]
    # the same move is a gain where lower is better, never worse
    verdict = ab_pairs.compare(PARENT, _shifted(-3.0), False, bound=0.25)
    assert verdict["gain"] and not verdict["worse"]
    # +30% is worse where lower is better, and a gain where higher is
    assert ab_pairs.compare(PARENT, _shifted(3.0), False, bound=0.25)["worse"]
    assert not ab_pairs.compare(PARENT, _shifted(3.0), True, bound=0.25)["worse"]


def test_worse_needs_more_than_the_bound():
    # 9% and 11% worse where lower is better, against a 10% bound
    verdict = ab_pairs.compare(PARENT, [p * 1.09 for p in PARENT], False,
                               bound=0.1)
    assert verdict["losses"] == 10 and not verdict["worse"]
    assert ab_pairs.compare(PARENT, [p * 1.11 for p in PARENT], False,
                            bound=0.1)["worse"]
    # without a bound, never worse
    assert not ab_pairs.compare(PARENT, _shifted(5.0), False)["worse"]
