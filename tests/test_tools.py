"""The gain rule and the checkout preparation of tools/ab_pairs.py, and a
smoke run of tools/evalcost.py."""
import importlib.util
import os
import py_compile
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)
_SPEC = importlib.util.spec_from_file_location("evalcost",
                                               _PATH.with_name("evalcost.py"))
evalcost = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(evalcost)

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


def test_a_stale_bytecode_cache_is_rebuilt_before_the_pairs(tmp_path,
                                                           monkeypatch):
    # under PYTHONDONTWRITEBYTECODE=1 an import never replaces a stale .pyc,
    # so every fresh process of that checkout would compile the module again
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.delenv("PYTHONPYCACHEPREFIX", raising=False)
    source = tmp_path / "src" / "condcov" / "mod.py"
    source.parent.mkdir(parents=True)
    source.write_text("x = 1\n")
    cache = Path(py_compile.compile(str(source), doraise=True))
    source.write_text("x = 22\n")
    os.utime(source, (source.stat().st_atime, source.stat().st_mtime + 10))

    def stamp():
        # a timestamp .pyc records its source's mtime and size at bytes 8:16
        header = cache.read_bytes()[8:16]
        return (int.from_bytes(header[:4], "little"),
                int.from_bytes(header[4:], "little"))

    current = (int(source.stat().st_mtime), source.stat().st_size)
    assert stamp() != current
    ab_pairs._compile(tmp_path)
    assert stamp() == current


def test_the_layer_table_puts_the_sides_together_and_marks_timings():
    parent = {"linalg.cholesky.flops": {"value": 6.88e9, "unit": "flop"},
              "linalg.cholesky.self_s": {"value": 0.5, "unit": "s"},
              "trace.ops_per_s": {"value": 1.2, "unit": "1/s"},
              "predict.loo_cv.calls": {"value": 0, "unit": "count"}}
    change = {"linalg.cholesky.flops": {"value": 2.2016e9, "unit": "flop"},
              "linalg.cholesky.self_s": {"value": 0.3, "unit": "s"},
              "trace.ops_per_s": {"value": 1.5, "unit": "1/s"},
              "predict.loo_cv.calls": {"value": 0, "unit": "count"},
              "inference.new.calls": {"value": 3, "unit": "count"}}
    header, *rows = ab_pairs.layer_table(parent, change)
    assert header.split() == ["metric", "parent", "change", "change", "kind"]
    cells = {row.split()[0]: row.split()[1:] for row in rows}
    assert list(cells) == list(change)  # PARENT's order, then CHANGE's new
    assert cells["linalg.cholesky.flops"] == ["6.88e+09", "2.2016e+09",
                                              "-68.0%", "exact"]
    assert cells["linalg.cholesky.self_s"] == ["0.5", "0.3", "-40.0%", "one",
                                               "sample"]
    assert cells["trace.ops_per_s"][2:] == ["+25.0%", "one", "sample"]
    # no relative change from 0, and none for a name on one side only
    assert cells["predict.loo_cv.calls"] == ["0", "0", "-", "exact"]
    assert cells["inference.new.calls"] == ["-", "3", "-", "exact"]


def test_evalcost_prints_one_row_per_shape(capsys, monkeypatch):
    # main pins BLAS through the environment and puts src on sys.path
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert evalcost.main(["--shapes", "sim1d", "--reps", "2"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    cells = dict(zip(header.split(), row.split()))
    assert list(cells) == ["shape", "n", "m_<", "m_q", "rank", "score_ms",
                           "joint_ms", "score_peak_mb", "condition_ms",
                           "condition_peak_mb"]
    assert [cells[c] for c in ("shape", "n", "m_<", "m_q")] == [
        "sim1d", "200", "100", "200"]
    assert 0 < int(cells["rank"]) <= 200
    assert all(float(cells[c]) > 0.0 for c in list(cells)[5:])
