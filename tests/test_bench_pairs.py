"""The summary math of ``tools/bench_pairs.py`` on canned rounds (no runs)."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _pairs(base, head, name="wall_s"):
    return [{"base": {name: b}, "head": {name: h}} for b, h in zip(base, head)]


def test_quartiles_are_numpy_linear_percentiles():
    rng = np.random.default_rng(5)
    for size in (2, 3, 4, 7, 10, 11):
        values = rng.uniform(0.4, 0.9, size).tolist()
        want = np.percentile(values, [25, 50, 75])
        assert bench_pairs.quartiles(values) == pytest.approx(want, rel=1e-12)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == pytest.approx((1.75, 2.5, 3.25))
    assert bench_pairs.quartiles([0.7]) == (0.7, 0.7, 0.7)


def test_summary_counts_strict_wins_in_the_metric_direction():
    # lower is better: the head wins pairs 0, 1, 3 and 4; pair 2 is a loss
    s = bench_pairs.summarize(_pairs([1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 1.5, 3.5, 3.0, 4.0]),
                              {"wall_s": "lower"})["wall_s"]
    assert (s["pairs"], s["wins"]) == (5, 4)
    assert s["base"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert s["head"] == {"median": 3.0, "q1": 1.5, "q3": 3.5}
    assert s["median_gain"] == 0.0 and not s["clear_gain"]
    # higher is better, and a tie is no win
    s = bench_pairs.summarize(_pairs([4.0, 4.0, 4.0], [5.0, 4.0, 3.0], "ops_per_s"),
                              {"ops_per_s": "higher"})["ops_per_s"]
    assert s["wins"] == 1 and s["median_gain"] == 0.0 and s["better"] == "higher"


def test_clear_gain_needs_nine_wins_in_ten_and_a_gap_past_the_base_spread():
    base = [0.70, 0.72, 0.66, 0.86, 0.75, 0.71, 0.73, 0.69, 0.74, 0.72]
    head = [0.50, 0.51, 0.48, 0.52, 0.49, 0.50, 0.50, 0.51, 0.49, 0.80]
    s = bench_pairs.summarize(_pairs(base, head), {"wall_s": "lower"})["wall_s"]
    assert s["wins"] == 9 and s["clear_gain"]
    assert s["median_gain"] == pytest.approx(0.72 - 0.50)
    # eight wins in ten is not enough, whatever the gap
    s = bench_pairs.summarize(_pairs(base, head[:8] + [0.9, 0.9]), {"wall_s": "lower"})
    assert s["wall_s"]["wins"] == 8 and not s["wall_s"]["clear_gain"]
    # every pair won, but by less than the base's interquartile range
    s = bench_pairs.summarize(_pairs(base, [b - 0.01 for b in base]), {"wall_s": "lower"})
    assert s["wall_s"]["wins"] == 10 and not s["wall_s"]["clear_gain"]


def test_no_clear_gain_when_the_head_fails_more_or_is_incorrect():
    base = [0.70, 0.72, 0.66, 0.86, 0.75, 0.71, 0.73, 0.69, 0.74, 0.72]
    head = [0.50, 0.51, 0.48, 0.52, 0.49, 0.50, 0.50, 0.51, 0.49, 0.50]

    def clear(base_runs, head_runs):
        pairs = [{"base": {"wall_s": b, **rb}, "head": {"wall_s": h, **rh}}
                 for b, h, rb, rh in zip(base, head, base_runs, head_runs)]
        return bench_pairs.summarize(pairs, {"wall_s": "lower"})["wall_s"]["clear_gain"]

    ok = [{"correct": True, "failed": 0}] * 10
    assert clear(ok, ok)
    assert not clear(ok, ok[:9] + [{"correct": True, "failed": 1}])
    assert not clear(ok, ok[:9] + [{"correct": False, "failed": 0}])
    # the same failures on both sides still count
    one = ok[:9] + [{"correct": True, "failed": 1}]
    assert clear(one, one)


def test_no_clear_gain_when_the_two_sides_results_differ():
    # a change of results is measured, but claims no gain
    base = [0.70, 0.72, 0.66, 0.86, 0.75, 0.71, 0.73, 0.69, 0.74, 0.72]
    head = [0.50, 0.51, 0.48, 0.52, 0.49, 0.50, 0.50, 0.51, 0.49, 0.50]
    pairs = _pairs(base, head)
    same = bench_pairs.summarize(pairs, {"wall_s": "lower"}, same_results=True)["wall_s"]
    differ = bench_pairs.summarize(pairs, {"wall_s": "lower"}, same_results=False)["wall_s"]
    assert same["clear_gain"] and not differ["clear_gain"]
    assert {k: v for k, v in differ.items() if k != "clear_gain"} == {
        k: v for k, v in same.items() if k != "clear_gain"}


def test_run_spec_parses():
    assert bench_pairs._parse_run("shadows:42:10") == ("shadows", 42, 10)
    with pytest.raises(ValueError):
        bench_pairs._parse_run("shadows:42")
