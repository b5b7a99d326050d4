import pytest

from benchmarks.journey import stats


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))  # 1..100
    assert stats.percentile(samples, 50) == 50
    assert stats.percentile(samples, 90) == 90  # exactly 10 beyond it


def test_percentile_refuses_a_tail_with_too_few_samples_beyond_it():
    samples = list(range(1, 101))
    assert stats.samples_beyond(100, 95) == 5
    with pytest.raises(ValueError, match="5 beyond"):
        stats.percentile(samples, 95)
    assert stats.tail_or_zero(samples, 95) == 0.0
    # 200 samples put exactly ten beyond p95: the smallest sample that may report it.
    assert stats.percentile(list(range(1, 201)), 95) == 190
    with pytest.raises(ValueError):
        stats.percentile(list(range(1, 200)), 95)


def test_the_rule_guards_upper_tails_only():
    assert stats.percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert stats.percentile(list(range(1, 21)), 10) == 2
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_best_batch_rate_is_what_the_space_sustains_between_bursts():
    # 200 samples of 2 ops at 100 samples/s; a neighbour stalls most batches a little
    # and one of them for a full second.  Batches 7 and 8 run clean.
    completions, now = [], 0.0
    for index in range(200):
        clean = 70 <= index < 90
        now += 1.01 if index == 35 else (0.01 if clean else 0.013)
        completions.append(now)
    rate = stats.best_batch_rate(0.0, completions, ops_per_sample=2)
    assert rate == pytest.approx(200.0)
    assert 200 * 2 / completions[-1] < 0.6 * rate  # the whole-run rate follows the stalls


def test_best_batch_rate_leaves_out_the_unfilled_tail():
    completions = [0.1 * (i + 1) for i in range(45)]  # 20 batches of 2, 5 left over
    assert stats.best_batch_rate(0.0, completions) == pytest.approx(10.0)


def test_best_batch_rate_with_too_few_samples_is_the_whole_run():
    assert stats.best_batch_rate(0.0, [1.0, 2.0, 4.0]) == pytest.approx(0.75)
    with pytest.raises(ValueError):
        stats.best_batch_rate(0.0, [])


def test_quartile_spread_matches_the_contract_formula():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    assert stats.quartile_spread(values) == pytest.approx((17.25 - 11.75) / 14.5)
