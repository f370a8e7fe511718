import pytest

from stats import percentile, spread, supported_tail


def test_percentile_is_nearest_rank_on_known_samples():
    samples = [15, 20, 35, 40, 50]
    assert percentile(samples, 5) == 15
    assert percentile(samples, 30) == 20
    assert percentile(samples, 40) == 20
    assert percentile(samples, 50) == 35
    assert percentile(samples, 100) == 50
    assert percentile(list(range(1, 101)), 95) == 95
    assert percentile(list(range(1, 101)), 99) == 99


def test_percentile_ignores_input_order_and_returns_a_sample():
    samples = [9.5, 1.0, 7.25, 3.0]
    assert percentile(samples, 75) == 7.25
    assert percentile(samples, 76) == 9.5
    assert percentile([4.2], 95) == 4.2


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1], 0)
    with pytest.raises(ValueError):
        percentile([1], 101)


def test_supported_tail_needs_ten_samples_beyond():
    assert supported_tail(99) is None
    assert supported_tail(100) == 90
    assert supported_tail(199) == 90
    assert supported_tail(200) == 95
    assert supported_tail(216) == 95
    assert supported_tail(1000) == 99


def test_spread_is_interquartile_distance_over_median():
    values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    # statistics.quantiles(n=4) gives 2.75 and 8.25 for these ten values
    assert spread(values) == pytest.approx((8.25 - 2.75) / 5.5)
    assert spread([5.0] * 10) == 0
