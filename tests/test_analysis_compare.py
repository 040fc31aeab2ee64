"""Statistical comparison helpers."""

import pytest

from repro.analysis.compare import (format_ranking,
    rank_algorithms,
    summarize,
    welch_t)


def test_summarize_basic():
    summary = summarize([2.0, 4.0, 6.0])
    assert summary.n == 3
    assert summary.mean == pytest.approx(4.0)
    assert summary.stddev == pytest.approx(2.0)
    # t(2, 95%) = 4.303; ci = 4.303 * 2/sqrt(3)
    assert summary.ci95 == pytest.approx(4.303 * 2 / 3 ** 0.5, rel=1e-3)
    assert summary.low == pytest.approx(summary.mean - summary.ci95)
    assert summary.high == pytest.approx(summary.mean + summary.ci95)


def test_summarize_single_value():
    summary = summarize([5.0])
    assert summary.mean == 5.0
    assert summary.stddev == 0.0
    assert summary.ci95 == 0.0


def test_summarize_empty_rejected():
    with pytest.raises(ValueError):
        summarize([])


def test_summarize_constant_sample():
    summary = summarize([3.0, 3.0, 3.0, 3.0])
    assert summary.stddev == 0.0
    assert summary.ci95 == 0.0


def test_welch_t_sign():
    low = [1.0, 1.1, 0.9, 1.05]
    high = [2.0, 2.1, 1.9, 2.05]
    assert welch_t(low, high) < 0
    assert welch_t(high, low) > 0


def test_welch_t_degenerate():
    assert welch_t([1.0], [2.0]) == 0.0
    assert welch_t([1.0, 1.0], [1.0, 1.0]) == 0.0


def test_rank_algorithms_orders_by_mean():
    ranking = rank_algorithms({
        "slow": [10.0, 11.0, 10.5],
        "fast": [5.0, 5.2, 4.9],
        "mid": [7.0, 7.1, 7.2],
    })
    assert [row.name for row in ranking] == ["fast", "mid", "slow"]
    assert ranking[0].clearly_worse_than_best is False
    assert ranking[-1].clearly_worse_than_best is True


def test_rank_algorithms_overlapping_cis_not_flagged():
    ranking = rank_algorithms({
        "a": [10.0, 20.0],     # wide CI
        "b": [12.0, 22.0],
    })
    assert not ranking[1].clearly_worse_than_best


def test_rank_algorithms_empty_rejected():
    with pytest.raises(ValueError):
        rank_algorithms({})


def test_format_ranking_output():
    ranking = rank_algorithms({"a": [1.0, 1.2], "b": [3.0, 3.3]})
    text = format_ranking(ranking, unit="min")
    assert "a" in text and "b" in text and "min" in text
    assert len(text.splitlines()) == 4  # header + 2 rows + footer
