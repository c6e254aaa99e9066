"""The benchmark's own arithmetic."""

import math

import pytest

from perfbench import stats


class TestTailPercentile:
    def test_highest_percentile_with_ten_samples_beyond(self):
        # 100 samples: p90 leaves exactly ten beyond it, p91 only nine
        assert stats.tail_percentile(100) == 90
        assert stats.tail_percentile(200) == 95
        assert stats.tail_percentile(1000) == 99

    def test_capped_at_p99(self):
        assert stats.tail_percentile(100000) == 99

    def test_no_percentile_for_ten_or_fewer(self):
        assert stats.tail_percentile(10) is None
        assert stats.tail_percentile(1) is None
        assert stats.tail_percentile(11) == 9

    def test_tail_reports_value_percentile_and_count(self):
        values = list(range(1, 101))  # 1..100
        value, q, n = stats.tail(values)
        assert (q, n) == (90, 100)
        assert value == pytest.approx(stats.percentile(values, 90))
        beyond = sum(1 for v in values if v > value)
        assert beyond >= 10

    def test_small_sample_falls_back_to_maximum(self):
        assert stats.tail([3.0, 1.0, 2.0]) == (3.0, None, 3)

    def test_percentile_interpolates(self):
        assert stats.percentile([0.0, 10.0], 50) == 5.0
        assert stats.percentile([4.0], 99) == 4.0
        with pytest.raises(ValueError):
            stats.percentile([], 50)


class TestSelfTime:
    def test_duration_minus_children(self):
        assert stats.self_time(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) == 7.0

    def test_overlapping_children_count_once(self):
        # two children covering [1, 4] together: covered 3, not 4
        assert stats.self_time(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0)]) == 7.0

    def test_children_clipped_to_the_parent(self):
        assert stats.self_time(2.0, 6.0, [(0.0, 3.0), (5.0, 9.0)]) == 2.0

    def test_no_children(self):
        assert stats.self_time(1.0, 2.5, []) == 1.5

    def test_union_length(self):
        assert stats.union_length([(0, 1), (1, 2), (5, 6), (5.5, 5.7)]) == 3
        assert stats.union_length([]) == 0.0


class TestOpenLoopTiming:
    def test_latency_from_due_time_and_lateness(self):
        due = [1.0, 2.0, 3.0]
        submitted = [1.001, 2.010, 3.0]
        done = [1.005, None, 3.020]
        out = stats.due_time_latency(due, done, submitted)
        assert out["latency_ms"] == pytest.approx([5.0, 20.0])
        assert out["lateness_ms"] == pytest.approx([1.0, 10.0, 0.0])

    def test_latency_charges_generator_stall(self):
        # sent 8 ms late, served in 1 ms: the user waited 9 ms
        out = stats.due_time_latency([0.0], [0.009], [0.008])
        assert out["latency_ms"] == pytest.approx([9.0])

    def test_deadline_met_counts_failures_as_misses(self):
        due = [0.0, 1.0, 2.0, 3.0]
        done = [0.005, 1.020, None, 3.010]
        assert stats.deadline_met(due, done, 0.010) == 0.5

    def test_keeps_up(self):
        due = [i * 0.001 for i in range(1000)]
        steady = [t + 0.004 for t in due]
        assert stats.keeps_up(due, steady)
        # each result 1 ms later than the last: the backlog grows
        growing = [t + 0.001 * i for i, t in enumerate(due)]
        assert not stats.keeps_up(due, growing)
        assert not stats.keeps_up(due, steady[:-1] + [None])

    def test_sweep_waits(self):
        sweeps = [(1.0, 1.5), (2.0, 2.5)]
        due = [0.9, 1.2, 1.9]
        completed = [1.6, 2.6, None]
        waits = stats.sweep_waits(due, completed, sweeps)
        assert waits == pytest.approx([100.0, 800.0])


class TestMaxRate:
    def test_highest_rate_meeting_the_limit(self):
        rungs = [(256, 8.0, True), (1024, 9.5, True), (4096, 40.0, False)]
        assert stats.max_rate(rungs, 10.0) == 1024

    def test_growing_backlog_disqualifies(self):
        rungs = [(256, 8.0, True), (1024, 9.0, False)]
        assert stats.max_rate(rungs, 10.0) == 256

    def test_zero_when_no_rate_meets_the_limit(self):
        rungs = [(256, 13.0, True), (1024, 14.0, True), (4096, 110.0, False)]
        assert stats.max_rate(rungs, 10.0) == 0.0


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    spread = stats.quartile_spread(values)
    assert 0 < spread < 0.1
    assert math.isclose(stats.quartile_spread([5.0] * 4), 0.0)
