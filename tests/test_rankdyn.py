"""Weekly rank matrices and per-position Shannon entropy."""

import numpy as np
import pytest

from crimepatterns import (
    RegionSeriesSet,
    entropy_vs_rank_shape,
    position_entropy,
    week_starts_from,
    weekly_ranks,
)


def series_set(counts, region_ids=None):
    counts = np.asarray(counts)
    r, t = counts.shape
    ids = np.arange(r) if region_ids is None else np.asarray(region_ids)
    return RegionSeriesSet(
        week_starts_from(np.datetime64("2012-01-02"), t), counts, ids
    )


class TestWeeklyRanks:
    def test_two_regions_two_weeks(self):
        m = weekly_ranks(series_set([[5, 1], [3, 9]]))
        assert m.tolist() == [[0, 1], [1, 0]]

    def test_ties_break_by_ascending_region_id(self):
        m = weekly_ranks(series_set(np.full((4, 3), 2)))
        assert np.all(m == np.arange(4))

    def test_every_row_is_a_permutation(self):
        counts = np.random.default_rng(3).integers(0, 100, size=(12, 40))
        m = weekly_ranks(series_set(counts))
        target = np.arange(12)
        for row in m:
            assert np.array_equal(np.sort(row), target)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            weekly_ranks(series_set(np.ones((1, 10))))
        with pytest.raises(ValueError):
            weekly_ranks(series_set(np.ones((3, 1))))


class TestPositionEntropy:
    def test_persistent_top_region_has_zero_entropy_at_rank_one(self):
        rng = np.random.default_rng(77)
        counts = np.vstack(
            [np.full((1, 260), 1000), rng.integers(0, 50, size=(49, 260))]
        )
        prof = position_entropy(weekly_ranks(series_set(counts)))
        assert prof.h[0] == 0.0
        assert prof.h[0] < prof.mean_h

    def test_uniform_turnover_has_unit_entropy(self):
        # Rotate the loading each week: every region occupies every
        # position equally often once T is a multiple of R.
        r, t = 5, 20
        counts = np.empty((r, t), dtype=int)
        for week in range(t):
            for i in range(r):
                counts[i, week] = ((i + week) % r) * 10
        prof = position_entropy(weekly_ranks(series_set(counts)))
        assert np.allclose(prof.h, 1.0, atol=1e-12)

    def test_iid_counts_give_high_mean_entropy(self):
        counts = np.random.default_rng(404).integers(0, 1000, size=(50, 260))
        prof = position_entropy(weekly_ranks(series_set(counts)))
        assert prof.mean_h >= 0.9

    def test_mean_h_is_arithmetic_mean(self):
        counts = np.random.default_rng(12).integers(0, 30, size=(8, 52))
        prof = position_entropy(weekly_ranks(series_set(counts)))
        assert prof.mean_h == pytest.approx(prof.h.mean())
        assert np.all((prof.h >= 0.0) & (prof.h <= 1.0))

    def test_profile_invariant_under_region_relabeling(self):
        # no ties: strictly distinct counts per week
        rng = np.random.default_rng(9)
        base = np.array([rng.permutation(100)[:6] for _ in range(30)]).T
        prof_a = position_entropy(weekly_ranks(series_set(base)))
        perm = rng.permutation(6)
        prof_b = position_entropy(weekly_ranks(series_set(base[perm])))
        assert np.allclose(prof_a.h, prof_b.h, atol=1e-12)

    def test_mean_h_invariant_under_fixed_weekly_permutation(self):
        rng = np.random.default_rng(10)
        counts = rng.integers(0, 1000, size=(10, 80))
        prof_a = position_entropy(weekly_ranks(series_set(counts)))
        shuffled = counts[rng.permutation(10)]
        prof_b = position_entropy(weekly_ranks(series_set(shuffled)))
        assert prof_a.mean_h == pytest.approx(prof_b.mean_h, abs=1e-12)


class TestEntropyVsRankShape:
    def test_ascending_profile_has_unit_correlation(self):
        counts = np.random.default_rng(1).integers(0, 9, size=(20, 40))
        prof = position_entropy(weekly_ranks(series_set(counts)))
        prof.h = np.linspace(0.0, 0.95, 20)
        summary = entropy_vs_rank_shape(prof)
        assert summary.correlation == pytest.approx(1.0)
        assert summary.top_k == 2

    def test_constant_profile_has_zero_correlation_by_convention(self):
        counts = np.random.default_rng(2).integers(0, 9, size=(20, 40))
        prof = position_entropy(weekly_ranks(series_set(counts)))
        prof.h = np.full(20, 0.5)
        assert entropy_vs_rank_shape(prof).correlation == 0.0

    def test_hotspot_city_entropy_rises_from_zero(self):
        rng = np.random.default_rng(77)
        counts = np.vstack(
            [np.full((1, 260), 1000), rng.integers(0, 50, size=(49, 260))]
        )
        prof = position_entropy(weekly_ranks(series_set(counts)))
        summary = entropy_vs_rank_shape(prof)
        assert summary.h_top[0] == 0.0
        assert prof.mean_h > 0.5

    def test_small_profile_is_an_error(self):
        counts = np.random.default_rng(3).integers(0, 9, size=(4, 20))
        prof = position_entropy(weekly_ranks(series_set(counts)))
        with pytest.raises(ValueError):
            entropy_vs_rank_shape(prof)
