"""Shared containers for evenly sampled weekly series.

Weekly data is indexed on a Monday-anchored grid.  The time step is
expressed in years, so one week is 1/52 and an annual cycle sits at
period 1.0 regardless of the calendar length of the year.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

WEEKS_PER_YEAR = 52
WEEK_STEP_YEARS = 1.0 / WEEKS_PER_YEAR
WEEK = np.timedelta64(7, "D")


def monday_on_or_before(day: np.datetime64) -> np.datetime64:
    """Return the Monday that starts the week containing `day`."""
    d = np.datetime64(day, "D")
    # 1970-01-01 was a Thursday, so day index 0 has weekday 3 (Monday = 0).
    weekday = (d.astype(np.int64) + 3) % 7
    return d - np.timedelta64(int(weekday), "D")


def week_starts_from(origin: np.datetime64, n_weeks: int) -> np.ndarray:
    """Monday dates for `n_weeks` consecutive weeks starting at `origin`."""
    start = monday_on_or_before(origin)
    return start + np.arange(n_weeks) * WEEK


@dataclass
class TimeSeries:
    """One evenly sampled series.

    `dt` is the sampling step in years (weekly data: 1/52).  `t0` is the
    date of the first sample when the series is tied to a calendar, and
    None for purely synthetic data.
    """

    values: np.ndarray
    dt: float = WEEK_STEP_YEARS
    t0: np.datetime64 | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1:
            raise ValueError("series values must be one-dimensional")
        if self.values.size == 0:
            raise ValueError("series is empty")
        if not self.dt > 0:
            raise ValueError("dt must be positive")

    def __len__(self) -> int:
        return self.values.size

    def week_starts(self) -> np.ndarray:
        if self.t0 is None:
            raise ValueError("series has no start date")
        return np.datetime64(self.t0, "D") + np.arange(self.values.size) * WEEK


@dataclass
class RegionSeriesSet:
    """Weekly counts for every region of one city on a common week grid.

    `counts` has shape (n_regions, n_weeks); row i belongs to
    `region_ids[i]`.  Rows are kept in ascending region-id order.
    `meta` carries bookkeeping from whatever produced the set (dropped
    events, generator parameters) and is never used in computations.
    """

    week_starts: np.ndarray
    counts: np.ndarray
    region_ids: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.week_starts = np.asarray(self.week_starts, dtype="datetime64[D]")
        self.counts = np.atleast_2d(np.asarray(self.counts))
        self.region_ids = np.asarray(self.region_ids, dtype=np.int64)
        if self.counts.shape != (self.region_ids.size, self.week_starts.size):
            raise ValueError("counts shape does not match region ids and week grid")
        if self.region_ids.size and np.any(np.diff(self.region_ids) <= 0):
            raise ValueError("region ids must be strictly increasing")

    @property
    def n_weeks(self) -> int:
        return self.week_starts.size

    def city_totals(self) -> np.ndarray:
        """City-wide weekly counts (sum over regions)."""
        return self.counts.sum(axis=0)

    def city_series(self) -> TimeSeries:
        return TimeSeries(self.city_totals().astype(float), WEEK_STEP_YEARS, self.week_starts[0])
