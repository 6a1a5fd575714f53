"""Week-by-week region rankings and the entropy of each rank position.

For every week the regions are ordered by count (descending, ties
broken by ascending region id).  The entropy of the distribution of
region ids seen at a fixed rank position, normalized by log(R),
measures how interchangeable the regions at that position are: 0 means
one region owns the position, 1 means all regions pass through it
uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class EntropyProfile:
    """Normalized entropy per rank position and its mean."""

    h: np.ndarray
    mean_h: float


def weekly_ranks(series_set) -> np.ndarray:
    """Rank regions within each week of a RegionSeriesSet.

    Returns an (n_weeks, n_regions) array: entry [t, i] is the region id
    holding rank position i in week t (position 0 is the heaviest
    region).  Requires at least two regions and two weeks, and a value
    for every region in every week (a NaN gap is an error).  A stable
    argsort on the negated counts realizes the descending-count,
    ascending-id tie rule, because rows are stored in ascending id order.
    """
    counts = series_set.counts
    region_ids = series_set.region_ids
    if region_ids.size < 2:
        raise ValueError("ranking needs at least two regions")
    if series_set.n_weeks < 2:
        raise ValueError("ranking needs at least two weeks")
    gaps = np.isnan(counts).any(axis=1)
    if gaps.any():
        raise ValueError(f"region {region_ids[gaps][0]} has a gap; ranking needs every week")
    order = np.argsort(-counts.T, axis=1, kind="stable")
    return region_ids[order]


def position_entropy(ranks: np.ndarray) -> EntropyProfile:
    """Normalized entropy of the region-id distribution at every rank
    position, over the weeks of a weekly_ranks array."""
    n_weeks, n_regions = ranks.shape
    if n_regions < 2:
        raise ValueError("entropy needs at least two regions")
    log_r = np.log(n_regions)
    h = np.empty(n_regions)
    for pos in range(n_regions):
        _, occupancy = np.unique(ranks[:, pos], return_counts=True)
        p = occupancy / n_weeks
        h[pos] = -(p * np.log(p)).sum() / log_r
    h = np.clip(h, 0.0, 1.0) + 0.0  # clip float fuzz; +0.0 avoids -0.0
    return EntropyProfile(h=h, mean_h=float(h.mean()))

