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
class RankMatrix:
    """ranks[t, i] is the region id holding rank position i in week t
    (position 0 is the heaviest region)."""

    ranks: np.ndarray
    region_ids: np.ndarray


@dataclass
class EntropyProfile:
    """Normalized entropy per rank position and its mean."""

    h: np.ndarray
    mean_h: float


@dataclass
class RankShapeSummary:
    """Monotonicity of the entropy profile over the top positions."""

    correlation: float
    top_k: int
    h_top: np.ndarray


def weekly_ranks(series_set) -> RankMatrix:
    """Rank regions within each week of a RegionSeriesSet.

    Requires at least two regions and two weeks, and a value for every
    region in every week (a NaN gap is an error).  A stable argsort on
    the negated counts realizes the descending-count, ascending-id tie
    rule, because rows are stored in ascending id order.
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
    return RankMatrix(ranks=region_ids[order], region_ids=region_ids.copy())


def position_entropy(ranks: RankMatrix) -> EntropyProfile:
    """Normalized entropy of the region-id distribution at every rank
    position, over weeks."""
    n_weeks, n_regions = ranks.ranks.shape
    if n_regions < 2:
        raise ValueError("entropy needs at least two regions")
    log_r = np.log(n_regions)
    h = np.empty(n_regions)
    for pos in range(n_regions):
        _, occupancy = np.unique(ranks.ranks[:, pos], return_counts=True)
        p = occupancy / n_weeks
        h[pos] = -(p * np.log(p)).sum() / log_r
    h = np.clip(h, 0.0, 1.0) + 0.0  # clip float fuzz; +0.0 avoids -0.0
    return EntropyProfile(h=h, mean_h=float(h.mean()))


def entropy_vs_rank_shape(profile: EntropyProfile) -> RankShapeSummary:
    """Spearman correlation of entropy with rank position over the top
    decile of positions (at least two).

    A strongly positive value reproduces the characteristic shape where
    the very top positions are frozen and entropy rises with rank; zero
    is returned when the top entropies have no variance.
    """
    n = profile.h.size
    if n < 10:
        raise ValueError("shape summary needs at least 10 rank positions")
    k = max(2, n // 10)
    top = profile.h[:k]
    if np.allclose(top, top[0]):
        correlation = 0.0
    else:
        from scipy.stats import spearmanr

        correlation = float(spearmanr(np.arange(k), top).statistic)
    return RankShapeSummary(correlation=correlation, top_k=k, h_top=top.copy())
