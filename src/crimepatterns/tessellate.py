"""Equal-population rectangular tessellation of a city.

A census-style grid of population cells is recursively bisected: each
rectangle splits along its longer axis at the population-weighted
median of the cell coordinates, until every leaf holds at most the
target population.  Cells are atomic, so leaves land within one cell's
population of each other rather than exactly on the target.  The
regions come back as columns in region-id order, `Tessellation.bounds`
(lon_min, lat_min, lon_max, lat_max) and `Tessellation.populations`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ingest import EventTable
from .series import WEEK, RegionSeriesSet, monday_on_or_before

_SECONDS_PER_WEEK = int(WEEK / np.timedelta64(1, "s"))


@dataclass
class Tessellation:
    """Regions as columns in region-id order (see the module docstring;
    the city's population is `populations.sum()`), the cells' bounding
    box, and the bisection tree that locate_events walks as flat per-node
    arrays, root first: the split axis (0 = lon, 1 = lat, -1 = leaf), the
    boundary, the low child (the high child is the next index) and the
    region id of each leaf (-1 elsewhere)."""

    bounds: np.ndarray
    populations: np.ndarray
    bbox: tuple
    node_axis: np.ndarray = field(repr=False)
    node_boundary: np.ndarray = field(repr=False)
    node_low: np.ndarray = field(repr=False)
    node_region: np.ndarray = field(repr=False)

    @property
    def n_regions(self) -> int:
        return len(self.populations)


def _best_boundary(coords: np.ndarray, pops: np.ndarray):
    """Most balanced split boundary along one axis.

    Returns (boundary, low_mask, low_pop, high_pop) or None when every
    cell shares the same coordinate.  The boundary is the midpoint
    between the two adjacent distinct coordinates that bring the low
    side's population closest to half, so it never passes through a
    cell centre.
    """
    distinct = np.unique(coords)
    if distinct.size < 2:
        return None
    group_pop = np.zeros(distinct.size)
    np.add.at(group_pop, np.searchsorted(distinct, coords), pops)
    left = np.cumsum(group_pop)[:-1]
    j = int(np.argmin(np.abs(left - 0.5 * pops.sum())))
    boundary = 0.5 * (distinct[j] + distinct[j + 1])
    low_mask = coords < boundary
    return boundary, low_mask, left[j], pops.sum() - left[j]


def build_tessellation(cells, target_pop: float) -> Tessellation:
    """Bisect the cell grid into regions of roughly `target_pop` people.

    `cells` is an (n, 3) array of lon, lat and population per cell, as
    parse_population returns it.

    Splitting prefers the longer axis of the current rectangle and falls
    back to the other axis when the longer one is degenerate or would
    leave a side below target_pop / 2.  Regions that cannot be brought
    at or below the target (a single cell larger than the target, or no
    acceptable split) are kept whole; callers count them from
    `populations`.  Region ids are assigned in row-major order of the
    region centres (south to north, then west to east).
    """
    cells = np.asarray(cells, dtype=float)
    if not cells.size:
        raise ValueError("no population cells supplied")
    if cells.ndim != 2 or cells.shape[1] != 3:
        raise ValueError("cells must be an (n, 3) array of lon, lat, population")
    lons, lats, pops = cells.T
    if not 0 < target_pop < np.inf:
        raise ValueError("target population must be finite and positive")
    if not np.isfinite(cells).all():
        raise ValueError("cell coordinates and populations must be finite")
    if np.any(pops < 0):
        raise ValueError("negative cell population")
    if pops.sum() <= 0:
        raise ValueError("total population is zero")

    bbox = (lons.min(), lats.min(), lons.max(), lats.max())
    # Per tree node, root first: its rectangle and (axis, boundary, low child).
    rects, splits = [bbox], [(-1, 0.0, -1)]
    leaves = []  # (node, population)
    stack = [(0, np.arange(lons.size))]
    while stack:
        node, idx = stack.pop()
        population = pops[idx].sum()
        chosen = None
        if population > target_pop:
            # Longer axis first; accept the first axis whose most balanced
            # boundary keeps both sides at or above half the target.
            lon0, lat0, lon1, lat1 = rects[node]
            axes = [0, 1] if (lon1 - lon0) >= (lat1 - lat0) else [1, 0]
            for axis in axes:
                found = _best_boundary(cells[idx, axis], pops[idx])
                if found is None:
                    continue
                boundary, low_mask, low_pop, high_pop = found
                if min(low_pop, high_pop) >= 0.5 * target_pop:
                    chosen = (axis, boundary, low_mask)
                    break
                if chosen is None:
                    chosen = (axis, boundary, low_mask)  # degenerate fallback
        if chosen is None:
            # At or below the target, or a single unsplittable cell.
            leaves.append((node, population))
            continue

        axis, boundary, low_mask = chosen
        low_rect, high_rect = list(rects[node]), list(rects[node])
        low_rect[axis + 2] = high_rect[axis] = boundary
        splits[node] = (axis, boundary, len(rects))
        stack += [(len(rects), idx[low_mask]), (len(rects) + 1, idx[~low_mask])]
        rects += [low_rect, high_rect]
        splits += [(-1, 0.0, -1)] * 2

    leaf_nodes, leaf_pops = map(np.array, zip(*leaves))
    corners = np.array(rects)[leaf_nodes]
    order = np.lexsort(0.5 * (corners[:, :2] + corners[:, 2:]).T)  # centre lat, then lon
    node_region = np.full(len(rects), -1)
    node_region[leaf_nodes[order]] = np.arange(order.size)
    return Tessellation(corners[order], leaf_pops[order], bbox,
                        *map(np.array, zip(*splits)), node_region)


def locate_events(table: EventTable, tess: Tessellation) -> np.ndarray:
    """Region id per event; -1 for events outside the tessellated area.

    Points exactly on a shared boundary belong to the adjacent region
    with the smallest id, so every in-area point maps to exactly one
    region.
    """
    lons, lats = table.lons, table.lats
    result = np.full(len(table), tess.n_regions, dtype=np.int64)  # until a leaf claims it
    lon0, lat0, lon1, lat1 = tess.bbox
    inside = (lons >= lon0) & (lons <= lon1) & (lats >= lat0) & (lats <= lat1)
    stack = [(0, np.nonzero(inside)[0])]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        axis, boundary, low = tess.node_axis[node], tess.node_boundary[node], tess.node_low[node]
        if axis < 0:
            # Boundary points visit several leaves; keep the smallest id.
            result[idx] = np.minimum(result[idx], tess.node_region[node])
            continue
        coords = lons[idx] if axis == 0 else lats[idx]
        stack.append((low, idx[coords <= boundary]))
        stack.append((low + 1, idx[coords >= boundary]))
    return np.where(result < tess.n_regions, result, -1)


def assign_events(table: EventTable, tess: Tessellation) -> tuple[np.ndarray, int]:
    """Total events per region, plus the outside-the-area bucket.

    Returns (region_counts, outside).  Every event lands in exactly one
    bucket, so region_counts.sum() + outside always equals len(table).
    """
    where = locate_events(table, tess)
    counts = np.bincount(where[where >= 0], minlength=tess.n_regions)
    return counts.astype(np.int64), int((where < 0).sum())


def build_region_series(table: EventTable, tess: Tessellation) -> RegionSeriesSet:
    """Aggregate events into weekly counts per region.

    Weeks run Monday to Sunday, on the grid anchored at the Monday of the
    earliest event.  Only weeks fully inside the observed time span, from
    the earliest to the latest event in any order, are kept; events in
    the clipped partial weeks, like events outside the area, are tallied
    in `meta` rather than silently lost.  Raises ValueError when fewer
    than two full weeks remain.
    """
    if len(table) == 0:
        raise ValueError("no events to aggregate")
    ts = table.timestamps.astype(np.int64)  # seconds since epoch
    t_min, t_max = int(ts.min()), int(ts.max())
    anchor = monday_on_or_before(table.timestamps.min())
    anchor_s = anchor.astype("datetime64[s]").astype(np.int64)

    # First and last week indices fully covered by [t_min, t_max].
    k0 = -((anchor_s - t_min) // _SECONDS_PER_WEEK)
    k1 = (t_max + 1 - anchor_s) // _SECONDS_PER_WEEK - 1
    n_weeks = int(k1 - k0 + 1)
    if n_weeks < 2:
        raise ValueError("events span fewer than two full weeks")

    week = (ts - anchor_s) // _SECONDS_PER_WEEK
    region = locate_events(table, tess)
    in_span = (week >= k0) & (week <= k1)
    usable = in_span & (region >= 0)
    counts = np.zeros((tess.n_regions, n_weeks), dtype=np.int64)
    np.add.at(counts, (region[usable], (week[usable] - k0).astype(np.int64)), 1)

    week_start_dates = anchor + (k0 + np.arange(n_weeks)) * WEEK
    meta = {
        "events_outside_area": int(((region < 0) & in_span).sum()),
        "events_in_partial_weeks": int((~in_span).sum()),
    }
    return RegionSeriesSet(
        week_start_dates,
        counts,
        np.arange(tess.n_regions),
        meta=meta,
    )
