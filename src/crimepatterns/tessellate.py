"""Equal-population rectangular tessellation of a city.

A census-style grid of population cells is recursively bisected: each
rectangle splits along its longer axis at the population-weighted
median of the cell coordinates, until every leaf holds at most the
target population.  Cells are atomic, so leaves land within one cell's
population of each other rather than exactly on the target.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .ingest import EventTable
from .series import RegionSeriesSet, WEEK_STEP_YEARS, monday_on_or_before

_SECONDS_PER_WEEK = 7 * 86400


@dataclass
class Region:
    """One tessellation leaf: a closed bounding box and its population."""

    id: int
    lon_min: float
    lat_min: float
    lon_max: float
    lat_max: float
    population: float

    def contains(self, lon: float, lat: float) -> bool:
        return (
            self.lon_min <= lon <= self.lon_max
            and self.lat_min <= lat <= self.lat_max
        )


@dataclass
class _Node:
    """Internal bisection-tree node; leaves carry the final region id."""

    rect: tuple
    axis: int = -1  # 0 = lon, 1 = lat, -1 = leaf
    boundary: float = 0.0
    low: "_Node | None" = None
    high: "_Node | None" = None
    region_id: int = -1
    cell_index: np.ndarray | None = None
    population: float = 0.0


@dataclass
class Tessellation:
    regions: list[Region]
    target_population: float
    total_population: float
    bbox: tuple
    _root: _Node = field(repr=False, default=None)

    @property
    def n_regions(self) -> int:
        return len(self.regions)

    def populations(self) -> np.ndarray:
        return np.array([r.population for r in self.regions], dtype=float)


@dataclass
class EventAssignment:
    """Result of dropping events into a tessellation."""

    region_counts: np.ndarray
    outside: int

    @property
    def total_assigned(self) -> int:
        return int(self.region_counts.sum())


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
    acceptable split) are kept whole with a warning.  Region ids are
    assigned in row-major order of the region centres (south to north,
    then west to east).
    """
    cells = np.asarray(cells, dtype=float)
    if not cells.size:
        raise ValueError("no population cells supplied")
    if cells.ndim != 2 or cells.shape[1] != 3:
        raise ValueError("cells must be an (n, 3) array of lon, lat, population")
    lons, lats, pops = cells.T
    if not 0 < target_pop < np.inf:
        raise ValueError("target population must be finite and positive")
    if np.any(pops < 0):
        raise ValueError("negative cell population")
    total = pops.sum()
    if total <= 0:
        raise ValueError("total population is zero")

    bbox = (lons.min(), lats.min(), lons.max(), lats.max())
    root = _Node(rect=bbox, cell_index=np.arange(lons.size))
    leaves: list[_Node] = []
    stack = [root]
    while stack:
        node = stack.pop()
        idx = node.cell_index
        node.population = pops[idx].sum()
        lon0, lat0, lon1, lat1 = node.rect
        if node.population <= target_pop:
            leaves.append(node)
            continue

        # Longer axis first; accept the first axis whose most balanced
        # boundary keeps both sides at or above half the target.
        axes = [0, 1] if (lon1 - lon0) >= (lat1 - lat0) else [1, 0]
        chosen = None
        for axis in axes:
            coords = lons[idx] if axis == 0 else lats[idx]
            found = _best_boundary(coords, pops[idx])
            if found is None:
                continue
            boundary, low_mask, low_pop, high_pop = found
            if min(low_pop, high_pop) >= 0.5 * target_pop:
                chosen = (axis, boundary, low_mask)
                break
            if chosen is None:
                chosen = (axis, boundary, low_mask)  # degenerate fallback
        if chosen is None:
            leaves.append(node)  # single unsplittable cell; warned below
            continue

        axis, boundary, low_mask = chosen
        node.axis, node.boundary = axis, boundary
        if axis == 0:
            low_rect = (lon0, lat0, boundary, lat1)
            high_rect = (boundary, lat0, lon1, lat1)
        else:
            low_rect = (lon0, lat0, lon1, boundary)
            high_rect = (lon0, boundary, lon1, lat1)
        node.low = _Node(rect=low_rect, cell_index=idx[low_mask])
        node.high = _Node(rect=high_rect, cell_index=idx[~low_mask])
        node.cell_index = None
        stack.extend((node.low, node.high))

    centres = np.array(
        [(0.5 * (n.rect[1] + n.rect[3]), 0.5 * (n.rect[0] + n.rect[2])) for n in leaves]
    )
    order = np.lexsort((centres[:, 1], centres[:, 0]))
    regions = []
    for rank, leaf_pos in enumerate(order):
        leaf = leaves[leaf_pos]
        leaf.region_id = rank
        lon0, lat0, lon1, lat1 = leaf.rect
        regions.append(Region(rank, lon0, lat0, lon1, lat1, leaf.population))
        if leaf.population > target_pop:
            warnings.warn(
                f"region {rank} population {leaf.population:.0f} exceeds the "
                f"target {target_pop:g}"
            )
    return Tessellation(regions, target_pop, total, bbox, _root=root)


def locate_events(table: EventTable, tess: Tessellation) -> np.ndarray:
    """Region id per event; -1 for events outside the tessellated area.

    Points exactly on a shared boundary belong to the adjacent region
    with the smallest id, so every in-area point maps to exactly one
    region.
    """
    lons, lats = table.lons, table.lats
    result = np.full(len(table), -1, dtype=np.int64)
    lon0, lat0, lon1, lat1 = tess.bbox
    inside = (lons >= lon0) & (lons <= lon1) & (lats >= lat0) & (lats <= lat1)
    stack = [(tess._root, np.nonzero(inside)[0])]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        if node.axis < 0:
            # Boundary points visit several leaves; keep the smallest id.
            prev = result[idx]
            result[idx] = np.where(prev < 0, node.region_id, np.minimum(prev, node.region_id))
            continue
        coords = lons[idx] if node.axis == 0 else lats[idx]
        stack.append((node.low, idx[coords <= node.boundary]))
        stack.append((node.high, idx[coords >= node.boundary]))
    return result


def assign_events(table: EventTable, tess: Tessellation) -> EventAssignment:
    """Total events per region, plus the outside-the-area bucket.

    Every event lands in exactly one bucket, so region counts plus
    `outside` always equals len(table).
    """
    where = locate_events(table, tess)
    counts = np.bincount(where[where >= 0], minlength=tess.n_regions)
    return EventAssignment(counts.astype(np.int64), int((where < 0).sum()))


def build_region_series(
    table: EventTable,
    tess: Tessellation,
    week_origin: np.datetime64 | None = None,
) -> RegionSeriesSet:
    """Aggregate events into weekly counts per region.

    Weeks run Monday to Sunday on the grid anchored at `week_origin`
    (default: the week of the earliest event).  Only weeks fully inside
    the observed time span are kept; events in the clipped partial
    weeks, like events outside the area, are tallied in `meta` rather
    than silently lost.  Raises ValueError when fewer than two full
    weeks remain.
    """
    if len(table) == 0:
        raise ValueError("no events to aggregate")
    ts = table.timestamps.astype(np.int64)  # seconds since epoch
    t_min, t_max = int(ts[0]), int(ts[-1])
    if week_origin is None:
        week_origin = table.timestamps[0]
    anchor = monday_on_or_before(week_origin)
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

    week_start_dates = anchor + (k0 + np.arange(n_weeks)) * np.timedelta64(7, "D")
    meta = {
        "events_outside_area": int(((region < 0) & in_span).sum()),
        "events_in_partial_weeks": int((~in_span).sum()),
        "week_origin": str(anchor),
    }
    return RegionSeriesSet(
        week_start_dates,
        counts,
        np.arange(tess.n_regions),
        meta=meta,
    )
