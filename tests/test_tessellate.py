"""Equal-population bisection, event assignment and weekly aggregation."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crimepatterns import (
    EventTable,
    assign_events,
    build_region_series,
    build_tessellation,
    locate_events,
)


def grid_cells(nx, ny, pop=1.0):
    lon, lat = np.meshgrid(
        np.linspace(0.0, 1.0, nx), np.linspace(0.0, 1.0, ny), indexing="ij"
    )
    return np.column_stack((lon.ravel(), lat.ravel(), np.full(lon.size, pop)))


def make_events(timestamps, lons, lats, category="theft"):
    ts = np.array(timestamps, dtype="datetime64[s]")
    order = np.argsort(ts, kind="stable")
    return EventTable(
        ts[order],
        np.asarray(lons, dtype=float)[order],
        np.asarray(lats, dtype=float)[order],
        np.array([category] * ts.size, dtype=object),
    )


class TestBuildTessellation:
    def test_four_corner_cells_split_symmetrically(self):
        cells = np.array([
            [0.0, 0.0, 100.0],
            [1.0, 0.0, 100.0],
            [0.0, 1.0, 100.0],
            [1.0, 1.0, 100.0],
        ])
        tess = build_tessellation(cells, 100.0)
        assert tess.n_regions == 4
        assert np.all(tess.populations == 100.0)

    def test_uniform_32x32_grid_splits_into_equal_leaves(self):
        # With 1024 unit cells and target 64 every weighted-median split
        # divides the running population exactly in half:
        # 1024 -> 512 -> 256 -> 128 -> 64, giving 16 leaves of 64 cells.
        tess = build_tessellation(grid_cells(32, 32), 64.0)
        assert tess.n_regions == 16
        assert np.all(tess.populations == 64.0)
        assert tess.populations.sum() == 1024.0

    def test_indivisible_single_cell_stays_over_the_target(self):
        tess = build_tessellation(np.array([[0.0, 0.0, 500.0]]), 100.0)
        assert tess.n_regions == 1
        assert tess.populations[0] == 500.0
        assert (tess.populations > 100.0).sum() == 1

    @pytest.mark.parametrize("target", [0.0, -4.0, np.inf, np.nan])
    def test_target_must_be_finite_and_positive(self, target):
        with pytest.raises(ValueError, match="finite and positive"):
            build_tessellation(grid_cells(4, 4), target)

    def test_tiny_target_leaves_every_cell_over_it(self):
        tess = build_tessellation(grid_cells(4, 4, pop=5.0), 1e-300)
        assert tess.n_regions == 16
        assert (tess.populations > 1e-300).all()

    @pytest.mark.parametrize("bad_cell", [
        (np.nan, 0.0, 1.0),   # no boundary splits off a NaN: endless splitting
        (0.5, -np.inf, 1.0),  # a boundary next to -inf is -inf: endless splitting
        (np.inf, 0.5, 1.0),   # a region would reach to infinity
        (0.5, 0.5, np.nan),   # a region would hold NaN people
        (0.5, 0.5, np.inf),   # a region would hold infinitely many people
    ])
    def test_non_finite_cell_is_an_error(self, bad_cell):
        cells = np.vstack([grid_cells(2, 2), bad_cell])
        with pytest.raises(ValueError, match="must be finite"):
            build_tessellation(cells, 1.0)

    def test_empty_cell_list_is_an_error(self):
        with pytest.raises(ValueError):
            build_tessellation([], 10.0)

    def test_nonpositive_target_is_an_error(self):
        with pytest.raises(ValueError):
            build_tessellation(grid_cells(4, 4), 0.0)

    def test_population_is_conserved_exactly(self):
        rng = np.random.default_rng(8)
        cells = np.column_stack(
            (rng.uniform(size=300), rng.uniform(size=300), rng.lognormal(0, 1, 300))
        )
        total = sum(cells[:, 2].tolist())
        tess = build_tessellation(cells, total / 9.7)
        assert tess.populations.sum() == pytest.approx(total, abs=1e-9)

    def test_regions_tile_the_bounding_box(self):
        tess = build_tessellation(grid_cells(16, 16), 32.0)
        # every cell centroid is covered, and by exactly one region
        # except on shared boundaries
        lon_min, lat_min, lon_max, lat_max = tess.bounds.T
        for lon, lat, _ in grid_cells(16, 16):
            owners = np.flatnonzero(
                (lon_min <= lon) & (lon <= lon_max) & (lat_min <= lat) & (lat <= lat_max)
            )
            assert len(owners) >= 1
        area = sum(((lon_max - lon_min) * (lat_max - lat_min)).tolist())
        assert area == pytest.approx(1.0, rel=1e-9)

    def test_ids_are_row_major_and_deterministic(self):
        cells = grid_cells(8, 8)
        t1 = build_tessellation(cells, 16.0)
        t2 = build_tessellation(cells.copy(), 16.0)
        leaf_ids = t1.node_region[t1.node_axis < 0]
        assert sorted(leaf_ids.tolist()) == list(range(t1.n_regions))
        assert np.array_equal(t1.bounds, t2.bounds)
        # row-major on centers: sorted by (lat, lon) of the leaf center
        lon_min, lat_min, lon_max, lat_max = t1.bounds.T
        centers = list(zip(((lat_min + lat_max) / 2).tolist(), ((lon_min + lon_max) / 2).tolist()))
        assert centers == sorted(centers)

    def test_clustered_population_obeys_balance_bound(self):
        rng = np.random.default_rng(1234)
        centers = rng.uniform(-1, 1, size=(5, 2))
        pts = np.vstack([c + 0.08 * rng.normal(size=(400, 2)) for c in centers])
        pops = rng.lognormal(0.0, 1.0, size=pts.shape[0])
        cells = np.column_stack((pts, pops))
        tess = build_tessellation(cells, pops.sum() / 11.3)
        spread = tess.populations.max() - tess.populations.min()
        assert spread <= 2.0 * pops.max()


class TestAssignEvents:
    def test_all_events_in_one_region(self):
        tess = build_tessellation(grid_cells(4, 4), 4.0)
        lon_min, lat_min, lon_max, lat_max = tess.bounds[2]
        lon = (lon_min + lon_max) / 2
        lat = (lat_min + lat_max) / 2
        stamps = [
            np.datetime64("2015-01-05T00:00:00") + np.timedelta64(i, "h")
            for i in range(7)
        ]
        counts, outside = assign_events(make_events(stamps, [lon] * 7, [lat] * 7), tess)
        assert counts[2] == 7
        assert counts.sum() == 7
        assert outside == 0

    def test_boundary_event_goes_to_lower_id(self):
        tess = build_tessellation(grid_cells(4, 4), 8.0)
        # pick two regions sharing an edge and drop an event exactly on it
        lon_min, lat_min, lon_max, lat_max = tess.bounds.T
        a, b = 0, None
        for cand in range(1, tess.n_regions):
            if lon_max[a] == lon_min[cand] and lat_min[a] == lat_min[cand]:
                b = cand
                break
        if b is None:  # split was along latitude instead
            for cand in range(1, tess.n_regions):
                if lat_max[a] == lat_min[cand] and lon_min[a] == lon_min[cand]:
                    b = cand
                    break
        lon = lon_max[a] if lon_min[b] == lon_max[a] else (lon_min[a] + lon_max[a]) / 2
        lat = lat_max[a] if lat_min[b] == lat_max[a] else (lat_min[a] + lat_max[a]) / 2
        counts, _ = assign_events(make_events(["2015-01-05T00:00:00"], [lon], [lat]), tess)
        assert counts[a] == 1
        assert counts[b] == 0

    def test_events_outside_bbox_are_counted_not_dropped(self):
        tess = build_tessellation(grid_cells(4, 4), 4.0)
        counts, outside = assign_events(
            make_events(
                ["2015-01-05T00:00:00", "2015-01-05T01:00:00"], [5.0, 0.5], [5.0, 0.5]
            ),
            tess,
        )
        assert outside == 1
        assert counts.sum() == 1

    def test_uniform_scatter_matches_binomial_oracle(self):
        # Events placed exactly on the cell centroids of a uniform grid
        # hit each of the 16 equal regions with probability 1/16, so the
        # per-region counts are Binomial(n, 1/16).
        tess = build_tessellation(grid_cells(32, 32), 64.0)
        n = 100_000
        rng = np.random.default_rng(99)
        coords = np.linspace(0.0, 1.0, 32)
        lons = coords[rng.integers(0, 32, n)]
        lats = coords[rng.integers(0, 32, n)]
        stamps = np.datetime64("2015-01-05T00:00:00") + rng.integers(
            0, 86400 * 700, n
        ).astype("timedelta64[s]")
        counts, outside = assign_events(make_events(stamps, lons, lats), tess)
        r = tess.n_regions
        sd = np.sqrt(n * (1 / r) * (1 - 1 / r))
        z = np.abs(counts - n / r) / sd
        assert z.max() < 5.0
        assert counts.sum() + outside == n


class TestBuildRegionSeries:
    def setup_method(self):
        self.tess = build_tessellation(grid_cells(4, 4), 4.0)

    def region_center(self, i):
        lon_min, lat_min, lon_max, lat_max = self.tess.bounds[i]
        return (lon_min + lon_max) / 2, (lat_min + lat_max) / 2

    def test_single_burst_lands_in_one_week_of_one_region(self):
        lon, lat = self.region_center(3)
        # five events inside week 1 of region 3, plus anchor events in
        # weeks 0 and 2 elsewhere so the table spans three full weeks
        lon0, lat0 = self.region_center(0)
        stamps = ["2015-01-05T00:00:00", "2015-01-25T23:59:59"]
        lons, lats = [lon0, lon0], [lat0, lat0]
        for h in range(5):
            stamps.append(f"2015-01-1{3 + h}T12:00:00")
            lons.append(lon)
            lats.append(lat)
        ss = build_region_series(make_events(stamps, lons, lats), self.tess)
        row = ss.counts[3]
        assert ss.n_weeks == 3
        assert row[1] == 5
        assert row.sum() == 5
        city = ss.city_totals()
        assert np.array_equal(city, ss.counts.sum(axis=0))

    def test_city_series_is_sum_of_regions(self):
        rng = np.random.default_rng(11)
        n = 4000
        lons = rng.uniform(0, 1, n)
        lats = rng.uniform(0, 1, n)
        stamps = np.datetime64("2015-01-05T00:00:00") + rng.integers(
            0, 86400 * 7 * 30, n
        ).astype("timedelta64[s]")
        ss = build_region_series(make_events(stamps, lons, lats), self.tess)
        assert np.array_equal(ss.city_totals(), ss.counts.sum(axis=0))

    def test_poisson_rate_recovered_within_three_sigma(self):
        lam, weeks = 30.0, 120
        rng = np.random.default_rng(7)
        n = rng.poisson(lam * weeks)
        stamps = np.datetime64("2015-01-05T00:00:00") + rng.uniform(
            0, weeks * 7 * 86400, n
        ).astype("int64").astype("timedelta64[s]")
        ss = build_region_series(
            make_events(stamps, rng.uniform(0, 1, n), rng.uniform(0, 1, n)),
            self.tess,
        )
        total = ss.city_totals().sum()
        expected = lam * ss.n_weeks
        assert abs(total - expected) <= 3.0 * np.sqrt(expected)

    def test_short_span_is_an_error(self):
        stamps = ["2015-01-05T00:00:00", "2015-01-09T00:00:00"]
        lon, lat = self.region_center(0)
        with pytest.raises(ValueError, match="week"):
            build_region_series(
                make_events(stamps, [lon, lon], [lat, lat]), self.tess
            )

    def test_span_comes_from_the_earliest_and_latest_events_in_any_order(self):
        # An EventTable built directly need not be sorted; the span used to
        # be read from its first and last rows.
        (lon0, lat0), (lon1, lat1) = self.region_center(0), self.region_center(3)
        stamps = ["2020-03-02", "2020-01-06", "2020-02-03", "2020-01-20"]
        lons, lats = [lon0, lon1, lon0, lon1], [lat0, lat1, lat0, lat1]
        table = EventTable(np.array(stamps, dtype="datetime64[s]"), lons, lats,
                           np.array(["theft"] * 4, dtype=object))
        ss = build_region_series(table, self.tess)
        expected = build_region_series(make_events(stamps, lons, lats), self.tess)
        assert ss.n_weeks == expected.n_weeks == 8
        assert np.array_equal(ss.week_starts, expected.week_starts)
        assert np.array_equal(ss.counts, expected.counts)
        assert ss.meta == expected.meta

    def test_partial_week_events_are_accounted_in_meta(self):
        lon, lat = self.region_center(0)
        stamps = [
            "2015-01-07T00:00:00",  # midweek start: week clipped
            "2015-01-12T00:00:00",
            "2015-01-19T00:00:00",
            "2015-01-26T00:00:00",
            "2015-02-03T00:00:00",  # midweek end: week clipped
        ]
        ss = build_region_series(
            make_events(stamps, [lon] * 5, [lat] * 5), self.tess
        )
        assert ss.counts.sum() + ss.meta["events_in_partial_weeks"] == 5


# Distinct coordinates on an uneven grid: every split boundary is a midpoint
# strictly between two of them, so no cell lies on a region edge.
oracle_cells = st.lists(
    st.tuples(st.integers(0, 40), st.integers(0, 40), st.floats(0, 1000)),
    min_size=1, max_size=60, unique_by=lambda c: c[:2],
).map(lambda rows: np.array([(0.37 * i - 3.0, 0.23 * j + 41.0, p) for i, j, p in rows]))


class TestTessellationOracle:
    """Every tessellation checked by brute force over all regions' closed
    rectangles."""

    @settings(max_examples=200, deadline=None)
    @given(oracle_cells, st.floats(0.02, 1.5), st.data())
    def test_regions_and_locations_match_brute_force(self, cells, share, data):
        lon, lat, pop = cells.T
        assume(share * pop.sum() > 0)  # a subnormal total can round the target to 0
        tess = build_tessellation(cells, share * pop.sum())
        lon_min, lat_min, lon_max, lat_max = tess.bounds.T
        x0, y0, x1, y1 = tess.bbox

        def covering(x, y):
            """(points, regions) mask of closed rectangles holding each point."""
            x, y = np.asarray(x)[:, None], np.asarray(y)[:, None]
            return (lon_min <= x) & (x <= lon_max) & (lat_min <= y) & (y <= lat_max)

        # Each cell lies in exactly one region, and the regions hold their cells.
        holds = covering(lon, lat)
        assert (holds.sum(axis=1) == 1).all()
        assert np.array_equal(
            tess.populations, [pop[holds[:, r]].sum() for r in range(tess.n_regions)]
        )
        area = math.fsum(((lon_max - lon_min) * (lat_max - lat_min)).tolist())
        assert area == pytest.approx((x1 - x0) * (y1 - y0), rel=1e-9, abs=1e-12)

        # Corners and edge midpoints of regions, and points in and around the bbox.
        on_edge = st.integers(0, tess.n_regions - 1).flatmap(lambda r: st.tuples(
            st.sampled_from([lon_min[r], lon_max[r], (lon_min[r] + lon_max[r]) / 2]),
            st.sampled_from([lat_min[r], lat_max[r], (lat_min[r] + lat_max[r]) / 2]),
        ))
        around = st.tuples(st.floats(x0 - 1, x1 + 1), st.floats(y0 - 1, y1 + 1))
        points = data.draw(st.lists(st.one_of(on_edge, around), min_size=1, max_size=50))
        x, y = np.array(points, dtype=float).T
        table = make_events(["2015-01-05T00:00:00"] * x.size, x, y)
        inside = covering(x, y)
        expected = np.where(inside.any(axis=1), inside.argmax(axis=1), -1)
        assert np.array_equal(locate_events(table, tess), expected)
