"""Equal-population bisection, event assignment and weekly aggregation."""

import numpy as np
import pytest

from crimepatterns import (
    EventTable,
    assign_events,
    build_region_series,
    build_tessellation,
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
        assert np.all(tess.populations() == 100.0)

    def test_uniform_32x32_grid_splits_into_equal_leaves(self):
        # With 1024 unit cells and target 64 every weighted-median split
        # divides the running population exactly in half:
        # 1024 -> 512 -> 256 -> 128 -> 64, giving 16 leaves of 64 cells.
        tess = build_tessellation(grid_cells(32, 32), 64.0)
        assert tess.n_regions == 16
        assert np.all(tess.populations() == 64.0)
        assert tess.total_population == 1024.0

    def test_indivisible_single_cell_warns_and_degenerates(self):
        with pytest.warns(UserWarning):
            tess = build_tessellation(np.array([[0.0, 0.0, 500.0]]), 100.0)
        assert tess.n_regions == 1
        assert tess.regions[0].population == 500.0

    @pytest.mark.parametrize("target", [0.0, -4.0, np.inf, np.nan])
    def test_target_must_be_finite_and_positive(self, target):
        with pytest.raises(ValueError, match="finite and positive"):
            build_tessellation(grid_cells(4, 4), target)

    def test_tiny_target_is_named_in_the_warning(self):
        with pytest.warns(UserWarning, match="exceeds the target 1e-300$"):
            build_tessellation(np.array([[0.0, 0.0, 5.0]]), 1e-300)

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
        assert tess.populations().sum() == pytest.approx(total, abs=1e-9)

    def test_regions_tile_the_bounding_box(self):
        tess = build_tessellation(grid_cells(16, 16), 32.0)
        # every cell centroid is covered, and by exactly one region
        # except on shared boundaries
        for lon, lat, _ in grid_cells(16, 16):
            owners = [
                r.id for r in tess.regions if r.contains(lon, lat)
            ]
            assert len(owners) >= 1
        area = sum(
            (r.lon_max - r.lon_min) * (r.lat_max - r.lat_min) for r in tess.regions
        )
        assert area == pytest.approx(1.0, rel=1e-9)

    def test_ids_are_row_major_and_deterministic(self):
        cells = grid_cells(8, 8)
        t1 = build_tessellation(cells, 16.0)
        t2 = build_tessellation(cells.copy(), 16.0)
        assert [r.id for r in t1.regions] == list(range(t1.n_regions))
        for a, b in zip(t1.regions, t2.regions):
            assert (a.id, a.lon_min, a.lat_min, a.lon_max, a.lat_max) == (
                b.id,
                b.lon_min,
                b.lat_min,
                b.lon_max,
                b.lat_max,
            )
        # row-major on centers: sorted by (lat, lon) of the leaf center
        centers = [
            ((r.lat_min + r.lat_max) / 2, (r.lon_min + r.lon_max) / 2)
            for r in t1.regions
        ]
        assert centers == sorted(centers)

    def test_clustered_population_obeys_balance_bound(self):
        rng = np.random.default_rng(1234)
        centers = rng.uniform(-1, 1, size=(5, 2))
        pts = np.vstack([c + 0.08 * rng.normal(size=(400, 2)) for c in centers])
        pops = rng.lognormal(0.0, 1.0, size=pts.shape[0])
        cells = np.column_stack((pts, pops))
        tess = build_tessellation(cells, pops.sum() / 11.3)
        spread = tess.populations().max() - tess.populations().min()
        assert spread <= 2.0 * pops.max()


class TestAssignEvents:
    def test_all_events_in_one_region(self):
        tess = build_tessellation(grid_cells(4, 4), 4.0)
        r = tess.regions[2]
        lon = (r.lon_min + r.lon_max) / 2
        lat = (r.lat_min + r.lat_max) / 2
        stamps = [
            np.datetime64("2015-01-05T00:00:00") + np.timedelta64(i, "h")
            for i in range(7)
        ]
        asg = assign_events(make_events(stamps, [lon] * 7, [lat] * 7), tess)
        assert asg.region_counts[2] == 7
        assert asg.region_counts.sum() == 7
        assert asg.outside == 0

    def test_boundary_event_goes_to_lower_id(self):
        tess = build_tessellation(grid_cells(4, 4), 8.0)
        # pick two regions sharing an edge and drop an event exactly on it
        a, b = tess.regions[0], None
        for cand in tess.regions[1:]:
            if a.lon_max == cand.lon_min and a.lat_min == cand.lat_min:
                b = cand
                break
        if b is None:  # split was along latitude instead
            for cand in tess.regions[1:]:
                if a.lat_max == cand.lat_min and a.lon_min == cand.lon_min:
                    b = cand
                    break
        lon = a.lon_max if b.lon_min == a.lon_max else (a.lon_min + a.lon_max) / 2
        lat = a.lat_max if b.lat_min == a.lat_max else (a.lat_min + a.lat_max) / 2
        asg = assign_events(make_events(["2015-01-05T00:00:00"], [lon], [lat]), tess)
        assert asg.region_counts[a.id] == 1
        assert asg.region_counts[b.id] == 0

    def test_events_outside_bbox_are_counted_not_dropped(self):
        tess = build_tessellation(grid_cells(4, 4), 4.0)
        asg = assign_events(
            make_events(
                ["2015-01-05T00:00:00", "2015-01-05T01:00:00"], [5.0, 0.5], [5.0, 0.5]
            ),
            tess,
        )
        assert asg.outside == 1
        assert asg.total_assigned == 1

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
        asg = assign_events(make_events(stamps, lons, lats), tess)
        r = tess.n_regions
        sd = np.sqrt(n * (1 / r) * (1 - 1 / r))
        z = np.abs(asg.region_counts - n / r) / sd
        assert z.max() < 5.0
        assert asg.total_assigned + asg.outside == n


class TestBuildRegionSeries:
    def setup_method(self):
        self.tess = build_tessellation(grid_cells(4, 4), 4.0)

    def region_center(self, i):
        r = self.tess.regions[i]
        return (r.lon_min + r.lon_max) / 2, (r.lat_min + r.lat_max) / 2

    def test_single_burst_lands_in_one_week_of_one_region(self):
        lon, lat = self.region_center(3)
        origin = np.datetime64("2015-01-05")
        # five events inside week 1 of region 3, plus anchor events in
        # weeks 0 and 2 elsewhere so the table spans three full weeks
        lon0, lat0 = self.region_center(0)
        stamps = ["2015-01-05T00:00:00", "2015-01-25T23:59:59"]
        lons, lats = [lon0, lon0], [lat0, lat0]
        for h in range(5):
            stamps.append(f"2015-01-1{3 + h}T12:00:00")
            lons.append(lon)
            lats.append(lat)
        ss = build_region_series(
            make_events(stamps, lons, lats), self.tess, week_origin=origin
        )
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
            week_origin=np.datetime64("2015-01-05"),
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
