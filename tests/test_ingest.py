"""Parsing, validation and canonical round-tripping of input tables."""

import numpy as np
import pytest

from crimepatterns import (
    EventTable,
    dedupe_events,
    filter_events,
    parse_events,
    parse_population,
    write_events,
)


def write_csv(path, rows, header="timestamp,lon,lat,category"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return path


def make_table(stamps, lons=None, lats=None, cats=None):
    n = len(stamps)
    return EventTable(
        np.array(stamps, dtype="datetime64[s]"),
        np.array(lons if lons is not None else [0.0] * n),
        np.array(lats if lats is not None else [0.0] * n),
        np.array(cats if cats is not None else ["theft"] * n, dtype=object),
    )


class TestParseEvents:
    def test_well_formed_three_rows(self, tmp_path):
        p = write_csv(
            tmp_path / "e.csv",
            [
                "2015-01-05T10:00:00,12.5,41.9,theft",
                "2015-01-06T11:30:00,12.6,41.8,robbery",
                "2015-01-07T09:15:00,12.4,42.0,theft",
            ],
        )
        t = parse_events(p)
        assert len(t) == 3
        assert t.rejections == []
        assert list(t.categories) == ["theft", "robbery", "theft"]
        assert t.source_id == str(p)

    def test_out_of_range_latitude_rejected(self, tmp_path):
        p = write_csv(
            tmp_path / "e.csv",
            [
                "2015-01-05T10:00:00,12.5,41.9,theft",
                "2015-01-06T11:30:00,12.6,95.0,theft",
                "2015-01-07T09:15:00,12.4,42.0,theft",
            ],
        )
        t = parse_events(p)
        assert len(t) == 2
        assert len(t.rejections) == 1
        assert t.rejections[0].reason == "coordinate out of range"

    def test_unsorted_input_comes_out_sorted(self, tmp_path):
        p = write_csv(
            tmp_path / "e.csv",
            [
                "2015-01-07T09:15:00,1.0,1.0,theft",
                "2015-01-05T10:00:00,2.0,2.0,theft",
                "2015-01-06T11:30:00,3.0,3.0,theft",
            ],
        )
        t = parse_events(p)
        assert np.all(t.timestamps[:-1] <= t.timestamps[1:])
        assert list(t.lons) == [2.0, 3.0, 1.0]

    def test_timezone_and_subsecond_normalization(self, tmp_path):
        p = write_csv(
            tmp_path / "e.csv",
            [
                "2015-06-01T12:00:00Z,0.0,0.0,theft",
                "2015-06-01T14:00:00+02:00,0.0,0.0,theft",
                "2015-06-01T12:00:00.750,0.0,0.0,theft",
            ],
        )
        t = parse_events(p)
        assert np.all(t.timestamps == np.datetime64("2015-06-01T12:00:00", "s"))

    def test_missing_file_is_an_error(self, tmp_path):
        with pytest.raises(OSError):
            parse_events(tmp_path / "absent.csv")

    def test_unknown_schema_field_is_an_error(self, tmp_path):
        p = write_csv(tmp_path / "e.csv", ["2015-01-05T10:00:00,1,1,theft"])
        with pytest.raises(ValueError, match="unknown fields"):
            parse_events(p, schema={"when": "timestamp"})

    def test_missing_column_is_an_error(self, tmp_path):
        p = write_csv(
            tmp_path / "e.csv", ["2015-01-05T10:00:00,1,1"], header="timestamp,lon,lat"
        )
        with pytest.raises(ValueError, match="required columns"):
            parse_events(p)

    def test_schema_remaps_column_names(self, tmp_path):
        p = write_csv(
            tmp_path / "e.csv",
            ["2015-01-05T10:00:00,1.5,2.5,theft"],
            header="when,x,y,kind",
        )
        t = parse_events(
            p,
            schema={"timestamp": "when", "lon": "x", "lat": "y", "category": "kind"},
        )
        assert len(t) == 1
        assert t.lons[0] == 1.5

    def test_majority_rejected_is_a_hard_error(self, tmp_path):
        rows = ["not-a-date,1,1,theft"] * 3 + ["2015-01-05T10:00:00,1,1,theft"]
        p = write_csv(tmp_path / "e.csv", rows)
        with pytest.raises(ValueError, match="malformed"):
            parse_events(p)

    def test_rejection_reasons_cover_each_field(self, tmp_path):
        good = "2015-01-05T10:00:00,1,1,theft"
        p = write_csv(
            tmp_path / "e.csv",
            [
                good,
                "garbled,1,1,theft",
                "2015-01-05T10:00:00,abc,1,theft",
                "2015-01-05T10:00:00,1,1,",
                "2015-01-05T10:00:00,200.0,1,theft",
                good,
                good,
                good,
                good,
            ],
        )
        t = parse_events(p)
        reasons = sorted(r.reason for r in t.rejections)
        assert reasons == [
            "bad coordinate",
            "bad timestamp",
            "coordinate out of range",
            "empty category",
        ]
        # rejection rows are 1-based over data rows
        assert sorted(r.row for r in t.rejections) == [2, 3, 4, 5]

    def test_window_rejects_out_of_study_rows(self, tmp_path):
        p = write_csv(
            tmp_path / "e.csv",
            [
                "2014-12-31T00:00:00,1,1,theft",
                "2015-01-05T10:00:00,1,1,theft",
            ],
        )
        t = parse_events(p, window=("2015-01-01", "2016-01-01"))
        assert len(t) == 1
        assert t.rejections[0].reason == "outside time window"

    def test_window_drops_do_not_count_as_malformed(self, tmp_path):
        day0 = np.datetime64("2015-01-05T10:00:00")
        rows = [f"{day0 + np.timedelta64(i, 'D')},1,1,theft" for i in range(1000)]
        p = write_csv(tmp_path / "e.csv", rows)
        t = parse_events(p, window=("2015-01-05", "2015-04-15"))
        assert len(t) == 100
        assert len(t.rejections) == 900
        assert {r.reason for r in t.rejections} == {"outside time window"}

    def test_malformed_rows_still_count_under_a_window(self, tmp_path):
        rows = ["not-a-date,1,1,theft"] * 3 + ["2015-01-05T10:00:00,1,1,theft"] * 2
        p = write_csv(tmp_path / "e.csv", rows)
        with pytest.raises(ValueError, match="3 of 5 rows rejected"):
            parse_events(p, window=("2015-01-01", "2016-01-01"))


class TestParsePopulation:
    def test_four_cells(self, tmp_path):
        p = write_csv(
            tmp_path / "p.csv",
            ["0,0,100", "0,1,100", "1,0,100", "1,1,100"],
            header="lon,lat,population",
        )
        cells = parse_population(p)
        assert len(cells) == 4
        assert sum(c.population for c in cells) == 400

    def test_negative_population_is_an_error(self, tmp_path):
        p = write_csv(
            tmp_path / "p.csv", ["0,0,100", "0,1,-5"], header="lon,lat,population"
        )
        with pytest.raises(ValueError, match="negative"):
            parse_population(p)

    def test_zero_total_population_is_an_error(self, tmp_path):
        p = write_csv(
            tmp_path / "p.csv", ["0,0,0", "0,1,0"], header="lon,lat,population"
        )
        with pytest.raises(ValueError, match="zero total population"):
            parse_population(p)

    def test_duplicate_centroids_are_an_error(self, tmp_path):
        p = write_csv(
            tmp_path / "p.csv", ["0,0,5", "0,0,7"], header="lon,lat,population"
        )
        with pytest.raises(ValueError, match="duplicate"):
            parse_population(p)

    def test_missing_column_is_an_error(self, tmp_path):
        p = write_csv(tmp_path / "p.csv", ["0,0"], header="lon,lat")
        with pytest.raises(ValueError, match="required columns"):
            parse_population(p)

    def test_unparseable_value_is_an_error(self, tmp_path):
        p = write_csv(tmp_path / "p.csv", ["0,0,many"], header="lon,lat,population")
        with pytest.raises(ValueError, match="unparseable"):
            parse_population(p)


class TestFilterEvents:
    def setup_method(self):
        self.table = make_table(
            [
                "2015-01-05T00:00:00",
                "2015-01-12T00:00:00",
                "2015-01-19T00:00:00",
                "2015-01-26T00:00:00",
            ],
            lons=[0.0, 1.0, 2.0, 3.0],
            lats=[0.0, 1.0, 2.0, 3.0],
            cats=["theft", "robbery", "theft", "burglary"],
        )

    def test_absent_category_gives_empty_table(self):
        out = filter_events(self.table, category="arson")
        assert len(out) == 0

    def test_no_predicates_is_identity(self):
        out = filter_events(self.table)
        assert np.array_equal(out.timestamps, self.table.timestamps)
        assert np.array_equal(out.lons, self.table.lons)
        assert list(out.categories) == list(self.table.categories)

    def test_window_selects_exact_half(self):
        out = filter_events(
            self.table, window=("2015-01-05", "2015-01-19")
        )  # [start, end)
        assert len(out) == 2
        assert out.timestamps[-1] == np.datetime64("2015-01-12T00:00:00", "s")

    def test_bbox_is_closed(self):
        out = filter_events(self.table, bbox=(1.0, 1.0, 2.0, 2.0))
        assert len(out) == 2

    def test_conjunction_equals_sequential_in_any_order(self):
        cat, win, box = "theft", ("2015-01-01", "2015-01-20"), (0.0, 0.0, 2.5, 2.5)
        joint = filter_events(self.table, category=cat, window=win, bbox=box)
        seq1 = filter_events(
            filter_events(filter_events(self.table, category=cat), window=win),
            bbox=box,
        )
        seq2 = filter_events(
            filter_events(filter_events(self.table, bbox=box), window=win),
            category=cat,
        )
        for other in (seq1, seq2):
            assert np.array_equal(joint.timestamps, other.timestamps)
            assert np.array_equal(joint.lons, other.lons)

    def test_bad_window_and_bbox_rejected(self):
        with pytest.raises(ValueError):
            filter_events(self.table, window=("2015-02-01", "2015-01-01"))
        with pytest.raises(ValueError):
            filter_events(self.table, bbox=(1.0, 1.0, 0.0, 2.0))


def test_write_parse_roundtrip_is_idempotent(tmp_path):
    table = make_table(
        ["2015-03-01T04:05:06", "2015-03-02T07:08:09"],
        lons=[12.123456789, -0.25],
        lats=[-41.5, 89.0],
        cats=["theft", "robbery"],
    )
    p1 = tmp_path / "one.csv"
    p2 = tmp_path / "two.csv"
    write_events(table, p1)
    t1 = parse_events(p1)
    write_events(t1, p2)
    t2 = parse_events(p2)
    assert p1.read_text() == p2.read_text()
    assert np.array_equal(t1.timestamps, t2.timestamps)
    assert np.array_equal(t1.lons, t2.lons)
    assert np.array_equal(t1.lats, t2.lats)
    assert list(t1.categories) == list(t2.categories)


def test_dedupe_keeps_first_of_identical_tuples():
    table = make_table(
        ["2015-01-05T00:00:00"] * 3 + ["2015-01-06T00:00:00"],
        lons=[1.0, 1.0, 2.0, 1.0],
        lats=[1.0, 1.0, 1.0, 1.0],
    )
    out = dedupe_events(table)
    assert len(out) == 3  # one exact duplicate dropped
    again = dedupe_events(out)
    assert np.array_equal(again.lons, out.lons)
