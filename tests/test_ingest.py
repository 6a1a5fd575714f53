"""Parsing and validation of input tables, and the block-wise CSV reader."""

import contextlib
import csv
import io
import re
import tracemalloc
from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crimepatterns import (
    EventTable,
    filter_events,
    parse_events,
    parse_population,
)
from crimepatterns import cli, ingest
from crimepatterns.ingest import cast, parse_timestamp, read_csv


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

    def test_missing_column_is_an_error(self, tmp_path):
        p = write_csv(
            tmp_path / "e.csv", ["2015-01-05T10:00:00,1,1"], header="timestamp,lon,lat"
        )
        with pytest.raises(ValueError, match="required columns"):
            parse_events(p)

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

    def test_timestamp_past_the_calendar_is_a_bad_timestamp(self, tmp_path):
        good = "2015-01-05T10:00:00,1,1,theft"
        p = write_csv(
            tmp_path / "e.csv",
            ["0001-01-01T00:00:00+01:00,1,1,theft", "9999-12-31T23:00:00-02:00,1,1,theft",
             good, good, good],
        )
        t = parse_events(p)
        assert len(t) == 3
        assert [(r.row, r.reason) for r in t.rejections] == [
            (1, "bad timestamp"), (2, "bad timestamp")]


class TestParsePopulation:
    def test_four_cells(self, tmp_path):
        p = write_csv(
            tmp_path / "p.csv",
            ["0,0,100", "0,1,100", "1,0,100", "1,1,100"],
            header="lon,lat,population",
        )
        cells = parse_population(p)
        assert cells.shape == (4, 3)
        assert cells[:, 2].sum() == 400

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


# ---------------------------------------------------------------------------
# the per-row parsers the block-wise reader replaced, kept as references


def _reference_float(text):
    try:
        v = float(text)
    except (TypeError, ValueError):
        return None
    return v if np.isfinite(v) else None


def reference_parse_events(path):
    """One DictReader row and one parse_timestamp call at a time."""
    cols = {name: name for name in ("timestamp", "lon", "lat", "category")}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [v for v in cols.values() if v not in header]
        if missing:
            raise ValueError(f"event file lacks required columns: {missing}")
        timestamps, lons, lats, cats, rejections = [], [], [], [], []
        n_rows = 0
        for row in reader:
            n_rows += 1
            ts = parse_timestamp(row.get(cols["timestamp"]) or "")
            if ts is None:
                rejections.append((n_rows, "bad timestamp"))
                continue
            lon = _reference_float(row.get(cols["lon"]))
            lat = _reference_float(row.get(cols["lat"]))
            if lon is None or lat is None:
                rejections.append((n_rows, "bad coordinate"))
                continue
            if not (-180.0 <= lon <= 180.0 and -90.0 <= lat <= 90.0):
                rejections.append((n_rows, "coordinate out of range"))
                continue
            cat = (row.get(cols["category"]) or "").strip()
            if not cat:
                rejections.append((n_rows, "empty category"))
                continue
            timestamps.append(ts)
            lons.append(lon)
            lats.append(lat)
            cats.append(cat)
    if n_rows and len(rejections) > ingest.MAX_REJECT_FRACTION * n_rows:
        raise ValueError(f"{len(rejections)} of {n_rows} rows rejected; input looks malformed")
    order = np.argsort(np.array(timestamps, dtype="datetime64[s]"), kind="stable")
    return [
        np.array(timestamps, dtype="datetime64[s]")[order],
        np.array(lons, dtype=float)[order],
        np.array(lats, dtype=float)[order],
        [cats[i] for i in order],
        rejections,
    ]


def reference_parse_population(path):
    """One DictReader row at a time, one cell tuple per row."""
    cells, seen = [], set()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in ("lon", "lat", "population") if c not in header]
        if missing:
            raise ValueError(f"population file lacks required columns: {missing}")
        for i, row in enumerate(reader, start=1):
            lon = _reference_float(row.get("lon"))
            lat = _reference_float(row.get("lat"))
            pop = _reference_float(row.get("population"))
            if lon is None or lat is None or pop is None:
                raise ValueError(f"population row {i}: unparseable value")
            if pop < 0:
                raise ValueError(f"population row {i}: negative population")
            key = (lon, lat)
            if key in seen:
                raise ValueError(f"population row {i}: duplicate cell at {key}")
            seen.add(key)
            cells.append((lon, lat, pop))
    if not cells:
        raise ValueError("population file has no data rows")
    if not any(c[2] > 0 for c in cells):
        raise ValueError("zero total population")
    return np.array(cells, dtype=float)


def reference_read_csv(path, columns, kinds, block_rows=None):
    """read_csv of a whole file's csv.reader rows, cast as whole columns,
    or `block_rows` rows at a time: then of several rejected cells the
    one named is the first column's in the first of those blocks that
    holds one, as in read_csv."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh)) or [[]]
    step = block_rows or max(len(rows), 1)
    blocks = [list(filter(None, rows[i:i + step])) for i in range(0, len(rows), step)]
    rows = list(filter(None, rows))
    if not header or not rows:
        raise ValueError(f"{path}: no data rows")
    if any(len(row) != len(header) for row in rows):
        raise ValueError(f"{path}: ragged rows")
    values = [[] for _ in kinds]
    for block in filter(None, blocks):
        for part, j, kind in zip(values, columns(header), kinds):
            cells = [row[j] for row in block]
            got, rejected = cast(cells, kind)
            if rejected.any():
                raise ingest._rejection(path, header[j], cells[np.argmax(rejected)], kind)
            part.append(got)
    return header, [np.concatenate(part) for part in values]


def outcome(parse, *args):
    """The parse's result, or the type and text of the error it raises."""
    try:
        return parse(*args)
    except (ValueError, csv.Error) as exc:
        return (type(exc).__name__, str(exc))


def padded(text):
    return st.tuples(st.sampled_from(["", " ", "\t", " "]),
                     st.sampled_from(["", " ", " "])).map(
        lambda pad: pad[0] + text + pad[1])


def two_digits(lo, hi):
    return st.integers(lo, hi).map("{:02d}".format)


canonical_stamps = st.builds(
    lambda y, mo, d, sep, h, mi, s, frac, zone: (
        f"{y:04d}-{mo}-{d}{sep}{h}:{mi}:{s}{frac}{zone}"),
    st.sampled_from([1, 2, 1999, 2014, 2015, 2016, 2020, 9998, 9999]),
    two_digits(0, 13),
    two_digits(0, 32),
    st.sampled_from(["T", "T", "T", " ", "t"]),
    two_digits(0, 24),
    two_digits(0, 60),
    two_digits(0, 60),
    st.sampled_from(["", "", ".5", ".123", ".123456", ".1234567", "."]),
    st.one_of(
        st.sampled_from(["", "", "Z", "z", "+00:00", "-00:00"]),
        st.builds(lambda sign, h, m: f"{sign}{h}:{m}",
                  st.sampled_from("+-"), two_digits(0, 24), two_digits(0, 61)),
    ),
)
other_stamps = st.sampled_from([
    "20140105T100000", "2014-W02-1", "2014-01-05 10:00:00", "2014-01-05",
    "2014-01-05T10", "2014-02-30T10:00:00", "2014-01-05T24:00:00", "yesterday",
    "", "2014-01-05T10:00:00,5", "2014-01-05T10:00:00+01:00:30",
    "0001-01-01T00:00:00", "2014-01-05T10:00:00+0100", "2014-01-05T10:00:00Zjunk",
    "２014-01-05T10:00:00", "2014-01-05T10:00:00\x00", "2014-01-05T10:00\x00:00",
    "\x002014-01-05T10:00:00", "2014-01-05T10:00:00" + " " * 20,
    "2014-01-05T10:00:00.123456789012345678", "2014-01-05T10:00:00+01:00" + "0" * 40,
])
stamps = st.one_of(canonical_stamps, other_stamps).flatmap(padded)
coordinates = st.one_of(
    st.floats(-200, 200).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e500", "1_0", "", " 12.5 ", "abc",
                     "١٢", "180", "-90.0", "90.000001", "-0.0", "1\x00", "\x00",
                     "1" * 40]),
)
categories = st.sampled_from(["theft", "", "   ", " robbery ", " x ",
                              "a,b", 'say "x"', "theft\x00", " \x00 ", "z" * 40, " y"])
good_stamps = st.builds(
    lambda dt, frac, zone: dt.replace(microsecond=0).isoformat() + frac + zone,
    st.datetimes(datetime(2013, 1, 1), datetime(2017, 12, 31)),
    st.sampled_from(["", ".5", ".123456"]),
    st.sampled_from(["", "Z", "+05:30", "-06:00"]),
)
good_rows = st.tuples(
    good_stamps, st.floats(-180, 180).map(repr), st.floats(-90, 90).map(repr),
    st.sampled_from(["theft", " robbery "]),
).map(list)
event_rows = st.one_of(
    good_rows,
    good_rows,
    good_rows,
    st.tuples(stamps, coordinates, coordinates, categories).map(list),
    st.lists(st.sampled_from(["2015-01-05T10:00:00", "1.5", "theft"]), max_size=6),
)


def write_rows(path, header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    path.write_text(buf.getvalue(), encoding="utf-8")


EVENT_LINES = ["timestamp,lon,lat,category"] + [
    f"2015-01-{d:02d}T10:00:00{zone},{d / 4},-{d / 8},theft"
    for d, zone in zip(range(1, 13), ["", "Z", "+05:30", "-06:00"] * 3)]
ARTIFACTS = {  # header and data lines, and the kind of each column
    "two columns": (["a,b"] + [f"{i},{i / 2}" for i in range(12)], ["int", "float"]),
    "one column": (["count"] + [f"{i}" for i in range(12)], ["int"]),
}
FIELD_LIMIT = csv.field_size_limit()


def _at(lines, at, cell):
    """The lines with the last cell of data row `at` replaced."""
    lines = list(lines)
    head, comma, _ = lines[at + 1].rpartition(",")
    lines[at + 1] = head + comma + cell
    return lines


# File texts that leave the one-pass split, each made from a header and
# data lines with the defect at 0-based data row `at`.
OFF_THE_FAST_PATH = {
    "crlf line ends": lambda lines, at: "\r\n".join(lines) + "\r\n",
    "crlf from a row on": lambda lines, at: (
        "\n".join(lines[:at + 1]) + "\n" + "\r\n".join(lines[at + 1:]) + "\r\n"),
    "lone cr line ends": lambda lines, at: "\r".join(lines) + "\r",
    "lone cr at a row": lambda lines, at: "\n".join(_at(lines, at, "5\r")) + "\n",
    "quoted comma": lambda lines, at: "\n".join(_at(lines, at, '"5,5"')) + "\n",
    "quoted quote": lambda lines, at: "\n".join(_at(lines, at, '"say ""5"""')) + "\n",
    "quoted newline across rows": lambda lines, at: "\n".join(_at(lines, at, '"5\n"')) + "\n",
    "quoted plain cell": lambda lines, at: "\n".join(_at(lines, at, '"5"')) + "\n",
    "no final newline": lambda lines, at: "\n".join(lines[:at + 2]),
    "blank line": lambda lines, at: "\n".join(lines[:at + 1] + [""] + lines[at + 1:]) + "\n",
    "whitespace-only line": lambda lines, at: (
        "\n".join(lines[:at + 1] + ["  \t"] + lines[at + 1:]) + "\n"),
    "short and long rows": lambda lines, at: (
        "\n".join(lines[:at + 1] + ["5", lines[at + 1] + ",extra"] + lines[at + 2:]) + "\n"),
    "utf-8 bom": lambda lines, at: "\ufeff" + "\n".join(lines) + "\n",
    "field over the limit": lambda lines, at: (
        "\n".join(_at(lines, at, "5" * (FIELD_LIMIT + 1))) + "\n"),
    "line over the limit, fields under it": lambda lines, at: (
        "\n".join(_at(lines, at, "5" + " " * (FIELD_LIMIT - 10))) + "\n"),
}


class TestBlockReaderOracle:
    """The block-wise parsers equal the per-row ones kept above: the same
    arrays, the same rejections, the same error messages, with rows on
    both sides of block boundaries."""

    @settings(max_examples=250, deadline=None)
    @given(
        st.lists(event_rows, max_size=40),
        st.sampled_from([1, 2, 3, 7, ingest.READ_BLOCK_ROWS]),
    )
    def test_parse_events_equals_the_per_row_parser(self, tmp_path_factory, rows, block_rows):
        path = tmp_path_factory.mktemp("events") / "e.csv"
        write_rows(path, ["timestamp", "lon", "lat", "category"], rows)
        expected = outcome(reference_parse_events, path)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ingest, "READ_BLOCK_ROWS", block_rows)
            got = outcome(parse_events, path)
        if isinstance(expected, tuple):
            assert got == expected
            return
        ts, lons, lats, cats, rejections = expected
        assert np.array_equal(got.timestamps, ts)
        assert np.array_equal(got.lons, lons) and np.array_equal(got.lats, lats)
        assert list(got.categories) == cats
        assert [(r.row, r.reason) for r in got.rejections] == rejections

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.tuples(st.sampled_from(["0", "0.0", "-0.0", "1", "2.5"]),
                          st.sampled_from(["0", "-0.0", "1", "1e0"]),
                          st.sampled_from(["5", "0", "-1", "", "nan", "inf", "1e500", "x",
                                           " 7 ", "1_0", "1\x00"])).map(list),
                st.lists(st.sampled_from(["1", "2"]), max_size=4),
            ),
            max_size=12,
        ),
        st.sampled_from([["lon", "lat", "population"], ["population", "lat", "lon", "extra"],
                         ["lon", "lat"]]),
        st.sampled_from([1, 2, 5, ingest.READ_BLOCK_ROWS]),
    )
    def test_parse_population_equals_the_per_row_parser(self, tmp_path_factory, rows, header,
                                                        block_rows):
        path = tmp_path_factory.mktemp("pop") / "p.csv"
        write_rows(path, header, rows)
        expected = outcome(reference_parse_population, path)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ingest, "READ_BLOCK_ROWS", block_rows)
            got = outcome(parse_population, path)
        if isinstance(expected, tuple):
            assert got == expected
        else:
            assert got.shape == expected.shape and np.array_equal(got, expected)

    def test_blank_lines_and_ragged_rows_match(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text(
            "timestamp,lon,lat,category\n\n2015-01-05T10:00:00,1,1,theft\n"
            "2015-01-06T10:00:00,1,1\n2015-01-07T10:00:00,2,2,theft,extra\n\n"
            "2015-01-08T10:00:00\n2015-01-09T10:00:00,3,3,x\n"
        )
        ts, lons, _, cats, rejections = reference_parse_events(path)
        got = parse_events(path)
        assert np.array_equal(got.timestamps, ts) and list(got.categories) == cats
        assert [(r.row, r.reason) for r in got.rejections] == rejections == [
            (2, "empty category"), (4, "bad coordinate")]

    def test_nul_characters_are_judged_cell_by_cell(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text(
            "timestamp,lon,lat,category\n2015-01-05T10:00:00\x00,1,1,theft\n"
            "2015-01-05\x00,1,1,theft\n2015-01-06T10:00:00,1\x00,1,theft\n"
            "2015-01-07T10:00:00,2,2,theft\x00\n2015-01-08T10:00:00,3,3,theft\n"
        )
        ts, lons, _, cats, rejections = reference_parse_events(path)
        got = parse_events(path)
        assert np.array_equal(got.timestamps, ts) and list(got.categories) == cats
        assert np.array_equal(got.lons, lons)
        assert [(r.row, r.reason) for r in got.rejections] == rejections == [
            (2, "bad timestamp"), (3, "bad coordinate")]
        assert "theft\x00" in cats

    def test_huge_cells_keep_arrays_narrow(self, tmp_path):
        """One 100,000-character timestamp and one such category among
        thousands of rows: no array is as wide as the longest cell."""
        rows = [["2015-01-05T10:00:00", "1.5", "2.5", "theft"]] * 3000
        rows[10] = ["2015-01-05T10:00:00" + " " * 100_000, "1", "1", "theft"]
        rows[20] = ["2015-01-05T10:00:00", "1", "1", "theft" + "x" * 100_000]
        path = tmp_path / "e.csv"
        write_rows(path, ["timestamp", "lon", "lat", "category"], rows)
        ts, lons, _, cats, rejections = reference_parse_events(path)
        tracemalloc.start()
        try:
            got = parse_events(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got.timestamps, ts) and list(got.categories) == cats
        assert np.array_equal(got.lons, lons) and got.rejections == [] == rejections
        assert peak < 50 * 2**20

    @pytest.mark.parametrize("case", sorted(OFF_THE_FAST_PATH))
    def test_files_off_the_fast_path_equal_the_per_row_parser(self, tmp_path, case):
        """The defect sits on each of several rows, so that some block sizes
        read clean blocks first and hand a block to csv.reader mid-file,
        a quoted newline then spanning the block boundary."""
        for at in (0, 1, 2, 3, 6, 7, 8):
            path = tmp_path / f"e{at}.csv"
            path.write_bytes(OFF_THE_FAST_PATH[case](EVENT_LINES, at).encode("utf-8"))
            expected = outcome(reference_parse_events, path)
            for block_rows in (1, 2, 3, 7, ingest.READ_BLOCK_ROWS):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(ingest, "READ_BLOCK_ROWS", block_rows)
                    got = outcome(parse_events, path)
                if isinstance(expected, tuple):
                    assert got == expected, (at, block_rows)
                    continue
                ts, lons, lats, cats, rejections = expected
                assert np.array_equal(got.timestamps, ts), (at, block_rows)
                assert np.array_equal(got.lons, lons) and np.array_equal(got.lats, lats)
                assert list(got.categories) == cats
                assert [(r.row, r.reason) for r in got.rejections] == rejections

    @pytest.mark.parametrize("artifact", sorted(ARTIFACTS))
    @pytest.mark.parametrize("case", sorted(OFF_THE_FAST_PATH))
    def test_artifacts_off_the_fast_path_equal_a_whole_file_read(self, tmp_path, case,
                                                                 artifact):
        lines, kinds = ARTIFACTS[artifact]
        for at in (0, 1, 2, 3, 6, 7, 8):
            path = tmp_path / f"a{at}.csv"
            path.write_bytes(OFF_THE_FAST_PATH[case](lines, at).encode("utf-8"))
            read = (path, lambda h: range(len(kinds)), kinds)
            expected = outcome(reference_read_csv, *read)
            for block_rows in (1, 2, 3, 7, ingest.READ_BLOCK_ROWS):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(ingest, "READ_BLOCK_ROWS", block_rows)
                    got = outcome(read_csv, *read)
                if isinstance(expected[0], str):  # the error's type and text
                    assert got == expected, (at, block_rows)
                    continue
                header, values = expected
                assert got[0] == header, (at, block_rows)
                assert all(map(np.array_equal, got[1], values)) and len(got[1]) == len(kinds)

    def test_no_data_rows_is_an_empty_table(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("timestamp,lon,lat,category\n")
        got = parse_events(path)
        assert len(got) == 0 and got.rejections == []
        path.write_text("")
        with pytest.raises(ValueError, match="lacks required columns"):
            parse_events(path)


class TestCast:
    def test_timestamp_vector_route_equals_parse_timestamp(self):
        rng = np.random.default_rng(5)
        seconds = rng.integers(-2_000_000_000, 4_000_000_000, 3000)
        texts = np.datetime_as_string(seconds.astype("datetime64[s]")).tolist()
        zones = ["", "Z", "+05:30", "-06:00", ".25", ".999999-01:00"]
        cells = [t + zones[i % len(zones)] for i, t in enumerate(texts)]
        got, rejected = cast(cells, "timestamp")
        expected = np.array([parse_timestamp(c) for c in cells], dtype="datetime64[s]")
        assert np.array_equal(got, expected) and not rejected.any()

        # Calendar edges, judged the same way cell by cell.
        dates = ["1900-02-29", "2000-02-29", "2015-02-29", "2016-02-29", "2015-02-28",
                 "2015-04-31", "2015-06-31", "2015-09-30", "2015-11-31", "2015-12-31",
                 "2015-00-10", "2015-13-10", "2015-01-00", "2015-01-32",
                 "0001-01-01", "0002-01-01", "9998-12-31", "9999-12-31", "0000-01-01"]
        times = ["T00:00:00", "T23:59:59", "T24:00:00", "T10:60:00", "T10:00:60",
                 "t10:00:00", " 10:00:00", "x10:00:00", "T1:00:000"]
        zones = ["", "Z", ".5", "+05:30", "-06:00", ".123456-00:30"]
        cells = [d + t + z for d in dates for t in times for z in zones]
        got, rejected = cast(cells, "timestamp")
        for cell, value, bad in zip(cells, got, rejected):
            expected = parse_timestamp(cell)
            assert bad == (expected is None), cell
            assert bad or value == expected, cell
        assert np.datetime64("2000-02-29T00:00:00") in got
        assert np.datetime64("2016-02-29T16:00:00") in got  # 10:00 at -06:00
        assert 0 < rejected.sum() < len(cells)

    def test_float_gaps_and_rejections(self):
        values, rejected = cast(("1.5", "", "nan", "x", "-inf", " 2 ", "1\x00"), "float")
        assert np.array_equal(values, [1.5, np.nan, np.nan, np.nan, -np.inf, 2.0, np.nan],
                              equal_nan=True)
        assert rejected.tolist() == [False, False, True, True, True, False, True]

    def test_other_kinds(self):
        # An int cell reads as int() reads it: each of these has one value.
        ints, bad = cast(("1", "x", "99999999999999999999", "1_0", " 3", "١٢"), "int")
        assert ints.tolist() == [1, 0, 0, 10, 3, 12]
        assert bad.tolist() == [False, True, True, False, False, False]
        flags, bad = cast(("true", "false", "True"), "bool")
        assert flags.tolist() == [True, False, False] and bad.tolist() == [False, False, True]
        # A date cell is exactly YYYY-MM-DD of a real day.
        good = ["2015-01-05", "2016-02-29", "0001-01-01", "9999-12-31"]
        wrong = ["", "NaT", "today", "2015", "2015-01", "2015-01-05T10:00:00",
                 "2015-01-05T10:00:00Z", " 2015-01-05", "2015-01-05 ", "2015-01-05\x00",
                 "2015-02-29", "0000-01-01", "2015-W02-1", "20150105"]
        dates, bad = cast(good + wrong, "date")
        assert np.datetime_as_string(dates[:len(good)]).tolist() == good
        assert np.isnat(dates[len(good):]).all()
        assert bad.tolist() == [False] * len(good) + [True] * len(wrong)
        texts, bad = cast((" a ", ""), "str")
        assert texts.tolist() == [" a ", ""] and not bad.any()

    @given(st.lists(st.dates(), max_size=20))  # years 1-9999
    def test_written_dates_read_back(self, days):
        dates = np.array(days, dtype="datetime64[D]")
        values, bad = cast(cli._format(dates), "date")
        assert np.array_equal(values, dates) and not bad.any()

    def test_read_csv_blocks_give_the_whole_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ingest, "READ_BLOCK_ROWS", 3)
        path = tmp_path / "t.csv"
        path.write_text("a,b\n" + "".join(f"{i},{i / 2}\n" for i in range(10)))
        header, (ints, floats) = read_csv(path, lambda h: [0, 1], ["int", "float"])
        assert header == ["a", "b"]
        assert ints.tolist() == list(range(10))
        assert floats.tolist() == [i / 2 for i in range(10)]

    @pytest.mark.parametrize("body, cause", [
        ("a,b\n1,x\n", "malformed b column"),
        ("a,b\n1,inf\n", "non-finite value in b"),
        ("a,b\n1,nan\n", "non-finite value in b"),
        ("a,b\n1,2\x00\n", "malformed b column"),
        ("a,b\n1\x00,2\n", "malformed a column"),
        ("a,b\n1,2\n1\n", "ragged rows"),
        ("a,b\n", "no data rows"),
    ])
    def test_read_csv_errors_name_the_path_and_cause(self, tmp_path, body, cause):
        path = tmp_path / "t.csv"
        path.write_text(body)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {cause}$"):
            read_csv(path, lambda h: [0, 1], ["int", "float"])


# ---------------------------------------------------------------------------
# fuzzing: any file either reads or fails with a reported error


# Reader -> the header of the files it is meant for.  read_csv reads every
# column as one kind.
READERS = {
    "events": (parse_events, "timestamp,lon,lat,category"),
    "population": (parse_population, "lon,lat,population"),
    **{kind: (lambda path, kind=kind: read_csv(path, lambda h: range(len(h)), [kind]), header)
       for kind, header in [("int", "count"), ("float", "x,y"), ("bool", "significant"),
                            ("date", "week_start"), ("str", "reason,category")]},
}
FUZZ_HEADERS = [header for _, header in READERS.values()] + [
    "week_start,value", "week_start,region_1,region_2,city"]
junk_cells = st.one_of(st.text(max_size=6), st.sampled_from([
    "", " ", "1e999", "nan", "99999999999999999999", "١٢", "٣.٥", "\x00", "1\x00", '"',
    '"5,5"', 'a"b', '"x\r\ny"', "\ufeff1", "true", "x" * 40]))
# Header field -> cells that read as its kind; numbers for any other field.
PLAUSIBLE_CELLS = {
    "timestamp": ["2015-01-05T10:00:00", "2015-01-06 11:00:00Z", "2015-01-07T09:15:00+05:30"],
    "category": ["theft", " robbery ", "burglary"],
    "reason": ["bad timestamp", " x "],
    "week_start": ["2015-01-05", "2015-01-12", "2015-01-19"],
    "significant": ["true", "false"],
    "count": ["0", "1", "7", "12"],
}


def fuzz_cells(name):
    """Mostly cells that read as column `name`'s kind, one in eight junk."""
    plausible = st.sampled_from(PLAUSIBLE_CELLS.get(name, ["0", "1", "7", "-2.5", "3.25"]))
    return st.integers(0, 7).flatmap(lambda i: junk_cells if i == 0 else plausible)


@st.composite
def fuzz_bodies(draw, header):
    """Bytes of a CSV-like file: mostly `header`, else another or a junk
    one, and rows of mixed cells with mixed line ends, in one file in four
    ragged, perhaps with a BOM and a stray invalid UTF-8 byte; or raw
    random bytes."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=120))
    header = draw(st.integers(0, 7).flatmap(lambda i: st.just(header) if i < 5 else (
        st.sampled_from(FUZZ_HEADERS) if i < 7 else junk_cells)))
    if draw(st.integers(0, 3)) == 0:
        row = st.lists(junk_cells | fuzz_cells(""), max_size=5)
    else:
        row = st.tuples(*map(fuzz_cells, header.split(",")))
    lines = [header] + draw(st.lists(row.map(",".join), max_size=12))
    ends = draw(st.lists(st.sampled_from(["\n"] * 6 + ["\r\n", "\r", ""]),
                         min_size=len(lines), max_size=len(lines)))
    data = (draw(st.sampled_from([""] * 5 + ["\ufeff"]))
            + "".join(map(str.__add__, lines, ends))).encode("utf-8")
    at = draw(st.integers(0, len(data)))
    return data[:at] + draw(st.sampled_from([b""] * 10 + [b"\xff", b"\x80"])) + data[at:]


# CLI arguments, "{body}" standing for the fuzzed file, and its header.
FUZZ_COMMANDS = [
    (["tessellate", "--events", "{body}", "--population", "{population}", "--target-pop", "5"],
     "timestamp,lon,lat,category"),
    (["tessellate", "--events", "{events}", "--population", "{body}", "--target-pop", "5"],
     "lon,lat,population"),
    (["concentrate", "--counts", "{body}", "--boot", "100"], "count"),
    (["ranks", "--region-series", "{body}"], "week_start,region_1,region_2,city"),
    (["rhythms", "--series", "{body}"], "week_start,value"),
    (["composed", "--region-series", "{body}"], "week_start,region_1,region_2,city"),
    (["independence", "--pairs", "{body}"], "x,y"),
]


# Float cells: reprs, and cells that float() reads in an unusual way, that
# cast rejects as malformed or non-finite, or that other float parsers
# (np.loadtxt among them) read otherwise: 1_0, ١٢ and 3\x1c (loadtxt strips
# U+001C-U+001F as whitespace), 1#2 (loadtxt's default comment).
FLOAT_CELLS = st.one_of(
    st.floats(allow_nan=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map("{:.17g}".format),
    st.sampled_from(["-0", "-0.0", " 3", "3 ", "\t3", "1_0", "\u0661\u0662", "nan", "inf",
                     "-inf", "1e999", "1#2", "0x10", "", " ", "3\x1c", "\x1f3", "+.5", "1d5",
                     "1\x00"]),
)


class TestReaderFuzz:
    """Blocks of 2 or 3 rows, so that the one-pass split hands over to
    csv.reader and columns fall back to the per-cell pass mid-file."""

    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_readers_return_or_raise_a_reported_error(self, tmp_path, reader):
        read, header = READERS[reader]
        path = tmp_path / "f.csv"

        @settings(max_examples=100, deadline=None)
        @given(fuzz_bodies(header), st.sampled_from([2, 3]),
               st.sampled_from([16, FIELD_LIMIT, FIELD_LIMIT]))
        def check(body, block_rows, limit):
            path.write_bytes(body)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ingest, "READ_BLOCK_ROWS", block_rows)
                csv.field_size_limit(limit)
                try:
                    read(path)
                except (ValueError, csv.Error, OverflowError):
                    pass
                finally:
                    csv.field_size_limit(FIELD_LIMIT)

        check()

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(FUZZ_COMMANDS).flatmap(
        lambda command: st.tuples(st.just(command[0]), fuzz_bodies(command[1]))),
        st.sampled_from([2, 3]))
    def test_cli_exits_0_or_1_with_one_error_line(self, tmp_path_factory, run, block_rows):
        command, body = run
        d = tmp_path_factory.mktemp("cli")
        files = {"body": d / "body.csv", "events": d / "events.csv",
                 "population": d / "population.csv"}
        files["body"].write_bytes(body)
        files["events"].write_text("timestamp,lon,lat,category\n" + "".join(
            f"2015-01-{day:02d}T10:00:00,{day % 2}.5,0.5,theft\n" for day in range(1, 29)))
        files["population"].write_text("lon,lat,population\n0.5,0.5,4\n1.5,0.5,4\n")
        argv = [arg.format(**files) for arg in command] + ["--out", str(d / "out")]
        err = io.StringIO()
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            mp.setattr(ingest, "READ_BLOCK_ROWS", block_rows)
            code = cli.main(argv)
        assert code in (0, 1), err.getvalue()
        if code == 1:
            assert re.fullmatch(r"error: [a-z]+: [^\n]*\n", err.getvalue()), err.getvalue()

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 3).flatmap(lambda width: st.lists(
            st.lists(FLOAT_CELLS, min_size=width, max_size=width).map(",".join),
            max_size=8)),
        st.sampled_from([1, 2, 3, ingest.READ_BLOCK_ROWS]),
    )
    def test_float_columns_equal_the_reference_reader(self, tmp_path_factory, lines,
                                                      block_rows):
        """Float columns read by read_csv, whether split in one pass or
        by csv.reader, give the reference reader's arrays bit for bit and
        its errors word for word."""
        path = tmp_path_factory.mktemp("floats") / "f.csv"
        width = lines[0].count(",") + 1 if lines else 1
        path.write_text(",".join(f"c{j}" for j in range(width)) + "\n"
                        + "".join(line + "\n" for line in lines), encoding="utf-8")

        def bits(read, *args):
            header, columns = read(path, lambda h: range(len(h)), ["float"] * width, *args)
            return header, [column.view(np.int64).tolist() for column in columns]

        expected = outcome(bits, reference_read_csv, block_rows)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ingest, "READ_BLOCK_ROWS", block_rows)
            assert outcome(bits, read_csv) == expected
