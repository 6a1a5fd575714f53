"""Reading of CSV files, and validation of the input tables.

Every CSV file is read by one reader: a csv.reader pass in blocks of
READ_BLOCK_ROWS rows, whose cells are cast column by column (`cast`)
before the next block is read.  Point events (timestamp, lon, lat,
category) are checked row by row: a bad row is set aside with a reason,
and a file whose rows are mostly malformed is rejected.  Population cells
(lon, lat, population) must all be valid.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import islice, zip_longest

import numpy as np

# Input column -> canonical field. Callers may override any of the values
# to match their file's header.
DEFAULT_EVENT_SCHEMA = {
    "timestamp": "timestamp",
    "lon": "lon",
    "lat": "lat",
    "category": "category",
}

MAX_REJECT_FRACTION = 0.5

# Data rows per block; it bounds how many rows are held as Python strings.
READ_BLOCK_ROWS = 16384

# Why parse_events sets a row aside, in the order the reasons are checked.
REJECTION_REASONS = ("bad timestamp", "bad coordinate", "coordinate out of range",
                     "empty category")


@dataclass
class RowRejection:
    """One unusable input row. `row` is 1-based over data rows."""

    row: int
    reason: str


@dataclass
class EventTable:
    """Validated point events, sorted by timestamp (ties keep file order).

    Timestamps are numpy datetime64[s] in UTC; zone-aware inputs are
    converted, naive inputs are taken as already UTC.
    """

    timestamps: np.ndarray
    lons: np.ndarray
    lats: np.ndarray
    categories: np.ndarray
    source_id: str = ""
    rejections: list[RowRejection] = field(default_factory=list)

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype="datetime64[s]")
        self.lons = np.asarray(self.lons, dtype=float)
        self.lats = np.asarray(self.lats, dtype=float)
        self.categories = np.asarray(self.categories, dtype=object)
        n = self.timestamps.size
        if not (self.lons.size == self.lats.size == self.categories.size == n):
            raise ValueError("event columns have mismatched lengths")

    def __len__(self) -> int:
        return self.timestamps.size

    def take(self, index: np.ndarray) -> "EventTable":
        return EventTable(
            self.timestamps[index],
            self.lons[index],
            self.lats[index],
            self.categories[index],
            source_id=self.source_id,
            rejections=list(self.rejections),
        )


def parse_timestamp(text: str) -> np.datetime64 | None:
    """ISO-8601 to UTC datetime64[s]; None when unparseable or when the
    time in UTC falls outside years 1-9999.

    Accepts a trailing 'Z' and explicit offsets.  Sub-second digits are
    truncated to whole seconds.
    """
    t = text.strip()
    if not t:
        return None
    if t.endswith(("Z", "z")):
        t = t[:-1] + "+00:00"
    try:
        dt = datetime.fromisoformat(t)
        if dt.tzinfo is not None:
            dt = dt.astimezone(timezone.utc).replace(tzinfo=None)
    except (ValueError, OverflowError):
        return None
    return np.datetime64(dt.replace(microsecond=0), "s")


# ---------------------------------------------------------------------------
# the reader and the column caster


def _blocks(path, ragged_ok: bool = False):
    """Yield a CSV file's header, then its data rows in blocks of at most
    READ_BLOCK_ROWS rows, each a list of column lists.  Blank lines are
    skipped.  Ragged rows are an error unless `ragged_ok`: then short rows
    are padded with empty cells and cells past the header dropped."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        header = next(rows, [])
        yield header
        while chunk := list(islice(rows, READ_BLOCK_ROWS)):
            block = list(filter(None, chunk))
            if set(map(len, block)) - {len(header)} and not ragged_ok:
                raise ValueError(f"{path}: ragged rows")
            columns = list(map(list, islice(zip_longest(*block, fillvalue=""), len(header))))
            if block:
                yield columns + [[""] * len(block)] * (len(header) - len(columns))


def _convert(cells, dtype, fill) -> tuple[np.ndarray, np.ndarray]:
    """np.array(cells, dtype) for a column of cell text, with `fill` where
    a cell does not convert, and the mask of those cells.  Only a part
    holding such a cell is split, in halves, down to that cell."""
    try:
        values = np.array(cells, dtype=dtype)
        return values, np.zeros(values.shape, dtype=bool)
    except (ValueError, OverflowError):
        if len(cells) == 1:
            return np.full(1, fill, dtype=dtype), np.ones(1, dtype=bool)
    h = len(cells) // 2
    parts = _convert(cells[:h], dtype, fill), _convert(cells[h:], dtype, fill)
    return tuple(map(np.concatenate, zip(*parts)))


def _timestamps(cells) -> np.ndarray:
    """parse_timestamp of each cell as datetime64[s], NaT where it gives None.

    Cells shaped YYYY-MM-DDTHH:MM:SS[.f][Z|±HH:MM], with one to six
    fraction digits, convert as one vector: numpy reads the first 19
    characters, which must print back unchanged with a year from 2 to 9998
    (so 2014-02-30 and hour 24 do not pass).  Every other cell goes
    through parse_timestamp, and so does each one longer than that
    shape's 32 characters or ending in a NUL (fixed-width numpy strings
    would cut the first and drop the NUL of the second).
    """
    n = len(cells)
    text = np.array(cells, dtype=object).astype("U32")
    c = text.view(np.int32).reshape(n, 32)  # code points
    rows, length = np.arange(n), np.char.str_len(text)
    whole = length == np.fromiter(map(len, cells), int, n)
    o = length - 6  # where a ±HH:MM offset would start
    zone = c[rows[:, None], o[:, None] + [1, 2, 4, 5]] - ord("0")
    minutes = zone @ [600, 60, 10, 1]  # Python takes any offset under 24 h
    offset = ((length >= 25) & np.isin(c[rows, o], [ord("+"), ord("-")]) & (minutes < 1440)
              & (c[rows, o + 3] == ord(":")) & ((zone >= 0) & (zone <= 9)).all(axis=1))
    end = length - np.where(offset, 6, np.isin(c[rows, length - 1], [ord("Z"), ord("z")]))
    fraction = ((c[:, 20:26] >= ord("0")) & (c[:, 20:26] <= ord("9"))
                | (np.arange(20, 26) >= end[:, None])).all(axis=1)
    shaped = whole & ((end == 19) | (c[:, 19] == ord(".")) & (end >= 21) & (end <= 26) & fraction)
    idx = np.flatnonzero(shaped)
    head = text[idx].astype("U19")
    stamp, _ = _convert(head, "datetime64[s]", "NaT")
    good = ((np.datetime_as_string(stamp) == head) & (stamp >= np.datetime64("0002"))
            & (stamp < np.datetime64("9999")))
    keep = idx[good]
    shift = np.where(c[keep, o[keep]] == ord("-"), -60, 60) * offset[keep] * minutes[keep]
    out = np.full(n, np.datetime64("NaT"), dtype="datetime64[s]")
    out[keep] = stamp[good] - shift.astype("timedelta64[s]")
    rest = np.setdiff1d(rows, keep, assume_unique=True)
    out[rest] = np.array([parse_timestamp(cells[i]) for i in rest], dtype="datetime64[s]")
    return out


# Column kind -> (dtype its values are written from, dtype its cell text
# is read as, value of a cell that does not convert).
COLUMN_KINDS = {
    "int": (np.int64, np.int64, 0),
    "float": (float, float, np.nan),
    "bool": (bool, object, None),
    "date": ("datetime64[D]", "datetime64[D]", "NaT"),
    "str": (object, object, None),
}


def cast(cells, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """A column of cell text as an array of `kind`, and the mask of the
    cells it rejects.  int and date cells convert as numpy reads text,
    float cells by float(): an empty one is a NaN gap, a non-finite one is
    rejected.  A cell that does not convert holds 0, NaN or NaT.  bool
    cells read true or false, str cells are kept, and a timestamp cell is
    parse_timestamp of its text.
    """
    if kind == "timestamp":
        values = _timestamps(cells)
        return values, np.isnat(values)
    values, rejected = _convert(cells, *COLUMN_KINDS[kind][1:])
    if kind == "bool":
        return values == "true", (values != "true") & (values != "false")
    if kind == "float":
        rejected = ~np.isfinite(values)
        rejected[rejected] = [cells[i] != "" for i in np.flatnonzero(rejected)]
    return values, rejected


def _rejection(path, column: str, text: str, kind: str) -> ValueError:
    """The error for a cell of `column` that `cast` rejected as `kind`."""
    try:
        finite = kind != "float" or np.isfinite(float(text))
    except ValueError:
        finite = True
    cause = f"malformed {column} column" if finite else f"non-finite value in {column}"
    return ValueError(f"{path}: {cause}")


def read_csv(path, columns, kinds, header_only_ok: bool = False):
    """The header of a CSV file and, one array each, the columns at the
    indices `columns(header)` gives.

    `columns(header)` raises a ValueError for a header the caller does not
    accept.  The j-th column read is cast to kinds[j]; the last kind
    stands for any further ones.  A file without data rows (unless
    `header_only_ok`), with ragged rows or with a cell its kind rejects is
    a ValueError `<path>: <cause>`.
    """
    blocks = _blocks(path)
    header = next(blocks)
    if not header:
        raise ValueError(f"{path}: no data rows")
    index = list(columns(header))
    kinds = [kinds[min(j, len(kinds) - 1)] for j in range(len(index))]
    parts = [[cast((), kind)[0]] for kind in kinds]
    for block in blocks:
        for part, j, kind in zip(parts, index, kinds):
            values, rejected = cast(block[j], kind)
            if rejected.any():
                raise _rejection(path, header[j], block[j][np.argmax(rejected)], kind)
            part.append(values)
    if len(parts[0]) == 1 and not header_only_ok:
        raise ValueError(f"{path}: no data rows")
    block = None  # frees the last block's cells before the copies below
    return header, [np.concatenate(part) for part in parts]


# ---------------------------------------------------------------------------
# events and population


def _input_blocks(path, names, what):
    """The blocks of an input CSV, ragged rows allowed, and the index of
    each named column (of equal names the last, as csv.DictReader has it)."""
    blocks = _blocks(path, ragged_ok=True)
    header = next(blocks)
    missing = [c for c in names if c not in header]
    if missing:
        raise ValueError(f"{what} file lacks required columns: {missing}")
    index = {name: i for i, name in enumerate(header)}
    return blocks, [index[c] for c in names]


def parse_events(path, schema: dict | None = None) -> EventTable:
    """Read an event CSV into an EventTable.

    `schema` remaps canonical field names to the file's column names.
    Raises ValueError when required columns are absent or when more than
    half of the data rows are unusable; filter_events selects by time.
    """
    cols = dict(DEFAULT_EVENT_SCHEMA)
    if schema:
        unknown = set(schema) - set(cols)
        if unknown:
            raise ValueError(f"schema maps unknown fields: {sorted(unknown)}")
        cols.update(schema)
    blocks, (t, x, y, k) = _input_blocks(path, list(cols.values()), "event")
    kept = [(np.zeros(0, "datetime64[s]"), np.zeros(0), np.zeros(0), np.zeros(0, object))]
    rejections, n_rows = [], 0
    for block in blocks:
        ts = cast(block[t], "timestamp")[0]
        lon, lat = (cast(block[i], "float")[0] for i in (x, y))
        names, inverse = np.unique(np.array(block[k], dtype=object), return_inverse=True)
        cat = np.array([name.strip() for name in names.tolist()], dtype=object)[inverse]
        reason = np.select(  # 1 + the first of REJECTION_REASONS that applies
            [np.isnat(ts), ~(np.isfinite(lon) & np.isfinite(lat)),
             ~((np.abs(lon) <= 180.0) & (np.abs(lat) <= 90.0)), cat == ""],
            [1, 2, 3, 4], 0)
        good = reason == 0
        kept.append((ts[good], lon[good], lat[good], cat[good]))
        bad = np.flatnonzero(~good)
        rejections += [RowRejection(n_rows + 1 + i, REJECTION_REASONS[r - 1])
                       for i, r in zip(bad.tolist(), reason[bad].tolist())]
        n_rows += ts.size

    if n_rows and len(rejections) > MAX_REJECT_FRACTION * n_rows:
        raise ValueError(
            f"{len(rejections)} of {n_rows} rows rejected; input looks malformed"
        )
    table = EventTable(*map(np.concatenate, zip(*kept)), str(path), rejections)
    return table.take(np.argsort(table.timestamps, kind="stable"))


def parse_population(path) -> np.ndarray:
    """Read population cells (columns lon, lat, population) as an (n, 3)
    array of lon, lat and population.

    Hard errors: missing columns, an empty table, zero total population,
    and, at the first row with one, an unparseable number, a negative
    population or a duplicated cell.
    """
    blocks, index = _input_blocks(path, ["lon", "lat", "population"], "population")
    parts = [[cast(block[i], "float")[0] for i in index] for block in blocks]
    if not parts:
        raise ValueError("population file has no data rows")
    lon, lat, pop = cells = np.concatenate(parts, axis=1)
    # Equal cells (-0.0 equals 0.0) sort together in file order; all but
    # the first of them are duplicates.
    order = np.lexsort((lat, lon))
    duplicate = np.zeros(lon.size, dtype=bool)
    duplicate[order[1:][(cells[:2, order[1:]] == cells[:2, order[:-1]]).all(axis=0)]] = True
    reason = np.select([~np.isfinite(cells).all(axis=0), pop < 0, duplicate], [1, 2, 3], 0)
    if reason.any():
        i = np.flatnonzero(reason)[0]
        cause = ("unparseable value", "negative population",
                 f"duplicate cell at {(float(lon[i]), float(lat[i]))}")[reason[i] - 1]
        raise ValueError(f"population row {i + 1}: {cause}")
    if not (pop > 0).any():
        raise ValueError("zero total population")
    return cells.T


def filter_events(
    table: EventTable,
    category: str | None = None,
    window: tuple | None = None,
    bbox: tuple | None = None,
) -> EventTable:
    """Subset an EventTable; all filters are optional and combine with AND.

    `window` is (start, end), inclusive start and exclusive end.
    `bbox` is (lon_min, lat_min, lon_max, lat_max), closed on all sides.
    """
    mask = np.ones(len(table), dtype=bool)
    if category is not None:
        mask &= table.categories == category
    if window is not None:
        w0, w1 = (np.datetime64(w, "s") for w in window)
        if w1 <= w0:
            raise ValueError("window end must be after window start")
        mask &= (table.timestamps >= w0) & (table.timestamps < w1)
    if bbox is not None:
        lon0, lat0, lon1, lat1 = bbox
        if lon1 < lon0 or lat1 < lat0:
            raise ValueError("bbox corners are out of order")
        mask &= (
            (table.lons >= lon0)
            & (table.lons <= lon1)
            & (table.lats >= lat0)
            & (table.lats <= lat1)
        )
    return table.take(np.nonzero(mask)[0])
