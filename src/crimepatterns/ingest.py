"""Reading of CSV files, and validation of the input tables.

Every CSV file is read by one reader in blocks of READ_BLOCK_ROWS rows,
whose cells are cast column by column (`cast`) before the next block is
read.  A block of plain lines (no quote, no carriage return, the header's
field count on every line) is split on commas in one pass; from the first
block that is not, csv.reader reads the rest of the file.  A number
column converts as one numpy array; a column numpy rejects is converted
once more, one cell at a time, so a bad cell is found in one pass.  Text
and true/false columns are kept as text.  Timestamps in the common ISO
shape are read by calendar arithmetic on their characters, every other
one by parse_timestamp; a date is read as the timestamp of its midnight
and kept only when it prints back as itself.  Point events (timestamp,
lon, lat, category) are checked row by row: a bad row is set aside with
a reason, and a file whose rows are mostly malformed is rejected.
Population cells (lon, lat, population) must all be valid.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import chain, islice, repeat, zip_longest

import numpy as np

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
            list(self.rejections),
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
    are padded with empty cells and cells past the header dropped.

    Each block is read as READ_BLOCK_ROWS raw lines.  While a block has no
    quote, no carriage return, no blank line and no line longer than the
    csv field limit, and every line holds exactly the header's fields, it
    is split on commas in one pass.  From the first block that does not,
    csv.reader reads the rest of the file, that block's lines included.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh), [])
        yield header
        width = len(header)
        while lines := list(islice(fh, READ_BLOCK_ROWS)):
            text = "".join(lines)
            if ('"' in text or "\r" in text or "\n" in lines
                    or max(map(len, lines)) > csv.field_size_limit()
                    or set(map(str.count, lines, repeat(","))) != {width - 1}):
                break
            cells = text.replace("\n", ",").split(",")
            yield [cells[j:len(lines) * width:width] for j in range(width)]
        rows = csv.reader(chain(lines, fh))
        while chunk := list(islice(rows, READ_BLOCK_ROWS)):
            block = list(filter(None, chunk))
            if set(map(len, block)) - {width} and not ragged_ok:
                raise ValueError(f"{path}: ragged rows")
            columns = list(map(list, islice(zip_longest(*block, fillvalue=""), width)))
            if block:
                yield columns + [[""] * len(block)] * (width - len(columns))


# The first 19 characters of a vector-read timestamp lie between these, one
# code point each; the date-time separator is then checked for T, t or space.
_HEAD_LOW, _HEAD_HIGH = (np.array(list(map(ord, bound)), dtype=np.int32)
                         for bound in ("0000-00-00 00:00:00", "9999-99-99t99:99:99"))
# Where the digits of year, month, day, hour, minute and second lie.
_FIELDS = ((0, 4), (5, 7), (8, 10), (11, 13), (14, 16), (17, 19))
# Days in each month of a common year, by month number.
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])


def _timestamps(cells) -> np.ndarray:
    """parse_timestamp of each cell as datetime64[s], NaT where it gives None.

    Cells shaped YYYY-MM-DD(T|t| )HH:MM:SS[.f][Z|±HH:MM], with one to six
    fraction digits, convert as one vector by calendar arithmetic on their
    code points: the date must exist (29 February only in leap years), the
    hour must be below 24, minute and second below 60, and the year from 2
    to 9998.  Every other cell goes through parse_timestamp, and so does
    each one longer than that shape's 32 characters or ending in a NUL
    (fixed-width numpy strings would cut the first and drop the NUL of the
    second).
    """
    n = len(cells)
    text = np.array(cells, dtype="U32")
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
    head = c[:, :19]
    year, month, day, hour, minute, second = (
        (head[:, a:b] - ord("0")) @ 10 ** np.arange(b - a - 1, -1, -1) for a, b in _FIELDS)
    leap = (year % 4 == 0) & (year % 100 != 0) | (year % 400 == 0)
    days = np.take(_MONTH_DAYS, month, mode="clip") + ((month == 2) & leap)
    keep = np.flatnonzero(
        shaped & ((head >= _HEAD_LOW) & (head <= _HEAD_HIGH)).all(axis=1)
        & np.isin(head[:, 10], [ord("T"), ord("t"), ord(" ")])
        & (year >= 2) & (year <= 9998) & (month >= 1) & (month <= 12)
        & (day >= 1) & (day <= days) & (hour < 24) & (minute < 60) & (second < 60))
    months = ((year[keep] - 1970) * 12 + month[keep] - 1).astype("datetime64[M]")
    seconds = (((day[keep] - 1) * 24 + hour[keep]) * 60 + minute[keep]) * 60 + second[keep]
    shift = np.where(c[keep, o[keep]] == ord("-"), -60, 60) * offset[keep] * minutes[keep]
    out = np.full(n, np.datetime64("NaT"), dtype="datetime64[s]")
    out[keep] = months.astype("datetime64[s]") + (seconds - shift)
    rest = np.setdiff1d(rows, keep, assume_unique=True)
    out[rest] = np.array([parse_timestamp(cells[i]) for i in rest], dtype="datetime64[s]")
    return out


# Column kind -> the dtype of its values.
COLUMN_KINDS = {"int": np.int64, "float": float, "bool": bool, "date": "datetime64[D]",
                "str": object}


def cast(cells, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """A column of cell text as an array of `kind`, and the mask of the
    cells it rejects.

    int and float columns convert as one numpy array; only a column numpy
    rejects is converted one cell at a time, float cells by float() (numpy
    reads text as float() does) and int cells by numpy, which reads them
    as int() does.  A cell that does not convert holds 0, NaN or NaT.  An
    empty float cell is a NaN gap, and a non-finite one is rejected.  bool
    cells read true or false and str cells are kept, both as text.  A
    timestamp cell is parse_timestamp of its text.  A date cell is exactly
    YYYY-MM-DD of a real day in years 1-9999: it is read as the timestamp
    of its midnight and kept when that prints back as the cell.
    """
    if kind == "timestamp":
        values = _timestamps(cells)
        return values, np.isnat(values)
    if kind == "date":
        values = _timestamps([cell + "T00:00:00" for cell in cells]).astype("datetime64[D]")
        rejected = np.isnat(values) | (np.datetime_as_string(values) != np.array(cells, object))
        values[rejected] = np.datetime64("NaT")
        return values, rejected
    if kind == "str":
        return np.array(cells, dtype=object), np.zeros(len(cells), dtype=bool)
    if kind == "bool":
        text = np.array(cells, dtype=object)
        return text == "true", (text != "true") & (text != "false")
    dtype, rejected = COLUMN_KINDS[kind], np.zeros(len(cells), dtype=bool)
    try:
        values = np.array(cells, dtype=dtype)
    except (ValueError, OverflowError):
        values = np.full(len(cells), 0 if kind == "int" else None, dtype=dtype)
        for i, cell in enumerate(cells):
            try:
                values[i] = float(cell) if kind == "float" else np.array(cell, dtype=dtype)
            except (ValueError, OverflowError):
                rejected[i] = True
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


def parse_events(path) -> EventTable:
    """Read an event CSV (columns timestamp, lon, lat and category, found by
    name; any others are ignored) into an EventTable.

    Raises ValueError when a required column is absent or when more than
    half of the data rows are unusable; filter_events selects by category.
    """
    blocks, (t, x, y, k) = _input_blocks(path, ["timestamp", "lon", "lat", "category"],
                                         "event")
    kept = [(np.zeros(0, "datetime64[s]"), np.zeros(0), np.zeros(0), np.zeros(0, object))]
    rejections, n_rows = [], 0
    for block in blocks:
        ts = cast(block[t], "timestamp")[0]
        lon, lat = (cast(block[i], "float")[0] for i in (x, y))
        names = {name: name.strip() for name in set(block[k])}
        cat = np.array(list(map(names.__getitem__, block[k])), dtype=object)
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
    table = EventTable(*map(np.concatenate, zip(*kept)), rejections)
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


def filter_events(table: EventTable, category: str | None = None) -> EventTable:
    """The events of `category`; all of them when it is None."""
    mask = np.ones(len(table), dtype=bool) if category is None else table.categories == category
    return table.take(np.flatnonzero(mask))
