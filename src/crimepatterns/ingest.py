"""Parsing, validation and canonical serialization of input tables.

Two kinds of input exist: point events (timestamp, lon, lat, category)
and population cells (lon, lat, population).  Parsing is forgiving row
by row but strict in aggregate: individual bad rows are set aside with
a reason, and the whole file is rejected when more than half of its
rows are unusable.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from datetime import datetime, timezone

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


@dataclass
class RowRejection:
    """One unusable input row. `row` is 1-based over data rows."""

    row: int
    reason: str


@dataclass
class PopulationCell:
    lon: float
    lat: float
    population: float


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
    """ISO-8601 to UTC datetime64[s]; None when unparseable.

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
    except ValueError:
        return None
    if dt.tzinfo is not None:
        dt = dt.astimezone(timezone.utc).replace(tzinfo=None)
    return np.datetime64(dt.replace(microsecond=0), "s")


def _parse_float(text: str) -> float | None:
    try:
        v = float(text)
    except (TypeError, ValueError):
        return None
    return v if np.isfinite(v) else None


def parse_events(
    path,
    schema: dict | None = None,
    delimiter: str = ",",
    window: tuple | None = None,
) -> EventTable:
    """Read an event CSV into an EventTable.

    `schema` remaps canonical field names to the file's column names.
    `window`, when given as (start, end), drops events outside
    [start, end) with a per-row rejection note.  Raises ValueError when
    required columns are absent or when more than half of the data rows
    are unusable; rows dropped only for lying outside the window are
    well formed and do not count toward that limit.
    """
    cols = dict(DEFAULT_EVENT_SCHEMA)
    if schema:
        unknown = set(schema) - set(cols)
        if unknown:
            raise ValueError(f"schema maps unknown fields: {sorted(unknown)}")
        cols.update(schema)

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh, delimiter=delimiter)
        header = reader.fieldnames or []
        missing = [v for v in cols.values() if v not in header]
        if missing:
            raise ValueError(f"event file lacks required columns: {missing}")

        if window is not None:
            w0, w1 = (np.datetime64(w, "s") for w in window)
        timestamps, lons, lats, cats = [], [], [], []
        rejections: list[RowRejection] = []
        n_rows = 0
        n_outside_window = 0
        for row in reader:
            n_rows += 1
            ts = parse_timestamp(row.get(cols["timestamp"]) or "")
            if ts is None:
                rejections.append(RowRejection(n_rows, "bad timestamp"))
                continue
            lon = _parse_float(row.get(cols["lon"]))
            lat = _parse_float(row.get(cols["lat"]))
            if lon is None or lat is None:
                rejections.append(RowRejection(n_rows, "bad coordinate"))
                continue
            if not (-180.0 <= lon <= 180.0 and -90.0 <= lat <= 90.0):
                rejections.append(RowRejection(n_rows, "coordinate out of range"))
                continue
            cat = (row.get(cols["category"]) or "").strip()
            if not cat:
                rejections.append(RowRejection(n_rows, "empty category"))
                continue
            if window is not None and not (w0 <= ts < w1):
                rejections.append(RowRejection(n_rows, "outside time window"))
                n_outside_window += 1
                continue
            timestamps.append(ts)
            lons.append(lon)
            lats.append(lat)
            cats.append(cat)

    n_malformed = len(rejections) - n_outside_window
    if n_rows and n_malformed > MAX_REJECT_FRACTION * n_rows:
        raise ValueError(
            f"{n_malformed} of {n_rows} rows rejected; input looks malformed"
        )

    table = EventTable(
        np.array(timestamps, dtype="datetime64[s]"),
        np.array(lons, dtype=float),
        np.array(lats, dtype=float),
        np.array(cats, dtype=object),
        source_id=str(path),
        rejections=rejections,
    )
    order = np.argsort(table.timestamps, kind="stable")
    return table.take(order)


def parse_population(path, delimiter: str = ",") -> list[PopulationCell]:
    """Read population cells (columns lon, lat, population).

    Hard errors: missing columns, unparseable numbers, negative
    population, duplicated cell coordinates, or an empty table.
    """
    cells: list[PopulationCell] = []
    seen: set[tuple[float, float]] = set()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh, delimiter=delimiter)
        header = reader.fieldnames or []
        missing = [c for c in ("lon", "lat", "population") if c not in header]
        if missing:
            raise ValueError(f"population file lacks required columns: {missing}")
        for i, row in enumerate(reader, start=1):
            lon = _parse_float(row.get("lon"))
            lat = _parse_float(row.get("lat"))
            pop = _parse_float(row.get("population"))
            if lon is None or lat is None or pop is None:
                raise ValueError(f"population row {i}: unparseable value")
            if pop < 0:
                raise ValueError(f"population row {i}: negative population")
            key = (lon, lat)
            if key in seen:
                raise ValueError(f"population row {i}: duplicate cell at {key}")
            seen.add(key)
            cells.append(PopulationCell(lon, lat, pop))
    if not cells:
        raise ValueError("population file has no data rows")
    if not any(c.population > 0 for c in cells):
        raise ValueError("zero total population")
    return cells


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
        mask &= np.array([c == category for c in table.categories], dtype=bool)
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


def dedupe_events(table: EventTable) -> EventTable:
    """Drop exact duplicates of (timestamp, lon, lat, category), keeping
    the first occurrence in timestamp order."""
    seen: set[tuple] = set()
    keep = np.zeros(len(table), dtype=bool)
    for i in range(len(table)):
        key = (
            table.timestamps[i].astype(np.int64),
            table.lons[i],
            table.lats[i],
            table.categories[i],
        )
        if key not in seen:
            seen.add(key)
            keep[i] = True
    return table.take(np.nonzero(keep)[0])


def _format_float(v: float) -> str:
    return repr(float(v))


def write_events(table: EventTable, path) -> None:
    """Serialize to the canonical event CSV (UTC timestamps, no offset
    suffix).  parse_events(write_events(t)) reproduces t exactly."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "lon", "lat", "category"])
        for i in range(len(table)):
            writer.writerow(
                [
                    str(table.timestamps[i]),
                    _format_float(table.lons[i]),
                    _format_float(table.lats[i]),
                    table.categories[i],
                ]
            )
