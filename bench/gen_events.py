"""Seeded writer of a synthetic events city: a population grid CSV and an
events CSV whose every property the output checks rely on is known.

The program's own generators (`crimepatterns.synth`) produce region series
but no point events, so the inputs of `tessellate` and
`concentrate --events` are made here.  Known by construction:

* per-cell populations on a regular lon/lat grid;
* per-cell event rates (population times a spatially smooth, heavy-tailed
  per-capita rate) and a circannual modulation of the event times;
* an exact number of valid events outside the grid's bounding box, all
  inside the fully observed weeks;
* an exact number of malformed rows for each rejection reason of
  `parse_events`, one defect per row;
* naive, `Z` and `+hh:mm` timestamps mixed together, and several
  categories.

Only numpy and the standard library are used; nothing is imported from the
program, so the truth kept here is independent of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GRID = 100  # cells per side: 10,000 population cells
LON0, LAT0 = -87.9, 41.65
STEP = 0.004  # degrees between cell centres
N_ROWS = 300_000
N_OUTSIDE = 400
# Malformed rows per rejection reason of parse_events; each row carries
# exactly one defect, so the reason it is rejected for is known.
MALFORMED = {
    "bad timestamp": 150,
    "bad coordinate": 150,
    "coordinate out of range": 150,
    "empty category": 150,
}
CATEGORIES = ("theft", "battery", "burglary", "robbery", "vandalism", "narcotics")
CATEGORY_P = (0.35, 0.2, 0.15, 0.1, 0.1, 0.1)
SPAN_START = np.datetime64("2012-03-07T13:27:00", "s")  # a Wednesday
SPAN_SECONDS = (416 * 7 + 3) * 86400
SEASONAL_AMPLITUDE = 0.3  # relative swing of the event rate over a year
YEAR_SECONDS = 365.25 * 86400
# Offsets written on zone-aware timestamps, in minutes east of UTC.
OFFSETS_MIN = (-360, -300, 60, 330)

_BAD_TIMESTAMPS = ("2014-02-30T10:00:00", "yesterday", "", "2014-13-01T00:00:00")
_BAD_COORDS = ("abc", "", "nan", "inf")
_OUT_OF_RANGE = (("181.5", None), (None, "-91.0"), ("-200.25", None), (None, "90.5"))


@dataclass
class CityTruth:
    """Everything the writer knows about the files it wrote.

    Event arrays hold the valid rows only (inside and outside the bbox), in
    file order; `utc_seconds` are whole seconds since the Unix epoch.
    """

    cell_lon: np.ndarray
    cell_lat: np.ndarray
    cell_pop: np.ndarray
    utc_seconds: np.ndarray
    lon: np.ndarray
    lat: np.ndarray
    category: np.ndarray  # index into CATEGORIES
    n_rows: int
    rejected: dict
    n_outside: int

    @property
    def n_events(self) -> int:
        return int(self.utc_seconds.size)

    @property
    def bbox(self) -> tuple:
        return (self.cell_lon.min(), self.cell_lat.min(),
                self.cell_lon.max(), self.cell_lat.max())


def _smooth_field(rng, xs, ys, grid, n_bumps, width_lo, width_hi):
    """Sum of random Gaussian bumps on the grid, scaled to unit sd; widths
    are in cells of a 100-cell grid and scale with `grid`."""
    field = np.zeros_like(xs)
    for _ in range(n_bumps):
        cx, cy = rng.uniform(0, grid, 2)
        w = rng.uniform(width_lo, width_hi) * (grid / 100)
        field += rng.normal() * np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2 * w * w))
    return (field - field.mean()) / field.std()


def _event_times(rng, n):
    """n UTC second offsets into the span, thinned by the seasonal rate."""
    out = np.empty(0, dtype=np.int64)
    while out.size < n:
        t = rng.integers(0, SPAN_SECONDS, size=2 * n)
        phase = 2.0 * np.pi * t / YEAR_SECONDS
        keep = rng.random(t.size) * (1 + SEASONAL_AMPLITUDE) < 1 + SEASONAL_AMPLITUDE * np.sin(phase)
        out = np.concatenate([out, t[keep]])
    return out[:n]


def _timestamp_text(rng, utc_seconds):
    """ISO text per event: about 40 % naive UTC, 30 % `Z`, 30 % offset."""
    n = utc_seconds.size
    base = SPAN_START.astype(np.int64)
    kind = rng.choice(3, size=n, p=(0.4, 0.3, 0.3))
    offset_min = np.asarray(OFFSETS_MIN)[rng.integers(0, len(OFFSETS_MIN), size=n)]
    shift = np.where(kind == 2, offset_min * 60, 0)
    local = (base + utc_seconds + shift).astype("datetime64[s]")
    text = np.datetime_as_string(local, unit="s").tolist()
    out = []
    for t, k, m in zip(text, kind.tolist(), offset_min.tolist()):
        if k == 0:
            out.append(t)
        elif k == 1:
            out.append(t + "Z")
        else:
            sign = "+" if m >= 0 else "-"
            out.append(f"{t}{sign}{abs(m) // 60:02d}:{abs(m) % 60:02d}")
    return out


def generate(seed: int, grid: int = GRID, n_rows: int = N_ROWS) -> tuple[CityTruth, list, list]:
    """Draw the city for `seed`; returns (truth, population lines, event
    lines), the lines without header or newline."""
    rng = np.random.Generator(np.random.PCG64(seed))
    iy, ix = np.divmod(np.arange(grid * grid), grid)
    xs, ys = ix.astype(float), iy.astype(float)
    cell_lon = np.array([round(LON0 + i * STEP, 6) for i in range(grid)])[ix]
    cell_lat = np.array([round(LAT0 + j * STEP, 6) for j in range(grid)])[iy]

    density = np.exp(0.8 * _smooth_field(rng, xs, ys, grid, 12, 8, 25))
    pop = np.rint(250.0 * density * rng.lognormal(0.0, 0.3, size=xs.size))
    pop[rng.random(xs.size) < 0.03] = 0.0  # parks, water
    # Heavy-tailed, spatially smooth per-capita rate, so that events
    # concentrate in a few regions.
    rate = np.exp(1.2 * _smooth_field(rng, xs, ys, grid, 40, 3, 12))
    weight = pop * rate

    n_bad = sum(MALFORMED.values())
    n_in = n_rows - N_OUTSIDE - n_bad
    per_cell = rng.multinomial(n_in, weight / weight.sum())
    cell = np.repeat(np.arange(xs.size), per_cell)
    lon0, lat0 = cell_lon.min(), cell_lat.min()
    lon1, lat1 = cell_lon.max(), cell_lat.max()
    # Uniform inside each cell's square, clipped to the grid's bbox.
    lo_x = np.maximum(cell_lon[cell] - STEP / 2, lon0)
    hi_x = np.minimum(cell_lon[cell] + STEP / 2, lon1)
    lo_y = np.maximum(cell_lat[cell] - STEP / 2, lat0)
    hi_y = np.minimum(cell_lat[cell] + STEP / 2, lat1)
    lon_in = lo_x + rng.random(n_in) * (hi_x - lo_x)
    lat_in = lo_y + rng.random(n_in) * (hi_y - lo_y)
    t_in = _event_times(rng, n_in)

    # Outside the bbox, on all four sides, timed well inside the span so
    # every one of them falls in a fully observed week.
    side = rng.integers(0, 4, size=N_OUTSIDE)
    gap = rng.uniform(0.001, 0.05, size=N_OUTSIDE)
    along_x = rng.uniform(lon0, lon1, size=N_OUTSIDE)
    along_y = rng.uniform(lat0, lat1, size=N_OUTSIDE)
    lon_out = np.select([side == 0, side == 1], [lon0 - gap, lon1 + gap], along_x)
    lat_out = np.select([side == 2, side == 3], [lat0 - gap, lat1 + gap], along_y)
    t_out = rng.integers(30 * 86400, SPAN_SECONDS - 30 * 86400, size=N_OUTSIDE)

    n_valid = n_in + N_OUTSIDE
    # Coordinates are written with six decimals and the truth keeps the
    # values the program will parse back.  Rounding never moves a point
    # across the bbox edges, which have six decimals themselves; it puts
    # some points exactly on cell edges, where region edges fall.
    lon_text = [f"{v:.6f}" for v in np.concatenate([lon_in, lon_out]).tolist()]
    lat_text = [f"{v:.6f}" for v in np.concatenate([lat_in, lat_out]).tolist()]
    utc = np.concatenate([t_in, t_out])
    category = rng.choice(len(CATEGORIES), size=n_valid, p=CATEGORY_P)
    cat_text = [CATEGORIES[c] for c in category.tolist()]
    ts_text = _timestamp_text(rng, utc)
    fields = [ts_text, lon_text, lat_text, cat_text]
    lines = [",".join(f) for f in zip(*fields)]

    # Malformed rows copy a valid row and break exactly one field.
    donors = rng.integers(0, n_valid, size=n_bad).tolist()
    k = 0
    for reason, count in MALFORMED.items():
        for j in range(count):
            row = [f[donors[k]] for f in fields]
            k += 1
            if reason == "bad timestamp":
                row[0] = _BAD_TIMESTAMPS[j % len(_BAD_TIMESTAMPS)]
            elif reason == "bad coordinate":
                row[1 + j % 2] = _BAD_COORDS[j % len(_BAD_COORDS)]
            elif reason == "coordinate out of range":
                x, y = _OUT_OF_RANGE[j % len(_OUT_OF_RANGE)]
                row[1] = x or row[1]
                row[2] = y or row[2]
            else:
                row[3] = "" if j % 2 else "   "
            lines.append(",".join(row))

    # Shuffle valid and malformed rows together; the truth arrays list the
    # valid rows in file order.
    order = rng.permutation(n_rows)
    event_lines = [lines[i] for i in order.tolist()]
    valid_order = order[order < n_valid]

    truth = CityTruth(
        cell_lon=cell_lon,
        cell_lat=cell_lat,
        cell_pop=pop,
        utc_seconds=SPAN_START.astype(np.int64) + utc[valid_order],
        lon=np.array([float(lon_text[i]) for i in valid_order.tolist()]),
        lat=np.array([float(lat_text[i]) for i in valid_order.tolist()]),
        category=category[valid_order],
        n_rows=n_rows,
        rejected=dict(MALFORMED),
        n_outside=N_OUTSIDE,
    )
    pop_lines = [
        f"{a!r},{b!r},{int(p)}"
        for a, b, p in zip(cell_lon.tolist(), cell_lat.tolist(), pop.tolist())
    ]
    return truth, pop_lines, event_lines


def write(seed: int, events_path, population_path, grid: int = GRID,
          n_rows: int = N_ROWS) -> CityTruth:
    """Generate the city for `seed` and write both CSVs."""
    truth, pop_lines, event_lines = generate(seed, grid, n_rows)
    for path, header, lines in (
        (population_path, "lon,lat,population", pop_lines),
        (events_path, "timestamp,lon,lat,category", event_lines),
    ):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            fh.write("\n".join(lines))
            fh.write("\n")
    return truth
