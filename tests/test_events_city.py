"""Event-level acceptance: `tessellate` and `concentrate --events` on a
small city drawn point by point by the benchmark's generator
(`bench/gen_events.py`), checked against the generator's truth and
against brute-force counts written here."""

import csv
import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from crimepatterns.cli import main

GENERATOR = Path(__file__).resolve().parents[1] / "bench" / "gen_events.py"
WEEK_SECONDS = 7 * 86400
MONDAY_EPOCH = 4 * 86400  # 1970-01-05, the first Monday after the Unix epoch


def load_generator():
    """bench/gen_events.py as a module; it imports only numpy and the
    standard library."""
    spec = importlib.util.spec_from_file_location("gen_events", GENERATOR)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def read_csv(path):
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, rows


def stats_of(out):
    return json.loads((out / "manifest.json").read_text())["runs"][-1]["parameters"]["stats"]


def gini(x):
    """Normalized mean absolute pairwise difference."""
    x = np.asarray(x, dtype=float)
    return np.abs(x[:, None] - x[None, :]).sum() / (2.0 * x.size**2 * x.mean())


@pytest.fixture(scope="module")
def city(tmp_path_factory):
    """The generator's truth, the regions, and the output directories of
    both event routes run on the same two input files."""
    base = tmp_path_factory.mktemp("events_city")
    events, population = base / "events.csv", base / "population.csv"
    truth = load_generator().write(0, events, population, grid=16, n_rows=4000)
    target = float(truth.cell_pop.sum()) / 48
    route = ["--events", events, "--population", population, "--target-pop", repr(target)]
    outs = {"tessellate": base / "tessellate", "concentrate": base / "concentrate"}
    assert main([str(a) for a in ["tessellate", *route, "--out", outs["tessellate"]]]) == 0
    assert main([str(a) for a in ["concentrate", *route, "--boot", 100,
                                  "--out", outs["concentrate"]]]) == 0
    _, rows = read_csv(outs["tessellate"] / "tessellation.csv")
    regions = np.array(rows, dtype=float)[:, 1:]  # lon_min, lat_min, lon_max, lat_max, pop
    return truth, regions, target, outs


def region_of_each_event(truth, regions):
    """Smallest id of the closed region rectangles holding each valid
    event; -1 outside them all."""
    lon, lat = truth.lon[:, None], truth.lat[:, None]
    lon0, lat0, lon1, lat1 = regions[:, :4].T
    inside = (lon0 <= lon) & (lon <= lon1) & (lat0 <= lat) & (lat <= lat1)
    return np.where(inside.any(axis=1), inside.argmax(axis=1), -1)


def test_both_routes_reject_the_generators_malformed_rows(city):
    truth, _, _, outs = city
    texts = [(out / "rejects.csv").read_bytes() for out in outs.values()]
    assert texts[0] == texts[1]
    header, rows = read_csv(outs["tessellate"] / "rejects.csv")
    assert header == ["row", "reason"]
    assert Counter(reason for _, reason in rows) == truth.rejected


def test_both_routes_record_the_generators_tallies(city):
    truth, regions, target, outs = city
    tessellate, concentrate = (stats_of(out) for out in outs.values())
    shared = ("n_events", "n_rejected", "n_regions", "regions_over_target")
    assert {k: tessellate[k] for k in shared} == {k: concentrate[k] for k in shared} == {
        "n_events": truth.n_events,
        "n_rejected": sum(truth.rejected.values()),
        "n_regions": len(regions),
        "regions_over_target": int((regions[:, 4] > target).sum()),
    }
    assert concentrate["regions_over_target"] > 0  # the city has cells over the target
    assert tessellate["events_outside_area"] == concentrate["events_outside_area"] \
        == truth.n_outside
    assert tessellate["events_in_partial_weeks"] > 0
    # Every event is in a region's total or outside the area.
    located = region_of_each_event(truth, regions)
    assert concentrate["n_events"] == (located >= 0).sum() + concentrate["events_outside_area"]


def test_region_series_equals_a_brute_force_count(city):
    truth, regions, _, outs = city
    t = truth.utc_seconds
    # Weeks start on Mondays; only weeks fully inside the events' span count.
    first = -(-(t.min() - MONDAY_EPOCH) // WEEK_SECONDS)
    last = (t.max() + 1 - MONDAY_EPOCH) // WEEK_SECONDS - 1
    week = (t - MONDAY_EPOCH) // WEEK_SECONDS
    located = region_of_each_event(truth, regions)
    expected = np.zeros((last - first + 1, len(regions)), dtype=np.int64)
    for w, r in zip(week.tolist(), located.tolist()):
        if first <= w <= last and r >= 0:
            expected[w - first, r] += 1

    header, rows = read_csv(outs["tessellate"] / "region_series.csv")
    assert header == ["week_start", *(f"region_{r}" for r in range(len(regions))), "city"]
    starts = MONDAY_EPOCH + np.arange(first, last + 1) * WEEK_SECONDS
    assert [row[0] for row in rows] == np.datetime_as_string(
        starts.astype("datetime64[s]"), unit="D").tolist()
    got = np.array([row[1:] for row in rows], dtype=np.int64)
    assert np.array_equal(got[:, :-1], expected)
    assert np.array_equal(got[:, -1], expected.sum(axis=1))


def test_events_concentrate_beyond_population(city):
    # The paper's first regularity: region totals are less equal than the
    # regions' populations.
    truth, regions, _, outs = city
    located = region_of_each_event(truth, regions)
    totals = np.bincount(located[located >= 0], minlength=len(regions))
    fit = json.loads((outs["concentrate"] / "fit.json").read_text())
    assert fit["gini"] == pytest.approx(gini(totals), rel=1e-12)
    assert fit["gini"] > gini(regions[:, 4])
