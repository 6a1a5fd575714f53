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


def test_city_series_carries_the_generators_circannual_swing(tmp_path):
    # The paper's second regularity on the event route: the generator
    # thins event times by 1 + 0.3 sin(2 pi t), t in years from its span's
    # start.  At lam events a week, Poisson counts, the swing's variance
    # 0.045 lam**2 is r = 0.045 lam times the noise variance lam.  The
    # band (0.8-1.1 years) holds about 1.2 % of white noise's variance and
    # its 95 % threshold sits near 3.7 % of it, so the swing's share of
    # the variance, r / (1 + r), clears the threshold on at least 90 % of
    # weeks from r of about 0.2 (lam 5; Poisson series of 415 weeks through
    # detrend, cwt and band_power fall short at lam 3 and not at lam 5).
    # lam = 100 (r = 4.5) leaves a wide margin and bounds the standard
    # error of the fitted swing, sqrt(2 / (weeks * lam)), near 0.007.
    gen = load_generator()
    lam = 100
    n_rows = gen.N_OUTSIDE + sum(gen.MALFORMED.values()) + round(
        lam * gen.SPAN_SECONDS / WEEK_SECONDS)
    events, population = tmp_path / "events.csv", tmp_path / "population.csv"
    truth = gen.write(0, events, population, grid=16, n_rows=n_rows)
    target = float(truth.cell_pop.sum()) / 48
    assert main([str(a) for a in ["tessellate", "--events", events, "--population", population,
                                  "--target-pop", repr(target), "--out", tmp_path]]) == 0
    series = tmp_path / "region_series.csv"
    assert main(["rhythms", "--region-series", str(series), "--out", str(tmp_path)]) == 0

    _, rows = read_csv(tmp_path / "band.csv")
    significant = np.array([row[3] == "true" for row in rows])
    coi_valid = np.array([row[4] == "true" for row in rows])
    assert coi_valid.sum() >= 100
    assert significant[coi_valid].mean() >= 0.9

    # Least squares of the weekly city counts on 1, sin and cos of the
    # swing's phase at mid-week: the swing 0.3 and no cosine part, each to
    # 4 standard errors.
    _, rows = read_csv(series)
    starts = np.array([row[0] for row in rows], dtype="datetime64[s]")
    city = np.array([row[-1] for row in rows], dtype=float)
    mid_week = (starts - gen.SPAN_START).astype(float) + WEEK_SECONDS / 2
    phase = 2.0 * np.pi * mid_week / gen.YEAR_SECONDS
    design = np.column_stack([np.ones_like(phase), np.sin(phase), np.cos(phase)])
    mean, sine, cosine = np.linalg.lstsq(design, city, rcond=None)[0]
    tolerance = 4.0 * np.sqrt(2.0 / (city.size * mean))
    assert mean == pytest.approx(lam, rel=0.05)
    assert abs(sine / mean - gen.SEASONAL_AMPLITUDE) < tolerance
    assert abs(cosine / mean) < tolerance
