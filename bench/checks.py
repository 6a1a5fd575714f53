"""Output checks, each against a computation made apart from the program
or against a property the method must have; never against stored output.

A check is a function `check(out_dir, ctx)` that raises `CheckFailed`
with a reason when the artifacts in `out_dir` are wrong.  `ctx` carries
what the benchmark knows about the inputs (the events city's truth, the
seeded pairs, the step parameters) and a cache for brute-force results
that every round of a run shares.
"""

from __future__ import annotations

import csv
import json
import math
import os
from datetime import date, datetime, timedelta

import numpy as np
from scipy.special import zeta

REPORT_SOURCES = ("fit.json", "entropy_summary.json", "composed.csv", "durations.csv")
EPOCH = datetime(1970, 1, 1)


class CheckFailed(Exception):
    """An artifact disagrees with the independent computation."""


def _expect(ok, message):
    if not ok:
        raise CheckFailed(message)


def _close(a, b, tol, what):
    _expect(abs(a - b) <= tol * max(1.0, abs(b)), f"{what}: {a!r} != {b!r}")


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _column(rows, i, cast=float):
    return [cast(r[i]) for r in rows]


# ---------------------------------------------------------------------------
# brute-force references


def read_regions(out):
    """Rectangles of tessellation.csv, in file order."""
    header, rows = read_csv(os.path.join(out, "tessellation.csv"))
    _expect(header == ["region_id", "lon_min", "lat_min", "lon_max", "lat_max", "population"],
            f"tessellation.csv header {header}")
    table = np.array([[float(v) for v in r] for r in rows])
    ids = table[:, 0].astype(np.int64)
    _expect((ids == np.arange(ids.size)).all(), "region ids are not 0..R-1 in order")
    return table


def locate(lon, lat, rects, chunk=8192):
    """Region id per point by testing every point against every closed
    rectangle; a point on a shared edge goes to the smallest id; -1 when
    no rectangle holds it."""
    out = np.full(lon.size, -1, dtype=np.int64)
    x0, y0, x1, y1 = (rects[:, k][None, :] for k in (1, 2, 3, 4))
    for s in range(0, lon.size, chunk):
        px = lon[s:s + chunk, None]
        py = lat[s:s + chunk, None]
        inside = (px >= x0) & (px <= x1) & (py >= y0) & (py <= y1)
        hit = inside.any(axis=1)
        out[s:s + chunk] = np.where(hit, inside.argmax(axis=1), -1)
    return out


def monday(day: date) -> date:
    return day - timedelta(days=day.weekday())


def full_weeks(utc_seconds):
    """Monday dates, stdlib arithmetic, of the weeks lying wholly inside
    [first event, last event]; weeks are counted from the Monday of the
    first event's day."""
    t_min = EPOCH + timedelta(seconds=int(min(utc_seconds)))
    t_max = EPOCH + timedelta(seconds=int(max(utc_seconds)))
    weeks = []
    m = monday(t_min.date())
    while datetime.combine(m, datetime.min.time()) <= t_max:
        start = datetime.combine(m, datetime.min.time())
        if start >= t_min and start + timedelta(days=7) - timedelta(seconds=1) <= t_max:
            weeks.append(m)
        m += timedelta(days=7)
    return weeks


def expected_region_series(truth, rects):
    """(Monday dates, counts[region, week]) from the generator's events."""
    weeks = full_weeks(truth.utc_seconds)
    index = {m: k for k, m in enumerate(weeks)}
    region = locate(truth.lon, truth.lat, rects)
    counts = np.zeros((rects.shape[0], len(weeks)), dtype=np.int64)
    for s, r in zip(truth.utc_seconds.tolist(), region.tolist()):
        if r < 0:
            continue
        k = index.get(monday((EPOCH + timedelta(seconds=s)).date()))
        if k is not None:
            counts[r, k] += 1
    return weeks, counts


def pairwise_gini(values, weights=None):
    """Mean absolute pairwise difference over twice the mean, with each
    value optionally standing for `weights` observations."""
    v = np.asarray(values, dtype=float)
    w = np.ones_like(v) if weights is None else np.asarray(weights, dtype=float)
    n = w.sum()
    mean = (v * w).sum() / n
    diff = (np.abs(v[:, None] - v[None, :]) * w[:, None] * w[None, :]).sum()
    return diff / (2.0 * n * n * mean)


def tail_loglik(x, alpha, xmin):
    tail = x[x >= xmin]
    return -alpha * np.log(tail).sum() - tail.size * math.log(zeta(alpha, xmin))


def tail_ks(x, alpha, xmin):
    """KS distance of the tail, with the model CDF summed term by term
    over the integer support."""
    tail = np.sort(x[x >= xmin])
    values, mult = np.unique(tail, return_counts=True)
    ecdf = np.cumsum(mult) / tail.size
    support = np.arange(xmin, values.max() + 1, dtype=float)
    cdf = np.cumsum(support ** -alpha) / zeta(alpha, xmin)
    return float(np.abs(ecdf - cdf[(values - xmin).astype(np.int64)]).max())


def hoeffding_brute(x, y):
    """Hoeffding's D from pairwise counts, loop by loop (midranks, ties on
    one coordinate worth 1/2, on both worth 1/4)."""
    n = len(x)

    def cmp(a, b):
        return 1.0 if a < b else (0.5 if a == b else 0.0)

    r = [1 + sum(cmp(x[j], x[i]) for j in range(n) if j != i) for i in range(n)]
    s = [1 + sum(cmp(y[j], y[i]) for j in range(n) if j != i) for i in range(n)]
    q = [1 + sum(cmp(x[j], x[i]) * cmp(y[j], y[i]) for j in range(n) if j != i)
         for i in range(n)]
    d1 = sum((qi - 1) * (qi - 2) for qi in q)
    d2 = sum((ri - 1) * (ri - 2) * (si - 1) * (si - 2) for ri, si in zip(r, s))
    d3 = sum((ri - 2) * (si - 2) * (qi - 1) for ri, si, qi in zip(r, s, q))
    num = (n - 2) * (n - 3) * d1 + d2 - 2 * (n - 2) * d3
    return 30.0 * num / (n * (n - 1) * (n - 2) * (n - 3) * (n - 4))


def recount_entropy(out):
    """Normalized entropy of the region ids seen at each rank position,
    ranking regions per week by count, ties to the smaller id."""
    header, rows = read_csv(os.path.join(out, "region_series.csv"))
    ids = [int(c[len("region_"):]) for c in header[1:-1]]
    occupancy = [dict() for _ in ids]
    for row in rows:
        week = sorted(zip((-float(v) for v in row[1:-1]), ids))
        for pos, (_, rid) in enumerate(week):
            occupancy[pos][rid] = occupancy[pos].get(rid, 0) + 1
    n_weeks = len(rows)
    h = []
    for occ in occupancy:
        p = np.array(list(occ.values())) / n_weeks
        h.append(float(-(p * np.log(p)).sum() / math.log(len(ids))))
    return np.clip(np.array(h), 0.0, 1.0)


def _cached(ctx, key, make):
    cache = ctx.setdefault("cache", {})
    if key not in cache:
        cache[key] = make()
    return cache[key]


def _region_reference(out, ctx):
    """Brute-force weekly series for this round's rectangles, computed
    once per distinct tessellation.csv."""
    with open(os.path.join(out, "tessellation.csv"), "rb") as fh:
        key = ("regions", fh.read())
    return _cached(ctx, key, lambda: expected_region_series(ctx["truth"], read_regions(out)))


def read_counts(out):
    """The counts `concentrate` analysed, read apart from the program."""
    header, rows = read_csv(os.path.join(out, "counts.csv"))
    _expect(header == ["count"], f"counts.csv header {header}")
    return np.array(_column(rows, 0, int), dtype=np.int64)


# ---------------------------------------------------------------------------
# checks on tessellate


def check_region_series(out, ctx):
    weeks, counts = _region_reference(out, ctx)
    header, rows = read_csv(os.path.join(out, "region_series.csv"))
    want = ["week_start"] + [f"region_{i}" for i in range(counts.shape[0])] + ["city"]
    _expect(header == want, "region_series.csv columns differ from the regions")
    _expect([r[0] for r in rows] == [m.isoformat() for m in weeks],
            f"week_start column: {len(rows)} rows, {len(weeks)} full weeks expected")
    got = np.array([[int(v) for v in r[1:]] for r in rows], dtype=np.int64)
    bad = np.argwhere(got[:, :-1] != counts.T)
    _expect(bad.size == 0, f"{len(bad)} cells differ, first at week/region {bad[:1].tolist()}")
    _expect((got[:, -1] == counts.sum(axis=0)).all(), "city column is not the region sum")


def _tessellate_record(out):
    runs = read_json(os.path.join(out, "manifest.json"))["runs"]
    records = [r for r in runs if r["subcommand"] == "tessellate"]
    _expect(records, "manifest has no tessellate record")
    return records[-1]["parameters"]["stats"]


def check_manifest_tallies(out, ctx):
    truth = ctx["truth"]
    stats = _tessellate_record(out)
    want = {
        "n_events": truth.n_events,
        "n_rejected": sum(truth.rejected.values()),
        "events_outside_area": truth.n_outside,
    }
    got = {k: stats.get(k) for k in want}
    _expect(got == want, f"manifest stats {got}, generator {want}")


def check_rejection_reasons(out, ctx):
    header, rows = read_csv(os.path.join(out, "rejects.csv"))
    _expect(header == ["row", "reason"], f"rejects.csv header {header}")
    got = {}
    for r in rows:
        got[r[1]] = got.get(r[1], 0) + 1
    _expect(got == ctx["truth"].rejected, f"rejects by reason {got}, generator {ctx['truth'].rejected}")


def _cells_per_region(out, ctx):
    truth = ctx["truth"]
    rects = read_regions(out)
    where = locate(truth.cell_lon, truth.cell_lat, rects)
    return rects, where


def check_region_population(out, ctx):
    rects, where = _cells_per_region(out, ctx)
    _expect((where >= 0).all(), "a population cell lies in no region")
    pop = np.bincount(where, weights=ctx["truth"].cell_pop, minlength=rects.shape[0])
    bad = np.nonzero(np.abs(pop - rects[:, 5]) > 1e-6)[0]
    _expect(bad.size == 0, f"{bad.size} regions' populations differ from their cells', "
            f"first region {bad[:1].tolist()}")


def check_regions_tile_bbox(out, ctx):
    rects = read_regions(out)
    lon0, lat0, lon1, lat1 = ctx["truth"].bbox
    x0, y0, x1, y1 = (rects[:, k] for k in (1, 2, 3, 4))
    _expect((x0 >= lon0).all() and (x1 <= lon1).all() and (y0 >= lat0).all()
            and (y1 <= lat1).all() and (x1 > x0).all() and (y1 > y0).all(),
            "a region is empty or leaves the bbox")
    area = (x1 - x0) * (y1 - y0)
    box = (lon1 - lon0) * (lat1 - lat0)
    _close(area.sum(), box, 1e-9, "sum of region areas vs bbox area")
    ox = np.minimum(x1[:, None], x1[None, :]) - np.maximum(x0[:, None], x0[None, :])
    oy = np.minimum(y1[:, None], y1[None, :]) - np.maximum(y0[:, None], y0[None, :])
    overlap = np.clip(ox, 0, None) * np.clip(oy, 0, None)
    np.fill_diagonal(overlap, 0.0)
    _expect(overlap.max() <= 1e-12 * box, "two regions overlap")


def check_region_target(out, ctx):
    rects, where = _cells_per_region(out, ctx)
    cells = np.bincount(where, minlength=rects.shape[0])
    over = np.nonzero((rects[:, 5] > ctx["target_pop"]) & (cells != 1))[0]
    _expect(over.size == 0, f"regions {over[:5].tolist()} exceed the target with several cells")


# ---------------------------------------------------------------------------
# checks on fit.json


def check_gini(out, ctx):
    fit = read_json(os.path.join(out, "fit.json"))
    x = read_counts(out)
    values, mult = np.unique(x, return_counts=True)
    _close(fit["gini"], pairwise_gini(values, mult), 1e-12, "gini vs pairwise difference")


def check_ks(out, ctx):
    fit = read_json(os.path.join(out, "fit.json"))
    x = read_counts(out).astype(float)
    _close(fit["ks"], tail_ks(x, fit["alpha"], fit["xmin"]), 1e-9, "ks at (alpha, xmin)")


def check_n_tail(out, ctx):
    fit = read_json(os.path.join(out, "fit.json"))
    x = read_counts(out)
    _expect(fit["n_tail"] == int((x >= fit["xmin"]).sum()), f"n_tail {fit['n_tail']}")


def check_alpha_local_max(out, ctx):
    fit = read_json(os.path.join(out, "fit.json"))
    x = read_counts(out).astype(float)
    a, xmin = fit["alpha"], fit["xmin"]
    here = tail_loglik(x, a, xmin)
    for step in (-1e-3, 1e-3):
        _expect(here >= tail_loglik(x, a + step, xmin),
                f"log-likelihood rises at alpha {a + step}")


def check_gof_p(out, ctx):
    p = read_json(os.path.join(out, "fit.json"))["gof_p"]
    k = p * ctx["boot"]
    _expect(0.0 <= p <= 1.0 and abs(k - round(k)) < 1e-9, f"gof_p {p} with boot {ctx['boot']}")


def check_alpha_recovered(out, ctx):
    a = read_json(os.path.join(out, "fit.json"))["alpha"]
    _expect(abs(a - ctx["alpha_true"]) <= 0.05, f"alpha {a}, true {ctx['alpha_true']}")


def check_lr_exponential(out, ctx):
    lr = read_json(os.path.join(out, "fit.json"))["lr_exponential"]
    _expect(lr["favored"] == "power_law" and lr["p"] < 0.05, f"lr_exponential {lr}")


# ---------------------------------------------------------------------------
# checks on composed / rhythms / ranks / independence / report


def _composed(out):
    header, rows = read_csv(os.path.join(out, "composed.csv"))
    _expect(header == ["week_start", "c_b", "regions_valid"], f"composed.csv header {header}")
    return np.array(_column(rows, 1, int)), np.array(_column(rows, 2, int))


def _run_lengths(out):
    header, rows = read_csv(os.path.join(out, "durations.csv"))
    _expect(header == ["region_id", "run_start", "run_length_weeks"],
            f"durations.csv header {header}")
    return _column(rows, 2, int)


def check_durations_sum(out, ctx):
    c_b, _ = _composed(out)
    runs = _run_lengths(out)
    _expect(sum(runs) == int(c_b.sum()), f"run lengths sum {sum(runs)}, c_b sum {c_b.sum()}")


def check_c_b_within_valid(out, ctx):
    c_b, valid = _composed(out)
    bad = np.nonzero(c_b > valid)[0]
    _expect(bad.size == 0, f"c_b exceeds regions_valid at rows {bad[:5].tolist()}")


def check_city_band(out, ctx):
    header, rows = read_csv(os.path.join(out, "band.csv"))
    _expect(header == ["week_start", "power", "threshold", "significant", "coi_valid"],
            f"band.csv header {header}")
    for i, (_, power, threshold, significant, valid) in enumerate(rows):
        want = float(power) > float(threshold) and valid == "true"
        _expect(significant == ("true" if want else "false"),
                f"row {i + 1}: significant is {significant}, power vs threshold says {want}")
    valid = [r for r in rows if r[4] == "true"]
    share = sum(r[3] == "true" for r in valid) / max(len(valid), 1)
    _expect(valid and share >= 0.9, f"city band significant on {share:.3f} of valid weeks")


def check_median_run(out, ctx):
    header, rows = read_csv(os.path.join(out, "composed.csv"))
    weeks = {w: k for k, w in enumerate(r[0] for r in rows)}
    runs = _run_lengths(out)
    _, durations = read_csv(os.path.join(out, "durations.csv"))
    for start, length in zip((r[1] for r in durations), runs):
        _expect(start in weeks and length >= 1 and weeks[start] + length <= len(weeks),
                f"run of {length} weeks from {start} leaves the series")
    _expect(runs and float(np.median(runs)) <= len(weeks) / 2,
            f"median run {np.median(runs) if runs else None} of {len(weeks)} weeks")


def check_interior_cv(out, ctx):
    c_b, valid = _composed(out)
    interior = c_b[valid == valid.max()]
    cv = interior.std() / interior.mean() if interior.mean() > 0 else math.inf
    _expect(cv <= 0.25, f"interior c_b cv {cv}")


def check_entropy(out, ctx):
    header, rows = read_csv(os.path.join(out, "entropy.csv"))
    _expect(header == ["position", "entropy"], f"entropy.csv header {header}")
    want = _cached(ctx, ("entropy", out), lambda: recount_entropy(out))
    _expect(_column(rows, 0, int) == list(range(1, want.size + 1)), "positions are not 1..R")
    got = np.array(_column(rows, 1))
    worst = int(np.argmax(np.abs(got - want)))
    _expect(abs(got[worst] - want[worst]) <= 1e-12,
            f"entropy at position {worst + 1}: {got[worst]!r} != {want[worst]!r}")


def check_hoeffding_d(out, ctx):
    res = read_json(os.path.join(out, "independence.json"))
    x, y = ctx["pairs"]
    _close(res["D"], hoeffding_brute(x, y), 1e-12, "D vs brute force")


def check_p_value_minimum(out, ctx):
    res = read_json(os.path.join(out, "independence.json"))
    want = 1.0 / (ctx["perm"] + 1)
    _expect(res["p_value"] == want and res["n_perm"] == ctx["perm"],
            f"p_value {res['p_value']}, minimum {want}")


def check_report(out, ctx):
    report = read_json(os.path.join(out, "report.json"))
    present = [s for s in REPORT_SOURCES if os.path.exists(os.path.join(out, s))]
    want = {"gini": None, "alpha": None, "mean_h": None, "c_b_cv": None,
            "median_dt": None,
            "missing": [s for s in REPORT_SOURCES if s not in present]}
    if "fit.json" in present:
        fit = read_json(os.path.join(out, "fit.json"))
        want["gini"], want["alpha"] = fit["gini"], fit["alpha"]
    if "entropy_summary.json" in present:
        _, rows = read_csv(os.path.join(out, "entropy.csv"))
        want["mean_h"] = float(np.mean(_column(rows, 1)))
    if "composed.csv" in present:
        c_b, valid = _composed(out)
        interior = c_b[valid == valid.max()]
        want["c_b_cv"] = float(interior.std() / interior.mean())
    if "durations.csv" in present:
        want["median_dt"] = float(np.median(_run_lengths(out)))
    _expect(set(report) == set(want), f"report keys {sorted(report)}")
    for key, value in want.items():
        if isinstance(value, float):
            _close(report[key], value, 1e-12, f"report {key}")
        else:
            _expect(report[key] == value, f"report {key}: {report[key]!r} != {value!r}")


EVENTS_CITY = (
    check_region_series, check_manifest_tallies, check_rejection_reasons,
    check_region_population, check_regions_tile_bbox, check_region_target,
    check_durations_sum, check_c_b_within_valid, check_city_band, check_entropy,
    check_report,
)
POWERLAW_COUNTS = (
    check_gini, check_ks, check_n_tail, check_alpha_local_max, check_gof_p,
    check_alpha_recovered, check_lr_exponential, check_report,
)
WAVE_CITY = (
    check_durations_sum, check_c_b_within_valid, check_city_band, check_median_run,
    check_interior_cv, check_entropy, check_hoeffding_d, check_p_value_minimum,
    check_report,
)


def run_checks(checks, out, ctx):
    """[(name, None or failure reason)] for every check, in order."""
    results = []
    for check in checks:
        name = check.__name__[len("check_"):]
        try:
            check(out, ctx)
            results.append((name, None))
        except CheckFailed as exc:
            results.append((name, str(exc)))
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            results.append((name, f"{type(exc).__name__}: {exc}"))
    return results
