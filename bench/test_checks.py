"""Tests of the benchmark's output checks.

Each workload is built smaller than the benchmark runs it and driven
in-process through `crimepatterns.cli.main`.  Every check must pass on the
program's artifacts for several seeds, and must fail once its artifact is
corrupted in one place.  Float artifacts are moved by far more than the
round-off tolerance of their check (1e-12 for gini, entropy, D and the
report, 1e-9 for ks), not by their last digit, which an independent
computation cannot pin down.

Run from the root of a checkout:  python3 -m pytest bench/test_checks.py
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import run  # noqa: E402
from crimepatterns import cli  # noqa: E402

SMALL = {
    "events_city": lambda: run.EventsCity(grid=40, n_rows=30_000, target_pop=5000),
    "powerlaw_counts": lambda: run.PowerlawCounts(n=20_000, boot=100),
    "wave_city": lambda: run.WaveCity(n_regions=40, perm=999),
}


class InProcess:
    """Runs each step through cli.main, untimed."""

    def __call__(self, name, argv, out):
        return cli.main([str(a) for a in argv] + ["--out", str(out)]), 0.0


def build(workload, seed, base):
    """Set up and run one round of a small workload; returns the workload,
    the output directory, the check context, the failed steps and the
    check results."""
    wl = SMALL[workload]()
    setup_dir, out = base / "setup", base / "out"
    setup_dir.mkdir(parents=True)
    out.mkdir()
    ctx = wl.prepare(seed, str(setup_dir))
    code, _ = wl.setup(seed, str(setup_dir), ctx, InProcess())
    assert code == 0
    failures = []

    def account(what, error):
        if error is not None:
            failures.append((what, error))

    results = run.run_round(wl, seed, str(setup_dir), str(out), ctx, InProcess(), account, "")
    return wl, str(out), ctx, failures, results


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("workload", sorted(SMALL))
def test_every_check_passes_on_the_program_output(workload, seed, tmp_path):
    _, _, _, failures, results = build(workload, seed, tmp_path)
    assert failures == []
    assert [r for r in results if r[1] is not None] == []


# ---------------------------------------------------------------------------
# one-place corruptions, one per check


def edit_csv(path, row, col, change):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows[row][col] = change(rows[row][col], rows[row])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def edit_json(path, change):
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    change(payload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def _fit(key, change):
    return lambda out, ctx: edit_json(os.path.join(out, "fit.json"),
                                      lambda f: f.update({key: change(f[key])}))


def _tally(out, ctx):
    def change(manifest):
        stats = [r for r in manifest["runs"] if r["subcommand"] == "tessellate"][-1]
        stats["parameters"]["stats"]["n_rejected"] += 1

    edit_json(os.path.join(out, "manifest.json"), change)


def _report(out, ctx):
    def change(report):
        key = next(k for k in ("mean_h", "gini") if report[k] is not None)
        report[key] += 1e-9

    edit_json(os.path.join(out, "report.json"), change)


def _interior_c_b(out, ctx):
    edit_csv(os.path.join(out, "composed.csv"), 260, 1, lambda v, row: str(10 ** 6))


CORRUPT = {
    "region_series": lambda out, ctx: edit_csv(
        os.path.join(out, "region_series.csv"), 5, 3, lambda v, row: str(int(v) + 1)),
    "manifest_tallies": _tally,
    "rejection_reasons": lambda out, ctx: edit_csv(
        os.path.join(out, "rejects.csv"), 1, 1,
        lambda v, row: "bad timestamp" if v != "bad timestamp" else "bad coordinate"),
    "region_population": lambda out, ctx: edit_csv(
        os.path.join(out, "tessellation.csv"), 3, 5, lambda v, row: repr(float(v) + 1)),
    "regions_tile_bbox": lambda out, ctx: edit_csv(
        os.path.join(out, "tessellation.csv"), 3, 3, lambda v, row: repr(float(v) - 1e-4)),
    "region_target": lambda out, ctx: edit_csv(
        os.path.join(out, "tessellation.csv"), 1, 5,
        lambda v, row: repr(ctx["target_pop"] + 1.0)),
    "gini": _fit("gini", lambda v: v + 1e-9),
    "ks": _fit("ks", lambda v: v + 1e-7),
    "n_tail": _fit("n_tail", lambda v: v + 1),
    "alpha_local_max": _fit("alpha", lambda v: v + 0.01),
    "gof_p": _fit("gof_p", lambda v: v + 0.001),
    "alpha_recovered": _fit("alpha", lambda v: 2.6),
    "lr_exponential": _fit("lr_exponential", lambda v: {**v, "favored": "inconclusive"}),
    "durations_sum": lambda out, ctx: edit_csv(
        os.path.join(out, "durations.csv"), 1, 2, lambda v, row: str(int(v) + 1)),
    "c_b_within_valid": lambda out, ctx: edit_csv(
        os.path.join(out, "composed.csv"), 200, 1, lambda v, row: str(int(row[2]) + 1)),
    "city_band": lambda out, ctx: edit_csv(
        os.path.join(out, "band.csv"), 200, 3,
        lambda v, row: "false" if v == "true" else "true"),
    "median_run": lambda out, ctx: edit_csv(
        os.path.join(out, "durations.csv"), 1, 2, lambda v, row: str(10 ** 4)),
    "interior_cv": _interior_c_b,
    "entropy": lambda out, ctx: edit_csv(
        os.path.join(out, "entropy.csv"), 2, 1, lambda v, row: repr(float(v) + 1e-9)),
    "hoeffding_d": lambda out, ctx: edit_json(
        os.path.join(out, "independence.json"), lambda r: r.update(D=r["D"] + 1e-9)),
    "p_value_minimum": lambda out, ctx: edit_json(
        os.path.join(out, "independence.json"),
        lambda r: r.update(p_value=2.0 / (ctx["perm"] + 1))),
    "report": _report,
}


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """Artifacts of each small workload at seed 0, built once."""
    built = {}
    for workload in SMALL:
        wl, out, ctx, failures, results = build(workload, 0, tmp_path_factory.mktemp(workload))
        assert failures == [] and all(e is None for _, e in results)
        built[workload] = (wl, out, ctx)
    return built


CASES = [
    (workload, check.__name__[len("check_"):])
    for workload in sorted(SMALL)
    for check in SMALL[workload]().checks
]


def test_every_check_has_a_corruption():
    assert {name for _, name in CASES} == set(CORRUPT)


@pytest.mark.parametrize("workload,name", CASES)
def test_check_fails_on_one_corrupted_place(workload, name, clean, tmp_path):
    wl, out, ctx = clean[workload]
    copy = str(tmp_path / "out")
    shutil.copytree(out, copy)
    CORRUPT[name](copy, ctx)
    check = getattr(checks, f"check_{name}")
    with pytest.raises(checks.CheckFailed):
        check(copy, ctx)
