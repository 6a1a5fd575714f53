"""Acceptance gate: the eleven end-to-end properties the package must
hold, each checked against an independent oracle or a synthetic
generator with known ground truth."""

import csv
import json
import time

import numpy as np

from crimepatterns import (
    FOURIER_FACTOR,
    PairedSample,
    RegionSeriesSet,
    TimeSeries,
    band_power,
    build_tessellation,
    composed_power,
    cwt,
    detrend,
    fit_power_law,
    gen_ar1,
    gen_powerlaw_counts,
    gen_seasonal,
    gen_traveling_wave_city,
    global_spectrum,
    hoeffding_test,
    likelihood_ratio,
    lorenz,
    position_entropy,
    reconstruct_band,
    significant_durations,
    week_starts_from,
    weekly_ranks,
)
from crimepatterns.cli import main

DT = 1.0 / 52
CIRCANNUAL = (0.8, 1.1)


def test_01_power_law_exponent_recovery():
    started = time.monotonic()
    for alpha in (2.5, 2.1, 3.0, 4.1):
        counts = gen_powerlaw_counts(alpha, 1, 50_000, seed=1000 + int(alpha * 10))
        fit = fit_power_law(counts)
        assert abs(fit.alpha - alpha) <= 0.05, f"alpha={alpha}: fit {fit.alpha}"
    assert time.monotonic() - started < 30.0


def test_02_gini_matches_pairwise_difference_oracle():
    def gini_pairwise(x):
        x = np.asarray(x, dtype=float)
        n = x.size
        return np.abs(x[:, None] - x[None, :]).sum() / (2.0 * n * n * x.mean())

    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(1, 501))
        x = rng.integers(0, 1000, size=n)
        if x.sum() == 0:
            x[0] = 1
        assert abs(lorenz(x).gini - gini_pairwise(x)) <= 1e-12


def test_03_likelihood_ratio_discriminates_both_directions():
    favored_power_law = 0
    for r in range(100):
        counts = gen_powerlaw_counts(2.5, 1, 10_000, seed=2000 + r)
        fit = fit_power_law(counts, xmin=1)
        result = likelihood_ratio(counts, fit, "exponential")
        if result.favored == "power_law" and result.p_value < 0.05:
            favored_power_law += 1
    assert favored_power_law >= 90

    favored_exponential = 0
    for r in range(100):
        counts = np.random.default_rng(3000 + r).geometric(0.2, 10_000)
        fit = fit_power_law(counts, xmin=1)
        result = likelihood_ratio(counts, fit, "exponential")
        if result.favored == "alternative" and result.p_value < 0.05:
            favored_exponential += 1
    assert favored_exponential >= 90


def test_04_rank_entropy_extremes():
    def as_set(counts):
        r, t = counts.shape
        weeks = week_starts_from(np.datetime64("2012-01-02"), t)
        return RegionSeriesSet(weeks, counts, np.arange(r))

    # One region always on top: the first rank position never varies.
    rng = np.random.default_rng(77)
    hotspot = np.vstack(
        [np.full((1, 260), 1000), rng.integers(0, 50, size=(49, 260))]
    )
    profile = position_entropy(weekly_ranks(as_set(hotspot)))
    assert profile.h[0] == 0.0

    # Independent uniform counts: near-total weekly turnover.
    iid = np.random.default_rng(404).integers(0, 1000, size=(50, 260))
    profile = position_entropy(weekly_ranks(as_set(iid)))
    assert profile.mean_h >= 0.9


def test_05_hoeffding_calibration_and_power():
    rejections = 0
    for r in range(50):
        x = np.random.default_rng(8000 + r).normal(size=20)
        y = np.random.default_rng(8500 + r).normal(size=20)
        p = hoeffding_test(PairedSample(x, y), n_perm=999, seed=9000 + r)
        if p <= 0.05:
            rejections += 1
    assert 1 <= rejections <= 6  # 1%-12% of 50 runs

    x = np.random.default_rng(42).normal(size=20)
    y = x + 0.05 * np.random.default_rng(43).normal(size=20)
    assert hoeffding_test(PairedSample(x, y), n_perm=999, seed=44) <= 0.001


def test_06_circannual_detection_on_seasonal_signal():
    # Amplitude 2 against unit noise is an SNR of 2 over 520 weeks.
    anomaly = detrend(gen_seasonal(1.0, 2.0, 1.0, 520, 3))
    field = cwt(anomaly)
    periods = global_spectrum(field).peak_scales() * FOURIER_FACTOR
    assert ((periods >= 0.9) & (periods <= 1.1)).any()
    bp = band_power(field, CIRCANNUAL)
    assert bp.significant.sum() / bp.coi_valid.sum() >= 0.90


def test_07_red_noise_false_positive_rates():
    # The replicates go in raw: detrending an AR(1) series whitens its
    # low frequencies and deflates the fitted lag-1 coefficient, which
    # would invalidate the red-noise null being calibrated here.
    significant = valid = global_hits = 0
    for r in range(1000):
        field = cwt(gen_ar1(0.7, 520, 10_000 + r))
        bp = band_power(field, CIRCANNUAL)
        significant += int(bp.significant.sum())
        valid += int(bp.coi_valid.sum())
        peaks = global_spectrum(field).peak_scales()
        if ((peaks >= CIRCANNUAL[0]) & (peaks <= CIRCANNUAL[1])).any():
            global_hits += 1
    pointwise = significant / valid
    assert 0.03 <= pointwise <= 0.07
    assert global_hits / 1000 <= 0.10


def test_08_full_band_reconstruction_fidelity():
    inputs = [
        detrend(gen_seasonal(1.0, 2.0, 1.0, 520, 2)),
        detrend(TimeSeries(np.random.default_rng(5).normal(0.0, 1.0, 520))),
    ]
    for anomaly in inputs:
        rec = reconstruct_band(cwt(anomaly, s0=DT))
        assert np.corrcoef(rec.values, anomaly.values)[0, 1] >= 0.95
        assert 0.9 <= rec.values.var() / anomaly.values.var() <= 1.1


def test_09_city_stationary_while_regions_travel():
    started = time.monotonic()
    city = gen_traveling_wave_city(
        40, 520, 156, amplitude=5.0, noise_sd=1.0, seed=2024
    )

    # (a) the summed city series keeps a significant circannual band
    bp = band_power(cwt(detrend(city.city_series())), CIRCANNUAL)
    assert bp.significant.sum() / bp.coi_valid.sum() >= 0.90

    # (b) individual regions hold the band only while the wave passes
    composed = composed_power(city, band=CIRCANNUAL)
    _, _, lengths = significant_durations(composed)
    assert np.median(lengths) <= 0.5 * 520

    # (c) the number of significant regions stays steady over time
    interior = composed.regions_valid == composed.regions_valid.max()
    values = composed.c_b[interior]
    assert values.std() / values.mean() <= 0.25

    assert time.monotonic() - started < 120.0


def test_10_tessellation_population_balance():
    uniform = np.array([(i / 64, j / 64, 1.0) for i in range(64) for j in range(64)])
    tess = build_tessellation(uniform, target_pop=256)
    assert tess.n_regions == 16
    assert (tess.populations == 256.0).all()

    rng = np.random.default_rng(1234)
    blocks = []
    for center in rng.uniform(-1.0, 1.0, size=(5, 2)):
        points = center + 0.08 * rng.normal(size=(400, 2))
        weights = rng.lognormal(0.0, 1.0, size=400)
        blocks.append(np.column_stack((points, weights)))
    cells = np.concatenate(blocks)
    total = sum(cells[:, 2].tolist())
    max_cell = cells[:, 2].max()
    for divisor in (11.3, 7.7, 23.6):
        tess = build_tessellation(cells, target_pop=total / divisor)
        populations = tess.populations
        assert populations.max() - populations.min() <= 2.0 * max_cell


def test_11_cli_pipeline_is_deterministic(tmp_path):
    scenarios = {
        "wave.json": {
            "kind": "traveling_wave_city",
            "seed": 2024,
            "parameters": {
                "n_regions": 40, "n_weeks": 520, "window_weeks": 156,
                "amplitude": 5.0, "noise_sd": 1.0,
            },
        },
        "pl.json": {
            "kind": "powerlaw_counts",
            "seed": 1025,
            "parameters": {"alpha": 2.5, "xmin": 1, "n": 50_000},
        },
    }
    for name, payload in scenarios.items():
        (tmp_path / name).write_text(json.dumps(payload))
    x = np.random.default_rng(42).normal(size=25)
    y = x + 0.05 * np.random.default_rng(43).normal(size=25)
    with open(tmp_path / "pairs.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x", "y"])
        writer.writerows([repr(float(a)), repr(float(b))] for a, b in zip(x, y))

    def run_pipeline(out):
        steps = [
            ["simulate", "--scenario", str(tmp_path / "wave.json")],
            ["simulate", "--scenario", str(tmp_path / "pl.json")],
            ["concentrate", "--counts", str(out / "counts.csv"),
             "--boot", "100", "--seed", "7"],
            ["ranks", "--region-series", str(out / "region_series.csv")],
            ["rhythms", "--region-series", str(out / "region_series.csv")],
            ["composed", "--region-series", str(out / "region_series.csv")],
            ["independence", "--pairs", str(tmp_path / "pairs.csv"),
             "--perm", "999", "--seed", "5"],
            ["report"],
        ]
        for step in steps:
            assert main(step + ["--out", str(out)]) == 0

    first, second = tmp_path / "run1", tmp_path / "run2"
    run_pipeline(first)
    run_pipeline(second)

    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    assert "manifest.json" in names and "report.json" in names

    def normalized_manifest(path):
        manifest = json.loads(path.read_text())
        for record in manifest["runs"]:
            record.pop("created_utc")
        return json.dumps(manifest, sort_keys=True)

    for name in names:
        if name == "manifest.json":
            assert normalized_manifest(first / name) == normalized_manifest(second / name)
        else:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
