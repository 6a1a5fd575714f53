"""Wavelet rhythm analysis: detrending, Morlet CWT, red-noise
significance, band power, reconstruction, and composed power."""

import numpy as np
import pytest

from crimepatterns import (
    FOURIER_FACTOR,
    RegionSeriesSet,
    TimeSeries,
    band_power,
    composed_power,
    cwt,
    detrend,
    fill_gaps,
    gen_ar1,
    gen_seasonal,
    gen_traveling_wave_city,
    global_spectrum,
    reconstruct_band,
    significant_durations,
    week_starts_from,
)
from crimepatterns.rhythms import CDELTA, COMPOSED_BLOCK_ROWS, ComposedPower, _chi2_quantile

DT = 1.0 / 52


def white_series(seed, n=520):
    return TimeSeries(np.random.default_rng(seed).normal(0.0, 1.0, n), DT)


class TestFillGaps:
    def test_short_gap_is_linearly_interpolated(self):
        v = np.array([1.0, 2.0, np.nan, np.nan, 5.0, 6.0])
        out = fill_gaps(v)
        assert np.allclose(out, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])

    def test_no_gap_returns_equal_values(self):
        v = np.arange(10, dtype=float)
        assert np.array_equal(fill_gaps(v), v)

    def test_gap_longer_than_limit_is_an_error(self):
        v = np.array([1.0, np.nan, np.nan, np.nan, 5.0])
        with pytest.raises(ValueError, match="gap of 3"):
            fill_gaps(v)

    def test_wider_limit_accepts_the_same_gap(self):
        v = np.array([1.0, np.nan, np.nan, np.nan, 5.0])
        assert np.allclose(fill_gaps(v, max_gap=3), [1.0, 2.0, 3.0, 4.0, 5.0])

    def test_edge_gap_is_an_error(self):
        with pytest.raises(ValueError, match="edge"):
            fill_gaps(np.array([np.nan, 1.0, 2.0]))
        with pytest.raises(ValueError, match="edge"):
            fill_gaps(np.array([1.0, 2.0, np.nan]))

    def test_all_missing_is_an_error(self):
        with pytest.raises(ValueError, match="entirely missing"):
            fill_gaps(np.full(8, np.nan))


class TestDetrend:
    def test_linear_ramp_vanishes_away_from_the_edges(self):
        # A centered moving average reproduces a linear trend exactly
        # wherever the window is not clipped, so the interior residual
        # is identically zero.
        ts = TimeSeries(np.linspace(3.0, 40.0, 208), DT)
        d = detrend(ts)
        assert np.abs(d.values[26:-26]).max() <= 1e-10

    def test_annual_sinusoid_survives_with_unit_variance(self):
        # The 53-week moving average passes a 52-week sinusoid with
        # gain -1/53, so the residual keeps the cycle; standardization
        # then puts its amplitude near sqrt(2).
        t = np.arange(520) * DT
        ts = TimeSeries(3.0 * np.sin(2 * np.pi * t), DT)
        d = detrend(ts)
        basis = np.column_stack([np.sin(2 * np.pi * t), np.cos(2 * np.pi * t)])
        interior = slice(60, 460)
        coef, *_ = np.linalg.lstsq(basis[interior], d.values[interior], rcond=None)
        amplitude = float(np.hypot(*coef))
        assert 0.95 <= amplitude / np.sqrt(2.0) <= 1.05

    def test_output_keeps_length_step_and_start(self):
        ts = TimeSeries(np.random.default_rng(0).poisson(9.0, 150).astype(float), DT,
                        np.datetime64("2011-01-03"))
        d = detrend(ts)
        assert len(d) == 150
        assert d.dt == ts.dt
        assert d.t0 == ts.t0
        assert abs(d.values.std() - 1.0) <= 1e-12

    def test_constant_series_is_an_error(self):
        with pytest.raises(ValueError, match="no variance"):
            detrend(TimeSeries(np.full(200, 5.0), DT))

    def test_short_series_is_an_error(self):
        with pytest.raises(ValueError, match="at least 104"):
            detrend(TimeSeries(np.random.default_rng(1).normal(size=103), DT))

    def test_even_window_is_an_error(self):
        with pytest.raises(ValueError, match="odd"):
            detrend(white_series(2), window=52)

    def test_missing_values_are_an_error(self):
        v = np.random.default_rng(3).normal(size=150)
        v[70] = np.nan
        with pytest.raises(ValueError, match="fill gaps"):
            detrend(TimeSeries(v, DT))


class TestCwt:
    def test_impulse_response_is_symmetric(self):
        x = np.zeros(513)
        x[256] = 1.0
        field = cwt(TimeSeries(x, DT))
        mag = np.abs(field.coefficients)
        k = np.arange(1, 257)
        assert np.abs(mag[:, 256 - k] - mag[:, 256 + k]).max() <= 1e-8

    def test_annual_peak_sits_at_the_fourier_equivalent_scale(self):
        field = cwt(gen_seasonal(1.0, 1.0, 0.0, 520, 0))
        j_peak = int(field.power().mean(axis=1).argmax())
        j_fourier = int(np.abs(field.scales - 1.0 / FOURIER_FACTOR).argmin())
        assert abs(j_peak - j_fourier) <= 1

    def test_white_noise_power_is_flat_across_scales(self):
        # 1000 replicates; per-scale mean power inside the cone of
        # influence should be scale-independent for white noise.  The
        # grid stops at two years so every scale keeps some COI-valid
        # samples.
        probe = cwt(TimeSeries(np.zeros(520), DT), s0=4 * DT,
                    max_scale_years=2.0, required_band=None)
        valid = probe.coi_scale[None, :] >= probe.scales[:, None]
        total = np.zeros(probe.scales.size)
        for r in range(1000):
            field = cwt(white_series(40_000 + r), s0=4 * DT,
                        max_scale_years=2.0, required_band=None)
            total += np.where(valid, field.power(), 0.0).sum(axis=1) / valid.sum(axis=1)
        mean = total / 1000
        assert np.abs(mean / mean.mean() - 1.0).max() <= 0.10

    def test_transform_is_linear(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0.0, 1.0, 260)
        b = rng.normal(0.0, 1.0, 260)
        fa = cwt(TimeSeries(a, DT))
        fb = cwt(TimeSeries(b, DT))
        fz = cwt(TimeSeries(2.5 * a - 1.3 * b, DT))
        combined = 2.5 * fa.coefficients - 1.3 * fb.coefficients
        assert np.abs(fz.coefficients - combined).max() <= 1e-8

    def test_time_shift_moves_coefficients(self):
        # Two windows of one long realization, offset by 10 weeks: away
        # from the edges the coefficients must agree at the shifted
        # positions.  Small scales only, so edge leakage decays well
        # inside the 160-week margin.
        z = np.random.default_rng(2).normal(0.0, 1.0, 540)
        kw = dict(s0=4 * DT, max_scale_years=0.5, required_band=None)
        fx = cwt(TimeSeries(z[:520], DT), **kw)
        fy = cwt(TimeSeries(z[10:530], DT), **kw)
        diff = fy.coefficients[:, 160:350] - fx.coefficients[:, 170:360]
        assert np.abs(diff).max() <= 1e-6

    def test_scales_are_dyadic_from_s0(self):
        field = cwt(white_series(3), s0=DT, dj=0.25)
        assert np.allclose(field.scales, DT * 2.0 ** (0.25 * np.arange(field.scales.size)))
        assert field.scales[-1] >= 4.0
        assert np.all(np.diff(field.scales) > 0)

    def test_coi_is_zero_at_edges_and_peaks_in_the_middle(self):
        field = cwt(white_series(4, n=200), required_band=None, max_scale_years=1.0)
        coi = field.coi_scale
        assert coi[0] == 0.0 and coi[-1] == 0.0
        assert coi.argmax() in (99, 100)
        assert np.allclose(coi, coi[::-1])

    def test_zero_series_gives_zero_power(self):
        field = cwt(TimeSeries(np.zeros(520), DT))
        assert field.power().max() == 0.0
        assert global_spectrum(field).peak_scales().size == 0

    def test_missing_values_are_an_error(self):
        v = np.ones(520)
        v[5] = np.nan
        with pytest.raises(ValueError, match="missing"):
            cwt(TimeSeries(v, DT))

    def test_bad_scale_parameters_are_errors(self):
        with pytest.raises(ValueError, match="positive"):
            cwt(white_series(5), s0=-1.0)
        with pytest.raises(ValueError, match="positive"):
            cwt(white_series(5), dj=0.0)
        with pytest.raises(ValueError, match="max scale"):
            cwt(white_series(5), s0=1.0, max_scale_years=0.5, required_band=None)

    def test_grid_must_cover_the_required_band(self):
        with pytest.raises(ValueError, match="does not cover"):
            cwt(white_series(6), max_scale_years=0.9)


class TestGlobalSpectrum:
    def test_seasonal_peak_lands_at_one_year(self):
        # Amplitude 2 over unit noise is an SNR of 2.
        d = detrend(gen_seasonal(1.0, 2.0, 1.0, 520, 8))
        spectrum = global_spectrum(cwt(d))
        periods = spectrum.peak_scales() * FOURIER_FACTOR
        assert periods.size > 0
        assert ((periods >= 0.9) & (periods <= 1.1)).any()

    def test_red_noise_rarely_shows_circannual_peaks(self):
        # AR(1) replicates fed in raw: detrending would whiten the low
        # frequencies and bias the fitted lag-1 coefficient.
        false_positives = 0
        for r in range(1000):
            spectrum = global_spectrum(cwt(gen_ar1(0.7, 520, 30_000 + r)))
            peaks = spectrum.peak_scales()
            if ((peaks >= 0.8) & (peaks <= 1.1)).any():
                false_positives += 1
        assert false_positives / 1000 <= 0.10

    def test_threshold_scales_with_alpha(self):
        field = cwt(white_series(9))
        loose = global_spectrum(field, alpha_level=0.10)
        strict = global_spectrum(field, alpha_level=0.01)
        assert (strict.significance > loose.significance).all()

    def test_bad_alpha_is_an_error(self):
        field = cwt(white_series(9))
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError, match="alpha"):
                global_spectrum(field, alpha_level=bad)


class TestChi2Quantile:
    """The quantile solved with numpy and math alone against scipy's."""

    def test_matches_scipy_on_a_grid(self):
        from scipy.special import gammainccinv

        g = np.random.default_rng(3)
        dof = np.concatenate([np.arange(1.0, 1001.0), g.uniform(1.0, 1000.0, 300),
                              g.uniform(1.0, 5.0, 100), np.geomspace(1.0, 1000.0, 50)])
        for alpha in np.concatenate([np.geomspace(1e-20, 0.5, 25), [1e-16, 0.001, 0.05]]):
            expected = 2.0 * gammainccinv(dof / 2.0, alpha)
            np.testing.assert_allclose(_chi2_quantile(dof, alpha), expected, rtol=1e-12, atol=0)

    def test_keeps_the_shape_of_dof(self):
        assert np.ndim(_chi2_quantile(np.float64(2.0), 0.05)) == 0
        assert _chi2_quantile(np.full((2, 3), 2.0), 0.05).shape == (2, 3)
        # Two degrees of freedom: the quantile is -2 log(alpha).
        assert _chi2_quantile(2.0, 1e-20) == pytest.approx(-2.0 * np.log(1e-20), rel=1e-14)


class TestBandPower:
    def test_stationary_annual_signal_is_significant_throughout(self):
        d = detrend(gen_seasonal(1.0, 2.0, 1.0, 520, 15))
        bp = band_power(cwt(d))
        assert bp.significant.sum() / bp.coi_valid.sum() >= 0.90

    def test_windowed_signal_is_caught_only_inside_its_window(self):
        rng = np.random.default_rng(12)
        t = np.arange(520) * DT
        values = rng.normal(0.0, 1.0, 520)
        values[:260] += 2.0 * np.sin(2 * np.pi * t[:260])
        bp = band_power(cwt(detrend(TimeSeries(values, DT))))
        first = bp.significant[:260].sum() / bp.coi_valid[:260].sum()
        second = bp.significant[260:].sum() / bp.coi_valid[260:].sum()
        assert first >= 0.70
        assert second <= 0.30

    def test_white_noise_rate_is_near_the_nominal_level(self):
        # Pooled over 200 replicates; a single draw of the rate is too
        # dispersed to pin down.
        significant = valid = 0
        for r in range(200):
            bp = band_power(cwt(white_series(20_000 + r)))
            significant += int(bp.significant.sum())
            valid += int(bp.coi_valid.sum())
        assert significant / valid <= 0.10

    def test_significance_never_outruns_the_cone(self):
        bp = band_power(cwt(detrend(gen_seasonal(1.0, 2.0, 1.0, 520, 15))))
        assert not (bp.significant & ~bp.coi_valid).any()
        assert bp.coi_valid[0] == False and bp.coi_valid[-1] == False  # noqa: E712
        assert bp.power.size == 520

    def test_band_outside_grid_is_an_error(self):
        field = cwt(white_series(16))
        with pytest.raises(ValueError, match="does not intersect"):
            band_power(field, band=(5.0, 6.0))

    def test_degenerate_band_is_an_error(self):
        field = cwt(white_series(16))
        with pytest.raises(ValueError, match="band"):
            band_power(field, band=(1.1, 0.8))


class TestReconstructBand:
    def test_full_band_recovers_white_noise(self):
        d = detrend(white_series(6))
        rec = reconstruct_band(cwt(d, s0=DT))
        assert np.corrcoef(rec.values, d.values)[0, 1] >= 0.95
        assert 0.9 <= rec.values.var() / d.values.var() <= 1.1

    def test_full_band_recovers_a_seasonal_series(self):
        d = detrend(gen_seasonal(1.0, 2.0, 1.0, 520, 7))
        rec = reconstruct_band(cwt(d, s0=DT))
        assert np.corrcoef(rec.values, d.values)[0, 1] >= 0.95
        assert 0.9 <= rec.values.var() / d.values.var() <= 1.1

    def test_circannual_band_recovers_an_annual_sinusoid(self):
        ts = gen_seasonal(1.0, 1.0, 0.0, 520, 0)
        rec = reconstruct_band(cwt(detrend(ts)), (0.8, 1.1))
        interior = slice(80, 440)
        corr = np.corrcoef(rec.values[interior], ts.values[interior])[0, 1]
        assert corr >= 0.98

    def test_circannual_band_of_white_noise_keeps_little_variance(self):
        d = detrend(white_series(4))
        rec = reconstruct_band(cwt(d), (0.8, 1.1))
        assert rec.values.var() / d.values.var() <= 0.2

    def test_total_energy_matches_series_variance(self):
        # Scale-integrated power reproduces the variance (Parseval
        # analogue); needs the grid to start at one sampling step so
        # the smallest scales are not truncated.
        for seed in (9, 10):
            ts = white_series(seed)
            field = cwt(ts, s0=DT)
            energy = (field.dj * field.dt / (CDELTA * len(ts))) * (
                field.power() / field.scales[:, None]
            ).sum()
            assert 0.9 <= energy / ts.values.var() <= 1.1

    def test_band_outside_grid_is_an_error(self):
        with pytest.raises(ValueError, match="does not intersect"):
            reconstruct_band(cwt(white_series(8)), (5.0, 6.0))


class TestComposedPower:
    def test_synchronized_regions_all_count(self):
        # Noise-free city where every region holds the annual cycle for
        # the whole span: wherever all cones are valid the count is R.
        city = gen_traveling_wave_city(
            8, 260, 260, wave_speed=0.0, amplitude=5.0, noise_sd=0.0, seed=1
        )
        cp = composed_power(city)
        interior = cp.regions_valid == 8
        assert interior.sum() > 50
        assert (cp.c_b[interior] == 8).all()

    def test_white_noise_city_counts_stay_low(self):
        city = gen_traveling_wave_city(
            20, 260, 156, amplitude=0.0, noise_sd=1.0, seed=31
        )
        cp = composed_power(city)
        assert (cp.c_b <= 0.15 * 20).mean() >= 0.90

    def test_traveling_wave_keeps_a_steady_count(self):
        # Individual regions gain and lose the cycle as the window
        # passes over them, yet the city-wide count stays flat.
        city = gen_traveling_wave_city(
            40, 520, 156, amplitude=5.0, noise_sd=1.0, seed=2024
        )
        cp = composed_power(city)
        interior = cp.regions_valid == cp.regions_valid.max()
        values = cp.c_b[interior]
        assert values.std() / values.mean() <= 0.25
        for row in cp.masks:
            assert row.any() and not row.all()

    def test_count_equals_column_sum_of_masks(self):
        city = gen_traveling_wave_city(
            6, 156, 52, amplitude=4.0, noise_sd=0.5, seed=5
        )
        cp = composed_power(city)
        assert np.array_equal(cp.c_b, cp.masks.sum(axis=0))
        assert cp.c_b.max() <= 6
        assert cp.week_starts.size == 156
        assert np.array_equal(cp.region_ids, city.region_ids)

    def test_unanalyzable_regions_are_reported_not_fatal(self):
        weeks = week_starts_from(np.datetime64("2012-01-02"), 120)
        t = np.arange(120) * DT
        good0 = 10 + 5 * np.sin(2 * np.pi * t) + np.random.default_rng(0).normal(0, 1, 120)
        good1 = 10 + 5 * np.cos(2 * np.pi * t) + np.random.default_rng(1).normal(0, 1, 120)
        flat = np.full(120, 7.0)
        city = RegionSeriesSet(weeks, np.array([good0, good1, flat]), np.array([0, 1, 2]))
        cp = composed_power(city)
        assert cp.rejected == [(2, "series has no variance after trend removal")]
        assert np.array_equal(cp.region_ids, [0, 1])
        assert cp.masks.shape == (2, 120)

    def test_fewer_than_two_usable_regions_is_an_error(self):
        weeks = week_starts_from(np.datetime64("2012-01-02"), 120)
        t = np.arange(120) * DT
        good = 10 + 5 * np.sin(2 * np.pi * t)
        city = RegionSeriesSet(
            weeks,
            np.array([good, np.full(120, 3.0), np.full(120, 7.0)]),
            np.array([0, 1, 2]),
        )
        with pytest.raises(ValueError, match="fewer than two"):
            composed_power(city)

    def test_short_span_is_an_error(self):
        city = gen_traveling_wave_city(4, 80, 40, seed=2)
        with pytest.raises(ValueError, match="at least 104"):
            composed_power(city)


def per_region_composed(city, band, alpha_level):
    """Composed power the long way: every region through the single-series
    pipeline on its own full scale grid."""
    masks, valids, kept, rejected = [], [], [], []
    for region_id, row in zip(city.region_ids, city.counts):
        try:
            anomaly = detrend(TimeSeries(fill_gaps(row.astype(float)), DT))
            bp = band_power(cwt(anomaly, required_band=band), band, alpha_level)
        except ValueError as exc:
            rejected.append((int(region_id), str(exc)))
            continue
        masks.append(bp.significant)
        valids.append(bp.coi_valid)
        kept.append(region_id)
    masks = np.array(masks)
    return masks, masks.sum(axis=0), np.array(valids).sum(axis=0), np.array(kept), rejected


class TestComposedPowerOracle:
    @pytest.mark.parametrize("band, alpha_level", [((0.8, 1.1), 0.05), ((0.5, 2.0), 0.1)])
    def test_matches_the_per_region_pipeline(self, band, alpha_level):
        n_regions = COMPOSED_BLOCK_ROWS + 7  # two blocks, the last one partial
        city = gen_traveling_wave_city(
            n_regions, 364, 104, amplitude=3.0, noise_sd=1.0, seed=17
        )
        counts = city.counts.astype(float)
        counts[4, 150:152] = np.nan  # filled
        counts[9, 200:203] = np.nan  # rejected: too long a gap
        counts[20] = 6.0  # rejected: flat
        city = RegionSeriesSet(city.week_starts, counts, city.region_ids)
        masks, c_b, valid, kept, rejected = per_region_composed(city, band, alpha_level)
        cp = composed_power(city, band=band, alpha_level=alpha_level)
        assert np.array_equal(cp.masks, masks)
        assert np.array_equal(cp.c_b, c_b)
        assert np.array_equal(cp.regions_valid, valid)
        assert np.array_equal(cp.region_ids, kept)
        assert cp.rejected == rejected
        assert [rid for rid, _ in rejected] == [9, 20]
        assert masks.any() and 4 in kept

    @pytest.mark.parametrize(
        "band, alpha_level, message",
        [
            ((5.0, 6.0), 0.05, "does not cover"),
            ((1.1, 0.8), 0.05, "0 < low < high"),
            ((0.8, 1.1), 1.5, "alpha_level"),
        ],
    )
    def test_bad_band_or_alpha_names_the_cause(self, band, alpha_level, message):
        city = gen_traveling_wave_city(4, 156, 52, seed=3)
        with pytest.raises(ValueError, match=message):
            composed_power(city, band=band, alpha_level=alpha_level)


def make_composed(mask_rows, region_ids):
    masks = np.asarray(mask_rows, dtype=bool)
    n = masks.shape[1]
    return ComposedPower(
        c_b=masks.sum(axis=0).astype(np.int64),
        regions_valid=np.full(n, masks.shape[0], dtype=np.int64),
        week_starts=week_starts_from(np.datetime64("2012-01-02"), n),
        region_ids=np.asarray(region_ids, dtype=np.int64),
        masks=masks,
        rejected=[],
    )


def assert_runs(runs, region_ids, starts, lengths):
    for got, want in zip(runs, (region_ids, starts, lengths)):
        assert got.dtype.kind == "i"
        assert np.array_equal(got, want)


class TestSignificantDurations:
    def test_split_run_yields_two_lengths(self):
        runs = significant_durations(make_composed([[1, 1, 0, 1, 1]], [7]))
        assert_runs(runs, [7, 7], [0, 3], [2, 2])

    def test_unbroken_run_spans_the_series(self):
        runs = significant_durations(make_composed([[1] * 6], [3]))
        assert_runs(runs, [3], [0], [6])

    def test_no_significance_no_runs(self):
        runs = significant_durations(make_composed([[0] * 5], [0]))
        assert_runs(runs, [], [], [])

    def test_regions_come_out_in_order(self):
        runs = significant_durations(
            make_composed([[0, 1, 1, 0, 0], [1, 0, 0, 0, 1]], [3, 9])
        )
        assert_runs(runs, [3, 9, 9], [1, 0, 4], [2, 1, 1])

    def test_run_lengths_account_for_every_significant_week(self):
        city = gen_traveling_wave_city(
            40, 520, 156, amplitude=5.0, noise_sd=1.0, seed=2024
        )
        cp = composed_power(city)
        _, _, lengths = significant_durations(cp)
        assert lengths.sum() == int(cp.masks.sum())
        assert (lengths >= 1).all()
        assert np.median(lengths) <= 0.5 * 520
