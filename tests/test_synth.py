"""Seeded generators and the scenario file format."""

import json

import numpy as np
import pytest
from scipy.special import zeta

from crimepatterns import (
    ScenarioSpec,
    gen_ar1,
    gen_powerlaw_counts,
    gen_seasonal,
    gen_traveling_wave_city,
    load_scenario,
    run_scenario,
    synth,
)


class TestGenPowerlawCounts:
    def test_sample_mean_matches_zeta_moment(self):
        x = gen_powerlaw_counts(2.5, 1, 100_000, 3)
        target = zeta(1.5) / zeta(2.5)
        se = x.std(ddof=1) / np.sqrt(x.size)
        assert abs(x.mean() - target) <= 3.0 * se

    def test_steep_tail_sits_at_xmin(self):
        x = gen_powerlaw_counts(10.0, 1, 10_000, 11)
        assert (x == 1).mean() >= 0.995
        assert x.min() == 1

    def test_same_seed_is_deterministic(self):
        assert np.array_equal(
            gen_powerlaw_counts(2.5, 1, 1000, 42), gen_powerlaw_counts(2.5, 1, 1000, 42)
        )

    def test_respects_xmin(self):
        x = gen_powerlaw_counts(2.0, 7, 5000, 4)
        assert x.min() >= 7

    def test_invalid_parameters_are_errors(self):
        with pytest.raises(ValueError):
            gen_powerlaw_counts(1.0, 1, 100, 0)
        with pytest.raises(ValueError, match="alpha must exceed 1"):
            gen_powerlaw_counts(float("nan"), 1, 100, 0)
        with pytest.raises(ValueError):
            gen_powerlaw_counts(2.5, 0, 100, 0)
        with pytest.raises(ValueError):
            gen_powerlaw_counts(2.5, 1, 0, 0)

    def test_infinite_alpha_is_an_error(self):
        # An infinite exponent used to return only xmin.
        with pytest.raises(ValueError, match="alpha must exceed 1 and be finite"):
            gen_powerlaw_counts(float("inf"), 1, 5, 0)


class TestGenAr1:
    def test_zero_coefficient_gives_white_noise(self):
        v = gen_ar1(0.0, 10_000, 3).values
        r1 = np.corrcoef(v[:-1], v[1:])[0, 1]
        assert abs(r1) < 3.0 / np.sqrt(v.size)

    def test_lag1_autocorrelation_recovered(self):
        v = gen_ar1(0.7, 10_000, 5).values
        r1 = np.corrcoef(v[:-1], v[1:])[0, 1]
        assert 0.65 <= r1 <= 0.75

    def test_same_seed_is_deterministic(self):
        assert np.array_equal(gen_ar1(0.5, 500, 9).values, gen_ar1(0.5, 500, 9).values)

    def test_coefficient_must_be_stationary(self):
        with pytest.raises(ValueError):
            gen_ar1(1.0, 100, 0)
        with pytest.raises(ValueError):
            gen_ar1(-0.2, 100, 0)
        with pytest.raises(ValueError, match="n must be positive"):
            gen_ar1(0.5, 0, 0)

    @pytest.mark.parametrize("a", [0.0, 0.3, 0.7, 0.95, 0.999])
    @pytest.mark.parametrize("seed", [0, 1, 2, 17])
    def test_recursion_equals_the_lfilter_oracle_bit_for_bit(self, a, seed):
        # The generator before the recursion replaced scipy.signal.lfilter.
        from scipy.signal import lfilter

        n = 1520
        innovations = np.random.Generator(np.random.PCG64(seed)).standard_normal(
            synth.AR1_BURN_IN + n)
        oracle = lfilter([1.0], [1.0, -a], innovations)[synth.AR1_BURN_IN:]
        assert np.array_equal(gen_ar1(a, n, seed).values, oracle)


class TestGenSeasonal:
    def test_noise_free_series_is_the_exact_sinusoid(self):
        s = gen_seasonal(1.0, 2.0, 0.0, 260, 0)
        t = np.arange(260)
        expected = 2.0 * np.sin(2.0 * np.pi * t / 52.0)
        assert np.allclose(s.values, expected, atol=1e-12)

    def test_zero_amplitude_is_pure_noise(self):
        s = gen_seasonal(1.0, 0.0, 1.5, 520, 8)
        t = np.arange(520)
        basis = np.sin(2.0 * np.pi * t / 52.0)
        corr = np.corrcoef(s.values, basis)[0, 1]
        assert abs(corr) < 0.15
        assert s.values.std() == pytest.approx(1.5, rel=0.15)

    def test_nan_period_or_noise_is_an_error(self):
        with pytest.raises(ValueError, match="period must be positive"):
            gen_seasonal(float("nan"), 1.0, 0.1, 104, 0)
        with pytest.raises(ValueError, match="noise_sd must be non-negative"):
            gen_seasonal(1.0, 1.0, float("nan"), 104, 0)

    @pytest.mark.parametrize("amplitude", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_amplitude_is_an_error(self, amplitude):
        with pytest.raises(ValueError, match="amplitude must be finite"):
            gen_seasonal(1.0, amplitude, 0.1, 104, 0)

    def test_infinite_noise_is_an_error(self):
        with pytest.raises(ValueError, match="noise_sd must be non-negative and finite"):
            gen_seasonal(1.0, 1.0, float("inf"), 104, 0)

    def test_unresolvable_period_is_an_error(self):
        with pytest.raises(ValueError):
            gen_seasonal(2.0, 1.0, 0.1, 104, 0)  # n*dt = 2y < 2*period

    def test_same_seed_is_deterministic(self):
        a = gen_seasonal(1.0, 1.0, 0.5, 208, 21)
        b = gen_seasonal(1.0, 1.0, 0.5, 208, 21)
        assert np.array_equal(a.values, b.values)


class TestGenTravelingWaveCity:
    def test_zero_wave_speed_means_every_region_is_rhythmic(self):
        city = gen_traveling_wave_city(
            6, 208, window_weeks=52, wave_speed=0.0, amplitude=3.0, noise_sd=0.0, seed=0
        )
        t = np.arange(208)
        expected = 3.0 * np.sin(2.0 * np.pi * t / 52.0)
        for row in city.counts:
            assert np.allclose(row, expected, atol=1e-12)

    def test_full_window_equals_zero_wave_speed(self):
        a = gen_traveling_wave_city(
            8, 260, window_weeks=260, amplitude=5.0, noise_sd=1.0, seed=60
        )
        b = gen_traveling_wave_city(
            8, 260, window_weeks=260, wave_speed=0.0, amplitude=5.0, noise_sd=1.0, seed=60
        )
        assert np.array_equal(a.counts, b.counts)

    def test_windows_advance_across_regions(self):
        city = gen_traveling_wave_city(
            4, 208, window_weeks=52, amplitude=1.0, noise_sd=0.0, seed=0
        )
        active = np.abs(city.counts) > 1e-9
        starts = [np.argmax(a) for a in active]
        assert starts == sorted(starts)
        assert len(set(starts)) > 1

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            gen_traveling_wave_city(3, 208, 52)
        with pytest.raises(ValueError):
            gen_traveling_wave_city(8, 208, 0)
        with pytest.raises(ValueError, match="need at least 2 weeks"):
            gen_traveling_wave_city(8, 1, 1)
        with pytest.raises(ValueError):
            gen_traveling_wave_city(8, 208, 209)
        with pytest.raises(ValueError):
            gen_traveling_wave_city(8, 208, 52, wave_speed=-1.0)
        with pytest.raises(ValueError, match="wave_speed must be non-negative"):
            gen_traveling_wave_city(8, 208, 52, wave_speed=float("nan"))
        for noise_sd in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="noise_sd must be non-negative"):
                gen_traveling_wave_city(8, 208, 52, noise_sd=noise_sd)

    @pytest.mark.parametrize("amplitude", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_amplitude_is_an_error(self, amplitude):
        with pytest.raises(ValueError, match="amplitude must be finite"):
            gen_traveling_wave_city(4, 104, 52, amplitude=amplitude, noise_sd=0.0)

    def test_infinite_noise_is_an_error(self):
        with pytest.raises(ValueError, match="noise_sd must be non-negative and finite"):
            gen_traveling_wave_city(4, 104, 52, noise_sd=float("inf"))

    def test_week_grid_starts_on_a_monday(self):
        city = gen_traveling_wave_city(4, 120, 52, seed=1)
        day = (city.week_starts[0].astype("datetime64[D]").astype(int) + 3) % 7
        assert day == 0  # Monday
        assert city.n_weeks == 120


class TestScenarioSpec:
    def test_roundtrip_through_json(self, tmp_path):
        spec = ScenarioSpec(
            kind="powerlaw_counts",
            seed=5,
            parameters={"alpha": 2.5, "xmin": 1, "n": 1000},
        )
        p = tmp_path / "scenario.json"
        p.write_text(
            json.dumps(
                {"kind": spec.kind, "seed": spec.seed, "parameters": spec.parameters}
            )
        )
        loaded = load_scenario(p)
        assert loaded == spec
        assert np.array_equal(run_scenario(loaded), run_scenario(spec))

    def test_unknown_kind_is_an_error(self):
        with pytest.raises(ValueError, match="unknown scenario kind"):
            ScenarioSpec(kind="brownian", seed=0, parameters={})

    def test_non_integer_seed_is_an_error(self):
        with pytest.raises(ValueError):
            ScenarioSpec(kind="ar1", seed=True, parameters={"a": 0.5, "n": 100})

    def test_parameters_that_are_no_object_are_an_error(self):
        with pytest.raises(ValueError, match="parameters must be an object"):
            ScenarioSpec(kind="ar1", seed=0, parameters=[0.5, 100])

    def test_missing_parameter_is_an_error(self):
        spec = ScenarioSpec(kind="seasonal", seed=0, parameters={"amplitude": 1.0})
        with pytest.raises(ValueError, match="lacks parameters"):
            run_scenario(spec)

    def test_unknown_parameter_is_an_error(self):
        spec = ScenarioSpec(
            kind="ar1", seed=0, parameters={"a": 0.5, "n": 100, "mean": 3.0}
        )
        with pytest.raises(ValueError, match="unknown parameters"):
            run_scenario(spec)

    def test_dispatch_covers_every_kind(self):
        runs = [
            ScenarioSpec("powerlaw_counts", 1, {"alpha": 2.5, "xmin": 1, "n": 64}),
            ScenarioSpec("ar1", 2, {"a": 0.4, "n": 128}),
            ScenarioSpec(
                "seasonal",
                3,
                {"period_years": 1.0, "amplitude": 1.0, "noise_sd": 0.2, "n": 156},
            ),
            ScenarioSpec(
                "traveling_wave_city",
                4,
                {
                    "n_regions": 5,
                    "n_weeks": 120,
                    "window_weeks": 52,
                    "wave_speed_regions_per_year": 2.0,
                },
            ),
        ]
        outputs = [run_scenario(s) for s in runs]
        assert outputs[0].shape == (64,)
        assert outputs[1].values.shape == (128,)
        assert outputs[2].values.shape == (156,)
        assert outputs[3].counts.shape == (5, 120)

    def test_identical_specs_give_identical_output(self):
        spec = ScenarioSpec(
            "traveling_wave_city",
            9,
            {"n_regions": 6, "n_weeks": 104, "window_weeks": 30},
        )
        a = run_scenario(spec)
        b = run_scenario(spec)
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.week_starts, b.week_starts)

    def test_malformed_scenario_file_is_an_error(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_scenario(p)
        p2 = tmp_path / "short.json"
        p2.write_text(json.dumps({"kind": "ar1"}))
        with pytest.raises(ValueError, match="required keys"):
            load_scenario(p2)
        p3 = tmp_path / "list.json"
        p3.write_text(json.dumps(["ar1", 0, {}]))
        with pytest.raises(ValueError, match="must hold a JSON object"):
            load_scenario(p3)
