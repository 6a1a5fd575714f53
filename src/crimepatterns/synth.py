"""Seeded synthetic datasets with known ground truth.

Every generator takes an explicit integer seed and draws from its own
PCG64 stream, so scenarios are reproducible across runs and machines
and independent of call order.  These are the oracles the statistical
machinery is tested against: power-law counts with a known exponent,
red noise with a known lag-1 coefficient, a sinusoid in noise with a
known period, and a city of regions traversed by a traveling seasonal
wave.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

import numpy as np

from .concentration import sample_power_law
from .ingest import read_json
from .series import (
    RegionSeriesSet,
    TimeSeries,
    WEEK_STEP_YEARS,
    WEEKS_PER_YEAR,
    week_starts_from,
)

RNG_ALGORITHM = "numpy-pcg64"
DEFAULT_WEEK_ORIGIN = np.datetime64("2010-01-04")  # a Monday
AR1_BURN_IN = 1000  # warm-up steps discarded before an ar1 series starts


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def gen_powerlaw_counts(alpha: float, xmin: int, n: int, seed: int) -> np.ndarray:
    """n i.i.d. draws from p(x) proportional to x**-alpha, x >= xmin."""
    if n < 1:
        raise ValueError("n must be positive")
    return sample_power_law(alpha, xmin, n, _rng(seed))


def gen_ar1(a: float, n: int, seed: int) -> TimeSeries:
    """Red noise x[t] = a * x[t-1] + e[t] with unit-variance innovations.

    A warm-up stretch of AR1_BURN_IN steps is discarded so the returned
    series starts in the stationary regime.
    """
    if not 0 <= a < 1:
        raise ValueError("a must lie in [0, 1)")
    if n < 1:
        raise ValueError("n must be positive")
    x, previous = [], 0.0
    for e in _rng(seed).standard_normal(AR1_BURN_IN + n).tolist():
        previous = e + a * previous
        x.append(previous)
    return TimeSeries(np.array(x[AR1_BURN_IN:]), DEFAULT_WEEK_ORIGIN)


def gen_seasonal(
    period_years: float,
    amplitude: float,
    noise_sd: float,
    n: int,
    seed: int,
) -> TimeSeries:
    """A sinusoid of the given period plus white noise, sampled weekly.

    noise_sd = 0 returns the exact sinusoid.  The series must span at
    least two cycles of the requested period.
    """
    if not period_years > 0:
        raise ValueError("period must be positive")
    if not np.isfinite(amplitude):
        raise ValueError("amplitude must be finite")
    if not 0 <= noise_sd < np.inf:
        raise ValueError("noise_sd must be non-negative and finite")
    if n * WEEK_STEP_YEARS < 2 * period_years:
        raise ValueError("series must cover at least two full periods")
    t = np.arange(n) * WEEK_STEP_YEARS
    values = amplitude * np.sin(2.0 * np.pi * t / period_years)
    if noise_sd > 0:
        values = values + noise_sd * _rng(seed).standard_normal(n)
    return TimeSeries(values, DEFAULT_WEEK_ORIGIN)


def gen_traveling_wave_city(
    n_regions: int,
    n_weeks: int,
    window_weeks: int,
    wave_speed: float | None = None,
    amplitude: float = 1.0,
    noise_sd: float = 0.5,
    seed: int = 0,
) -> RegionSeriesSet:
    """A city whose annual rhythm sweeps across regions.

    Every region carries the same annual sinusoid, but region i only
    expresses it inside a window of `window_weeks` weeks that starts at
    week i * 52 / wave_speed (wrapping around the series); outside its
    window a region is pure noise.  `wave_speed` is in regions per
    year; the default completes exactly one sweep over the whole series
    (52 * n_regions / n_weeks).  wave_speed = 0 disables the sweep and
    every region is rhythmic throughout, which is also what a window
    spanning the full series produces.
    """
    if n_regions < 4:
        raise ValueError("need at least 4 regions")
    if n_weeks < 2:
        raise ValueError("need at least 2 weeks")
    if not 1 <= window_weeks <= n_weeks:
        raise ValueError("window_weeks must lie in [1, n_weeks]")
    if wave_speed is None:
        wave_speed = WEEKS_PER_YEAR * n_regions / n_weeks
    if not wave_speed >= 0:
        raise ValueError("wave_speed must be non-negative")
    if not np.isfinite(amplitude):
        raise ValueError("amplitude must be finite")
    if not 0 <= noise_sd < np.inf:
        raise ValueError("noise_sd must be non-negative and finite")

    t = np.arange(n_weeks)
    seasonal = amplitude * np.sin(2.0 * np.pi * t * WEEK_STEP_YEARS)
    if wave_speed == 0:
        active = np.ones((n_regions, n_weeks), dtype=bool)
    else:
        stride = WEEKS_PER_YEAR / wave_speed  # weeks between region onsets
        onsets = (np.arange(n_regions) * stride) % n_weeks
        offset = (t[None, :] - onsets[:, None]) % n_weeks
        active = offset < window_weeks
    values = seasonal[None, :] * active
    if noise_sd > 0:
        values = values + noise_sd * _rng(seed).standard_normal((n_regions, n_weeks))
    return RegionSeriesSet(week_starts_from(DEFAULT_WEEK_ORIGIN, n_weeks), values,
                           np.arange(n_regions))


@dataclass
class ScenarioSpec:
    """A generator invocation serialized as JSON: which generator, its
    parameters, and the seed."""

    kind: str
    seed: int
    parameters: dict

    def __post_init__(self):
        if self.kind not in _SCENARIOS:
            raise ValueError(
                f"unknown scenario kind '{self.kind}'; expected one of {tuple(_SCENARIOS)}"
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError("seed must be an integer")
        if not isinstance(self.parameters, dict):
            raise ValueError("parameters must be an object")


def load_scenario(path) -> ScenarioSpec:
    """Read and validate a scenario JSON file."""
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise ValueError("scenario file must hold a JSON object")
    missing = [k for k in ("kind", "seed", "parameters") if k not in raw]
    if missing:
        raise ValueError(f"scenario file lacks required keys: {missing}")
    return ScenarioSpec(kind=raw["kind"], seed=raw["seed"], parameters=raw["parameters"])


# Scenario kind -> (generator, required parameters, optional parameters).
_SCENARIOS = {
    "powerlaw_counts": (gen_powerlaw_counts, ("alpha", "xmin", "n"), ()),
    "ar1": (gen_ar1, ("a", "n"), ()),
    "seasonal": (gen_seasonal, ("period_years", "amplitude", "noise_sd", "n"), ()),
    "traveling_wave_city": (
        gen_traveling_wave_city,
        ("n_regions", "n_weeks", "window_weeks"),
        ("wave_speed_regions_per_year", "amplitude", "noise_sd"),
    ),
}
# Parameters that count something; every other one is a real number.
_INTEGER_PARAMETERS = frozenset({"xmin", "n", "n_regions", "n_weeks", "window_weeks"})


def run_scenario(spec: ScenarioSpec):
    """Dispatch a scenario to its generator.

    Returns whatever the generator returns: a count array for
    powerlaw_counts, a TimeSeries for ar1 and seasonal, and a
    RegionSeriesSet for traveling_wave_city.  Missing or unknown
    parameters are errors, so scenario files stay honest, and so is a
    counting parameter that is not a JSON integer or any other that is
    not a finite JSON number: the generator runs exactly what the file
    (and so the manifest) holds.
    """
    p = dict(spec.parameters)
    generator, required, optional = _SCENARIOS[spec.kind]
    missing = [k for k in required if k not in p]
    if missing:
        raise ValueError(f"scenario '{spec.kind}' lacks parameters {missing}")
    unknown = sorted(set(p) - set(required) - set(optional))
    if unknown:
        raise ValueError(f"scenario '{spec.kind}' has unknown parameters {unknown}")
    for name, value in p.items():
        integer = name in _INTEGER_PARAMETERS
        number = isinstance(value, int if integer else (int, float)) and not isinstance(value, bool)
        # abs() <= the largest float is False for NaN and the infinities, and
        # compares a huge int exactly where float() would overflow.
        if not (number and (integer or abs(value) <= sys.float_info.max)):
            raise ValueError(
                f"scenario '{spec.kind}' parameter {name} must be "
                f"{'an integer' if integer else 'a finite number'}, got {json.dumps(value)}")
        if not integer:
            p[name] = float(value)
    if "wave_speed_regions_per_year" in p:
        p["wave_speed"] = p.pop("wave_speed_regions_per_year")
    return generator(**p, seed=spec.seed)
