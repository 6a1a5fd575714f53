"""Spatial concentration and weekly rhythm statistics for point events.

The package quantifies two regularities of city-level event data:
how strongly events concentrate in a few regions (Lorenz curves,
power-law tails, rank dynamics) and how strongly, where and when a
circannual rhythm beats (wavelet band power against red noise).
"""

from .concentration import (
    LikelihoodRatioResult,
    LorenzCurve,
    PowerLawFit,
    fit_power_law,
    gof_bootstrap,
    likelihood_ratio,
    lorenz,
)
from .concentration import sample_power_law
from .independence import PairedSample, hoeffding_d, hoeffding_test
from .ingest import (
    EventTable,
    RowRejection,
    filter_events,
    parse_events,
    parse_population,
)
from .rankdyn import (
    EntropyProfile,
    position_entropy,
    weekly_ranks,
)
from .rhythms import (
    BandPower,
    CIRCANNUAL_BAND,
    ComposedPower,
    FOURIER_FACTOR,
    GlobalSpectrum,
    WaveletField,
    band_power,
    composed_power,
    cwt,
    detrend,
    fill_gaps,
    global_spectrum,
    reconstruct_band,
    significant_durations,
)
from .series import (
    RegionSeriesSet,
    TimeSeries,
    WEEK_STEP_YEARS,
    WEEKS_PER_YEAR,
    monday_on_or_before,
    week_starts_from,
)
from .synth import (
    DEFAULT_WEEK_ORIGIN,
    ScenarioSpec,
    gen_ar1,
    gen_powerlaw_counts,
    gen_seasonal,
    gen_traveling_wave_city,
    load_scenario,
    run_scenario,
)
from .tessellate import (
    Tessellation,
    assign_events,
    build_region_series,
    build_tessellation,
    locate_events,
)

__version__ = "0.1.0"

__all__ = [
    "BandPower",
    "CIRCANNUAL_BAND",
    "ComposedPower",
    "DEFAULT_WEEK_ORIGIN",
    "EntropyProfile",
    "EventTable",
    "FOURIER_FACTOR",
    "GlobalSpectrum",
    "LikelihoodRatioResult",
    "LorenzCurve",
    "PairedSample",
    "PowerLawFit",
    "RegionSeriesSet",
    "RowRejection",
    "ScenarioSpec",
    "Tessellation",
    "TimeSeries",
    "WEEKS_PER_YEAR",
    "WEEK_STEP_YEARS",
    "WaveletField",
    "assign_events",
    "band_power",
    "build_region_series",
    "build_tessellation",
    "composed_power",
    "cwt",
    "detrend",
    "fill_gaps",
    "filter_events",
    "fit_power_law",
    "gen_ar1",
    "gen_powerlaw_counts",
    "gen_seasonal",
    "gen_traveling_wave_city",
    "global_spectrum",
    "gof_bootstrap",
    "hoeffding_d",
    "hoeffding_test",
    "likelihood_ratio",
    "load_scenario",
    "locate_events",
    "lorenz",
    "monday_on_or_before",
    "parse_events",
    "parse_population",
    "position_entropy",
    "reconstruct_band",
    "run_scenario",
    "sample_power_law",
    "significant_durations",
    "week_starts_from",
    "weekly_ranks",
]
