"""Spatial concentration and weekly rhythm statistics for point events.

The package quantifies two regularities of city-level event data:
how strongly events concentrate in a few regions (Lorenz curves,
power-law tails, rank dynamics) and how strongly, where and when a
circannual rhythm beats (wavelet band power against red noise).

Each public name below is imported from its module on first use.
"""

import importlib

__version__ = "0.1.0"

_PUBLIC = {  # module -> the public names it holds
    "concentration": ("LikelihoodRatioResult", "LorenzCurve", "PowerLawFit", "fit_power_law",
                      "gof_bootstrap", "likelihood_ratio", "lorenz", "sample_power_law"),
    "independence": ("PairedSample", "hoeffding_d", "hoeffding_test"),
    "ingest": ("EventTable", "RowRejection", "filter_events", "parse_events", "parse_population"),
    "rankdyn": ("EntropyProfile", "position_entropy", "weekly_ranks"),
    "rhythms": ("BandPower", "CIRCANNUAL_BAND", "ComposedPower", "FOURIER_FACTOR",
                "GlobalSpectrum", "WaveletField", "band_power", "composed_power", "cwt",
                "detrend", "fill_gaps", "global_spectrum", "reconstruct_band",
                "significant_durations"),
    "series": ("RegionSeriesSet", "TimeSeries", "WEEK_STEP_YEARS", "WEEKS_PER_YEAR",
               "monday_on_or_before", "week_starts_from"),
    "synth": ("DEFAULT_WEEK_ORIGIN", "ScenarioSpec", "gen_ar1", "gen_powerlaw_counts",
              "gen_seasonal", "gen_traveling_wave_city", "load_scenario", "run_scenario"),
    "tessellate": ("Tessellation", "assign_events", "build_region_series", "build_tessellation",
                   "locate_events"),
}
_OWNER = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name):
    """Import the module that holds a public name and keep the value
    here, so later lookups skip this function (PEP 562)."""
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
