"""In-process tracing of the program's layers, from the benchmark's side.

`install(tracer)` replaces each traced public function with a wrapper at
every place the CLI or another layer looks it up (the module global that
the caller reads), so spans nest the way the calls do, for example
`cli` -> `rhythms.composed_power` -> `rhythms.cwt`.  The program's files
are not touched; `uninstall` puts the original functions back.

A span's self time is its duration minus the time covered by its child
spans.  Counts are taken at the same boundaries from arguments and
results.  Spans are kept in memory and written out by the caller.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

import numpy as np

# Per-layer metric names, in report order: self time (s) per traced span,
# then the counts and the ratio.  `cli.import_s` is measured apart, in a
# fresh interpreter.
SPAN_METRICS = (
    "cli.self_s",
    "ingest.parse_events_s",
    "ingest.parse_population_s",
    "tessellate.build_tessellation_s",
    "tessellate.locate_events_s",
    "tessellate.build_region_series_s",
    "concentration.lorenz_s",
    "concentration.fit_power_law_s",
    "concentration.lr_exponential_s",
    "concentration.lr_lognormal_s",
    "concentration.gof_bootstrap_s",
    "concentration.refit_s",
    "concentration.sample_power_law_s",
    "rhythms.detrend_s",
    "rhythms.cwt_s",
    "rhythms.band_power_s",
    "rhythms.global_spectrum_s",
    "rhythms.composed_power_s",
    "rhythms.significant_durations_s",
    "rankdyn.weekly_ranks_s",
    "rankdyn.position_entropy_s",
    "independence.hoeffding_d_s",
    "independence.hoeffding_test_s",
    "synth.run_scenario_s",
)
COUNT_METRICS = (
    "ingest.rows",
    "ingest.rows_rejected",
    "tessellate.regions",
    "tessellate.events_outside_area",
    "concentration.replicates",
    "concentration.refit_failures",
    "concentration.distinct_values",
    "rhythms.cwt_calls",
    "rhythms.regions_rejected",
    "independence.permutations",
)
RATIO_METRICS = ("rhythms.band_scale_share",)


def _span_name(metric):
    """`cli.self_s` is the `cli` span's self time; other metrics are named
    after their span plus `_s`."""
    return "cli" if metric == "cli.self_s" else metric[:-2]


class Tracer:
    """Collects spans and counts for one round of in-process steps."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []  # [span index, time covered by children]

    def run(self, name, func, *args, **kwargs):
        """Call func inside a span called `name`; returns its result."""
        index = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append(None)
        self._stack.append([index, 0.0])
        start = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            end = time.perf_counter()
            _, covered = self._stack.pop()
            self.spans[index] = (name, start, end, parent)
            self.self_time[name] += (end - start) - covered
            if self._stack:
                self._stack[-1][1] += end - start

    def metrics(self) -> dict:
        """Self seconds per span metric, counts, and the band-scale share."""
        out = {m: self.self_time.get(_span_name(m), 0.0) for m in SPAN_METRICS}
        out.update({name: self.counts.get(name, 0) for name in COUNT_METRICS})
        transformed = self.counts.get("rhythms.scales_transformed", 0)
        out["rhythms.band_scale_share"] = (
            self.counts.get("rhythms.band_scales", 0) / transformed if transformed else 0.0
        )
        return out


def _wrap(tracer, func, name, after=None, on_error=None):
    """Wrap func in a span.  `name` and `after` see the call's arguments
    bound to func's parameters, defaults included, so a hook reads the
    value the program actually uses."""
    signature = inspect.signature(func)
    bind = callable(name) or after is not None  # binding costs about 10 us

    @functools.wraps(func)
    def traced(*args, **kwargs):
        arguments = None
        if bind:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            arguments = bound.arguments
        span = name(arguments) if callable(name) else name
        try:
            result = tracer.run(span, func, *args, **kwargs)
        except ValueError:
            if on_error:
                on_error()
            raise
        if after:
            after(result, arguments)
        return result

    return traced


def _sites(tracer):
    """(module, attribute, span name, after-hook, error-hook) per wrapped
    lookup site.  Sites in `cli` are the calls the subcommands make;
    sites in the layer modules are the calls one layer makes to another
    or to itself (the bootstrap's refits, composed power's transforms)."""
    from crimepatterns import cli, concentration, rhythms, tessellate

    c = tracer.counts

    def parsed(result, arguments):
        c["ingest.rows"] += len(result) + len(result.rejections)
        c["ingest.rows_rejected"] += len(result.rejections)

    def tessellated(result, arguments):
        c["tessellate.regions"] += result.n_regions

    def series_built(result, arguments):
        c["tessellate.events_outside_area"] += result.meta["events_outside_area"]

    def fitted(result, arguments):
        x = np.asarray(arguments["counts"])
        c["concentration.distinct_values"] += int(np.unique(x[x > 0]).size)

    def bootstrapped(result, arguments):
        c["concentration.replicates"] += arguments["n_boot"]

    def refit_failed():
        c["concentration.refit_failures"] += 1

    def transformed(result, arguments):
        c["rhythms.cwt_calls"] += 1

    def band_averaged(result, arguments):
        field = arguments["field"]
        lo, hi = result.band
        c["rhythms.band_scales"] += int(((field.scales >= lo) & (field.scales <= hi)).sum())
        c["rhythms.scales_transformed"] += int(field.scales.size)

    def composed(result, arguments):
        c["rhythms.regions_rejected"] += len(result.rejected)

    def permuted(result, arguments):
        c["independence.permutations"] += arguments["n_perm"]

    def lr_name(arguments):
        return f"concentration.lr_{arguments['alternative']}"

    return [
        (cli, "parse_events", "ingest.parse_events", parsed, None),
        (cli, "parse_population", "ingest.parse_population", None, None),
        (cli, "build_tessellation", "tessellate.build_tessellation", tessellated, None),
        (cli, "build_region_series", "tessellate.build_region_series", series_built, None),
        (tessellate, "locate_events", "tessellate.locate_events", None, None),
        (cli, "lorenz", "concentration.lorenz", None, None),
        (cli, "fit_power_law", "concentration.fit_power_law", fitted, None),
        (cli, "likelihood_ratio", lr_name, None, None),
        (cli, "gof_bootstrap", "concentration.gof_bootstrap", bootstrapped, None),
        (concentration, "fit_power_law", "concentration.refit", None, refit_failed),
        (concentration, "sample_power_law", "concentration.sample_power_law", None, None),
        (cli, "detrend", "rhythms.detrend", None, None),
        (cli, "cwt", "rhythms.cwt", transformed, None),
        (cli, "band_power", "rhythms.band_power", band_averaged, None),
        (cli, "global_spectrum", "rhythms.global_spectrum", None, None),
        (cli, "composed_power", "rhythms.composed_power", composed, None),
        (cli, "significant_durations", "rhythms.significant_durations", None, None),
        (rhythms, "detrend", "rhythms.detrend", None, None),
        (rhythms, "cwt", "rhythms.cwt", transformed, None),
        (rhythms, "band_power", "rhythms.band_power", band_averaged, None),
        (cli, "weekly_ranks", "rankdyn.weekly_ranks", None, None),
        (cli, "position_entropy", "rankdyn.position_entropy", None, None),
        (cli, "hoeffding_d", "independence.hoeffding_d", None, None),
        (cli, "hoeffding_test", "independence.hoeffding_test", permuted, None),
        (cli, "run_scenario", "synth.run_scenario", None, None),
    ]


def install(tracer):
    """Wrap every traced site; returns the originals for `uninstall`."""
    originals = []
    for module, attr, name, after, on_error in _sites(tracer):
        func = getattr(module, attr)
        originals.append((module, attr, func))
        setattr(module, attr, _wrap(tracer, func, name, after, on_error))
    return originals


def uninstall(originals):
    for module, attr, func in reversed(originals):
        setattr(module, attr, func)


def traced_main(tracer, argv) -> int:
    """Run `crimepatterns.cli.main(argv)` inside a `cli` span."""
    from crimepatterns import cli

    return tracer.run("cli", cli.main, argv)
