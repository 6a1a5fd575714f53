"""Command-line front end.

Each subcommand drives one analysis module and writes its artifacts
into `--out` together with a `manifest.json` recording inputs (with
checksums), every parameter in effect, library versions, and artifact
checksums.  All randomness flows through explicit `--seed` style
parameters, so identical invocations produce identical artifacts; the
only non-reproducible manifest field is the creation timestamp.

Exit codes: 0 success, 1 module or I/O failure (structured message on
stderr), 2 usage errors, 3 any other exception (an internal fault,
reported as one `error: <module>: internal: <type>: <message>` line).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import fcntl
import hashlib
import json
import os
import platform
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .concentration import MIN_BOOTSTRAP, fit_power_law, gof_bootstrap, likelihood_ratio, lorenz
from .independence import MIN_PERMUTATIONS, PairedSample, hoeffding_d, hoeffding_test
from .ingest import COLUMN_KINDS, filter_events, parse_events, parse_population, read_csv, read_json
from .rankdyn import position_entropy, weekly_ranks
from .rhythms import (
    CIRCANNUAL_BAND,
    DEFAULT_ALPHA_LEVEL,
    band_power,
    composed_power,
    cwt,
    detrend,
    fill_gaps,
    global_spectrum,
    significant_durations,
)
from .series import WEEK, RegionSeriesSet, TimeSeries
from .synth import RNG_ALGORITHM, load_scenario, run_scenario
from .tessellate import assign_events, build_region_series, build_tessellation

REPORT_SOURCES = ("fit.json", "entropy_summary.json", "composed.csv", "durations.csv")


class UsageError(Exception):
    """Bad flag combinations that argparse alone cannot express."""


# ---------------------------------------------------------------------------
# hashing and the manifest


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _emit(out_dir, subcommand, inputs, parameters, payloads, diagnostics=None) -> None:
    """Write every artifact plus the manifest, replacing them as a group.

    `payloads` maps file name to full text; nothing is written until
    all computation has finished.  Each file goes to a temporary file in
    `out_dir` and each existing target is kept as a hard link beside it;
    only then do the temporary files replace their targets.  On any
    failure the temporary files are removed and the kept versions put
    back, so the group is all-or-nothing; a target that cannot be linked,
    such as a directory, fails the run before anything is replaced.  The
    manifest is an append-only log, one record per subcommand run, so a
    multi-step pipeline keeps the provenance of every artifact.  Inputs
    that live inside the output directory are recorded relative to it,
    which keeps the bundle self-contained and location-independent.
    `diagnostics`, when given, records what happened inside the run.
    """
    os.makedirs(out_dir, exist_ok=True)
    out_abs = os.path.abspath(out_dir)

    def describe(path):
        p = str(path)
        inside = os.path.dirname(os.path.abspath(p)) == out_abs
        return {
            "path": os.path.basename(p) if inside else p,
            "sha256": _sha256_file(p),
        }

    record = {
        "subcommand": subcommand,
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "package": {"name": "crimepatterns", "version": __version__},
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "inputs": {name: describe(path) for name, path in inputs.items()},
        "parameters": parameters,
        "artifacts": {name: _sha256_text(text) for name, text in payloads.items()},
    }
    if diagnostics is not None:
        record["diagnostics"] = diagnostics
    # The directory stays locked from the manifest read until the group is
    # replaced, so concurrent runs into it each keep their record.
    lock = os.open(out_dir, os.O_RDONLY)
    try:
        fcntl.flock(lock, fcntl.LOCK_EX)
        manifest_path = os.path.join(out_dir, "manifest.json")
        manifest = read_json(manifest_path) if os.path.exists(manifest_path) else {"runs": []}
        if not isinstance(manifest, dict) or not isinstance(manifest.get("runs"), list):
            raise ValueError(f"{manifest_path} is not a manifest written by this tool")
        manifest["runs"].append(record)
        files = {**payloads, "manifest.json": _json_text(manifest)}  # manifest last
        target = {name: os.path.join(out_dir, name) for name in files}
        temp = {name: os.path.join(out_dir, f".{name}.{os.getpid()}.tmp") for name in files}
        old = {}  # name -> hard link to its target's previous version
        placed = []  # names whose target already holds the new version
        try:
            for name, text in files.items():
                with open(temp[name], "w", encoding="utf-8", newline="") as fh:
                    fh.write(text)
                if os.path.lexists(target[name]):
                    old[name] = os.path.join(out_dir, f".{name}.{os.getpid()}.old")
                    os.link(target[name], old[name], follow_symlinks=False)
            for name in files:
                os.replace(temp[name], target[name])
                placed.append(name)
        except OSError:
            for name in reversed(placed):
                with contextlib.suppress(OSError):
                    if name in old:
                        # Popped first: a version that cannot be put back stays on disk.
                        os.replace(old.pop(name), target[name])
                    else:
                        os.unlink(target[name])
            raise
        finally:
            for leftover in [*temp.values(), *old.values()]:
                with contextlib.suppress(OSError):
                    os.unlink(leftover)
    finally:
        os.close(lock)


# ---------------------------------------------------------------------------
# the artifact table: one writer and one reader for every CSV artifact

# CSV artifact -> its columns as (name, kind), in file order.
# `region_series.csv` is not listed: its region columns come from the data.
ARTIFACTS = {
    "counts.csv": (("count", "int"),),
    "series.csv": (("week_start", "date"), ("value", "float")),
    "tessellation.csv": (
        ("region_id", "int"),
        ("lon_min", "float"),
        ("lat_min", "float"),
        ("lon_max", "float"),
        ("lat_max", "float"),
        ("population", "float"),
    ),
    "rejects.csv": (("row", "int"), ("reason", "str")),
    "lorenz.csv": (("region_share", "float"), ("event_share", "float")),
    "entropy.csv": (("position", "int"), ("entropy", "float")),
    "spectrum.csv": (("scale_years", "float"), ("power", "float"), ("significance", "float")),
    "band.csv": (
        ("week_start", "date"),
        ("power", "float"),
        ("threshold", "float"),
        ("significant", "bool"),
        ("coi_valid", "bool"),
    ),
    "composed.csv": (("week_start", "date"), ("c_b", "int"), ("regions_valid", "int")),
    "durations.csv": (("region_id", "int"), ("run_start", "date"), ("run_length_weeks", "int")),
}

# Artifacts that are complete with a header and no data rows.
_HEADER_ONLY_OK = frozenset({"durations.csv", "rejects.csv"})

def _format(values) -> list[str]:
    """Cell texts of one column, chosen by its dtype: shortest round-trip
    repr for floats, true/false for booleans, the ISO date for datetimes,
    str() for integers and text."""
    a = np.asarray(values)
    if a.dtype.kind == "f":
        return [repr(v) for v in a.tolist()]
    if a.dtype.kind == "b":
        return ["true" if v else "false" for v in a.tolist()]
    if a.dtype.kind == "M":
        return np.datetime_as_string(a, unit="D").tolist()
    return [str(v) for v in a.tolist()]


def _csv_text(header, columns) -> str:
    """The CSV text of a header and its columns, one line per row with the
    cells joined by commas: no header, and no cell `_format` writes, needs
    quoting."""
    rows = zip(*(_format(c) for c in columns), strict=True)
    return "\n".join([",".join(header), *map(",".join, rows), ""])


def _artifact_text(name: str, *columns) -> str:
    """Text of a CSV artifact from its columns, in table order."""
    spec = ARTIFACTS[name]
    typed = [
        np.asarray(values, dtype=COLUMN_KINDS[kind])
        for values, (_, kind) in zip(columns, spec, strict=True)
    ]
    return _csv_text([column for column, _ in spec], typed)


def _read_artifact(path, name: str) -> list[np.ndarray]:
    """Typed columns of a CSV artifact, in table order."""
    names, kinds = zip(*ARTIFACTS[name])

    def columns(header):
        if header != list(names):
            raise ValueError(f"{path}: expected columns {','.join(names)}")
        return range(len(names))

    return read_csv(path, columns, kinds, name in _HEADER_ONLY_OK)[1]


def _week_grid(path, weeks: np.ndarray) -> np.ndarray:
    if weeks.size > 1 and not (np.diff(weeks) == WEEK).all():
        raise ValueError(f"{path}: week_start must advance by exactly 7 days")
    return weeks


def _region_series_csv(series_set: RegionSeriesSet) -> str:
    header = ["week_start"]
    header += [f"region_{rid}" for rid in series_set.region_ids]
    header += ["city"]
    return _csv_text(
        header, [series_set.week_starts, *series_set.counts, series_set.city_totals()]
    )


def _read_region_series(path) -> tuple[RegionSeriesSet, np.ndarray]:
    """Wide weekly table -> (region set, city column)."""

    def columns(header):
        if (
            len(header) < 3
            or header[0] != "week_start"
            or header[-1] != "city"
            or not all(c.startswith("region_") for c in header[1:-1])
        ):
            raise ValueError(f"{path}: expected week_start,region_<id>...,city columns")
        return range(len(header))

    header, (weeks, *values) = read_csv(path, columns, ["date", "float"])
    try:
        region_ids = np.array([int(c[len("region_"):]) for c in header[1:-1]], dtype=np.int64)
    except (ValueError, OverflowError):  # not an integer, or one outside int64
        raise ValueError(f"{path}: malformed region column name") from None
    return RegionSeriesSet(_week_grid(path, weeks), np.array(values[:-1]), region_ids), values[-1]


def _read_pairs(path) -> PairedSample:
    """The x and y columns of a CSV that may carry other columns too."""

    def columns(header):
        index = {name: i for i, name in enumerate(header)}  # of equal names the last
        if "x" not in index or "y" not in index:
            raise ValueError(f"{path}: expected a header with x and y columns")
        return index["x"], index["y"]

    return PairedSample(*read_csv(path, columns, ["float"])[1])


def _band_arg(text: str) -> tuple:
    try:
        lo, hi = (float(part) for part in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"band must look like 0.8:1.1, got {text!r}"
        ) from None
    return (lo, hi)


def _rule(name: str, convert, accept, requirement: str):
    """An argparse type named `name`: `convert` the text (argparse reports
    its ValueError as an invalid `name` value), then reject a value that
    fails `accept` as not `requirement`."""

    def parse(text: str):
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value

    parse.__name__ = name
    return parse


_alpha = _rule("float", float, lambda v: 0 < v < 1, "inside (0, 1)")
_target_pop = _rule("float", float, lambda v: 0 < v < float("inf"), "finite and above 0")


def _at_least(low: int):
    """An argparse type: a whole number of at least `low`."""
    return _rule("integer", int, lambda v: v >= low, f"at least {low}")


# ---------------------------------------------------------------------------
# pipelines shared by subcommands


def _tessellate_events(args):
    """Parse and filter the events, tessellate the population grid.

    Returns the event table, the tessellation, and the record's inputs,
    parameters (with the `stats` block) and payloads (`rejects.csv`, a
    header alone when no row was rejected) so far."""
    table = parse_events(args.events)
    if args.category is not None:
        table = filter_events(table, category=args.category)
    tess = build_tessellation(parse_population(args.population), args.target_pop)
    inputs = {"events": args.events, "population": args.population}
    stats = {
        "n_events": len(table),
        "n_rejected": len(table.rejections),
        "n_regions": tess.n_regions,
        "regions_over_target": int((tess.populations > args.target_pop).sum()),
    }
    parameters = {"target_pop": args.target_pop, "category": args.category, "stats": stats}
    rejected = table.rejections
    payloads = {"rejects.csv": _artifact_text(
        "rejects.csv", [r.row for r in rejected], [r.reason for r in rejected])}
    return table, tess, inputs, parameters, payloads


# ---------------------------------------------------------------------------
# subcommands: each returns its manifest record, (inputs, parameters,
# payloads) and for `concentrate` its diagnostics, which `main` writes into
# --out with `_emit`


def cmd_simulate(args):
    """Record of a scenario run; the result's type picks the artifact."""
    spec = load_scenario(args.scenario)
    result = run_scenario(spec)
    if isinstance(result, RegionSeriesSet):
        payloads = {"region_series.csv": _region_series_csv(result)}
    elif isinstance(result, TimeSeries):
        payloads = {"series.csv": _artifact_text("series.csv", result.week_starts(), result.values)}
    else:
        payloads = {"counts.csv": _artifact_text("counts.csv", result)}
    parameters = {"kind": spec.kind, "seed": spec.seed, "rng": RNG_ALGORITHM,
                  "scenario": dict(spec.parameters)}
    return {"scenario": args.scenario}, parameters, payloads


def cmd_tessellate(args):
    """Record of the regions, their weekly series and the rejected rows."""
    table, tess, inputs, parameters, payloads = _tessellate_events(args)
    series_set = build_region_series(table, tess)
    payloads["tessellation.csv"] = _artifact_text(
        "tessellation.csv", np.arange(tess.n_regions), *tess.bounds.T, tess.populations
    )
    payloads["region_series.csv"] = _region_series_csv(series_set)
    parameters["stats"].update(series_set.meta)
    return inputs, parameters, payloads


def cmd_concentrate(args):
    """Record of the Lorenz curve and power-law fit of region totals."""
    if (args.counts is None) == (args.events is None):
        raise UsageError("concentrate needs exactly one of --counts or --events")
    if args.counts is not None:
        (counts,) = _read_artifact(args.counts, "counts.csv")
        inputs = {"counts": args.counts}
        parameters = {}
        payloads = {}
    else:
        if args.population is None or args.target_pop is None:
            raise UsageError("--events also needs --population and --target-pop")
        table, tess, inputs, parameters, payloads = _tessellate_events(args)
        counts, outside = assign_events(table, tess)
        parameters["stats"]["events_outside_area"] = outside
    curve = lorenz(counts)
    fit = fit_power_law(counts)
    results = {
        alternative: likelihood_ratio(counts, fit, alternative, significance=args.alpha_level)
        for alternative in ("exponential", "lognormal")
    }
    comparisons = {
        f"lr_{alternative}": {
            "stat": float(res.statistic),
            "p": float(res.p_value),
            "favored": alternative if res.favored == "alternative" else res.favored,
        }
        for alternative, res in results.items()
    }
    gof_p = gof_bootstrap(counts, fit, n_boot=args.boot, seed=args.seed, workers=args.workers)
    report = {
        "alpha": float(fit.alpha),
        "xmin": int(fit.xmin),
        "ks": float(fit.ks_statistic),
        "n_tail": int(fit.n_tail),
        "gini": float(curve.gini),
        "gof_p": float(gof_p),
        "gof_p_se": float(np.sqrt(gof_p * (1.0 - gof_p) / args.boot)),
        **comparisons,
    }
    payloads["fit.json"] = _json_text(report)
    payloads["lorenz.csv"] = _artifact_text("lorenz.csv", *curve.points.T)
    parameters.update(alpha_level=args.alpha_level, boot=args.boot, seed=args.seed,
                      workers=args.workers, rng=RNG_ALGORITHM)
    return inputs, parameters, payloads, {"lognormal_mle": results["lognormal"].mle_outcome}


def cmd_ranks(args):
    """Record of the rank-position entropy profile."""
    series_set, _ = _read_region_series(args.region_series)
    profile = position_entropy(weekly_ranks(series_set))
    payloads = {
        "entropy.csv": _artifact_text(
            "entropy.csv", np.arange(1, len(profile.h) + 1), profile.h
        ),
        "entropy_summary.json": _json_text(
            {"mean_h": float(profile.mean_h), "h_top10": [float(h) for h in profile.h[:10]]}
        ),
    }
    return {"region_series": args.region_series}, {}, payloads


def cmd_rhythms(args):
    """Record of one weekly series' global spectrum and band power."""
    if (args.series is None) == (args.region_series is None):
        raise UsageError("rhythms needs exactly one of --series or --region-series")
    if args.series is not None:
        weeks, values = _read_artifact(args.series, "series.csv")
        ts = TimeSeries(fill_gaps(values), _week_grid(args.series, weeks)[0])
        inputs = {"series": args.series}
    else:
        series_set, city = _read_region_series(args.region_series)
        ts = TimeSeries(fill_gaps(city), series_set.week_starts[0])
        inputs = {"region_series": args.region_series}
    anomaly = detrend(ts)
    field = cwt(anomaly, required_band=args.band)
    spectrum = global_spectrum(field, args.alpha_level)
    bp = band_power(field, args.band, args.alpha_level)
    payloads = {
        "spectrum.csv": _artifact_text(
            "spectrum.csv", spectrum.scales, spectrum.power, spectrum.significance
        ),
        "band.csv": _artifact_text(
            "band.csv",
            ts.week_starts(),
            bp.power,
            np.full(len(bp.power), bp.threshold),
            bp.significant,
            bp.coi_valid,
        ),
    }
    parameters = {"band": list(args.band), "alpha_level": args.alpha_level}
    return inputs, parameters, payloads


def cmd_composed(args):
    """Record of the composed band power and the significant runs."""
    series_set, _ = _read_region_series(args.region_series)
    composed = composed_power(series_set, band=args.band, alpha_level=args.alpha_level)
    region_ids, starts, lengths = significant_durations(composed)
    payloads = {
        "composed.csv": _artifact_text(
            "composed.csv", composed.week_starts, composed.c_b, composed.regions_valid
        ),
        "durations.csv": _artifact_text(
            "durations.csv", region_ids, composed.week_starts[starts], lengths
        ),
    }
    parameters = {
        "band": list(args.band),
        "alpha_level": args.alpha_level,
        "rejected_regions": [[rid, reason] for rid, reason in composed.rejected],
    }
    return {"region_series": args.region_series}, parameters, payloads


def cmd_independence(args):
    """Record of the Hoeffding D permutation test on x,y pairs."""
    sample = _read_pairs(args.pairs)
    d_stat = hoeffding_d(sample)
    p_value = hoeffding_test(sample, n_perm=args.perm, seed=args.seed)
    payloads = {
        "independence.json": _json_text(
            {
                "D": float(d_stat),
                "p_value": float(p_value),
                "n": len(sample),
                "n_perm": args.perm,
                "decision": "dependent" if p_value <= args.alpha_level else "independent",
            }
        )
    }
    parameters = {"alpha_level": args.alpha_level, "perm": args.perm, "seed": args.seed,
                  "rng": RNG_ALGORITHM}
    return {"pairs": args.pairs}, parameters, payloads


def cmd_report(args):
    """Record of the summary of the upstream artifacts in --out."""
    present = {
        name: os.path.join(args.out, name)
        for name in REPORT_SOURCES
        if os.path.exists(os.path.join(args.out, name))
    }
    missing = [name for name in REPORT_SOURCES if name not in present]
    if not present:
        raise ValueError(
            "no upstream artifacts in the output directory; missing "
            + ", ".join(missing)
        )
    summary = dict.fromkeys(("gini", "alpha", "mean_h", "c_b_cv", "median_dt"))
    summary["missing"] = missing
    for name, keys in (("fit.json", ("gini", "alpha")), ("entropy_summary.json", ("mean_h",))):
        if name in present:
            source = read_json(present[name])
            for key in keys:
                value = source.get(key) if isinstance(source, dict) else None
                # type(), not isinstance(): true and false are not numbers here.
                if type(value) not in (int, float) or not abs(value) < np.inf:
                    raise ValueError(f"{present[name]}: malformed {key}")
                summary[key] = value
    if "composed.csv" in present:
        _, c_b, valid = _read_artifact(present["composed.csv"], "composed.csv")
        interior = c_b[valid == valid.max()]
        if interior.size and interior.mean() > 0:
            summary["c_b_cv"] = float(interior.std() / interior.mean())
    if "durations.csv" in present:
        lengths = _read_artifact(present["durations.csv"], "durations.csv")[2]
        if lengths.size:
            summary["median_dt"] = float(np.median(lengths))
    payloads = {"report.json": _json_text(summary)}
    return present, {"sources": sorted(present)}, payloads


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crimepatterns",
        description="Concentration and rhythm statistics for point-event data.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, func, module, help_text):
        """`module` names the analysis module in `error: <module>: ...`."""
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func, module=module)
        p.add_argument("--out", required=True, help="output directory for artifacts")
        return p

    p = add("tessellate", cmd_tessellate, "tessellate",
            "build equal-population regions and weekly series")
    p.add_argument("--events", required=True)
    p.add_argument("--population", required=True)
    p.add_argument("--target-pop", type=_target_pop, required=True, dest="target_pop")
    p.add_argument("--category", default=None)

    p = add("concentrate", cmd_concentrate, "concentration",
            "Lorenz/Gini and power-law tail fit")
    p.add_argument("--counts", default=None, help="region totals, one 'count' column")
    p.add_argument("--events", default=None)
    p.add_argument("--population", default=None)
    p.add_argument("--target-pop", type=_target_pop, default=None, dest="target_pop")
    p.add_argument("--category", default=None)
    p.add_argument("--alpha-level", type=_alpha, default=DEFAULT_ALPHA_LEVEL, dest="alpha_level")
    p.add_argument("--boot", type=_at_least(MIN_BOOTSTRAP), default=1000)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--workers", type=_at_least(1), default=1)

    p = add("ranks", cmd_ranks, "rankdyn", "weekly rank-position entropy per region")
    p.add_argument("--region-series", required=True, dest="region_series")

    p = add("rhythms", cmd_rhythms, "rhythms", "wavelet spectrum and band power of one series")
    p.add_argument("--series", default=None, help="week_start,value series")
    p.add_argument("--region-series", default=None, dest="region_series",
                   help="wide weekly table; the city column is analyzed")
    p.add_argument("--band", type=_band_arg, default=CIRCANNUAL_BAND)
    p.add_argument("--alpha-level", type=_alpha, default=DEFAULT_ALPHA_LEVEL, dest="alpha_level")

    p = add("composed", cmd_composed, "rhythms",
            "per-week count of regions with a significant band")
    p.add_argument("--region-series", required=True, dest="region_series")
    p.add_argument("--band", type=_band_arg, default=CIRCANNUAL_BAND)
    p.add_argument("--alpha-level", type=_alpha, default=DEFAULT_ALPHA_LEVEL, dest="alpha_level")

    p = add("independence", cmd_independence, "independence",
            "Hoeffding D permutation test on x,y pairs")
    p.add_argument("--pairs", required=True, help="CSV with x and y columns")
    p.add_argument("--perm", type=_at_least(MIN_PERMUTATIONS), default=999)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--alpha-level", type=_alpha, default=DEFAULT_ALPHA_LEVEL, dest="alpha_level")

    p = add("simulate", cmd_simulate, "synth", "run a seeded synthetic scenario file")
    p.add_argument("--scenario", required=True, help="scenario JSON")

    add("report", cmd_report, "report", "aggregate artifacts in --out into report.json")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _emit(args.out, args.subcommand, *args.func(args))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError, OverflowError, csv.Error) as exc:
        print(f"error: {args.module}: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {args.module}: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
