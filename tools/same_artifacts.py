#!/usr/bin/env python3
"""Run the same CLI pipelines under two source trees and report every
artifact that differs between them.

    python3 tools/same_artifacts.py PARENT_SRC CHANGE_SRC [--seeds 0 1 2]

Each SRC is the `src` directory of a checkout (the directory holding the
`crimepatterns` package).  The pipelines:

* `readme`: the README's pipeline, a 40-region traveling-wave city through
  `simulate`, `ranks`, `rhythms` and `composed`, power-law counts through
  `simulate` and `concentrate --boot 1000`, then `report`;
* `series`: a seasonal and then an ar1 scenario, each through `simulate`
  and `rhythms --series`; the second run replaces the first one's files,
  whose checksums the manifest keeps;
* `events_city-<seed>`: the benchmark's events city (inputs written by
  `bench/gen_events.py`, at its default size) through `tessellate`,
  `composed`, `rhythms`, `ranks`, `report` and
  `concentrate --events --category theft --boot 100`;
* `events_offpath-<seed>`: the same events rewritten with CRLF line ends and
  every category quoted, so that each block is read by csv.reader (and a
  coordinate column holding a bad cell by the per-cell pass), through
  `tessellate` and `concentrate --events --category theft --boot 100`;
* `wave_city-<seed>`: the benchmark's 400-region traveling-wave city through
  `simulate`, `ranks`, `rhythms`, `composed`, `independence --perm 4999` and
  `report`;
* `powerlaw_counts-<seed>`: the benchmark's 50,000 power-law counts
  (alpha 2.5, xmin 1) through `simulate`, `concentrate --boot 500
  --workers 1` and `report`;
* `powerlaw_counts_workers2-<seed>`: the same counts through `simulate` and
  `concentrate --boot 500 --workers 2`, the bootstrap's parallel path.
  Its `fit.json` must also equal the `powerlaw_counts-<seed>` one under
  the same tree, so that `--workers` moves no result.
* `heavy_tail-<seed>`: 12,000 power-law counts with alpha 1.5 and xmin 1
  through `simulate` and `concentrate --boot 100`.  About 0.2 % of the
  draws of `simulate` and of the bootstrap's tails fall past the
  sampler's 100,000-point table and are solved on the zeta tail, a route
  the alpha 2.5 counts almost never take.

Apart from `heavy_tail`, the scenarios, pairs, sizes and events come from
`bench/run.py` and `bench/gen_events.py`, so these pipelines run the
benchmark's inputs.

Both trees read the same input files and run one step at a time.  The
`--help` text of the top level and of every subcommand is compared too,
with its exit status and anything on stderr, so a change to the command
line surface shows as well.  Every file a pipeline leaves is compared
byte for byte, except `manifest.json`, which is compared after dropping
each run's `created_utc` and each input's path.  For a CSV file that
differs, the largest relative difference of each column whose cells all
read as numbers is printed too, and for a JSON file, the manifest
included, every key that differs or that only one file holds: the
absolute difference of a numeric one and the parent and change values of
any other, so that a stated tolerance, or the keys a change means to
add, can be checked against it.  The exit status is 0 when every help text and file is
identical and every step exited 0 under both trees; otherwise it is 1,
and the inputs and outputs are kept in the temporary directory named on
the last line.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "bench"))
import gen_events  # noqa: E402
import run as bench  # noqa: E402

POWERLAW_PARAMETERS = {"alpha": bench.POWERLAW_ALPHA, "xmin": 1, "n": bench.POWERLAW_SIZE["n"]}
HEAVY_TAIL_PARAMETERS = {"alpha": 1.5, "xmin": 1, "n": 12_000}
SUBCOMMANDS = ("tessellate", "concentrate", "ranks", "rhythms", "composed", "independence",
               "simulate", "report")


def write_scenario(d, name, kind, seed, parameters):
    """The scenario file `name` under `d`, as the benchmark writes it; its path."""
    path = os.path.join(d, name)
    bench.write_scenario(path, kind, seed, parameters)
    return path


def write_off_the_fast_path(events, path):
    """The events file with CRLF line ends and every category quoted."""
    with open(events, encoding="utf-8") as fh:
        header, *rows = fh.read().splitlines()
    cut = [row.rindex(",") + 1 for row in rows]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\r\n")
        fh.writelines(f'{row[:i]}"{row[i:]}"\r\n' for row, i in zip(rows, cut))


def write_inputs(d, seeds):
    """Write every pipeline's inputs under `d`; return {pipeline: steps},
    each step a CLI argument list in which "{out}" stands for the output
    directory."""
    pipelines = {}
    wave = write_scenario(d, "wave.json", "traveling_wave_city", 2024,
                          {"n_regions": 40, **bench.WAVE})
    powerlaw = write_scenario(d, "pl.json", "powerlaw_counts", 7, POWERLAW_PARAMETERS)
    series = ["--region-series", "{out}/region_series.csv"]
    pipelines["readme"] = [
        ["simulate", "--scenario", wave],
        ["ranks", *series],
        ["rhythms", *series],
        ["composed", *series],
        ["simulate", "--scenario", powerlaw],
        ["concentrate", "--counts", "{out}/counts.csv", "--boot", "1000", "--seed", "0"],
        ["report"],
    ]
    seasonal = write_scenario(d, "seasonal.json", "seasonal", 11,
                              {"period_years": 1.0, "amplitude": 2.0, "noise_sd": 1.0, "n": 520})
    ar1 = write_scenario(d, "ar1.json", "ar1", 12, {"a": 0.6, "n": 520})
    pipelines["series"] = [
        step for scenario in (seasonal, ar1)
        for step in (["simulate", "--scenario", scenario],
                     ["rhythms", "--series", "{out}/series.csv"])]
    for seed in seeds:
        events = os.path.join(d, f"events-{seed}.csv")
        population = os.path.join(d, f"population-{seed}.csv")
        gen_events.write(seed, events, population)
        city = ["--events", events, "--population", population, "--target-pop", "5000"]
        pipelines[f"events_city-{seed}"] = [
            ["tessellate", *city],
            ["composed", *series],
            ["rhythms", *series],
            ["ranks", *series],
            ["report"],
            ["concentrate", *city, "--category", "theft", "--boot", "100"],
        ]
        offpath = os.path.join(d, f"events-offpath-{seed}.csv")
        write_off_the_fast_path(events, offpath)
        city = ["--events", offpath, *city[2:]]
        pipelines[f"events_offpath-{seed}"] = [
            ["tessellate", *city],
            ["concentrate", *city, "--category", "theft", "--boot", "100"],
        ]
        scenario = write_scenario(d, f"wave_city-{seed}.json", "traveling_wave_city", seed,
                                  {"n_regions": bench.WAVE_SIZE["n_regions"], **bench.WAVE})
        pairs = os.path.join(d, f"pairs-{seed}.csv")
        bench.write_pairs(pairs, seed)
        pipelines[f"wave_city-{seed}"] = [
            ["simulate", "--scenario", scenario],
            ["ranks", *series],
            ["rhythms", *series],
            ["composed", *series],
            ["independence", "--pairs", pairs, "--perm", str(bench.WAVE_SIZE["perm"]),
             "--seed", str(seed)],
            ["report"],
        ]
        scenario = write_scenario(d, f"powerlaw_counts-{seed}.json", "powerlaw_counts", seed,
                                  POWERLAW_PARAMETERS)
        concentrate = ["concentrate", "--counts", "{out}/counts.csv", "--boot",
                       str(bench.POWERLAW_SIZE["boot"]), "--seed", str(seed)]
        pipelines[f"powerlaw_counts-{seed}"] = [
            ["simulate", "--scenario", scenario],
            [*concentrate, "--workers", "1"],
            ["report"],
        ]
        pipelines[f"powerlaw_counts_workers2-{seed}"] = [
            ["simulate", "--scenario", scenario],
            [*concentrate, "--workers", "2"],
        ]
        scenario = write_scenario(d, f"heavy_tail-{seed}.json", "powerlaw_counts", seed,
                                  HEAVY_TAIL_PARAMETERS)
        pipelines[f"heavy_tail-{seed}"] = [
            ["simulate", "--scenario", scenario],
            ["concentrate", "--counts", "{out}/counts.csv", "--boot", "100", "--seed", str(seed)],
        ]
    return pipelines


def run_pipeline(src, steps, out):
    """Run the steps into `out` with the package loaded from `src`; return
    the failures, one line each."""
    os.makedirs(out)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    failures = []
    for step in steps:
        argv = [a.replace("{out}", out) for a in step] + ["--out", out]
        proc = subprocess.run([sys.executable, "-m", "crimepatterns.cli", *argv], env=env,
                              capture_output=True, text=True)
        if proc.returncode:
            failures.append(f"{step[0]} exited {proc.returncode}: {proc.stderr.strip()}")
    return failures


def help_texts(src):
    """{command: (exit status, stdout, stderr) of its `--help`} for the top
    level and every subcommand, with the package loaded from `src`; the
    width is fixed so that argparse wraps the same way in every terminal."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), COLUMNS="80")
    texts = {}
    for command in ("crimepatterns", *SUBCOMMANDS):
        argv = [] if command == "crimepatterns" else [command]
        proc = subprocess.run([sys.executable, "-m", "crimepatterns.cli", *argv, "--help"],
                              env=env, capture_output=True, text=True)
        texts[command] = (proc.returncode, proc.stdout, proc.stderr)
    return texts


def comparable(path):
    """A file's bytes, or for a manifest its records without the creation
    time and the input paths."""
    with open(path, "rb") as fh:
        data = fh.read()
    if os.path.basename(path) != "manifest.json":
        return data
    manifest = json.loads(data)
    for run in manifest["runs"]:
        run.pop("created_utc", None)
        for described in run.get("inputs", {}).values():
            described.pop("path", None)
    return manifest


def numeric_differences(p, q):
    """{column: largest |change - parent| / |parent|} over the columns of
    two CSV files (parent p, change q) whose cells all read as numbers; {}
    when their headers or row counts differ."""
    tables = []
    for path in (p, q):
        with open(path, newline="", encoding="utf-8") as fh:
            tables.append(list(csv.reader(fh)) or [[]])
    (header, *parent), (other, *change) = tables
    if header != other or len(parent) != len(change):
        return {}
    largest = {}
    for j, name in enumerate(header):
        try:
            a, b = (np.array([row[j] for row in rows], dtype=float) for rows in (parent, change))
        except (ValueError, IndexError):
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            relative = np.where(a == b, 0.0, np.abs(b - a) / np.abs(a))
        largest[name] = float(relative.max(initial=0.0))
    return largest


def leaves(value, key=""):
    """{dotted key: value} over the numbers, strings, booleans and nulls
    nested in a JSON value."""
    if isinstance(value, dict):
        return {k: v for name, item in value.items()
                for k, v in leaves(item, f"{key}.{name}" if key else name).items()}
    if isinstance(value, list):
        return {k: v for i, item in enumerate(value)
                for k, v in leaves(item, f"{key}[{i}]").items()}
    return {key: value}


def json_differences(p, q):
    """{key: |change - parent|} over the numeric keys whose values differ
    between two JSON files (parent p, change q; manifests as `comparable`
    gives them), and {key: "parent -> change"} over every other key whose
    value differs or that only one file holds."""
    parent, change = (leaves(json.loads(v) if isinstance(v, bytes) else v)
                      for v in map(comparable, (p, q)))
    found = {}
    for key in sorted(set(parent) | set(change)):
        a, b = parent.get(key), change.get(key)
        if a == b:
            continue
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
        found[key] = float(abs(b - a)) if numbers else f"{json.dumps(a)} -> {json.dumps(b)}"
    return found


def differences(a, b):
    """Names of the files that differ between directories a and b, or that
    only one of them holds."""
    names = sorted(set(os.listdir(a)) | set(os.listdir(b)))
    paths = [(os.path.join(a, name), os.path.join(b, name)) for name in names]
    return [name for name, (p, q) in zip(names, paths)
            if not (os.path.isfile(p) and os.path.isfile(q)) or comparable(p) != comparable(q)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0],
                        help="seeds of the events_city, wave_city, powerlaw_counts and heavy_tail "
                        "pipelines")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent_src, "change": args.change_src}
    for label, src in trees.items():
        if not os.path.isfile(os.path.join(src, "crimepatterns", "cli.py")):
            parser.error(f"{label} tree {src!r} holds no crimepatterns package")

    work = tempfile.mkdtemp(prefix="same_artifacts-")
    inputs = os.path.join(work, "inputs")
    os.makedirs(inputs)
    pipelines = write_inputs(inputs, args.seeds)
    helps = {label: help_texts(src) for label, src in trees.items()}
    differ = [command for command in helps["parent"]
              if helps["parent"][command] != helps["change"][command]]
    for command in differ:
        print(f"help: {command} --help differs")
    print(f"help: {len(helps['parent'])} commands, {len(differ)} differ", flush=True)
    bad, compared = len(differ), 0
    for name, steps in pipelines.items():
        outs = {label: os.path.join(work, label, name) for label in trees}
        for label, src in trees.items():
            for failure in run_pipeline(src, steps, outs[label]):
                print(f"{name}: {label}: {failure}")
                bad += 1
        differ = differences(outs["parent"], outs["change"])
        compared += len(os.listdir(outs["parent"]))
        for file_name in differ:
            paths = [os.path.join(outs[label], file_name) for label in trees]
            numeric, kind = {}, ""
            if all(map(os.path.isfile, paths)):
                if file_name.endswith(".csv"):
                    numeric, kind = numeric_differences(*paths), "largest relative"
                elif file_name.endswith(".json"):
                    numeric, kind = json_differences(*paths), "absolute"
            largest = ", ".join(f"{column} {value:.3g}" if isinstance(value, float)
                                else f"{column} {value}" for column, value in numeric.items())
            print(f"{name}: {file_name} differs"
                  + (f"; {kind} difference: {largest}" if largest else ""))
        bad += len(differ)
        print(f"{name}: {len(os.listdir(outs['parent']))} files, {len(differ)} differ",
              flush=True)
    for name in pipelines:
        if not name.startswith("powerlaw_counts_workers2-"):
            continue
        serial = name.replace("_workers2", "")
        for label in trees:
            paths = [os.path.join(work, label, run, "fit.json") for run in (serial, name)]
            if not all(map(os.path.isfile, paths)) or comparable(paths[0]) != comparable(paths[1]):
                print(f"{name}: {label}: fit.json differs from {serial}'s")
                bad += 1
    if not bad:
        shutil.rmtree(work)
        print(f"{len(helps['parent'])} help texts and {compared} files compared over "
              f"{len(pipelines)} pipelines; all identical")
        return 0
    print(f"{bad} differences or failures; inputs and outputs kept in {work}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
