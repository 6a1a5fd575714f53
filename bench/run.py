#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the crimepatterns CLI.

Run from the root of a source checkout:

    python3 bench/run.py --workload events_city --seed 0 --seconds 32 --trace 0

With `--trace 0` every CLI step runs as a fresh `python -m crimepatterns.cli`
process, as a user runs it, and the end-to-end metrics are reported.  With
`--trace 1` the same steps run in-process through `crimepatterns.cli.main`
with every layer's public functions wrapped in spans (see tracing.py), and the
per-layer metrics are reported.  Either way each round's artifacts go
through the output checks of checks.py.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}; a fuller
record goes to .bench_out/results/.

The program is loaded from ./src, so the checkout needs no install step.
One process does all the work, one step at a time, and `concentrate` runs
with `--workers 1`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
import gen_events
import tracing

ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUPS_PER_RUN = 3
IMPORTS_PER_RUN = 3

# Workload sizes.  The benchmark always runs these; only --seed changes the
# inputs.  The tests of the checks build the same workloads smaller.
EVENTS_SIZE = {"grid": gen_events.GRID, "n_rows": gen_events.N_ROWS, "target_pop": 5000}
POWERLAW_SIZE = {"n": 50_000, "boot": 500}
WAVE_SIZE = {"n_regions": 400, "perm": 4999}
POWERLAW_ALPHA = 2.5
WAVE = {"n_weeks": 520, "window_weeks": 156, "amplitude": 5.0, "noise_sd": 1.0}
PAIRS_N = 100
PAIRS_NOISE = 0.05


def cli_argv(*args):
    return [sys.executable, "-m", "crimepatterns.cli", *map(str, args)]


def program_env():
    return dict(os.environ, PYTHONPATH=SRC)


def run_process(argv, log_path):
    """Run one program process to completion through launch.py: (exit code,
    wall s, peak RSS MB, CPU s).  The launcher and the program share a
    process group, which is killed if this process is interrupted."""
    launcher = [sys.executable, os.path.join(BENCH, "launch.py"), log_path, *argv]
    proc = subprocess.Popen(launcher, stdout=subprocess.PIPE, text=True,
                            env=program_env(), cwd=ROOT, start_new_session=True)
    try:
        out, _ = proc.communicate()
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    r = json.loads(out)
    return r["exit"], r["wall_s"], r["rss_mb"], r["cpu_s"]


def write_scenario(path, kind, seed, parameters):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"kind": kind, "seed": seed, "parameters": parameters}, fh)


def write_pairs(path, seed):
    """Strongly dependent pairs, y = x + small noise; returns (x, y)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    x = rng.normal(size=PAIRS_N)
    y = x + PAIRS_NOISE * rng.normal(size=PAIRS_N)
    x, y = x.tolist(), y.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(x, y)))
    return x, y


# ---------------------------------------------------------------------------
# workloads: how to make the inputs, which steps run, which checks apply


class EventsCity:
    name = "events_city"
    checks = checks.EVENTS_CITY
    copy_setup = False  # steps read the inputs in place and write elsewhere

    def __init__(self, grid, n_rows, target_pop):
        self.grid, self.n_rows, self.target_pop = grid, n_rows, target_pop

    def prepare(self, seed, d):
        """Untimed part of the set-up: nothing, the writer is the set-up."""
        return {"target_pop": self.target_pop}

    def setup(self, seed, d, ctx, runner):
        start = time.perf_counter()
        ctx["truth"] = gen_events.write(seed, os.path.join(d, "events.csv"),
                                        os.path.join(d, "population.csv"),
                                        self.grid, self.n_rows)
        return 0, time.perf_counter() - start

    def steps(self, seed, d, out):
        ev = ["--events", os.path.join(d, "events.csv"),
              "--population", os.path.join(d, "population.csv"),
              "--target-pop", self.target_pop]
        rs = ["--region-series", os.path.join(out, "region_series.csv")]
        return [
            ("tessellate", ["tessellate", *ev]),
            ("composed", ["composed", *rs]),
            ("rhythms", ["rhythms", *rs]),
            ("ranks", ["ranks", *rs]),
            ("report", ["report"]),
        ]

    def fixed_counts(self, ctx, out):
        """Traced counts the workload fixes, from the generator's tallies
        and the checked tessellation."""
        truth = ctx["truth"]
        return {
            "ingest.rows": truth.n_rows,
            "ingest.rows_rejected": sum(truth.rejected.values()),
            "tessellate.events_outside_area": truth.n_outside,
            "tessellate.regions": checks.read_regions(out).shape[0],
        }


class Simulated:
    """A workload whose inputs come from the program's `simulate` step; the
    steps add their artifacts next to the simulated ones."""

    copy_setup = True

    def setup(self, seed, d, ctx, runner):
        return runner("simulate", ["simulate", "--scenario", os.path.join(d, "scenario.json")], d)


class PowerlawCounts(Simulated):
    name = "powerlaw_counts"
    checks = checks.POWERLAW_COUNTS

    def __init__(self, n, boot):
        self.n, self.boot = n, boot

    def prepare(self, seed, d):
        write_scenario(os.path.join(d, "scenario.json"), "powerlaw_counts", seed,
                       {"alpha": POWERLAW_ALPHA, "xmin": 1, "n": self.n})
        return {"boot": self.boot, "alpha_true": POWERLAW_ALPHA}

    def steps(self, seed, d, out):
        return [
            ("concentrate", ["concentrate", "--counts", os.path.join(out, "counts.csv"),
                             "--boot", self.boot, "--seed", seed, "--workers", 1]),
            ("report", ["report"]),
        ]

    def fixed_counts(self, ctx, out):
        counts = checks.read_counts(out)
        return {
            "concentration.replicates": self.boot,
            "concentration.distinct_values": int(np.unique(counts[counts > 0]).size),
        }


class WaveCity(Simulated):
    name = "wave_city"
    checks = checks.WAVE_CITY

    def __init__(self, n_regions, perm):
        self.n_regions, self.perm = n_regions, perm

    def prepare(self, seed, d):
        write_scenario(os.path.join(d, "scenario.json"), "traveling_wave_city", seed,
                       {"n_regions": self.n_regions, **WAVE})
        pairs = write_pairs(os.path.join(d, "pairs.csv"), seed)
        return {"pairs": pairs, "perm": self.perm}

    def steps(self, seed, d, out):
        rs = ["--region-series", os.path.join(out, "region_series.csv")]
        return [
            ("ranks", ["ranks", *rs]),
            ("rhythms", ["rhythms", *rs]),
            ("composed", ["composed", *rs]),
            ("independence", ["independence", "--pairs", os.path.join(out, "pairs.csv"),
                              "--perm", self.perm, "--seed", seed]),
            ("report", ["report"]),
        ]

    def fixed_counts(self, ctx, out):
        return {"independence.permutations": self.perm}


WORKLOADS = {w.name: w for w in (EventsCity(**EVENTS_SIZE), PowerlawCounts(**POWERLAW_SIZE),
                                  WaveCity(**WAVE_SIZE))}


# ---------------------------------------------------------------------------
# running steps: as processes (end to end) or in-process under the tracer


class ProcessRunner:
    """Each step is a fresh interpreter; records wall time and peak RSS."""

    def __init__(self):
        self.records = []

    def __call__(self, name, argv, out):
        code, wall, rss, cpu = run_process(cli_argv(*argv, "--out", out),
                                           os.path.join(out, f"{name}.stderr"))
        self.records.append({"step": name, "exit": code, "wall_s": wall, "rss_mb": rss,
                             "cpu_s": cpu})
        return code, wall


class TracedRunner:
    """Each step calls crimepatterns.cli.main in this process, traced."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.records = []

    def __call__(self, name, argv, out):
        start = time.perf_counter()
        code = tracing.traced_main(self.tracer, [str(a) for a in argv] + ["--out", out])
        wall = time.perf_counter() - start
        self.records.append({"step": name, "exit": code, "wall_s": wall})
        return code, wall


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def import_seconds():
    """`import crimepatterns.cli` timed inside a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import crimepatterns.cli; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], env=program_env(), cwd=ROOT,
                         capture_output=True, text=True, check=True)
    return float(out.stdout.strip())


def machine_facts():
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def count_mismatches(got, want):
    """None when every traced count equals the workload's value, else a
    reason naming the counts that differ."""
    bad = {k: {"traced": got[k], "workload": v} for k, v in want.items() if got[k] != v}
    return f"counts differ from the workload's: {bad}" if bad else None


def median(values):
    return float(statistics.median(values))


def run_round(wl, seed, setup_dir, out, ctx, runner, account, label):
    """Run the workload's steps once into `out`, then its output checks.

    Returns the check results.  Every step and check is one operation for
    `account`.
    """
    if wl.copy_setup:
        shutil.copytree(setup_dir, out, dirs_exist_ok=True)
    for name, step in wl.steps(seed, setup_dir, out):
        code, _ = runner(name, step, out)
        account(f"{label} {name}", None if code == 0 else f"exit {code}")
    return checks.run_checks(wl.checks, out, ctx)


def end_to_end_metrics(setup_times, rounds):
    values = {
        "setup_s": (median(setup_times), "s"),
        "pipeline_s": (median([sum(s["wall_s"] for s in rd["steps"]) for rd in rounds]), "s"),
        "peak_rss_mb": (median([max(s["rss_mb"] for s in rd["steps"]) for rd in rounds]), "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def layer_metrics(import_times, tracer_metrics):
    metrics = {"cli.import_s": {"value": median(import_times), "unit": "s"}}
    units = [(tracing.SPAN_METRICS, "s"), (tracing.COUNT_METRICS, "count"),
             (tracing.RATIO_METRICS, "ratio")]
    for names, unit in units:
        for name in names:
            metrics[name] = {"value": median([m[name] for m in tracer_metrics]), "unit": unit}
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "crimepatterns", "cli.py")):
        print(f"error: no program sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    base = fresh_dir(os.path.join(OUT, wl.name))
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    attempted = failed = 0
    failures = []

    def account(what, error):
        nonlocal attempted, failed
        attempted += 1
        if error is not None:
            failed += 1
            failures.append(f"{what}: {error}")
            print(f"FAILED {what}: {error}", file=sys.stderr)

    # Warm the page cache and the bytecode cache; nothing is timed here.
    code = run_process(cli_argv("--version"), os.path.join(base, "warmup.stderr"))[0]
    if code != 0:
        print("error: the program does not start; see .bench_out/", file=sys.stderr)
        return 2

    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_facts(), "rounds": []}
    setup_times = []
    tracer_metrics = []
    import_times = []
    if args.trace:
        sys.path.insert(0, SRC)
        import_times = [import_seconds() for _ in range(IMPORTS_PER_RUN)]
    else:
        # Set up several times; the rounds read the last set-up's inputs.
        for k in range(SETUPS_PER_RUN):
            setup_dir = fresh_dir(os.path.join(base, f"setup{k}"))
            ctx = wl.prepare(args.seed, setup_dir)
            code, seconds = wl.setup(args.seed, setup_dir, ctx, ProcessRunner())
            account(f"setup {k}", None if code == 0 else f"exit {code}")
            setup_times.append(seconds)

    started = time.perf_counter()
    last_round = 0.0
    r = 0
    # Whole rounds only: another round starts while it should still end
    # within --seconds, and there is always at least one.
    while r == 0 or time.perf_counter() - started + last_round <= args.seconds:
        round_start = time.perf_counter()
        out = fresh_dir(os.path.join(base, f"round{r}"))
        if args.trace:
            # The traced run sets up in every round, so that the program's
            # `simulate` step is traced too.
            setup_dir = fresh_dir(os.path.join(base, f"setup{r}"))
            ctx = wl.prepare(args.seed, setup_dir)
            tracer = tracing.Tracer()
            runner = TracedRunner(tracer)
            originals = tracing.install(tracer)
            try:
                code, _ = wl.setup(args.seed, setup_dir, ctx, runner)
                account(f"round {r} setup", None if code == 0 else f"exit {code}")
                results = run_round(wl, args.seed, setup_dir, out, ctx, runner, account,
                                    f"round {r}")
            finally:
                tracing.uninstall(originals)
            tracer_metrics.append(tracer.metrics())
            account(f"round {r} counts",
                    count_mismatches(tracer_metrics[-1], wl.fixed_counts(ctx, out)))
            with open(os.path.join(base, f"spans{r}.json"), "w", encoding="utf-8") as fh:
                json.dump(tracer.spans, fh)
        else:
            runner = ProcessRunner()
            results = run_round(wl, args.seed, setup_dir, out, ctx, runner, account, f"round {r}")
        last_round = time.perf_counter() - round_start
        for name, error in results:
            account(f"round {r} check {name}", error)
        record["rounds"].append({"steps": runner.records, "checks": dict(results),
                                 "round_s": last_round})
        if args.trace:
            record["rounds"][-1]["spans"] = len(tracer.spans)
        r += 1

    if args.trace:
        metrics = layer_metrics(import_times, tracer_metrics)
        record.update({"import_s": import_times, "layers": tracer_metrics})
    else:
        metrics = end_to_end_metrics(setup_times, record["rounds"])
        record["setup_s"] = setup_times
    record.update({"metrics": metrics, "attempted": attempted, "failed": failed,
                   "failures": failures})
    name = f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, "results", name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for rd in record["rounds"]:
        print("  ".join(f"{s['step']} {s['wall_s']:.2f}s" for s in rd["steps"]), file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
