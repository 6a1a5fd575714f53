"""End-to-end runs of the command-line interface."""

import contextlib
import csv
import io
import json
import os
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crimepatterns import PairedSample, cli, hoeffding_d, rhythms
from crimepatterns.cli import (
    ARTIFACTS,
    _artifact_text,
    _read_artifact,
    _read_region_series,
    _region_series_csv,
    build_parser,
    main,
)
from crimepatterns.ingest import COLUMN_KINDS, REJECTION_REASONS
from crimepatterns.series import RegionSeriesSet

README = Path(__file__).resolve().parents[1] / "README.md"


def run(*argv):
    return main([str(a) for a in argv])


def write_scenario(path, kind, seed, **params):
    path.write_text(json.dumps({"kind": kind, "seed": seed, "parameters": params}))
    return path


def write_pairs(path, x, y):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["label", "x", "y"])
        for i, (a, b) in enumerate(zip(x, y)):
            writer.writerow([f"city{i}", repr(float(a)), repr(float(b))])
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


@pytest.fixture(scope="module")
def wave_pipeline(tmp_path_factory):
    """Full artifact directory for one traveling-wave city."""
    base = tmp_path_factory.mktemp("wave")
    out = base / "artifacts"
    wave = write_scenario(
        base / "wave.json", "traveling_wave_city", 2024,
        n_regions=40, n_weeks=520, window_weeks=156, amplitude=5.0, noise_sd=1.0,
    )
    counts = write_scenario(
        base / "pl.json", "powerlaw_counts", 1025, alpha=2.5, xmin=1, n=50_000
    )
    rng = np.random.default_rng(42)
    x = rng.normal(0.0, 1.0, 25)
    y = x + 0.05 * np.random.default_rng(43).normal(0.0, 1.0, 25)
    pairs = write_pairs(base / "pairs.csv", x, y)
    for argv in (
        ("simulate", "--scenario", wave, "--out", out),
        ("simulate", "--scenario", counts, "--out", out),
        ("concentrate", "--counts", out / "counts.csv", "--boot", 100, "--seed", 7,
         "--out", out),
        ("ranks", "--region-series", out / "region_series.csv", "--out", out),
        ("rhythms", "--region-series", out / "region_series.csv", "--out", out),
        ("composed", "--region-series", out / "region_series.csv", "--out", out),
        ("independence", "--pairs", pairs, "--perm", 999, "--seed", 5, "--out", out),
        ("report", "--out", out),
    ):
        assert run(*argv) == 0
    return out


class TestConcentrate:
    def test_power_law_scenario_recovers_the_exponent(self, wave_pipeline):
        fit = json.loads((wave_pipeline / "fit.json").read_text())
        assert 2.45 <= fit["alpha"] <= 2.55
        assert fit["xmin"] >= 1
        assert fit["n_tail"] > 0
        assert 0.0 <= fit["gof_p"] <= 1.0
        assert fit["lr_exponential"]["favored"] == "power_law"
        assert set(fit) == {
            "alpha", "xmin", "ks", "n_tail", "gini", "gof_p", "gof_p_se",
            "lr_exponential", "lr_lognormal",
        }
        assert fit["gof_p_se"] == np.sqrt(fit["gof_p"] * (1.0 - fit["gof_p"]) / 100)

    def test_lorenz_points_are_exported(self, wave_pipeline):
        header, rows = read_csv(wave_pipeline / "lorenz.csv")
        assert header == ["region_share", "event_share"]
        assert rows[0] == ["0.0", "0.0"]
        assert float(rows[-1][0]) == 1.0 and float(rows[-1][1]) == 1.0

    def test_counts_and_events_inputs_are_mutually_exclusive(self, tmp_path, capsys):
        assert run("concentrate", "--counts", "a.csv", "--events", "b.csv",
                   "--out", tmp_path) == 2
        assert "exactly one of" in capsys.readouterr().err

    def test_events_without_target_pop_is_a_usage_error(self, tmp_path, capsys):
        # The events file does not exist: the usage check must come first.
        assert run("concentrate", "--events", tmp_path / "nope.csv",
                   "--population", tmp_path / "pop.csv", "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "--target-pop" in err
        assert not (tmp_path / "o").exists()


    def test_lognormal_at_its_power_law_limit_still_writes_the_fit(self, tmp_path):
        # The lognormal MLE on this tail runs off to its power-law limit.
        scenario = write_scenario(
            tmp_path / "pl.json", "powerlaw_counts", 8, alpha=2.5, xmin=1, n=200
        )
        out = tmp_path / "out"
        assert run("simulate", "--scenario", scenario, "--out", out) == 0
        assert run("concentrate", "--counts", out / "counts.csv", "--boot", 100,
                   "--out", out) == 0
        fit = json.loads((out / "fit.json").read_text())
        assert fit["lr_lognormal"] == {"stat": 0.0, "p": 1.0, "favored": "inconclusive"}

    def test_bootstrap_draws_past_the_int64_range_still_write_the_fit(self, tmp_path):
        # At alpha 1.2 a draw passes 2**63 with probability 1.4e-4, so most
        # bootstrap replicates of 2,000 draws hold such a draw; the counts
        # themselves stay in the int64 range.
        scenario = write_scenario(
            tmp_path / "pl.json", "powerlaw_counts", 0, alpha=1.2, xmin=1, n=2000
        )
        out = tmp_path / "out"
        assert run("simulate", "--scenario", scenario, "--out", out) == 0
        assert run("concentrate", "--counts", out / "counts.csv", "--boot", 100,
                   "--out", out) == 0
        fit = json.loads((out / "fit.json").read_text())
        assert 1.1 < fit["alpha"] < 1.3 and 0.0 <= fit["gof_p"] <= 1.0


class TestRhythms:
    def test_seasonal_scenario_is_significant_nearly_everywhere(self, tmp_path):
        scenario = write_scenario(
            tmp_path / "s.json", "seasonal", 15,
            period_years=1.0, amplitude=2.0, noise_sd=1.0, n=520,
        )
        out = tmp_path / "out"
        assert run("simulate", "--scenario", scenario, "--out", out) == 0
        assert run("rhythms", "--series", out / "series.csv", "--out", out) == 0
        header, rows = read_csv(out / "band.csv")
        assert header == ["week_start", "power", "threshold", "significant", "coi_valid"]
        assert len(rows) == 520
        valid = [r for r in rows if r[4] == "true"]
        hits = [r for r in valid if r[3] == "true"]
        assert len(hits) / len(valid) >= 0.90
        header, rows = read_csv(out / "spectrum.csv")
        assert header == ["scale_years", "power", "significance"]

    @pytest.mark.parametrize("inputs", [(), ("--series", "s.csv", "--region-series", "r.csv")],
                             ids=["neither", "both"])
    def test_needs_exactly_one_input(self, tmp_path, capsys, inputs):
        assert run("rhythms", *inputs, "--out", tmp_path / "o") == 2
        assert "exactly one of" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_band_without_a_colon_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("rhythms", "--series", "s.csv", "--band", "0.8-1.1", "--out", "o")
        assert exc.value.code == 2
        assert "band must look like 0.8:1.1, got '0.8-1.1'" in capsys.readouterr().err

    def test_series_off_the_weekly_grid_is_an_error(self, tmp_path, capsys):
        series = tmp_path / "series.csv"
        series.write_text("week_start,value\n2015-01-05,1.0\n2015-01-13,2.0\n")
        assert run("rhythms", "--series", series, "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err == (
            f"error: rhythms: {series}: week_start must advance by exactly 7 days\n"
        )
        assert not (tmp_path / "o").exists()

    def test_band_power_in_file_matches_the_run_mask(self, wave_pipeline):
        _, rows = read_csv(wave_pipeline / "band.csv")
        assert all(r[3] == "false" for r in rows if r[4] == "false")

    def test_tiny_alpha_level_writes_finite_thresholds(self, wave_pipeline, tmp_path,
                                                       monkeypatch):
        """1 - 1e-20 rounds to 1, so a lower-tail solve would give inf."""
        from scipy.special import gammainccinv

        argv = ["rhythms", "--region-series", wave_pipeline / "region_series.csv",
                "--alpha-level", "1e-20", "--out"]
        assert run(*argv, tmp_path / "got") == 0
        monkeypatch.setattr(rhythms, "_chi2_quantile",
                            lambda dof, alpha: 2.0 * gammainccinv(dof / 2.0, alpha))
        assert run(*argv, tmp_path / "scipy") == 0
        for name, column in (("spectrum.csv", 2), ("band.csv", 2)):
            got = _read_artifact(tmp_path / "got" / name, name)[column]
            expected = _read_artifact(tmp_path / "scipy" / name, name)[column]
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)


class TestComposedAndRanks:
    def test_composed_counts_stay_within_region_count(self, wave_pipeline):
        header, rows = read_csv(wave_pipeline / "composed.csv")
        assert header == ["week_start", "c_b", "regions_valid"]
        assert len(rows) == 520
        assert all(0 <= int(r[1]) <= int(r[2]) <= 40 for r in rows if int(r[2]) > 0)

    def test_durations_reference_real_weeks(self, wave_pipeline):
        _, composed_rows = read_csv(wave_pipeline / "composed.csv")
        weeks = {r[0] for r in composed_rows}
        header, rows = read_csv(wave_pipeline / "durations.csv")
        assert header == ["region_id", "run_start", "run_length_weeks"]
        assert rows, "the traveling wave must produce significant runs"
        assert all(r[1] in weeks for r in rows)
        assert all(1 <= int(r[2]) <= 520 for r in rows)

    def test_entropy_artifacts(self, wave_pipeline):
        header, rows = read_csv(wave_pipeline / "entropy.csv")
        assert header == ["position", "entropy"]
        assert [int(r[0]) for r in rows] == list(range(1, 41))
        summary = json.loads((wave_pipeline / "entropy_summary.json").read_text())
        assert len(summary["h_top10"]) == 10
        assert 0.0 <= summary["mean_h"] <= 1.0


class TestIndependence:
    def test_near_copy_pairs_are_declared_dependent(self, wave_pipeline):
        result = json.loads((wave_pipeline / "independence.json").read_text())
        assert result["decision"] == "dependent"
        assert result["p_value"] <= 0.005
        assert result["n"] == 25 and result["n_perm"] == 999
        assert result["D"] > 0.5

    def test_of_equal_column_names_the_last_is_read(self, tmp_path):
        # As in events and population files, and as csv.DictReader has it.
        rng = np.random.default_rng(8)
        first, y = rng.normal(size=(2, 30))
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("x,y,x\n" + "".join(
            f"{a!r},{b!r},{b**3!r}\n" for a, b in zip(first.tolist(), y.tolist())))
        assert run("independence", "--pairs", pairs, "--out", tmp_path / "out") == 0
        result = json.loads((tmp_path / "out" / "independence.json").read_text())
        assert result["D"] == pytest.approx(hoeffding_d(PairedSample(y**3, y)), rel=1e-12)


class TestReport:
    def test_report_aggregates_all_five_summaries(self, wave_pipeline):
        report = json.loads((wave_pipeline / "report.json").read_text())
        assert report["missing"] == []
        fit = json.loads((wave_pipeline / "fit.json").read_text())
        assert report["alpha"] == fit["alpha"]
        assert report["gini"] == fit["gini"]
        assert 0.9 <= report["mean_h"] <= 1.0
        assert 0.0 < report["c_b_cv"] <= 0.25
        assert 0 < report["median_dt"] <= 260

    def test_rerun_report_is_byte_identical(self, wave_pipeline, tmp_path):
        # a copy, so the shared directory's manifest keeps the fixture's records
        out = shutil.copytree(wave_pipeline, tmp_path / "artifacts")
        before = (out / "report.json").read_bytes()
        assert run("report", "--out", out) == 0
        assert (out / "report.json").read_bytes() == before

    def test_empty_directory_is_an_error_listing_missing_files(self, tmp_path, capsys):
        assert run("report", "--out", tmp_path) == 1
        err = capsys.readouterr().err
        for name in ("fit.json", "entropy_summary.json", "composed.csv", "durations.csv"):
            assert name in err

    @pytest.mark.parametrize("name, body, cause", [
        ("fit.json", "[]", "malformed gini"),
        ("fit.json", "{}", "malformed gini"),
        ("fit.json", '{"gini": "x", "alpha": 1}', "malformed gini"),
        ("fit.json", '{"gini": 0.5, "alpha": true}', "malformed alpha"),
        ("fit.json", '{"gini": 0.5, "alpha": NaN}', "malformed alpha"),
        ("fit.json", "gini=0.5", "not valid JSON"),
        pytest.param("fit.json", "[" * 100_000 + "]" * 100_000, "not valid JSON",
                     id="fit.json-nested-too-deep"),
        ("entropy_summary.json", '{"mean_h": "abc"}', "malformed mean_h"),
        ("entropy_summary.json", '{"mean_h": 1e999}', "malformed mean_h"),
        ("composed.csv", "week_start,c_b,regions_valid\n2015-01-05,1,2\n,1,2\n",
         "malformed week_start column"),
    ])
    def test_malformed_source_is_an_error_naming_it(self, tmp_path, capsys, name, body, cause):
        (tmp_path / name).write_text(body)
        assert run("report", "--out", tmp_path) == 1
        assert capsys.readouterr().err == f"error: report: {tmp_path / name}: {cause}\n"
        assert not (tmp_path / "report.json").exists()

    def test_manifest_logs_every_step_with_checksums(self, wave_pipeline):
        manifest = json.loads((wave_pipeline / "manifest.json").read_text())
        steps = [r["subcommand"] for r in manifest["runs"]]
        assert steps == ["simulate", "simulate", "concentrate", "ranks", "rhythms",
                         "composed", "independence", "report"]
        concentrate = manifest["runs"][2]
        assert concentrate["parameters"]["boot"] == 100
        assert concentrate["parameters"]["seed"] == 7
        assert concentrate["inputs"]["counts"]["path"] == "counts.csv"
        assert len(concentrate["inputs"]["counts"]["sha256"]) == 64
        assert "fit.json" in concentrate["artifacts"]
        # what happened inside the run: only concentrate records it
        assert concentrate["diagnostics"] == {"lognormal_mle": "interior"}
        assert [r["subcommand"] for r in manifest["runs"] if "diagnostics" in r] == ["concentrate"]
        assert all(set(r["versions"]) == {"python", "numpy"} for r in manifest["runs"])


class TestTessellateCommand:
    def make_inputs(self, tmp_path):
        pop = tmp_path / "pop.csv"
        with open(pop, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["lon", "lat", "population"])
            for i in range(8):
                for j in range(8):
                    writer.writerow([repr(i / 8), repr(j / 8), "1"])
        events = tmp_path / "events.csv"
        rng = np.random.default_rng(77)
        day0 = np.datetime64("2015-01-05T00:00:00")
        with open(events, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["timestamp", "lon", "lat", "category"])
            for _ in range(4000):
                i, j = (int(v) for v in rng.integers(0, 8, 2))
                t = day0 + np.timedelta64(int(rng.integers(0, 30 * 7 * 24)), "h")
                category = "theft" if rng.random() < 0.7 else "assault"
                writer.writerow([str(t), repr(i / 8), repr(j / 8), category])
        return events, pop

    def test_tessellate_writes_balanced_regions_and_series(self, tmp_path):
        events, pop = self.make_inputs(tmp_path)
        out = tmp_path / "out"
        assert run("tessellate", "--events", events, "--population", pop,
                   "--target-pop", 4, "--out", out) == 0
        header, rows = read_csv(out / "tessellation.csv")
        assert header == ["region_id", "lon_min", "lat_min", "lon_max", "lat_max",
                          "population"]
        assert [r[0] for r in rows] == [str(i) for i in range(16)]
        assert all(float(r[5]) == 4.0 for r in rows)
        header, rows = read_csv(out / "region_series.csv")
        assert header[0] == "week_start" and header[-1] == "city"
        assert len(header) == 18
        for row in rows:
            assert sum(int(v) for v in row[1:-1]) == int(row[-1])

    def test_rejected_rows_are_listed(self, tmp_path):
        events, pop = self.make_inputs(tmp_path)
        lines = events.read_text().splitlines()
        lines[7] = "not-a-time" + lines[7][lines[7].index(","):]
        events.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert run("tessellate", "--events", events, "--population", pop,
                   "--target-pop", 4, "--out", out) == 0
        assert (out / "rejects.csv").read_text().splitlines() == [
            "row,reason", "7,bad timestamp",
        ]

    def test_a_clean_run_replaces_the_rejects_of_an_earlier_one(self, tmp_path):
        events, pop = self.make_inputs(tmp_path)
        clean = events.read_text()
        lines = clean.splitlines()
        lines[7] = "not-a-time" + lines[7][lines[7].index(","):]
        events.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        argv = ("tessellate", "--events", events, "--population", pop,
                "--target-pop", 4, "--out", out)
        assert run(*argv) == 0
        events.write_text(clean)
        assert run(*argv) == 0
        assert (out / "rejects.csv").read_text() == "row,reason\n"
        record = json.loads((out / "manifest.json").read_text())["runs"][-1]
        assert "rejects.csv" in record["artifacts"]

    def test_concentrate_via_events_route(self, tmp_path):
        events, pop = self.make_inputs(tmp_path)
        out = tmp_path / "out"
        assert run("concentrate", "--events", events, "--population", pop,
                   "--target-pop", 1, "--category", "theft", "--boot", 100,
                   "--out", out) == 0
        fit = json.loads((out / "fit.json").read_text())
        # Uniformly scattered events concentrate nowhere: a steep
        # exponent and a Gini far below the clustered regime.
        assert fit["alpha"] > 4.0
        assert fit["gini"] < 0.3


class TestFailureHandling:
    @pytest.mark.parametrize(
        "flags, cause",
        [
            (("--band", "5:6"), "scale grid [0.038, 4.286] does not cover the band (5.0, 6.0)"),
            (("--band", "1.1:0.8"), "band must satisfy 0 < low < high"),
        ],
    )
    def test_bad_composed_band_or_alpha_names_the_cause(self, tmp_path, capsys, flags, cause):
        scenario = write_scenario(
            tmp_path / "w.json", "traveling_wave_city", 3,
            n_regions=4, n_weeks=156, window_weeks=52,
        )
        assert run("simulate", "--scenario", scenario, "--out", tmp_path) == 0
        assert run("composed", "--region-series", tmp_path / "region_series.csv",
                   *flags, "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert f"error: rhythms: {cause}" in err
        assert "fewer than two" not in err

    def test_power_law_draw_past_int64_is_a_structured_error(self, tmp_path, capsys):
        scenario = write_scenario(
            tmp_path / "pl.json", "powerlaw_counts", 0, alpha=1.125, xmin=1, n=27
        )
        assert run("simulate", "--scenario", scenario, "--out", tmp_path / "out") == 1
        assert "error: synth: power-law draw exceeds the int64 range" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("subcommand, flags", [
        ("concentrate", ("--counts", "c.csv")),
        ("independence", ("--pairs", "p.csv")),
        ("rhythms", ("--series", "s.csv")),
        ("composed", ("--region-series", "r.csv")),
    ])
    @pytest.mark.parametrize("level", ["1.5", "7", "1", "0", "nan", "x"])
    def test_bad_alpha_level_is_a_usage_error(self, subcommand, flags, level, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([subcommand, *flags, "--alpha-level", level,
                                       "--out", "o"])
        assert exc.value.code == 2
        assert "--alpha-level" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-1", "1.5"])
    def test_workers_below_one_is_a_usage_error(self, workers, capsys):
        # Checked through the parser only, so no worker process starts.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["concentrate", "--counts", "c.csv",
                                       "--workers", workers, "--out", "o"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("concentrate", "--counts", "c.csv", "--boot", "99"),
        ("concentrate", "--counts", "c.csv", "--boot", "x"),
        ("concentrate", "--counts", "c.csv", "--seed", "-1"),
        ("concentrate", "--events", "e.csv", "--population", "p.csv", "--target-pop", "5",
         "--boot", "50"),
        ("independence", "--pairs", "p.csv", "--perm", "998"),
        ("independence", "--pairs", "p.csv", "--perm", "1e3"),
        ("independence", "--pairs", "p.csv", "--seed", "-1"),
        ("independence", "--pairs", "p.csv", "--seed", "0.5"),
    ])
    def test_bad_boot_perm_or_seed_is_a_usage_error(self, argv, capsys):
        # The parser alone rejects the value, before any input is read.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([*argv, "--out", "o"])
        assert exc.value.code == 2
        assert f"argument {argv[-2]}:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, kind", [
        ("--alpha-level", "float"), ("--target-pop", "float"), ("--boot", "integer")])
    def test_unparseable_number_names_its_type(self, flag, kind, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["concentrate", "--counts", "c.csv", flag, "x",
                                       "--out", "o"])
        assert f"argument {flag}: invalid {kind} value: 'x'" in capsys.readouterr().err

    def test_smallest_boot_perm_and_seed_parse(self):
        args = build_parser().parse_args(["concentrate", "--counts", "c.csv", "--boot", "100",
                                          "--seed", "0", "--out", "o"])
        assert (args.boot, args.seed) == (100, 0)
        args = build_parser().parse_args(["independence", "--pairs", "p.csv", "--perm", "999",
                                          "--seed", "0", "--out", "o"])
        assert (args.perm, args.seed) == (999, 0)

    @pytest.mark.parametrize("subcommand", ["tessellate", "concentrate"])
    @pytest.mark.parametrize("target", ["inf", "-inf", "nan", "0", "-5", "x"])
    def test_bad_target_pop_is_a_usage_error(self, subcommand, target, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([subcommand, "--events", "e.csv", "--population",
                                       "p.csv", "--target-pop", target, "--out", "o"])
        assert exc.value.code == 2
        assert "--target-pop" in capsys.readouterr().err

    def test_tiny_target_pop_counts_every_region_over_it(self, tmp_path):
        events, pop = TestTessellateCommand().make_inputs(tmp_path)
        assert run("tessellate", "--events", events, "--population", pop,
                   "--target-pop", "1e-300", "--out", tmp_path / "out") == 0
        stats = json.loads((tmp_path / "out" / "manifest.json").read_text())["runs"][0][
            "parameters"]["stats"]
        assert stats["n_regions"] == stats["regions_over_target"] == 64

    def test_pairs_without_a_y_column_are_an_error_naming_the_file(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("x,z\n" + "".join(f"{i},{i}\n" for i in range(8)))
        assert run("independence", "--pairs", pairs, "--out", tmp_path / "out") == 1
        assert capsys.readouterr().err == (
            f"error: independence: {pairs}: expected a header with x and y columns\n"
        )

    def test_unexpected_exception_is_one_internal_error_line(self, tmp_path, capsys,
                                                             monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("kernel fault")

        monkeypatch.setattr(cli, "hoeffding_test", fail)
        x = np.arange(8.0)
        pairs = write_pairs(tmp_path / "pairs.csv", x, x)
        out = tmp_path / "out"
        assert run("independence", "--pairs", pairs, "--out", out) == 3
        assert capsys.readouterr().err == (
            "error: independence: internal: RuntimeError: kernel fault\n"
        )
        assert not out.exists()

    def test_valid_alpha_level_and_workers_parse(self):
        args = build_parser().parse_args(["concentrate", "--counts", "c.csv",
                                          "--alpha-level", "0.01", "--workers", "2",
                                          "--out", "o"])
        assert (args.alpha_level, args.workers) == (0.01, 2)

    def test_huge_csv_field_is_a_structured_error(self, tmp_path, capsys):
        counts = tmp_path / "counts.csv"
        counts.write_text("count\n" + "7" * 200_000 + "\n")
        assert run("concentrate", "--counts", counts, "--out", tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: concentration: field larger than field limit")
        assert "Traceback" not in err

    def test_unknown_subcommand_exits_with_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run("frobnicate", "--out", "x")
        assert exc.value.code == 2

    def test_failed_run_leaves_no_partial_artifacts(self, tmp_path, capsys):
        scenario = write_scenario(
            tmp_path / "short.json", "traveling_wave_city", 3,
            n_regions=6, n_weeks=80, window_weeks=40,
        )
        sim_dir = tmp_path / "sim"
        assert run("simulate", "--scenario", scenario, "--out", sim_dir) == 0
        out = tmp_path / "broken"
        assert run("composed", "--region-series", sim_dir / "region_series.csv",
                   "--out", out) == 1
        assert "error: rhythms:" in capsys.readouterr().err
        assert not out.exists() or list(out.iterdir()) == []

    def test_failed_write_keeps_the_previous_run(self, tmp_path, capsys):
        events, pop = TestTessellateCommand().make_inputs(tmp_path)
        out = tmp_path / "out"
        argv = ("tessellate", "--events", events, "--population", pop,
                "--target-pop", 4, "--out", out)
        assert run(*argv) == 0
        (out / "region_series.csv").unlink()
        (out / "region_series.csv").mkdir()
        before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        assert set(before) == {"tessellation.csv", "rejects.csv", "manifest.json"}
        assert run(*argv) == 1
        assert "error: tessellate:" in capsys.readouterr().err
        after = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        assert after == before

    def test_unlinkable_target_fails_before_anything_is_replaced(self, tmp_path, capsys):
        events, pop = TestTessellateCommand().make_inputs(tmp_path)
        out = tmp_path / "out"
        argv = ("tessellate", "--events", events, "--population", pop, "--out", out)
        assert run(*argv, "--target-pop", 4) == 0
        (out / "region_series.csv").unlink()
        (out / "region_series.csv").mkdir()
        before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        assert run(*argv, "--target-pop", 16) == 1
        assert "error: tessellate:" in capsys.readouterr().err
        after = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        assert after == before

    def test_failed_replace_puts_the_replaced_files_back(self, tmp_path, monkeypatch, capsys):
        events, pop = TestTessellateCommand().make_inputs(tmp_path)
        out = tmp_path / "out"
        argv = ("tessellate", "--events", events, "--population", pop, "--out", out)
        assert run(*argv, "--target-pop", 4) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        real_replace, calls = os.replace, []

        def second_replace_fails(src, dst):
            calls.append(dst)
            if len(calls) == 2:
                raise OSError("disk full")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", second_replace_fails)
        assert run(*argv, "--target-pop", 16) == 1
        monkeypatch.undo()
        assert "disk full" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_failed_replace_removes_the_new_files_it_placed(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        out.mkdir()
        real_replace, calls = os.replace, []

        def second_replace_fails(src, dst):
            calls.append(dst)
            if len(calls) == 2:  # the manifest, after a.csv is in place
                raise OSError("disk full")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", second_replace_fails)
        with pytest.raises(OSError, match="disk full"):
            cli._emit(out, "simulate", {}, {}, {"a.csv": "count\n1\n"})
        monkeypatch.undo()
        assert [os.path.basename(dst) for dst in calls] == ["a.csv", "manifest.json"]
        assert list(out.iterdir()) == []

    def test_concurrent_runs_into_one_directory_keep_every_record(self, tmp_path, monkeypatch):
        """Two writers meet at a barrier once each has read the manifest.  A
        writer kept waiting there by the other breaks the barrier after its
        timeout and goes on."""
        out = tmp_path / "out"
        out.mkdir()
        (out / "manifest.json").write_text('{"runs": []}\n')
        barrier, real_load = threading.Barrier(2, timeout=2), json.load

        def load_then_meet(fh):
            manifest = real_load(fh)
            with contextlib.suppress(threading.BrokenBarrierError):
                barrier.wait()
            return manifest

        errors = []

        def write(name):
            try:
                cli._emit(out, "simulate", {}, {}, {name: "count\n1\n"})
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        monkeypatch.setattr(json, "load", load_then_meet)
        writers = [threading.Thread(target=write, args=(name,)) for name in ("a.csv", "b.csv")]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=30)
        monkeypatch.undo()
        assert not any(writer.is_alive() for writer in writers) and errors == []
        runs = json.loads((out / "manifest.json").read_text())["runs"]
        assert sorted(name for run in runs for name in run["artifacts"]) == ["a.csv", "b.csv"]
        assert sorted(p.name for p in out.iterdir()) == ["a.csv", "b.csv", "manifest.json"]

    @pytest.mark.parametrize("body, cause", [
        ("[]", " is not a manifest written by this tool"),
        ('"x"', " is not a manifest written by this tool"),
        ('{"runs": 1}', " is not a manifest written by this tool"),
        ("{", ": not valid JSON"),
        pytest.param('{"runs": ' + "[" * 100_000 + "]" * 100_000 + "}", ": not valid JSON",
                     id="nested-too-deep"),
    ])
    def test_foreign_manifest_is_a_module_error(self, tmp_path, capsys, body, cause):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(body)
        (tmp_path / "entropy_summary.json").write_text('{"mean_h": 0.5}')
        assert run("report", "--out", tmp_path) == 1
        assert capsys.readouterr().err == f"error: report: {manifest}{cause}\n"
        assert manifest.read_text() == body

    @pytest.mark.parametrize("kind, parameters, cause", [
        ("traveling_wave_city", {"amplitude": float("nan")},
         "parameter amplitude must be a finite number, got NaN"),
        ("seasonal", {"amplitude": float("nan")},
         "parameter amplitude must be a finite number, got NaN"),
        ("seasonal", {"noise_sd": float("inf")},
         "parameter noise_sd must be a finite number, got Infinity"),
        ("powerlaw_counts", {"alpha": float("nan")},
         "parameter alpha must be a finite number, got NaN"),
        ("powerlaw_counts", {"alpha": "2.5"},
         'parameter alpha must be a finite number, got "2.5"'),
        ("traveling_wave_city", {"n_regions": 40.9},
         "parameter n_regions must be an integer, got 40.9"),
        ("traveling_wave_city", {"n_regions": "40"},
         'parameter n_regions must be an integer, got "40"'),
        ("traveling_wave_city", {"n_regions": True},
         "parameter n_regions must be an integer, got true"),
        ("traveling_wave_city", {"wave_speed_regions_per_year": None},
         "parameter wave_speed_regions_per_year must be a finite number, got null"),
    ])
    def test_scenario_parameter_outside_its_type_writes_nothing(self, tmp_path, capsys, kind,
                                                                 parameters, cause):
        """A parameter that would run as another value, or write cells
        the readers reject, stops simulate before anything is written."""
        valid = {
            "traveling_wave_city": {"n_regions": 4, "n_weeks": 156, "window_weeks": 52},
            "seasonal": {"period_years": 1.0, "amplitude": 2.0, "noise_sd": 0.5, "n": 156},
            "powerlaw_counts": {"alpha": 2.5, "xmin": 1, "n": 100},
        }[kind]
        scenario = write_scenario(tmp_path / "s.json", kind, 0, **{**valid, **parameters})
        out = tmp_path / "out"
        assert run("simulate", "--scenario", scenario, "--out", out) == 1
        assert capsys.readouterr().err == f"error: synth: scenario '{kind}' {cause}\n"
        assert not out.exists()

    def test_malformed_scenario_is_a_module_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "ar1", "seed": 1}')
        assert run("simulate", "--scenario", bad, "--out", tmp_path / "o") == 1
        assert "error: synth:" in capsys.readouterr().err

    @pytest.mark.parametrize("body", [
        pytest.param(("[" * 100_000 + "]" * 100_000).encode(), id="nested-too-deep"),
        pytest.param('{"kind": "ar1", "seed": 1, "parameters": {"a": 0.5, "n": 120}, '
                     '"note": "caf\xe9"}'.encode("latin-1"), id="not-utf-8"),
    ])
    def test_scenario_that_is_not_json_names_the_file(self, tmp_path, capsys, body):
        scenario = tmp_path / "s.json"
        scenario.write_bytes(body)
        out = tmp_path / "out"
        assert run("simulate", "--scenario", scenario, "--out", out) == 1
        assert capsys.readouterr().err == f"error: synth: {scenario}: not valid JSON\n"
        assert not out.exists()

    def test_missing_input_file_is_reported_not_raised(self, tmp_path, capsys):
        assert run("concentrate", "--counts", tmp_path / "nope.csv",
                   "--out", tmp_path / "o") == 1
        assert "error: concentration:" in capsys.readouterr().err


class TestRegionSeriesValues:
    """Region-series cells must be finite; an empty cell is a gap."""

    @pytest.fixture
    def series(self, tmp_path):
        scenario = write_scenario(
            tmp_path / "w.json", "traveling_wave_city", 3,
            n_regions=6, n_weeks=156, window_weeks=52,
        )
        assert run("simulate", "--scenario", scenario, "--out", tmp_path) == 0
        return tmp_path / "region_series.csv"

    def edit(self, path, row, column, text):
        lines = path.read_text().splitlines()
        cells = lines[row].split(",")
        cells[column] = text
        lines[row] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("subcommand, module", [
        ("ranks", "rankdyn"), ("rhythms", "rhythms"), ("composed", "rhythms"),
    ])
    @pytest.mark.parametrize("text", ["inf", "-inf", "nan", "1e999"])
    def test_non_finite_cell_is_rejected(self, series, tmp_path, capsys,
                                         subcommand, module, text):
        self.edit(series, 40, 3, text)
        out = tmp_path / "out"
        assert run(subcommand, "--region-series", series, "--out", out) == 1
        err = capsys.readouterr().err
        assert err == f"error: {module}: {series}: non-finite value in region_2\n"
        assert not out.exists()

    def test_non_finite_city_cell_is_rejected(self, series, tmp_path, capsys):
        self.edit(series, 40, -1, "inf")
        assert run("rhythms", "--region-series", series, "--out", tmp_path / "o") == 1
        assert "non-finite value in city" in capsys.readouterr().err

    def test_ranks_rejects_a_gap(self, series, tmp_path, capsys):
        self.edit(series, 40, 3, "")
        assert run("ranks", "--region-series", series, "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err.startswith("error: rankdyn: region 2 has a gap")

    def test_rhythms_and_composed_fill_short_gaps_and_composed_rejects_long_ones(
            self, series, tmp_path):
        for row in (40, 41):
            self.edit(series, row, -1, "")
            self.edit(series, row, 2, "")
        for row in (60, 61, 62):
            self.edit(series, row, 3, "")
        out = tmp_path / "out"
        assert run("rhythms", "--region-series", series, "--out", out) == 0
        assert run("composed", "--region-series", series, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        rejected = manifest["runs"][-1]["parameters"]["rejected_regions"]
        assert [rid for rid, _ in rejected] == [2]

    def test_malformed_region_column_name_is_rejected(self, series, tmp_path, capsys):
        self.edit(series, 0, 1, "region_x")
        assert run("ranks", "--region-series", series, "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err == (
            f"error: rankdyn: {series}: malformed region column name\n"
        )

    @pytest.mark.parametrize("subcommand, module", [
        ("ranks", "rankdyn"), ("rhythms", "rhythms"), ("composed", "rhythms"),
    ])
    @pytest.mark.parametrize("name", ["region_99999999999999999999",
                                      "region_9223372036854775808"])
    def test_region_id_outside_int64_is_a_malformed_name(self, series, tmp_path, capsys,
                                                         subcommand, module, name):
        self.edit(series, 0, 6, name)
        assert run(subcommand, "--region-series", series, "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err == (
            f"error: {module}: {series}: malformed region column name\n"
        )

    def test_negative_values_are_valid(self, series, tmp_path):
        self.edit(series, 40, 3, "-3.5")
        assert run("ranks", "--region-series", series, "--out", tmp_path / "o") == 0


def _argv_with_inputs(subcommand, tmp_path):
    """A run of `subcommand` on small inputs written under tmp_path, less --out."""
    wave = write_scenario(tmp_path / "wave.json", "traveling_wave_city", 3,
                          n_regions=4, n_weeks=156, window_weeks=52)
    if subcommand == "simulate":
        return ["simulate", "--scenario", wave]
    if subcommand in ("ranks", "rhythms", "composed"):
        assert run("simulate", "--scenario", wave, "--out", tmp_path / "sim") == 0
        return [subcommand, "--region-series", tmp_path / "sim" / "region_series.csv"]
    if subcommand == "tessellate":
        events, pop = TestTessellateCommand().make_inputs(tmp_path)
        return ["tessellate", "--events", events, "--population", pop, "--target-pop", 4]
    if subcommand == "independence":
        x = np.random.default_rng(5).normal(size=12)
        return ["independence", "--pairs", write_pairs(tmp_path / "pairs.csv", x, x**3)]
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "fit.json").write_text(json.dumps({"gini": 0.5, "alpha": 2.5}))
    return ["report"]


@pytest.mark.parametrize("subcommand", ["report", "ranks", "rhythms", "composed", "tessellate",
                                        "independence", "simulate"])
def test_subcommand_leaves_scipy_special_stats_optimize_signal_unloaded(subcommand, tmp_path):
    """A fresh process that runs one of these subcommands never imports
    the heavy scipy subpackages (`simulate` with a traveling-wave city)."""
    out = tmp_path / "out"
    argv = [str(a) for a in _argv_with_inputs(subcommand, tmp_path)] + ["--out", str(out)]
    code = (
        "import json, sys\n"
        "import crimepatterns.cli\n"
        "assert crimepatterns.cli.main(json.loads(sys.argv[1])) == 0\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argv)],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    loaded = json.loads(done.stdout.splitlines()[-1])
    heavy = [m for m in loaded
             if m.split(".")[:2] in (["scipy", "special"], ["scipy", "stats"],
                                     ["scipy", "optimize"], ["scipy", "signal"])]
    assert heavy == []
    assert (out / "manifest.json").exists()
    if subcommand == "report":
        assert json.loads((out / "report.json").read_text())["alpha"] == 2.5


def test_concentrate_records_a_lognormal_fit_at_its_power_law_limit(tmp_path):
    scenario = write_scenario(tmp_path / "pl.json", "powerlaw_counts", 8, alpha=2.5, xmin=1, n=200)
    out = tmp_path / "out"
    assert run("simulate", "--scenario", scenario, "--out", out) == 0
    assert run("concentrate", "--counts", out / "counts.csv", "--boot", 100, "--out", out) == 0
    record = json.loads((out / "manifest.json").read_text())["runs"][-1]
    assert record["diagnostics"] == {"lognormal_mle": "boundary"}
    lr = json.loads((out / "fit.json").read_text())["lr_lognormal"]
    assert lr == {"stat": 0.0, "p": 1.0, "favored": "inconclusive"}


_SMALL_SCENARIOS = {
    "powerlaw_counts": {"alpha": 2.5, "xmin": 1, "n": 2000},
    "ar1": {"a": 0.5, "n": 120},
    "seasonal": {"period_years": 1.0, "amplitude": 1.0, "noise_sd": 0.1, "n": 156},
    "traveling_wave_city": {"n_regions": 4, "n_weeks": 156, "window_weeks": 52},
}


def _case_argv(case, tmp_path):
    """A run of `case` on small inputs written under tmp_path, less --out:
    `concentrate --counts`, `concentrate --events`, `simulate <kind>` or a
    subcommand of `_argv_with_inputs`."""
    if case.startswith("simulate "):
        kind = case.split()[1]
        return ["simulate", "--scenario",
                write_scenario(tmp_path / "s.json", kind, 3, **_SMALL_SCENARIOS[kind])]
    if case == "concentrate --counts":
        scenario = write_scenario(tmp_path / "pl.json", "powerlaw_counts", 3,
                                  **_SMALL_SCENARIOS["powerlaw_counts"])
        assert run("simulate", "--scenario", scenario, "--out", tmp_path / "sim") == 0
        return ["concentrate", "--counts", tmp_path / "sim" / "counts.csv", "--boot", 100]
    if case == "concentrate --events":
        events, pop = TestTessellateCommand().make_inputs(tmp_path)
        return ["concentrate", "--events", events, "--population", pop, "--target-pop", 1,
                "--category", "theft", "--boot", 100]
    return _argv_with_inputs(case, tmp_path)


@pytest.mark.parametrize("case", [
    "concentrate --counts", "concentrate --events",
    *(f"simulate {kind}" for kind in _SMALL_SCENARIOS),
    # the other subcommands of the test above; its `simulate` is the traveling-wave city
    "report", "ranks", "rhythms", "composed", "tessellate", "independence",
])
def test_subcommand_runs_without_scipy(case, tmp_path):
    """A fresh process that runs one subcommand loads no module of scipy."""
    out = tmp_path / "out"
    argv = [str(a) for a in _case_argv(case, tmp_path)] + ["--out", str(out)]
    code = (
        "import json, sys\n"
        "import crimepatterns.cli\n"
        "assert crimepatterns.cli.main(json.loads(sys.argv[1])) == 0\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argv)],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert [m for m in loaded if m == "scipy" or m.startswith("scipy.")] == []
    assert (out / "manifest.json").exists()


class TestSimulateFormats:
    def test_series_scenario_writes_weekly_grid(self, tmp_path):
        scenario = write_scenario(tmp_path / "a.json", "ar1", 5, a=0.5, n=120)
        out = tmp_path / "out"
        assert run("simulate", "--scenario", scenario, "--out", out) == 0
        header, rows = read_csv(out / "series.csv")
        assert header == ["week_start", "value"]
        assert len(rows) == 120
        starts = np.array([r[0] for r in rows], dtype="datetime64[D]")
        assert (np.diff(starts) == np.timedelta64(7, "D")).all()

    def test_identical_scenarios_give_identical_artifacts(self, tmp_path):
        scenario = write_scenario(tmp_path / "a.json", "powerlaw_counts", 9,
                                  alpha=2.3, xmin=1, n=2000)
        out1, out2 = tmp_path / "one", tmp_path / "two"
        assert run("simulate", "--scenario", scenario, "--out", out1) == 0
        assert run("simulate", "--scenario", scenario, "--out", out2) == 0
        assert (out1 / "counts.csv").read_bytes() == (out2 / "counts.csv").read_bytes()


# Cell values by column kind.  The floats include -0.0, the smallest
# subnormal and the two values where repr switches to and from an exponent.
CELL_VALUES = {
    "int": st.integers(-2**63, 2**63 - 1),
    "float": st.one_of(st.floats(), st.sampled_from([-0.0, 5e-324, 1e16, 1e-05])),
    "bool": st.booleans(),
    "date": st.dates(),
    "str": st.sampled_from(REJECTION_REASONS),
}


def csv_writer_text(header, columns):
    """The text csv.writer makes of a header and formatted columns."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*map(cli._format, columns)))
    return buf.getvalue()


class TestArtifactTable:
    @pytest.fixture(scope="class")
    def bundle(self, wave_pipeline, tmp_path_factory):
        """Every CSV artifact of the table, by name."""
        base = tmp_path_factory.mktemp("bundle")
        out = base / "out"
        scenario = write_scenario(base / "a.json", "ar1", 5, a=0.5, n=120)
        assert run("simulate", "--scenario", scenario, "--out", out) == 0
        events, pop = TestTessellateCommand().make_inputs(base)
        with open(events, "a") as fh:
            fh.write("2015-01-05T00:00:00,abc,0.5,theft\n")
        assert run("tessellate", "--events", events, "--population", pop,
                   "--target-pop", 4, "--out", out) == 0
        paths = {p.name: p for p in list(wave_pipeline.iterdir()) + list(out.iterdir())}
        return {name: paths[name] for name in ARTIFACTS}

    @pytest.mark.parametrize("name", sorted(ARTIFACTS))
    def test_read_then_write_gives_back_the_bytes(self, bundle, name):
        written = bundle[name].read_text()
        assert _artifact_text(name, *_read_artifact(bundle[name], name)) == written

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_joined_rows_equal_csv_writer_output(self, data):
        """No cell the writer emits needs quoting: joining the cells with
        commas gives csv.writer's bytes for every artifact."""
        for name, spec in ARTIFACTS.items():
            n = data.draw(st.integers(0, 6), label=name)
            columns = [np.asarray(data.draw(st.lists(CELL_VALUES[kind], min_size=n, max_size=n)),
                                  dtype=COLUMN_KINDS[kind]) for _, kind in spec]
            header = [column for column, _ in spec]
            assert _artifact_text(name, *columns) == csv_writer_text(header, columns), name
        n_regions, n_weeks = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 5))
        kind = data.draw(st.sampled_from(["int", "float"]))
        counts = np.array(data.draw(st.lists(CELL_VALUES[kind], min_size=n_regions * n_weeks,
                                             max_size=n_regions * n_weeks)),
                          dtype=COLUMN_KINDS[kind]).reshape(n_regions, n_weeks)
        if kind == "int":
            counts //= n_regions  # the city totals stay inside int64
        ids = sorted(data.draw(st.sets(st.integers(0, 10**6), min_size=n_regions,
                                       max_size=n_regions)))
        weeks = np.datetime64("2015-01-05") + 7 * np.arange(n_weeks)
        series_set = RegionSeriesSet(weeks, counts, ids)
        header = ["week_start", *(f"region_{i}" for i in ids), "city"]
        with np.errstate(over="ignore", invalid="ignore"):  # inf + -inf
            expected = csv_writer_text(header, [weeks, *counts, series_set.city_totals()])
            assert _region_series_csv(series_set) == expected

    def test_header_only_durations_round_trip(self, tmp_path):
        path = tmp_path / "durations.csv"
        path.write_text("region_id,run_start,run_length_weeks\n")
        columns = _read_artifact(path, "durations.csv")
        assert [c.size for c in columns] == [0, 0, 0]
        assert _artifact_text("durations.csv", *columns) == path.read_text()

    def test_region_series_round_trip(self, wave_pipeline):
        path = wave_pipeline / "region_series.csv"
        series_set, _ = _read_region_series(path)
        assert _region_series_csv(series_set) == path.read_text()

    @pytest.mark.parametrize("text, cause", [
        ("", "no data rows"),
        ("week_start,c_b,regions_valid\n", "no data rows"),
        ("week_start,c_b,regions_valid\n2015-01-05,1\n", "ragged rows"),
        ("week_start,c_b\n2015-01-05,1\n", "expected columns"),
        ("week_start,c_b,regions_valid\n2015-01-05,1.5,2\n", "malformed c_b column"),
    ])
    def test_bad_files_name_the_path_and_the_cause(self, tmp_path, text, cause):
        path = tmp_path / "composed.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {cause}"):
            _read_artifact(path, "composed.csv")

    def test_readme_library_example_runs(self):
        (example,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
        exec(compile(example, str(README), "exec"), {})

    def test_readme_lists_the_table_columns(self):
        text = README.read_text()
        section = text[text.index("### Artifacts"):text.index("## Library")]
        listed = {}
        for line in section.splitlines():
            cells = line.split("|")
            if len(cells) < 4 or not cells[1].strip().startswith("`"):
                continue
            name = re.search(r"`([^`]+)`", cells[1]).group(1)
            if name.endswith(".csv"):
                listed[name] = re.search(r"`([^`]+)`", cells[3]).group(1).split(",")
        assert set(listed) == set(ARTIFACTS) | {"region_series.csv"}
        for name, spec in ARTIFACTS.items():
            assert listed[name] == [column for column, _ in spec], name
