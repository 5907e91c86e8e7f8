import csv
import datetime
import io
import json
import re

import numpy as np
import pytest

from countyrt import cli
from countyrt.cli import (
    FIT_SPEC,
    NAIVE_SPEC,
    SIMULATE_SPEC,
    _parse_quantiles,
    _resolve,
    build_parser,
    main,
    parse_gen_time,
    parse_schedule,
)
from countyrt.inference import FitConfig
from countyrt.ingest import load_panel, write_panel
from countyrt.model import IncidencePanel
from countyrt.simulator import SimConfig, default_generation_time, simulate

SIM_ARGS = [
    "simulate",
    "--k",
    "4",
    "--initial-cases",
    "60",
    "--schedule",
    "20:1.4",
    "--seed",
    "11",
]


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    assert main(SIM_ARGS + ["--output-dir", str(out)]) == 0
    return out


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestSimulate:
    def test_outputs_exist(self, sim_dir):
        assert (sim_dir / "panel.csv").exists()
        assert (sim_dir / "truth.csv").exists()
        assert (sim_dir / "meta.json").exists()

    def test_panel_is_loadable(self, sim_dir):
        panel, _ = load_panel(sim_dir / "panel.csv")
        assert panel.n_regions == 16
        assert panel.counts.sum() >= 60

    def test_truth_matches_schedule(self, sim_dir):
        rows = read_rows(sim_dir / "truth.csv")
        assert len(rows) == 20
        assert float(rows[0]["true_r"]) == 1.4
        assert rows[0]["date"] == "2020-03-02"  # first scored day

    def test_meta_records_options(self, sim_dir):
        meta = json.loads((sim_dir / "meta.json").read_text())
        assert meta["tool"] == "countyrt"
        assert meta["command"] == "simulate"
        assert meta["options"]["seed"] == 11
        assert meta["options"]["k"] == 4

    def test_reproducible(self, sim_dir, tmp_path):
        out2 = tmp_path / "again"
        assert main(SIM_ARGS + ["--output-dir", str(out2)]) == 0
        assert (out2 / "panel.csv").read_bytes() == (sim_dir / "panel.csv").read_bytes()
        assert (out2 / "truth.csv").read_bytes() == (sim_dir / "truth.csv").read_bytes()

    def test_replicates_make_subdirs(self, tmp_path):
        out = tmp_path / "reps"
        assert main(SIM_ARGS + ["--output-dir", str(out), "--replicates", "3"]) == 0
        panels = [read_rows(out / f"rep{i:03d}" / "panel.csv") for i in range(3)]
        assert all(panels)
        # replicates use distinct derived seeds
        assert panels[0] != panels[1]


@pytest.fixture(scope="module")
def fit_dir(sim_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("fit")
    rc = main(
        [
            "fit",
            "--input",
            str(sim_dir / "panel.csv"),
            "--output-dir",
            str(out),
            "--backdate-days",
            "0",
        ]
    )
    assert rc == 0
    return out


class TestFitAndNaive:
    def test_country_csv_shape(self, sim_dir, fit_dir):
        rows = read_rows(fit_dir / "country_estimates.csv")
        panel, _ = load_panel(sim_dir / "panel.csv")
        assert len(rows) == panel.n_days
        assert list(rows[0]) == [
            "date",
            "a_hat",
            "s_hat",
            "p_hat",
            "r_tilde",
            "ci_lower",
            "ci_upper",
            "converged",
            "skipped_reason",
        ]
        assert rows[0]["skipped_reason"] == "burn-in"
        fitted = [r for r in rows if r["r_tilde"]]
        assert fitted
        for r in fitted:
            assert float(r["r_tilde"]) >= 0.0
            if r["ci_lower"]:
                assert float(r["ci_lower"]) <= float(r["r_tilde"]) <= float(r["ci_upper"])

    def test_county_csv_shape(self, fit_dir):
        rows = read_rows(fit_dir / "county_estimates.csv")
        assert rows
        assert list(rows[0]) == [
            "date",
            "region_id",
            "lambda",
            "cases",
            "post_mean",
            "q05",
            "q50",
            "q95",
        ]
        for r in rows[:50]:
            assert float(r["q05"]) <= float(r["q50"]) <= float(r["q95"])

    def test_backdating_shifts_dates(self, sim_dir, tmp_path):
        out = tmp_path / "shift"
        assert (
            main(
                [
                    "fit",
                    "--input",
                    str(sim_dir / "panel.csv"),
                    "--output-dir",
                    str(out),
                    "--backdate-days",
                    "7",
                ]
            )
            == 0
        )
        panel, _ = load_panel(sim_dir / "panel.csv")
        rows = read_rows(out / "country_estimates.csv")
        first = np.datetime64(rows[0]["date"])
        assert first == np.datetime64(panel.dates[0].isoformat()) - 7

    def test_naive_output(self, sim_dir, tmp_path):
        out = tmp_path / "naive"
        assert (
            main(
                [
                    "naive",
                    "--input",
                    str(sim_dir / "panel.csv"),
                    "--output-dir",
                    str(out),
                    "--backdate-days",
                    "0",
                ]
            )
            == 0
        )
        rows = read_rows(out / "naive_estimates.csv")
        panel, _ = load_panel(sim_dir / "panel.csv")
        assert len(rows) == panel.n_days
        assert list(rows[0]) == ["date", "i_t", "phi_t", "r_hat"]
        # day 0 has no history, so r_hat is blank
        assert rows[0]["r_hat"] == ""
        any_rate = [r for r in rows if r["r_hat"]]
        assert any_rate
        for r in any_rate:
            assert float(r["r_hat"]) == pytest.approx(
                float(r["i_t"]) / float(r["phi_t"])
            )

    def test_config_file_with_flag_override(self, sim_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("backdate-days = 3\nlevel = 0.9\n# comment\n")
        out = tmp_path / "cfgfit"
        assert (
            main(
                [
                    "fit",
                    "--input",
                    str(sim_dir / "panel.csv"),
                    "--output-dir",
                    str(out),
                    "--config",
                    str(cfg),
                    "--backdate-days",
                    "0",  # flag beats config
                ]
            )
            == 0
        )
        meta = json.loads((out / "meta.json").read_text())
        assert meta["options"]["backdate_days"] == 0
        assert meta["options"]["level"] == 0.9
        panel, _ = load_panel(sim_dir / "panel.csv")
        rows = read_rows(out / "country_estimates.csv")
        assert rows[0]["date"] == panel.dates[0].isoformat()

    def test_unknown_config_key_is_an_error(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("k = 4\n# comment\nsead=3\n")
        out = tmp_path / "sim"
        rc = main(["simulate", "--output-dir", str(out), "--config", str(cfg)])
        assert rc == 2
        assert f"{cfg}:3: unknown option 'sead'" in capsys.readouterr().err
        assert not (out / "panel.csv").exists()

    def test_config_line_without_equals_is_an_error(self, sim_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\n\nlevel 0.9\n")
        out = tmp_path / "fit"
        args = ["--input", str(sim_dir / "panel.csv"), "--output-dir", str(out)]
        rc = main(["fit", *args, "--config", str(cfg)])
        assert rc == 2
        assert f"{cfg}:3: expected key=value" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_config_key_is_an_error(self, sim_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("backdate_days=3\nbackdate-days=5\n")
        out = tmp_path / "fit"
        args = ["--input", str(sim_dir / "panel.csv"), "--output-dir", str(out)]
        rc = main(["fit", *args, "--config", str(cfg)])
        assert rc == 2
        assert f"{cfg}:2: option 'backdate-days' is given twice" in capsys.readouterr().err
        assert not out.exists()

    def test_byte_order_mark_in_config_is_accepted(self, tmp_path):
        plain = tmp_path / "run.cfg"
        plain.write_text("backdate_days = 3\n# comment\nlevel=0.9\n")
        marked = tmp_path / "bom.cfg"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        args = ["fit", "--input", "in.csv", "--output-dir", "out", "--config"]
        want, got = (_resolve(build_parser().parse_args([*args, str(c)])) for c in (plain, marked))
        assert got == want
        assert want["backdate_days"] == 3 and want["level"] == 0.9


class TestExitCodes:
    def test_usage_error_unknown_flag(self, capsys):
        assert main(["fit", "--no-such-flag"]) == 1
        assert "error" in capsys.readouterr().err

    def test_usage_error_bad_value(self, sim_dir, tmp_path):
        rc = main(
            [
                "fit",
                "--input",
                str(sim_dir / "panel.csv"),
                "--output-dir",
                str(tmp_path / "x"),
                "--level",
                "2.0",
            ]
        )
        assert rc == 1

    def test_usage_error_bad_schedule(self, tmp_path):
        rc = main(
            ["simulate", "--output-dir", str(tmp_path / "x"), "--schedule", "oops"]
        )
        assert rc == 1

    def test_io_error_missing_input(self, tmp_path):
        rc = main(
            [
                "fit",
                "--input",
                str(tmp_path / "nope.csv"),
                "--output-dir",
                str(tmp_path / "y"),
            ]
        )
        assert rc == 2

    def test_io_error_malformed_csv(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("region_id,date,cases\na,2020-03-01,notanumber\n")
        rc = main(
            ["fit", "--input", str(bad), "--output-dir", str(tmp_path / "z")]
        )
        assert rc == 2
        assert "invalid case count" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["99999999999999999999", "-9223372036854775809"])
    def test_count_outside_int64_is_a_parse_error(self, count, tmp_path, capsys):
        bad = tmp_path / "big.csv"
        bad.write_text(f"region_id,date,cases\na,2020-03-01,1\nb,2020-03-01,{count}\n")
        rc = main(["fit", "--input", str(bad), "--output-dir", str(tmp_path / "z")])
        assert rc == 2
        assert f"countyrt: {bad}:3: invalid case count '{count}'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "naive"])
    def test_summed_count_outside_int64_is_a_parse_error(self, command, tmp_path, capsys):
        bad = tmp_path / "sum.csv"
        bad.write_text(
            "region_id,date,cases\n"
            "a,2020-03-01,9223372036854775807\na,2020-03-01,1\nb,2020-03-01,4\n"
        )
        out = tmp_path / "z"
        assert main([command, "--input", str(bad), "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"countyrt: {bad}: summed case count of region 'a' on 2020-03-01" in err
        assert not out.exists()

    def test_fit_needs_two_regions(self, tmp_path, capsys):
        one = tmp_path / "one.csv"
        rows = "".join(f"a,2020-03-{d:02d},5\n" for d in range(1, 15))
        one.write_text("region_id,date,cases\n" + rows)
        out = tmp_path / "fit"
        assert main(["fit", "--input", str(one), "--output-dir", str(out)]) == 2
        assert f"countyrt: {one}: fitting requires at least 2 regions" in capsys.readouterr().err
        assert not out.exists()
        assert main(["naive", "--input", str(one), "--output-dir", str(tmp_path / "naive")]) == 0


@pytest.mark.parametrize(
    "quantiles",
    [
        "abc",  # not a number
        "1.5",  # outside (0, 1)
        "0.05,0.054,0.5",  # two columns named q05
    ],
)
def test_bad_quantiles_are_usage_errors(quantiles, sim_dir, tmp_path, capsys):
    out = tmp_path / "q"
    rc = main(
        [
            "fit",
            "--input",
            str(sim_dir / "panel.csv"),
            "--output-dir",
            str(out),
            "--quantiles",
            quantiles,
        ]
    )
    assert rc == 1
    assert "countyrt: error: --quantiles" in capsys.readouterr().err
    assert not (out / "county_estimates.csv").exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--k", "1", "k must be >= 2"),
        ("--sigma", "-1", "sigma must be positive"),
        ("--schedule", "0:1", "schedule durations must be >= 1"),
        ("--county-r-scale", "0", "county_r_scale must be positive"),
        ("--gen-time", "trapezoid:0,3,4,3", "bad trapezoid spec 'trapezoid:0,3,4,3'"),
        ("--replicates", "0", "invalid value for --replicates: '0'"),
        ("--replicates", "-3", "invalid value for --replicates: '-3'"),
        ("--start-date", "2020-13-01", "invalid value for --start-date: '2020-13-01'"),
        ("--start-date", "20200301", "invalid value for --start-date: '20200301'"),
        ("--start-date", "2020-W10-1", "invalid value for --start-date: '2020-W10-1'"),
        ("--sigma", "nan", "sigma must be positive and finite"),
        ("--sigma", "inf", "sigma must be positive and finite"),
        ("--schedule", "20:nan", "schedule R values must be >= 0 and finite"),
        ("--schedule", "20:inf", "schedule R values must be >= 0 and finite"),
        ("--county-r-scale", "nan", "county_r_scale must be positive and finite"),
        ("--county-r-scale", "inf", "county_r_scale must be positive and finite"),
        # the burn-in starts before year 1; the default schedule ends after 9999
        ("--start-date", "0001-01-01", "start_date 0001-01-01 puts simulated dates outside"),
        ("--start-date", "9999-12-25", "start_date 9999-12-25 puts simulated dates outside"),
        ("--schedule", "1000000000:1", "a schedule of 1000000000 days puts simulated dates"),
        ("--seed", "-1", "seed must be >= 0"),
    ],
)
def test_out_of_range_simulate_values_are_usage_errors(flag, value, message, tmp_path, capsys):
    out = tmp_path / "sim"
    assert main(["simulate", "--output-dir", str(out), flag, value]) == 1
    assert f"countyrt: error: {message}" in capsys.readouterr().err
    assert not (out / "panel.csv").exists()
    assert not out.exists()


def test_negative_seed_with_replicates_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "sim"
    assert main(["simulate", "--output-dir", str(out), "--seed", "-1", "--replicates", "2"]) == 1
    assert "countyrt: error: seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_numeric_failure_is_an_internal_error(sim_dir, tmp_path, monkeypatch, capsys):
    def failing_fit(*args):
        raise FloatingPointError("overflow in the fit")

    monkeypatch.setattr(cli, "fit_panel", failing_fit)
    out = tmp_path / "fit"
    assert main(["fit", "--input", str(sim_dir / "panel.csv"), "--output-dir", str(out)]) == 3
    assert capsys.readouterr().err.startswith("countyrt: internal error: overflow in the fit")
    assert not out.exists()


def test_generation_time_longer_than_the_calendar_is_a_usage_error(tmp_path, capsys):
    # only the config is built: simulate never runs with this support
    path = tmp_path / "w.csv"
    path.write_text("4000000,1\n")
    out = tmp_path / "sim"
    assert main(["simulate", "--output-dir", str(out), "--gen-time", f"weights:{path}"]) == 1
    message = "a generation time of 4000000 days puts simulated dates outside years 1-9999"
    assert f"countyrt: error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_defaults_are_the_library_defaults(tmp_path):
    out = tmp_path / "cli"
    assert main(["simulate", "--output-dir", str(out)]) == 0
    result = simulate(SimConfig())
    write_panel(result.panel, tmp_path / "library.csv")
    assert (out / "panel.csv").read_bytes() == (tmp_path / "library.csv").read_bytes()
    assert [float(r["true_r"]) for r in read_rows(out / "truth.csv")] == result.true_r.tolist()


def test_fit_defaults_are_the_library_defaults():
    default = default_generation_time()
    for spec in (SIMULATE_SPEC, FIT_SPEC, NAIVE_SPEC):
        w = parse_gen_time(spec["gen_time"][1])
        assert w.support_start == default.support_start
        assert w.weights.tolist() == default.weights.tolist()
    assert FIT_SPEC["level"][1] == FitConfig().level
    assert _parse_quantiles(FIT_SPEC["quantiles"][1])[0] == FitConfig().quantile_probs


@pytest.mark.parametrize("command", ["fit", "naive"])
def test_negative_backdate_days_is_a_usage_error(command, sim_dir, tmp_path, capsys):
    out = tmp_path / "out"
    argv = [command, "--input", str(sim_dir / "panel.csv"), "--output-dir", str(out)]
    assert main(argv + ["--backdate-days", "-1"]) == 1
    assert "invalid value for --backdate-days: '-1'" in capsys.readouterr().err
    assert not out.exists()


# 800000 days moves the 2020 panel before year 1; 1e9 days is beyond any timedelta
@pytest.mark.parametrize("days", ["800000", "1000000000"])
@pytest.mark.parametrize("command", ["fit", "naive"])
def test_out_of_range_backdate_days_is_a_usage_error(command, days, sim_dir, tmp_path, capsys):
    out = tmp_path / "out"
    argv = [command, "--input", str(sim_dir / "panel.csv"), "--output-dir", str(out)]
    first = load_panel(sim_dir / "panel.csv")[0].dates[0]
    assert main(argv + ["--backdate-days", days]) == 1
    assert f"countyrt: error: --backdate-days {days} moves {first} before year 1" in (
        capsys.readouterr().err
    )
    assert not out.exists()


def test_backdate_days_may_reach_year_1(sim_dir, tmp_path):
    days = load_panel(sim_dir / "panel.csv")[0].dates[0].toordinal() - 1
    argv = ["naive", "--input", str(sim_dir / "panel.csv"), "--output-dir", str(tmp_path)]
    assert main(argv + ["--backdate-days", str(days)]) == 0
    assert read_rows(tmp_path / "naive_estimates.csv")[0]["date"] == "0001-01-01"


# Each command's flags, written out, so the parser can neither drop nor gain one.
FLAGS = {
    "simulate": "--k --sigma --initial-cases --schedule --gen-time --seed --replicates "
    "--start-date --county-r-scale",
    "fit": "--input --gen-time --backdate-days --level --quantiles",
    "naive": "--input --gen-time --backdate-days",
}


@pytest.mark.parametrize(
    "command, spec", [("simulate", SIMULATE_SPEC), ("fit", FIT_SPEC), ("naive", NAIVE_SPEC)]
)
def test_parser_flags_are_the_spec_keys(command, spec, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    common = {"--help", "--output-dir", "--config"}
    assert flags == set(FLAGS[command].split()) | common
    paths = {"--input"} if command != "simulate" else set()
    assert flags == {"--" + key.replace("_", "-") for key in spec} | paths | common


@pytest.mark.parametrize("command", ["fit", "naive"])
def test_negative_count_clamp_is_warned(command, tmp_path, capsys):
    data = tmp_path / "neg.csv"
    data.write_text(
        "region_id,date,cases\n"
        "a,2020-03-01,3\nb,2020-03-01,-2\n"
        "a,2020-03-02,4\nb,2020-03-02,1\n"
    )
    rc = main([command, "--input", str(data), "--output-dir", str(tmp_path / "out")])
    assert rc == 0
    assert "countyrt: warning: clamped 1 negative counts to 0" in capsys.readouterr().err


def test_region_ids_that_need_quoting_round_trip(tmp_path):
    ids = ("Lake, County", 'St. "Mary"', 'both, "of" them', "plain")
    counts = np.random.default_rng(3).integers(1, 30, size=(len(ids), 14))
    dates = tuple(datetime.date(2020, 3, 1) + datetime.timedelta(days=t) for t in range(14))
    write_panel(IncidencePanel(ids, dates, counts), tmp_path / "panel.csv")
    out = tmp_path / "fit"
    rc = main(["fit", "--input", str(tmp_path / "panel.csv"), "--output-dir", str(out)])
    assert rc == 0
    rows = read_rows(out / "county_estimates.csv")
    fitted_days = sorted({r["date"] for r in rows})
    assert len(fitted_days) == 4
    for day in fitted_days:
        assert [r["region_id"] for r in rows if r["date"] == day] == sorted(ids)
    text = (out / "county_estimates.csv").read_bytes().decode("utf-8")
    with open(out / "county_estimates.csv", newline="", encoding="utf-8") as fh:
        expected = io.StringIO()
        csv.writer(expected).writerows(csv.reader(fh))
    assert text == expected.getvalue()


@pytest.fixture(scope="module")
def cli_csvs(tmp_path_factory):
    """Every CSV the CLI writes; fit and naive read a panel whose ids need quoting.

    The fit's directory is two levels below one that does not exist yet.
    """
    root = tmp_path_factory.mktemp("dialect")
    assert main(SIM_ARGS + ["--output-dir", str(root / "sim")]) == 0
    ids = ("Lake, County", 'St. "Mary"', 'both, "of" them', "plain")
    counts = np.random.default_rng(5).integers(1, 30, size=(len(ids), 14))
    dates = tuple(datetime.date(2020, 3, 1) + datetime.timedelta(days=t) for t in range(14))
    write_panel(IncidencePanel(ids, dates, counts), root / "quoted.csv")
    for command, out in (("fit", "new/nested/fit"), ("naive", "naive")):
        rc = main([command, "--input", str(root / "quoted.csv"), "--output-dir", str(root / out)])
        assert rc == 0
    assert '"Lake, County"' in (root / "new/nested/fit/county_estimates.csv").read_text()
    return root


@pytest.mark.parametrize(
    "name",
    [
        "sim/panel.csv",
        "sim/truth.csv",
        "new/nested/fit/country_estimates.csv",
        "new/nested/fit/county_estimates.csv",
        "naive/naive_estimates.csv",
    ],
)
def test_every_output_csv_is_in_the_csv_writer_dialect(name, cli_csvs):
    path = cli_csvs / name
    with open(path, newline="", encoding="utf-8") as fh:
        rewritten = io.StringIO(newline="")
        csv.writer(rewritten).writerows(csv.reader(fh))
    assert path.read_bytes() == rewritten.getvalue().encode("utf-8")


@pytest.mark.parametrize(
    "weights, message",
    [
        ("tau,weight\n1,1\n2,x\n", ":3: expected tau,weight"),
        ("tau,weight\n1,1\n2\n", ":3: expected tau,weight"),
        ("tau,weight\n1,1\n2,-0.5\n", ": weights must be finite, nonnegative"),
        ("tau,weight\n0,1\n1,1\n", ": weight days must start at 1"),
        ("tau,weight\n1,0\n2,0\n", ": weights must be finite, nonnegative and not all zero"),
        ("tau,weight\n1,1\n1,2\n", ": weight day 1 is given twice"),
        ("tau,weight\n\n", ": no weights found"),
        ("tau,weight\n1,1\n3,1\n", ": weight days must be consecutive"),
    ],
    ids=[
        "not-a-number",
        "one-field",
        "negative",
        "tau-0",
        "all-zero",
        "repeated-tau",
        "header-only",
        "gap",
    ],
)
def test_malformed_weights_file_is_a_parse_error(weights, message, sim_dir, tmp_path, capsys):
    path = tmp_path / "w.csv"
    path.write_text(weights)
    out = tmp_path / "fit"
    rc = main(
        [
            "fit",
            "--input",
            str(sim_dir / "panel.csv"),
            "--output-dir",
            str(out),
            "--gen-time",
            f"weights:{path}",
        ]
    )
    assert rc == 2
    assert f"countyrt: {path}{message}" in capsys.readouterr().err
    assert not out.exists()


class TestSpecParsers:
    def test_schedule(self):
        assert parse_schedule("20:2.5,40:0.7") == ((20, 2.5), (40, 0.7))

    def test_gen_time_trapezoid(self):
        w = parse_gen_time("trapezoid:1,3,4,3")
        assert w.support_start == 1
        assert len(w.weights) == 10

    def test_gen_time_weights_file(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("tau,weight\n2,1\n3,2\n4,1\n")
        w = parse_gen_time(f"weights:{path}")
        assert w.support_start == 2
        np.testing.assert_allclose(w.weights, [0.25, 0.5, 0.25])

    def test_gen_time_weights_file_with_byte_order_mark(self, tmp_path):
        plain, marked = tmp_path / "w.csv", tmp_path / "bom.csv"
        plain.write_text("tau,weight\n2,1\n3,2\n4,1\n")
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        want, got = parse_gen_time(f"weights:{plain}"), parse_gen_time(f"weights:{marked}")
        assert got.support_start == want.support_start
        assert got.weights.tolist() == want.weights.tolist()

    def test_gen_time_unknown_kind(self):
        from countyrt.cli import UsageError

        with pytest.raises(UsageError):
            parse_gen_time("gamma:2,3")
