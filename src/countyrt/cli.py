"""Command-line interface: simulate | fit | naive.

All commands write plot-ready CSV plus a meta.json recording the resolved
options, so a run can be reproduced exactly. Each command's ``*_SPEC``
table (key -> converter, default) is the one list of its options: the
parser's flags and the config keys come from it. A simple key=value config
file can supply any long option but --input, --output-dir and --config;
an unknown or repeated key is an error, and explicit flags win. Input
files are UTF-8, with or without a byte-order mark.

Exit codes: 0 success, 1 usage error, 2 IO/parse error, 3 internal
numeric failure that prevented any output.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import datetime
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .inference import CountyPosteriors, DayFit, FitConfig, county_estimates, fit_panel
from .ingest import PanelFormatError, csv_field, load_panel, write_csv, write_panel
from .model import GenerationTimePmf, naive_series, trapezoid_pmf
from .simulator import SimConfig, simulate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NUMERIC = 3

DEFAULT_GEN_TIME = "trapezoid:1,3,4,3"
DEFAULT_SCHEDULE = "20:2.5,40:0.7,40:1.2"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def parse_gen_time(spec: str) -> GenerationTimePmf:
    """"trapezoid:start,up,plateau,down" or "weights:<csv with tau,weight>"."""
    kind, _, rest = spec.partition(":")
    if kind == "trapezoid":
        try:
            start, up, flat, down = (int(x) for x in rest.split(","))
            return trapezoid_pmf(start, up, flat, down)
        except ValueError as exc:
            raise UsageError(f"bad trapezoid spec {spec!r}: {exc}") from None
    if kind == "weights":
        rows = []
        with open(rest, newline="", encoding="utf-8-sig") as fh:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                if not row or row[0].strip().lower() == "tau":
                    continue
                try:
                    rows.append((int(row[0]), float(row[1])))
                except (ValueError, IndexError):
                    raise PanelFormatError(
                        f"{rest}:{lineno}: expected tau,weight: {row}"
                    ) from None
        if not rows:
            raise PanelFormatError(f"{rest}: no weights found")
        rows.sort()
        taus = [t for t, _ in rows]
        repeated = next((t for t, u in zip(taus, taus[1:]) if t == u), None)
        if repeated is not None:
            raise PanelFormatError(f"{rest}: weight day {repeated} is given twice")
        if taus != list(range(taus[0], taus[0] + len(taus))):
            raise PanelFormatError(f"{rest}: weight days must be consecutive")
        if taus[0] < 1:
            raise PanelFormatError(f"{rest}: weight days must start at 1 or later")
        w = np.array([v for _, v in rows])
        if not (np.all(np.isfinite(w)) and np.all(w >= 0) and w.sum() > 0):
            raise PanelFormatError(f"{rest}: weights must be finite, nonnegative and not all zero")
        return GenerationTimePmf(taus[0], w / w.sum())
    raise UsageError(f"unknown generation-time spec {spec!r}")


def parse_schedule(spec: str) -> tuple:
    """"20:2.5,40:0.7" -> ((20, 2.5), (40, 0.7))."""
    out = []
    try:
        for part in spec.split(","):
            days, r = part.split(":")
            out.append((int(days), float(r)))
    except ValueError:
        raise UsageError(f"bad schedule spec {spec!r}") from None
    return tuple(out)


def _read_config(path, spec: dict) -> dict:
    """The key=value lines of a config file; a key not in ``spec``, or given
    twice, is an error."""
    cfg = {}
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise PanelFormatError(f"{path}:{lineno}: expected key=value")
            name, _, value = line.partition("=")
            key = name.strip().replace("-", "_")
            if key not in spec:
                raise PanelFormatError(f"{path}:{lineno}: unknown option {name.strip()!r}")
            if key in cfg:
                raise PanelFormatError(f"{path}:{lineno}: option {name.strip()!r} is given twice")
            cfg[key] = value.strip()
    return cfg


def _resolve(args) -> dict:
    """Merge CLI flags (highest), config file, and defaults."""
    cfg = _read_config(args.config, args.spec) if args.config else {}
    out = {}
    for key, (convert, default) in args.spec.items():
        val = getattr(args, key)
        if val is None:
            val = cfg.get(key)
        if val is None:
            out[key] = default
            continue
        try:
            out[key] = convert(val)
        except ValueError:
            raise UsageError(f"invalid value for --{key.replace('_', '-')}: {val!r}") from None
    return out


@contextlib.contextmanager
def _user_values():
    """Report a ValueError from building objects out of option values as a usage error."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _int_at_least(low: int):
    """A spec converter for integers >= ``low``."""

    def convert(s: str) -> int:
        n = int(s)
        if n < low:
            raise ValueError
        return n

    return convert


def _fmt(x) -> str:
    return "" if x is None else f"{x:.10g}"


def _report_shift(opts: dict, panel) -> datetime.timedelta:
    """The --backdate-days shift to infection dates; a usage error before year 1."""
    days = opts["backdate_days"]
    try:
        shift = datetime.timedelta(days=days)
        panel.dates[0] - shift
    except OverflowError:
        raise UsageError(f"--backdate-days {days} moves {panel.dates[0]} before year 1") from None
    return shift


def _load_panel(path):
    """Load a panel, printing each ingest warning to stderr."""
    panel, report = load_panel(path)
    for warning in report.warnings:
        print(f"countyrt: warning: {warning}", file=sys.stderr)
    return panel


SIMULATE_SPEC = {
    "k": (int, 20),
    "sigma": (float, 0.14),
    "initial_cases": (int, 400),
    "schedule": (str, DEFAULT_SCHEDULE),
    "gen_time": (str, DEFAULT_GEN_TIME),
    "seed": (int, 0),
    "replicates": (_int_at_least(1), 1),
    "start_date": (lambda s: datetime.date.fromisoformat(s).isoformat(), "2020-03-01"),
    "county_r_scale": (float, None),
}

FIT_SPEC = {
    "gen_time": (str, DEFAULT_GEN_TIME),
    "backdate_days": (_int_at_least(0), 7),
    "level": (float, 0.95),
    "quantiles": (str, "0.05,0.5,0.95"),
}

NAIVE_SPEC = {
    "gen_time": (str, DEFAULT_GEN_TIME),
    "backdate_days": (_int_at_least(0), 7),
}


def _run_one_simulation(config: SimConfig, outdir: Path) -> None:
    result = simulate(config)
    rows = zip([day.isoformat() for day in result.truth_dates], result.true_r.tolist())
    write_csv(outdir / "truth.csv", ("date", "true_r"), "%s,%.10g\r\n", [rows])
    write_panel(result.panel, outdir / "panel.csv")


def cmd_simulate(opts: dict) -> None:
    w = parse_gen_time(opts["gen_time"])  # a bad weights file stays a parse error
    with _user_values():
        base = SimConfig(
            k=opts["k"],
            sigma=opts["sigma"],
            schedule=parse_schedule(opts["schedule"]),
            initial_cases=opts["initial_cases"],
            w=w,
            seed=opts["seed"],
            start_date=datetime.date.fromisoformat(opts["start_date"]),
            county_r_scale=opts["county_r_scale"],
        )
    outdir = Path(opts["output_dir"])
    if opts["replicates"] == 1:
        _run_one_simulation(base, outdir)
    else:
        seeds = np.random.SeedSequence(opts["seed"]).generate_state(opts["replicates"])
        for i, seed in enumerate(seeds):
            rep = dataclasses.replace(base, seed=int(seed))
            _run_one_simulation(rep, outdir / f"rep{i:03d}")


def _parse_quantiles(spec: str) -> tuple:
    """Quantile probabilities from "0.05,0.5,0.95" and their column names (q05, ...)."""
    try:
        probs = tuple(float(q) for q in spec.split(","))
    except ValueError:
        raise UsageError(f"--quantiles {spec!r} is not a list of numbers") from None
    if any(not 0.0 < q < 1.0 for q in probs):
        raise UsageError("--quantiles must be in (0, 1)")
    names = [f"q{int(round(q * 100)):02d}" for q in probs]
    if len(set(names)) != len(names):
        raise UsageError(f"--quantiles {spec!r} gives duplicate columns {names}")
    return probs, names


def _county_blocks(counties: CountyPosteriors, shift: datetime.timedelta):
    """One block of ``county_estimates.csv`` rows per fitted day, in whole columns."""
    ids = [csv_field(r) for r in counties.region_ids]
    for d, day in enumerate(counties.dates):
        yield zip(
            itertools.repeat((day - shift).isoformat()),
            ids,
            counties.lambda_c[d].tolist(),
            counties.cases[d].tolist(),
            counties.mean[d].tolist(),
            *counties.quantiles[d].T.tolist(),
        )


def _country_row(fit: DayFit, shift: datetime.timedelta) -> tuple:
    """One ``country_estimates.csv`` row; a skipped day leaves the numbers blank."""
    day, p = (fit.date - shift).isoformat(), fit.params
    if fit.skipped:
        return (day, "", "", "", "", "", "", "", fit.skip_reason)
    lo, hi = fit.ci if fit.ci is not None else (None, None)
    numbers = [_fmt(x) for x in (p.a, p.s, p.p, fit.r_tilde, lo, hi)]
    return (day, *numbers, "true" if p.converged else "false", "")


def cmd_fit(opts: dict) -> None:
    quantile_probs, q_names = _parse_quantiles(opts["quantiles"])
    with _user_values():
        config = FitConfig(level=opts["level"], quantile_probs=quantile_probs)
    w = parse_gen_time(opts["gen_time"])
    panel = _load_panel(opts["input"])
    if panel.n_regions < 2:
        raise PanelFormatError(f"{opts['input']}: fitting requires at least 2 regions")
    shift = _report_shift(opts, panel)

    fits = fit_panel(panel, w, config)
    counties = county_estimates(panel, w, fits, config)
    outdir = Path(opts["output_dir"])
    header = "date,a_hat,s_hat,p_hat,r_tilde,ci_lower,ci_upper,converged,skipped_reason".split(",")
    rows = [_country_row(f, shift) for f in fits]
    write_csv(outdir / "country_estimates.csv", header, "%s," * 8 + "%s\r\n", [rows])
    header = ["date", "region_id", "lambda", "cases", "post_mean", *q_names]
    row_format = "%s,%s,%.10g,%d,%.10g" + ",%.10g" * len(q_names) + "\r\n"
    write_csv(outdir / "county_estimates.csv", header, row_format, _county_blocks(counties, shift))


def cmd_naive(opts: dict) -> None:
    w = parse_gen_time(opts["gen_time"])
    panel = _load_panel(opts["input"])
    shift = _report_shift(opts, panel)
    country, phi, r_hat = naive_series(panel, w)
    dates = [(day - shift).isoformat() for day in panel.dates]
    rows = zip(dates, country.tolist(), map(_fmt, phi.tolist()), map(_fmt, r_hat))
    path = Path(opts["output_dir"]) / "naive_estimates.csv"
    write_csv(path, ("date", "i_t", "phi_t", "r_hat"), "%s,%d,%s,%s\r\n", [rows])


def build_parser() -> _Parser:
    """One subcommand per (name, help, spec, command); each spec key is a --flag."""
    parser = _Parser(prog="countyrt", description=__doc__)
    parser.add_argument("--version", action="version", version=f"countyrt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = (  # built per call, so each command is the module's attribute at that time
        ("simulate", "run the torus outbreak simulator", SIMULATE_SPEC, cmd_simulate),
        ("fit", "fit daily (a, s, p) and county posteriors", FIT_SPEC, cmd_fit),
        ("naive", "country-level ratio estimator", NAIVE_SPEC, cmd_naive),
    )
    for name, summary, spec, command in commands:
        cmd = sub.add_parser(name, help=summary)
        if name != "simulate":
            cmd.add_argument("--input", required=True)
        cmd.add_argument("--output-dir", required=True)
        cmd.add_argument("--config")
        for key in spec:
            cmd.add_argument("--" + key.replace("_", "-"))
        cmd.set_defaults(func=command, spec=spec)
    return parser


def main(argv=None) -> int:
    """Resolve the options, run the command, then record them in meta.json."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        opts = _resolve(args)
        if "input" in args:
            opts["input"] = args.input
        opts["output_dir"] = str(Path(args.output_dir))
        args.func(opts)
        meta = dict(tool="countyrt", version=__version__, command=args.command, options=opts)
        Path(args.output_dir, "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
        return EXIT_OK
    except UsageError as exc:
        print(f"countyrt: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, PanelFormatError) as exc:
        print(f"countyrt: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:  # numeric failure that prevented output
        print(f"countyrt: internal error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
