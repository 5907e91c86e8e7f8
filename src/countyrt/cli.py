"""Command-line interface: simulate | fit | naive.

All commands write plot-ready CSV plus a meta.json recording the resolved
options, so a run can be reproduced exactly. A simple key=value config
file can supply any long option but --input, --output-dir and --config;
an unknown key is an error, and explicit flags win.

Exit codes: 0 success, 1 usage error, 2 IO/parse error, 3 internal
numeric failure that prevented any output.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import io
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .inference import CountyPosteriors, FitConfig, backdate, county_estimates, fit_panel
from .ingest import PanelFormatError, load_panel, write_panel
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
        except ValueError:
            raise UsageError(f"bad trapezoid spec {spec!r}") from None
        return trapezoid_pmf(start, up, flat, down)
    if kind == "weights":
        rows = []
        with open(rest, newline="", encoding="utf-8") as fh:
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
    """The key=value lines of a config file; a key not in ``spec`` is an error."""
    cfg = {}
    with open(path, encoding="utf-8") as fh:
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
            cfg[key] = value.strip()
    return cfg


def _resolve(args, spec: dict) -> dict:
    """Merge CLI flags (highest), config file, and defaults."""
    cfg = _read_config(args.config, spec) if getattr(args, "config", None) else {}
    out = {}
    for key, (convert, default) in spec.items():
        val = getattr(args, key, None)
        if val is None and key in cfg:
            val = cfg[key]
        if val is None:
            out[key] = default
        elif isinstance(val, str):
            try:
                out[key] = convert(val)
            except ValueError:
                raise UsageError(f"invalid value for --{key.replace('_', '-')}: {val!r}") from None
        else:
            out[key] = val
    return out


def _fmt(x) -> str:
    return "" if x is None else f"{x:.10g}"


def _write_meta(outdir: Path, command: str, options: dict) -> None:
    meta = {
        "tool": "countyrt",
        "version": __version__,
        "command": command,
        "options": {
            k: (v.isoformat() if isinstance(v, datetime.date) else v)
            for k, v in options.items()
        },
    }
    (outdir / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")


def _load_panel(path):
    """Load a panel, printing each ingest warning to stderr."""
    panel, report = load_panel(path)
    for warning in report.warnings:
        print(f"countyrt: warning: {warning}", file=sys.stderr)
    return panel


def _parse_date(s: str) -> datetime.date:
    try:
        return datetime.date.fromisoformat(s)
    except ValueError:
        raise UsageError(f"invalid date {s!r}") from None


SIMULATE_SPEC = {
    "k": (int, 20),
    "sigma": (float, 0.14),
    "initial_cases": (int, 400),
    "schedule": (str, DEFAULT_SCHEDULE),
    "gen_time": (str, DEFAULT_GEN_TIME),
    "seed": (int, 0),
    "replicates": (int, 1),
    "start_date": (str, "2020-03-01"),
    "county_r_scale": (float, None),
}

FIT_SPEC = {
    "gen_time": (str, DEFAULT_GEN_TIME),
    "backdate_days": (int, 7),
    "level": (float, 0.95),
    "quantiles": (str, "0.05,0.5,0.95"),
}

NAIVE_SPEC = {
    "gen_time": (str, DEFAULT_GEN_TIME),
    "backdate_days": (int, 7),
}


def _run_one_simulation(config: SimConfig, outdir: Path) -> None:
    result = simulate(config)
    outdir.mkdir(parents=True, exist_ok=True)
    write_panel(result.panel, outdir / "panel.csv")
    with open(outdir / "truth.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "true_r"])
        for day, r in zip(result.truth_dates, result.true_r):
            writer.writerow([day.isoformat(), _fmt(float(r))])


def cmd_simulate(args) -> int:
    opts = _resolve(args, SIMULATE_SPEC)
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    base = SimConfig(
        k=opts["k"],
        sigma=opts["sigma"],
        schedule=parse_schedule(opts["schedule"]),
        initial_cases=opts["initial_cases"],
        w=parse_gen_time(opts["gen_time"]),
        seed=opts["seed"],
        start_date=_parse_date(opts["start_date"]),
        county_r_scale=opts["county_r_scale"],
    )
    if opts["replicates"] <= 1:
        _run_one_simulation(base, outdir)
    else:
        seeds = np.random.SeedSequence(opts["seed"]).generate_state(opts["replicates"])
        for i, seed in enumerate(seeds):
            rep = dataclasses.replace(base, seed=int(seed))
            _run_one_simulation(rep, outdir / f"rep{i:03d}")
    _write_meta(outdir, "simulate", {**opts, "output_dir": str(outdir)})
    return EXIT_OK


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


def _csv_field(value: str) -> str:
    """``value`` as ``csv.writer`` writes it in a row, quoted where it must be."""
    buf = io.StringIO()
    csv.writer(buf).writerow([value, ""])
    return buf.getvalue()[: -len(",\r\n")]


def _write_county_csv(
    path, counties: CountyPosteriors, q_names: list, shift: datetime.timedelta
) -> None:
    """One row per (day, county), in the bytes ``csv.writer`` and ``_fmt`` give.

    Each day's rows come from one ``%`` format over whole columns; numbers
    use ``%.10g`` like ``_fmt``, and region ids are quoted once, not per row.
    """
    row = "%s,%s,%.10g,%d,%.10g" + ",%.10g" * len(q_names) + "\r\n"
    ids = [_csv_field(r) for r in counties.region_ids]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["date", "region_id", "lambda", "cases", "post_mean"] + q_names)
        for d, day in enumerate(counties.dates):
            columns = zip(
                itertools.repeat((day - shift).isoformat()),
                ids,
                counties.lambda_c[d].tolist(),
                counties.cases[d].tolist(),
                counties.mean[d].tolist(),
                *counties.quantiles[d].T.tolist(),
            )
            fh.write("".join(map(row.__mod__, columns)))


def cmd_fit(args) -> int:
    opts = _resolve(args, FIT_SPEC)
    if not 0.0 < opts["level"] < 1.0:
        raise UsageError("--level must be in (0, 1)")
    if opts["backdate_days"] < 0:
        raise UsageError("--backdate-days must be >= 0")
    quantile_probs, q_names = _parse_quantiles(opts["quantiles"])
    w = parse_gen_time(opts["gen_time"])
    panel = _load_panel(args.input)
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)

    config = FitConfig(level=opts["level"], quantile_probs=quantile_probs)
    fits = fit_panel(panel, w, config)
    counties = county_estimates(panel, w, fits, config)
    shift = datetime.timedelta(days=opts["backdate_days"])
    fits = backdate(fits, opts["backdate_days"])

    with open(outdir / "country_estimates.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
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
        )
        for fit in fits:
            if fit.skipped or fit.params is None:
                writer.writerow(
                    [fit.date.isoformat(), "", "", "", "", "", "", "", fit.skip_reason]
                )
            else:
                lo, hi = fit.ci if fit.ci is not None else (None, None)
                writer.writerow(
                    [
                        fit.date.isoformat(),
                        _fmt(fit.params.a),
                        _fmt(fit.params.s),
                        _fmt(fit.params.p),
                        _fmt(fit.r_tilde),
                        _fmt(lo),
                        _fmt(hi),
                        "true" if fit.params.converged else "false",
                        "",
                    ]
                )

    _write_county_csv(outdir / "county_estimates.csv", counties, q_names, shift)
    _write_meta(
        outdir,
        "fit",
        {**opts, "input": str(args.input), "output_dir": str(outdir)},
    )
    return EXIT_OK


def cmd_naive(args) -> int:
    opts = _resolve(args, NAIVE_SPEC)
    if opts["backdate_days"] < 0:
        raise UsageError("--backdate-days must be >= 0")
    w = parse_gen_time(opts["gen_time"])
    panel = _load_panel(args.input)
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    shift = datetime.timedelta(days=opts["backdate_days"])

    country, phi, r_hat = naive_series(panel, w)
    with open(outdir / "naive_estimates.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "i_t", "phi_t", "r_hat"])
        for t, day in enumerate(panel.dates):
            writer.writerow(
                [
                    (day - shift).isoformat(),
                    int(country[t]),
                    _fmt(phi[t]),
                    _fmt(r_hat[t]),
                ]
            )
    _write_meta(
        outdir,
        "naive",
        {**opts, "input": str(args.input), "output_dir": str(outdir)},
    )
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="countyrt", description=__doc__)
    parser.add_argument("--version", action="version", version=f"countyrt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the torus outbreak simulator")
    sim.add_argument("--output-dir", required=True)
    sim.add_argument("--config")
    for flag in ("--k", "--initial-cases", "--seed", "--replicates"):
        sim.add_argument(flag, type=str)
    sim.add_argument("--sigma", type=str)
    sim.add_argument("--schedule", type=str)
    sim.add_argument("--gen-time", type=str)
    sim.add_argument("--start-date", type=str)
    sim.add_argument("--county-r-scale", type=str)
    sim.set_defaults(func=cmd_simulate)

    fit = sub.add_parser("fit", help="fit daily (a, s, p) and county posteriors")
    fit.add_argument("--input", required=True)
    fit.add_argument("--output-dir", required=True)
    fit.add_argument("--config")
    fit.add_argument("--gen-time", type=str)
    fit.add_argument("--backdate-days", type=str)
    fit.add_argument("--level", type=str)
    fit.add_argument("--quantiles", type=str)
    fit.set_defaults(func=cmd_fit)

    naive = sub.add_parser("naive", help="country-level ratio estimator")
    naive.add_argument("--input", required=True)
    naive.add_argument("--output-dir", required=True)
    naive.add_argument("--config")
    naive.add_argument("--gen-time", type=str)
    naive.add_argument("--backdate-days", type=str)
    naive.set_defaults(func=cmd_naive)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
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
