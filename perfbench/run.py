"""Layered benchmark of one `countyrt fit` run on a generated panel.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sim-default --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/workloads.py``): ``sim-default``,
``national-counts`` and ``us-counties``. Every step runs in a fresh
single-threaded interpreter (BLAS pools pinned to one thread), with CLI
defaults only, importing ``countyrt`` from ``src/`` of the checkout.

``--trace 0`` repeats an untraced fit for ``--seconds`` (at least three)
and reports the end-to-end metrics: the median fit wall time, the
throughput it implies, the median set-up time of three fresh set-ups,
the median peak resident memory of the fit processes, and the share of
fitted days that pass the independent check in ``perfbench/oracle.py``
(``pass_frac``; its complement, the failed share, is 0 on most seeds, so
the failed days and their base are given as ``failed`` and ``attempted``).
``--trace 1`` alternates traced and untraced fits for ``--seconds`` (at
least two traced, one untraced) and reports the per-layer metrics of
``perfbench/tracing.py`` with ``trace.overhead_s``; it also checks that
the traced runs give identical counts.

Every run checks the fit output outside the timed region and that all
repeated set-ups and fits wrote identical files. The second-to-last stdout
line is a ``{"meta": ...}`` object (versions, sizes, samples, failed days
with their base); the last line is the result object. Exit status 0 means
the outputs were correct; 1 that they were not; 2 that the benchmark could
not run (for example, no ``src/countyrt`` beside it).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import oracle  # noqa: E402

WORKLOADS = ("sim-default", "national-counts", "us-counties")
SETUP_RUNS = 3
MIN_FITS = 3
MIN_TRACED_FITS = 2
# Child processes must finish by this many seconds after start, leaving
# time for the check within the 180 s a run may take.
DEADLINE_S = 150.0
OUTPUT_FILES = ("country_estimates.csv", "county_estimates.csv")
# Counts two traced fits of one panel must reproduce exactly. fail_frac is
# covered by requiring byte-identical estimates from every fit.
DETERMINISTIC_COUNTS = ("kernels.calls", "optim.iterations_per_day", "inference.days_fitted")


class BenchmarkError(Exception):
    """The benchmark itself could not run."""


class Runner:
    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.pop("COUNTYRT_NUMBA", None)
        self.env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"

    def child(self, *args) -> dict:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchmarkError("out of time before " + " ".join(args[:1]))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "perfbench.child", *args],
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            raise BenchmarkError(f"{args[0]} step timed out") from None
        if proc.returncode != 0:
            raise BenchmarkError(f"{args[0]} step failed:\n{proc.stderr.strip()[-3000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def setups(self, workload: str, seed: int, trace: bool) -> tuple:
        """SETUP_RUNS fresh set-ups; returns (samples, csv path, errors)."""
        samples, errors = [], []
        flag = ["--trace"] if trace else []
        for n in range(SETUP_RUNS):
            csv = self.workdir / f"panel{n}.csv"
            samples.append(self.child("setup", workload, str(seed), str(csv), *flag))
            if n and csv.read_bytes() != (self.workdir / "panel0.csv").read_bytes():
                errors.append(f"set-up {n} wrote a different panel for the same seed")
        return samples, self.workdir / "panel0.csv", errors

    def fit(self, csv: Path, n: int, trace: bool) -> dict:
        out = self.workdir / f"fit{n}"
        sample = self.child("fit", str(csv), str(out), *(["--trace"] if trace else []))
        sample["outdir"] = out
        return sample


def _same_outputs(fits: list) -> bool:
    first = fits[0]["outdir"]
    return all(
        (f["outdir"] / name).read_bytes() == (first / name).read_bytes()
        for f in fits[1:]
        for name in OUTPUT_FILES
    )


def _fits(runner: Runner, csv: Path, seconds: float, trace: bool) -> list:
    """Fit ``csv`` repeatedly for ``seconds``; with ``trace``, every other fit is traced."""
    fits: list = []
    start = time.monotonic()
    while not fits or fits[-1]["rc"] == 0:
        time_up = time.monotonic() - start >= seconds
        traced = sum(1 for f in fits if "layers" in f)
        if trace and time_up and traced >= MIN_TRACED_FITS and len(fits) > traced:
            break
        if not trace and time_up and len(fits) >= MIN_FITS:
            break
        if fits and time.monotonic() + 1.5 * fits[-1]["wall_s"] > runner.deadline:
            break
        fits.append(runner.fit(csv, len(fits), trace and len(fits) % 2 == 0))
    return fits


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> tuple:
    runner = Runner(workdir, time.monotonic() + DEADLINE_S)
    setups, csv, errors = runner.setups(workload, seed, trace)
    fits = _fits(runner, csv, seconds, trace)
    shape = setups[0]
    expected_days = shape["days"] - oracle.BURN_IN_DAYS
    meta = {
        "workload": workload,
        "seed": seed,
        "python": fits[0]["python"],
        "numpy": fits[0]["numpy"],
        "scipy": fits[0]["scipy"],
        "backend": fits[0]["backend"],
        "nproc": len(os.sched_getaffinity(0)),
        "regions": shape["regions"],
        "panel_days": shape["days"],
        "max_count": shape["max_count"],
        "setup_s_samples": [s["setup_s"] for s in setups],
        "fit_wall_s_samples": [f["wall_s"] for f in fits],
        "fit_traced": ["layers" in f for f in fits],
    }
    if any(f["rc"] != 0 for f in fits):
        errors.append(f"countyrt fit exited with {[f['rc'] for f in fits]}")
        fitted, failed, failures = expected_days, expected_days, []
    else:
        check = oracle.check_fit(csv, fits[0]["outdir"])
        errors += check.errors
        if check.fitted_days != expected_days:
            errors.append(f"{check.fitted_days} fitted days, expected {expected_days}")
        if not _same_outputs(fits):
            errors.append("repeated fits of one panel wrote different estimates")
        fitted, failed, failures = check.fitted_days, check.failed_days, check.failures
    meta["fitted_days"] = fitted
    meta["failed_days"] = failed
    meta["fail_frac"] = failed / fitted if fitted else None
    meta["failures"] = [vars(f) for f in failures]

    if trace:
        traced = [f["layers"] for f in fits if "layers" in f]
        untraced = [f["wall_s"] for f in fits if "layers" not in f]
        for name in DETERMINISTIC_COUNTS:
            if len({t[name] for t in traced}) != 1:
                errors.append(f"traced runs disagree on {name}: {[t[name] for t in traced]}")
        metrics = {}
        for name in traced[0]:
            values = [t[name] for t in traced]
            if None in values or len(set(values)) == 1:
                metrics[name] = values[0]  # absent function, or a count
            else:
                metrics[name] = statistics.median(values)
        sim = [s["simulator.simulate_s"] for s in setups]
        metrics["simulator.simulate_s"] = None if None in sim else statistics.median(sim)
        traced_wall = statistics.median(f["wall_s"] for f in fits if "layers" in f)
        metrics["trace.overhead_s"] = traced_wall - statistics.median(untraced)
        meta["trace.overhead_s"] = metrics["trace.overhead_s"]
    else:
        wall = statistics.median(f["wall_s"] for f in fits)
        metrics = {
            "fit_wall_s": wall,
            "county_days_per_s": fitted * shape["regions"] / wall,
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "peak_rss_mb": statistics.median(f["peak_rss_mb"] for f in fits),
            "pass_frac": (fitted - failed) / fitted if fitted else 0.0,
        }
    meta["errors"] = errors
    units = _units()
    result = {
        "correct": not errors,
        "attempted": max(fitted, 1),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return meta, result


def _units() -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workdir = ROOT / ".bench_build" / "perfbench" / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        meta, result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except (BenchmarkError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
