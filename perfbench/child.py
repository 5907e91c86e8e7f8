"""One measured step of the benchmark, run in a fresh interpreter.

    python3 -m perfbench.child setup WORKLOAD SEED CSV [--trace]
    python3 -m perfbench.child fit CSV OUTDIR [--trace]

``setup`` times ``import countyrt`` (the first import of numpy and scipy
included), generating the workload's panel and writing its CSV. ``fit``
times one ``countyrt.cli.main(["fit", ...])`` call and reads the
process's peak resident memory. With ``--trace`` the layer spans are
recorded. Either prints one JSON object on stdout; ``countyrt`` must come
from ``src/`` of the checkout that holds this file.
"""

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]


def _import_countyrt():
    t0 = perf_counter()
    import countyrt
    import countyrt.cli

    elapsed = perf_counter() - t0
    origin = Path(countyrt.__file__).resolve()
    if not origin.is_relative_to(ROOT / "src"):
        raise SystemExit(f"countyrt imported from {origin}, not from {ROOT / 'src'}")
    return countyrt, elapsed


def setup(args) -> dict:
    countyrt, import_s = _import_countyrt()
    from perfbench import tracing, workloads

    tracer = tracing.Tracer()
    targets = [("simulator.simulate", countyrt.simulator, "simulate", None)]
    t0 = perf_counter()
    with tracer.installed(targets if args.trace else []):
        panel = workloads.WORKLOADS[args.workload](args.seed)
    t1 = perf_counter()
    countyrt.ingest.write_panel(panel, args.csv)
    t2 = perf_counter()
    simulate = tracer.span("simulator.simulate")
    return {
        "import_s": import_s,
        "generate_s": t1 - t0,
        "write_s": t2 - t1,
        "setup_s": import_s + (t2 - t0),
        "regions": panel.n_regions,
        "days": panel.n_days,
        "max_count": int(panel.counts.max()),
        "simulator.simulate_s": None if simulate is None else simulate.total_s,
    }


def fit(args) -> dict:
    countyrt, _ = _import_countyrt()
    import numpy
    import scipy

    from perfbench import tracing

    tracer = tracing.Tracer()
    counters = tracing.FitCounters()
    targets = tracing.fit_targets(
        countyrt.cli, countyrt.inference, countyrt.kernels, counters
    )
    argv = ["fit", "--input", args.csv, "--output-dir", args.outdir]
    with tracer.installed(targets if args.trace else []):
        t0 = perf_counter()
        rc = countyrt.cli.main(argv)
        wall_s = perf_counter() - t0
    out = Path(args.outdir)
    written = sum(f.stat().st_size for f in out.iterdir()) if out.is_dir() else 0
    result = {
        "rc": rc,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": getattr(countyrt.kernels, "BACKEND", None),
    }
    if args.trace:
        result["layers"] = tracing.fit_metrics(tracer, counters, written)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.child")
    sub = parser.add_subparsers(dest="step", required=True)
    p_setup = sub.add_parser("setup")
    p_setup.add_argument("workload")
    p_setup.add_argument("seed", type=int)
    p_setup.add_argument("csv")
    p_setup.add_argument("--trace", action="store_true")
    p_setup.set_defaults(func=setup)
    p_fit = sub.add_parser("fit")
    p_fit.add_argument("csv")
    p_fit.add_argument("outdir")
    p_fit.add_argument("--trace", action="store_true")
    p_fit.set_defaults(func=fit)
    args = parser.parse_args(argv)
    print(json.dumps(args.func(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
