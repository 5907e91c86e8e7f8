"""The benchmark's traced metrics of one in-process `countyrt fit` are all numbers.

``perfbench/tracing.py`` patches countyrt functions by name. It reports a
metric as None when a patched name is missing, or when a ratio's
denominator is 0 (no kernel call, no Nelder-Mead call, no restart); the
traced benchmark run then fails its no-null check. This test fails first.
"""

import math

import pytest

from countyrt import cli, inference, kernels
from countyrt.ingest import write_panel
from countyrt.simulator import SimConfig, simulate
from perfbench import tracing, workloads

PANELS = {
    "national-counts": lambda: workloads.national_counts(1),
    "small-torus": lambda: simulate(
        SimConfig(k=5, initial_cases=100, schedule=((25, 1.3),), seed=1)
    ).panel,
}


@pytest.mark.parametrize("name", PANELS)
def test_every_traced_metric_is_a_finite_number(name, tmp_path):
    csv = tmp_path / "panel.csv"
    write_panel(PANELS[name](), csv)
    out = tmp_path / "fit"
    tracer = tracing.Tracer()
    counters = tracing.FitCounters()
    with tracer.installed(tracing.fit_targets(cli, inference, kernels, counters)):
        assert cli.main(["fit", "--input", str(csv), "--output-dir", str(out)]) == 0
    written = sum(f.stat().st_size for f in out.iterdir())
    metrics = tracing.fit_metrics(tracer, counters, written)
    not_numbers = {
        name: value
        for name, value in metrics.items()
        if not (isinstance(value, (int, float)) and math.isfinite(value))
    }
    assert not not_numbers
    assert metrics["inference.days_fitted"] > 0
