"""The tracer records spans, tolerates absent functions and restores patches."""

import types

import numpy as np

from perfbench import tracing


def _fake_modules():
    kernels = types.SimpleNamespace(day_negloglik=lambda counts, phi, a, s, p: float(a))
    result = types.SimpleNamespace(x=np.zeros(3), fun=1.0, iterations=5, converged=True)

    def nelder_mead(objective, start, tol=1e-8, max_iter=2000):
        objective(start)
        objective(start)
        return result

    inference = types.SimpleNamespace(nelder_mead=nelder_mead)  # no numeric_hessian, ...

    def fit_panel(panel, w, config=None):
        objective = lambda u: inference.kernels.day_negloglik(np.zeros(4), np.ones(4), 1.0, 1.0, 0.1)  # noqa: E731
        first = inference.nelder_mead(objective, np.ones(3))
        inference.nelder_mead(objective, first.x)
        return [types.SimpleNamespace(skipped=False), types.SimpleNamespace(skipped=True)]

    inference.kernels = kernels
    cli = types.SimpleNamespace(fit_panel=fit_panel)  # no cmd_fit, load_panel, ...
    return cli, inference, kernels


def test_absent_functions_give_null_metrics_and_patches_are_restored():
    cli, inference, kernels = _fake_modules()
    originals = (cli.fit_panel, inference.nelder_mead, kernels.day_negloglik)
    tracer = tracing.Tracer()
    counters = tracing.FitCounters()
    with tracer.installed(tracing.fit_targets(cli, inference, kernels, counters)):
        assert cli.fit_panel is not originals[0]
        cli.fit_panel(None, None)
    assert (cli.fit_panel, inference.nelder_mead, kernels.day_negloglik) == originals
    assert not hasattr(inference, "numeric_hessian") and not hasattr(cli, "cmd_fit")

    metrics = tracing.fit_metrics(tracer, counters, bytes_written=10)
    assert metrics["optim.numeric_hessian_s"] is None
    assert metrics["optim.hessian_kernel_calls"] is None
    assert metrics["model.compute_phi_calls"] is None
    assert metrics["cli.cmd_fit_self_s"] is None
    assert metrics["ingest.rows_read"] is None
    assert metrics["inference.days_fitted"] == 1
    assert metrics["kernels.calls"] == 4
    assert metrics["kernels.calls_per_day"] == 4
    assert metrics["kernels.bytes_computed"] == 4 * 2 * 4 * 8
    assert metrics["optim.nelder_mead_calls"] == 2
    assert metrics["optim.iterations_per_day"] == 10
    assert metrics["optim.converged_ratio"] == 1.0
    # the second call restarts from the first optimum without improving it
    assert metrics["optim.restart_improved_ratio"] == 0.0


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    mod = types.SimpleNamespace()
    mod.inner = lambda: sum(range(20000))
    mod.outer = lambda: mod.inner() + mod.inner()
    with tracer.installed([("outer", mod, "outer", None), ("inner", mod, "inner", None)]):
        mod.outer()
    outer, inner = tracer.span("outer"), tracer.span("inner")
    assert inner.calls == 2 and inner.within["outer"] == 2
    assert abs(outer.self_s - (outer.total_s - inner.total_s)) < 1e-9


def test_unreadable_return_value_nulls_only_its_counts():
    tracer = tracing.Tracer()
    counters = tracing.FitCounters()
    mod = types.SimpleNamespace(load_panel=lambda path: None)  # changed return type
    with tracer.installed([("ingest.load_panel", mod, "load_panel", counters.on_load_panel)]):
        assert mod.load_panel("x") is None
    assert tracer.hook_failed == {"ingest.load_panel"}
    metrics = tracing.fit_metrics(tracer, counters, bytes_written=None)
    assert metrics["ingest.rows_read"] is None
    assert metrics["ingest.load_panel_s"] is not None
