"""Spans recorded around the calls into each countyrt layer.

The benchmark patches the public functions of each module on the attribute
its caller resolves (``countyrt.inference.nelder_mead``, not
``countyrt.optim.nelder_mead``), so the program itself is unchanged. A
name that a later refactor removes is recorded as missing, and every
metric derived from it is reported as ``None`` instead of stopping the
run. Patched attributes are restored when the ``installed`` block exits.

Spans are aggregated in memory per name: calls, total seconds, self
seconds (total minus the time covered by child spans), and how many calls
ran inside each enclosing span.
"""

from __future__ import annotations

import contextlib
import functools
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    within: Counter = field(default_factory=Counter)


class Tracer:
    def __init__(self):
        self.stats: dict = {}
        self.missing: set = set()
        self.hook_failed: set = set()  # spans whose return value was unreadable
        self._stack: list = []  # [name, seconds covered by child spans]

    def _wrap(self, name, fn, on_return):
        stats = self.stats.setdefault(name, SpanStats())
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                    for outer, _ in stack:
                        stats.within[outer] += 1
            if on_return is not None:
                try:
                    on_return(args, kwargs, result)
                except Exception:  # a changed signature must not break the fit
                    self.hook_failed.add(name)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, targets):
        """Patch each (span name, module, attribute, on_return) for the block."""
        patched = []
        try:
            for name, module, attr, on_return in targets:
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.add(name)
                    continue
                setattr(module, attr, self._wrap(name, fn, on_return))
                patched.append((module, attr, fn))
            yield self
        finally:
            for module, attr, fn in reversed(patched):
                setattr(module, attr, fn)

    def span(self, name):
        """Stats of a span that was installed, or None if its function is absent."""
        if name in self.missing:
            return None
        return self.stats.get(name, SpanStats())


class FitCounters:
    """Counts read from the return values of the traced calls."""

    def __init__(self):
        self.rows_read = None
        self.days_fitted = None
        self.nm_iterations = 0
        self.nm_converged = 0
        self.restarts = 0
        self.restarts_improved = 0
        self.kernel_values = 0  # float64 inputs read: counts and phi, K each
        self._last_nm = None

    def on_load_panel(self, args, kwargs, result):
        self.rows_read = result[1].rows_read

    def on_fit_panel(self, args, kwargs, result):
        self.days_fitted = sum(1 for fit in result if not fit.skipped)

    def on_kernel(self, args, kwargs, result):
        self.kernel_values += 2 * args[1].size

    def on_nelder_mead(self, args, kwargs, result):
        objective, start = args[0], args[1]
        tol = kwargs.get("tol", 1e-8)
        self.nm_iterations += result.iterations
        self.nm_converged += bool(result.converged)
        last = self._last_nm
        # A restart starts the same objective from the previous optimum.
        if last is not None and last[0] is objective and list(last[1]) == list(start):
            self.restarts += 1
            if last[2] - result.fun > tol:
                self.restarts_improved += 1
        self._last_nm = (objective, result.x, result.fun)


def fit_targets(cli, inference, kernels, counters: FitCounters) -> list:
    """The spans of one `countyrt fit` call, keyed by layer."""
    return [
        ("cli.cmd_fit", cli, "cmd_fit", None),
        ("ingest.load_panel", cli, "load_panel", counters.on_load_panel),
        ("inference.fit_panel", cli, "fit_panel", counters.on_fit_panel),
        ("inference.county_estimates", cli, "county_estimates", None),
        ("model.phi_matrix", inference, "phi_matrix", None),
        ("model.compute_phi", inference, "compute_phi", None),
        ("model.posterior", inference, "posterior", None),
        ("model.gamma_quantile", inference, "gamma_quantile", None),
        ("optim.nelder_mead", inference, "nelder_mead", counters.on_nelder_mead),
        ("optim.numeric_hessian", inference, "numeric_hessian", None),
        ("kernels.day_negloglik", kernels, "day_negloglik", counters.on_kernel),
    ]


def _ratio(num, den):
    if num is None or den is None or den == 0:
        return None
    return num / den


def fit_metrics(tracer: Tracer, counters: FitCounters, bytes_written) -> dict:
    """Per-layer metrics of one traced fit; None where a function is absent."""

    def get(name, attr):
        span = tracer.span(name)
        return None if span is None else getattr(span, attr)

    def counted(name, value):
        """A count read by a return-value hook, if that hook could read it."""
        ok = tracer.span(name) is not None and name not in tracer.hook_failed
        return value if ok else None

    kernel = tracer.span("kernels.day_negloglik")
    hessian = tracer.span("optim.numeric_hessian")
    nm = tracer.span("optim.nelder_mead")
    if "optim.nelder_mead" in tracer.hook_failed:
        nm = None
    days = counted("inference.fit_panel", counters.days_fitted)
    kernel_calls = get("kernels.day_negloglik", "calls")
    return {
        "ingest.load_panel_s": get("ingest.load_panel", "total_s"),
        "ingest.rows_read": counted("ingest.load_panel", counters.rows_read),
        "model.phi_matrix_s": get("model.phi_matrix", "total_s"),
        "model.compute_phi_calls": get("model.compute_phi", "calls"),
        "model.compute_phi_s": get("model.compute_phi", "total_s"),
        "model.posterior_calls": get("model.posterior", "calls"),
        "model.gamma_quantile_calls": get("model.gamma_quantile", "calls"),
        "model.gamma_quantile_s": get("model.gamma_quantile", "total_s"),
        "kernels.calls": kernel_calls,
        "kernels.calls_per_day": _ratio(kernel_calls, days),
        "kernels.s": get("kernels.day_negloglik", "total_s"),
        "kernels.us_per_call": _ratio(
            None if kernel is None else kernel.total_s * 1e6, kernel_calls
        ),
        "kernels.bytes_computed": counted("kernels.day_negloglik", counters.kernel_values * 8),
        "optim.nelder_mead_calls": get("optim.nelder_mead", "calls"),
        "optim.nelder_mead_s": get("optim.nelder_mead", "total_s"),
        "optim.iterations_per_day": None if nm is None else _ratio(counters.nm_iterations, days),
        "optim.converged_ratio": None if nm is None else _ratio(counters.nm_converged, nm.calls),
        "optim.restart_improved_ratio": (
            None if nm is None else _ratio(counters.restarts_improved, counters.restarts)
        ),
        "optim.numeric_hessian_s": get("optim.numeric_hessian", "total_s"),
        "optim.hessian_kernel_calls": (
            None
            if kernel is None or hessian is None
            else kernel.within["optim.numeric_hessian"]
        ),
        "inference.fit_panel_s": get("inference.fit_panel", "total_s"),
        "inference.fit_self_s": get("inference.fit_panel", "self_s"),
        "inference.county_estimates_s": get("inference.county_estimates", "total_s"),
        "inference.county_self_s": get("inference.county_estimates", "self_s"),
        "inference.days_fitted": days,
        "cli.cmd_fit_self_s": get("cli.cmd_fit", "self_s"),
        "cli.bytes_written": bytes_written,
    }
