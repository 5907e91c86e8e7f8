import math

import numpy as np
import pytest

from countyrt import cli, kernels
from countyrt.inference import _moment_start, _pinv_information, from_transformed, into_box
from countyrt.model import phi_matrix
from countyrt.optim import OptimResult, nelder_mead, numeric_hessian
from countyrt.simulator import SimConfig, simulate


# The numpy implementation that the float simplex replaced, kept verbatim
# as the reference: the float version must take the same path to the
# same bits.
def numpy_nelder_mead(objective, start, tol: float = 1e-8, max_iter: int = 2000) -> OptimResult:
    """Minimize with the classic simplex moves (reflect 1, expand 2,
    contract 0.5, shrink 0.5).

    Terminates when both the simplex size (inf-norm of the vertices around
    the best one) and the objective spread drop below ``tol``, or at
    ``max_iter``. Non-finite objective values mid-run are treated as +inf;
    a non-finite value at the start raises.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    x0 = np.asarray(start, dtype=np.float64).copy()
    n = x0.size

    def safe(x):
        v = objective(x)
        return float(v) if math.isfinite(v) else math.inf

    f0 = objective(x0)
    if not math.isfinite(f0):
        raise ValueError("objective is not finite at the starting point")

    verts = [x0]
    for j in range(n):
        xj = x0.copy()
        xj[j] += 0.05 * (1.0 + abs(x0[j]))
        verts.append(xj)
    simplex = np.array(verts)
    fvals = np.array([f0] + [safe(v) for v in verts[1:]])

    iterations = 0
    converged = False
    while iterations < max_iter:
        order = np.argsort(fvals, kind="stable")
        simplex = simplex[order]
        fvals = fvals[order]

        size = float(np.max(np.abs(simplex[1:] - simplex[0])))
        spread = fvals[-1] - fvals[0] if math.isfinite(fvals[-1]) else math.inf
        if size < tol and spread < tol:
            converged = True
            break

        iterations += 1
        centroid = simplex[:-1].mean(axis=0)
        xr = centroid + (centroid - simplex[-1])
        fr = safe(xr)
        if fr < fvals[0]:
            xe = centroid + 2.0 * (centroid - simplex[-1])
            fe = safe(xe)
            if fe < fr:
                simplex[-1], fvals[-1] = xe, fe
            else:
                simplex[-1], fvals[-1] = xr, fr
        elif fr < fvals[-2]:
            simplex[-1], fvals[-1] = xr, fr
        else:
            if fr < fvals[-1]:
                xc = centroid + 0.5 * (xr - centroid)
                fc = safe(xc)
                accept = fc <= fr
            else:
                xc = centroid + 0.5 * (simplex[-1] - centroid)
                fc = safe(xc)
                accept = fc < fvals[-1]
            if accept:
                simplex[-1], fvals[-1] = xc, fc
            else:
                for j in range(1, n + 1):
                    simplex[j] = simplex[0] + 0.5 * (simplex[j] - simplex[0])
                    fvals[j] = safe(simplex[j])

    best = int(np.argmin(fvals))
    return OptimResult(
        x=simplex[best].copy(),
        fun=float(fvals[best]),
        iterations=iterations,
        converged=converged,
    )


def rosenbrock(x):
    return sum(
        100.0 * (x[i + 1] - x[i] ** 2) ** 2 + (1 - x[i]) ** 2
        for i in range(len(x) - 1)
    )


def inf_beyond_two(x):
    if x[0] > 2.0:
        return float("inf")
    return (x[0] - 1.9) ** 2 + x[1] ** 2 + x[2] ** 2


def l1_plus_sine(seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(3, 3))
    b = rng.normal(size=3)
    return (lambda x: float(np.sum(np.abs(A @ x - b)) + np.sin(x[0]))), rng.normal(size=3)


REFERENCE_CASES = {
    "quadratic-3d": (lambda x: np.sum((x - 1.0) ** 2), np.zeros(3), {}),
    "rosenbrock-3d": (rosenbrock, np.array([-1.2, 1.0, 1.0]), {"max_iter": 5000}),
    "constant": (lambda x: 5.0, np.array([0.3, -0.7, 2.0]), {}),
    "inf-region": (inf_beyond_two, np.zeros(3), {}),
    "quadratic-1d": (lambda x: (x[0] - 0.3) ** 2 + 2.0, np.array([4.0]), {}),
    "quadratic-5d": (
        lambda x: float(np.sum(np.arange(1.0, 6.0) * (x - np.linspace(-1, 1, 5)) ** 2)),
        np.full(5, 0.5),
        {},
    ),
    "rosenbrock-max-iter": (rosenbrock, np.array([-1.2, 1.0, 1.0]), {"max_iter": 40}),
    **{
        f"l1-sine-{seed}": (*l1_plus_sine(seed), {"max_iter": 150})
        for seed in range(3)
    },
}


def assert_same_result(got, ref):
    assert np.array_equal(got.x, ref.x)
    assert got.fun == ref.fun
    assert got.iterations == ref.iterations
    assert got.converged == ref.converged


@pytest.mark.parametrize("case", REFERENCE_CASES)
def test_float_simplex_matches_numpy_reference(case):
    objective, start, options = REFERENCE_CASES[case]
    got = nelder_mead(objective, start, **options)
    assert isinstance(got.x, np.ndarray) and isinstance(got.fun, float)
    assert_same_result(got, numpy_nelder_mead(objective, start, **options))


@pytest.fixture(scope="module")
def default_day_data():
    panel = simulate(SimConfig(seed=1)).panel
    phi = phi_matrix(panel, cli.parse_gen_time(cli.DEFAULT_GEN_TIME))
    return panel.counts.astype(np.float64), phi


# t = 34 runs onto the a -> inf ridge with p at its clamp; the others
# end inside
@pytest.mark.parametrize("t", [10, 34, 95])
def test_float_simplex_matches_numpy_reference_on_fitted_days(default_day_data, t):
    counts = np.ascontiguousarray(default_day_data[0][:, t])
    phi = np.ascontiguousarray(default_day_data[1][:, t])
    constants = kernels.DayConstants(counts, phi)

    def objective(u):
        return kernels.day_negloglik(counts, phi, *from_transformed(into_box(u)), constants)

    start = _moment_start(counts, phi)
    # the first run and the restart from its optimum, as the fit makes them
    for _ in range(2):
        got = nelder_mead(objective, start)
        assert_same_result(got, numpy_nelder_mead(objective, start))
        start = got.x


class TestNelderMead:
    def test_convex_quadratic(self):
        res = nelder_mead(lambda x: np.sum((x - 1.0) ** 2), np.zeros(3))
        assert res.converged
        np.testing.assert_allclose(res.x, np.ones(3), atol=1e-5)

    def test_rosenbrock_3d(self):
        res = nelder_mead(rosenbrock, np.array([-1.2, 1.0, 1.0]), max_iter=5000)
        np.testing.assert_allclose(res.x, np.ones(3), atol=1e-3)

    def test_constant_objective(self):
        start = np.array([0.3, -0.7, 2.0])
        res = nelder_mead(lambda x: 5.0, start)
        assert res.converged
        np.testing.assert_allclose(res.x, start)

    def test_never_worse_than_start(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            A = rng.normal(size=(3, 3))
            b = rng.normal(size=3)

            def obj(x):
                return float(np.sum(np.abs(A @ x - b)) + np.sin(x[0]))

            start = rng.normal(size=3)
            res = nelder_mead(obj, start, max_iter=150)
            assert res.fun <= obj(start) + 1e-15

    def test_max_iter_stops_unconverged(self):
        res = nelder_mead(rosenbrock, np.array([-1.2, 1.0, 1.0]), max_iter=25)
        assert not res.converged
        assert res.iterations == 25

    def test_nonfinite_start_rejected(self):
        with pytest.raises(ValueError):
            nelder_mead(lambda x: float("nan"), np.zeros(3))

    def test_nonfinite_midrun_treated_as_rejected(self):
        res = nelder_mead(inf_beyond_two, np.zeros(3))
        np.testing.assert_allclose(res.x, [1.9, 0, 0], atol=1e-5)


class TestNumericHessian:
    def test_diagonal_quadratic(self):
        A = np.diag([2.0, 4.0, 6.0])
        H = numeric_hessian(lambda x: 0.5 * x @ A @ x, np.array([0.3, -0.2, 1.0]))
        np.testing.assert_allclose(H, A, atol=1e-6)

    def test_cross_term(self):
        H = numeric_hessian(lambda x: x[0] * x[1], np.array([0.5, 0.5, 0.5]))
        expected = np.zeros((3, 3))
        expected[0, 1] = expected[1, 0] = 1.0
        np.testing.assert_allclose(H, expected, atol=1e-6)

    def test_output_exactly_symmetric(self):
        rng = np.random.default_rng(5)
        H = numeric_hessian(
            lambda x: float(np.sum(np.exp(x / 3.0))), rng.normal(size=3)
        )
        assert np.array_equal(H, H.T)

    def test_nonfinite_reported(self):
        def obj(x):
            if x[0] > 1.0:
                return float("nan")
            return float(np.sum(x**2))

        H = numeric_hessian(obj, np.array([1.0, 0.0, 0.0]))
        assert not np.isfinite(H).all()
        assert _pinv_information(H) is None

