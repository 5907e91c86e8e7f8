import numpy as np
import pytest

from countyrt.optim import nelder_mead, numeric_hessian


class TestNelderMead:
    def test_convex_quadratic(self):
        res = nelder_mead(lambda x: np.sum((x - 1.0) ** 2), np.zeros(3))
        assert res.converged
        np.testing.assert_allclose(res.x, np.ones(3), atol=1e-5)

    def test_rosenbrock_3d(self):
        def rosen(x):
            return sum(
                100.0 * (x[i + 1] - x[i] ** 2) ** 2 + (1 - x[i]) ** 2
                for i in range(len(x) - 1)
            )

        res = nelder_mead(rosen, np.array([-1.2, 1.0, 1.0]), max_iter=5000)
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

    def test_nonfinite_start_rejected(self):
        with pytest.raises(ValueError):
            nelder_mead(lambda x: float("nan"), np.zeros(3))

    def test_nonfinite_midrun_treated_as_rejected(self):
        def obj(x):
            if x[0] > 2.0:
                return float("inf")
            return (x[0] - 1.9) ** 2 + x[1] ** 2 + x[2] ** 2

        res = nelder_mead(obj, np.zeros(3))
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

        with pytest.raises(ArithmeticError):
            numeric_hessian(obj, np.array([1.0, 0.0, 0.0]))

