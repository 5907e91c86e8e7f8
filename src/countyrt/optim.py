"""Derivative-free optimization utilities.

Nelder-Mead simplex minimization and central-difference Hessians, for any
objective of a real vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class OptimResult:
    x: np.ndarray
    fun: float
    iterations: int
    converged: bool


def nelder_mead(objective, start, tol: float = 1e-8, max_iter: int = 2000) -> OptimResult:
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


def numeric_hessian(objective, point, step: float = 1e-4) -> np.ndarray:
    """Central-difference Hessian with per-coordinate step step*(1+|x_j|).

    The output is symmetrized. Raises ArithmeticError if any probed point
    evaluates non-finite, reporting the offending offset.
    """
    x = np.asarray(point, dtype=np.float64)
    n = x.size
    h = step * (1.0 + np.abs(x))

    def ev(offset):
        v = float(objective(x + offset))
        if not math.isfinite(v):
            raise ArithmeticError(f"objective not finite at offset {offset}")
        return v

    H = np.empty((n, n))
    f0 = ev(np.zeros(n))
    for j in range(n):
        ej = np.zeros(n)
        ej[j] = h[j]
        H[j, j] = (ev(ej) - 2.0 * f0 + ev(-ej)) / h[j] ** 2
    for j in range(n):
        for l in range(j + 1, n):
            ej = np.zeros(n)
            el = np.zeros(n)
            ej[j] = h[j]
            el[l] = h[l]
            H[j, l] = H[l, j] = (
                ev(ej + el) - ev(ej - el) - ev(-ej + el) + ev(-ej - el)
            ) / (4.0 * h[j] * h[l])
    return (H + H.T) / 2.0
