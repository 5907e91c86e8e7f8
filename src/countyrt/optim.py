"""Derivative-free optimization utilities.

Nelder-Mead simplex minimization and central-difference Hessians, for any
objective of a real vector. The simplex runs on plain Python floats: at
three coordinates, numpy's per-call overhead costs more than the
arithmetic it does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TOL = 1e-8  # nelder_mead's bound on the simplex size and the objective spread


@dataclass
class OptimResult:
    x: np.ndarray
    fun: float
    iterations: int
    converged: bool


def nelder_mead(objective, start, max_iter: int = 2000) -> OptimResult:
    """Minimize with the classic simplex moves (reflect 1, expand 2,
    contract 0.5, shrink 0.5).

    Terminates when both the simplex size (inf-norm of the vertices around
    the best one) and the objective spread drop below ``TOL``, or at
    ``max_iter``. Non-finite objective values mid-run are treated as +inf;
    a non-finite value at the start raises.

    The vertices and their values are lists of Python floats; the
    objective is called with a fresh float64 array. Vertices are ordered
    by value with ties kept in index order, and the centroid is summed in
    that order before dividing by n.
    """
    x0 = [float(v) for v in np.asarray(start, dtype=np.float64)]
    n = len(x0)

    def safe(x):
        v = objective(np.array(x))
        return float(v) if math.isfinite(v) else math.inf

    f0 = objective(np.array(x0))
    if not math.isfinite(f0):
        raise ValueError("objective is not finite at the starting point")

    simplex = [x0]
    for j in range(n):
        xj = list(x0)
        xj[j] += 0.05 * (1.0 + abs(x0[j]))
        simplex.append(xj)
    fvals = [float(f0)] + [safe(v) for v in simplex[1:]]

    iterations = 0
    converged = False
    while iterations < max_iter:
        order = sorted(range(n + 1), key=fvals.__getitem__)
        simplex = [simplex[k] for k in order]
        fvals = [fvals[k] for k in order]

        best = simplex[0]
        spread = fvals[-1] - fvals[0] if math.isfinite(fvals[-1]) else math.inf
        if spread < TOL and all(
            abs(v - b) < TOL for x in simplex[1:] for v, b in zip(x, best)
        ):
            converged = True
            break

        iterations += 1
        centroid = [0.0] * n
        for x in simplex[:-1]:
            centroid = [c + v for c, v in zip(centroid, x)]
        centroid = [c / n for c in centroid]
        worst = simplex[-1]
        xr = [c + (c - w) for c, w in zip(centroid, worst)]
        fr = safe(xr)
        if fr < fvals[0]:
            xe = [c + 2.0 * (c - w) for c, w in zip(centroid, worst)]
            fe = safe(xe)
            if fe < fr:
                simplex[-1], fvals[-1] = xe, fe
            else:
                simplex[-1], fvals[-1] = xr, fr
        elif fr < fvals[-2]:
            simplex[-1], fvals[-1] = xr, fr
        else:
            if fr < fvals[-1]:
                xc = [c + 0.5 * (r - c) for c, r in zip(centroid, xr)]
                fc = safe(xc)
                accept = fc <= fr
            else:
                xc = [c + 0.5 * (w - c) for c, w in zip(centroid, worst)]
                fc = safe(xc)
                accept = fc < fvals[-1]
            if accept:
                simplex[-1], fvals[-1] = xc, fc
            else:
                for j in range(1, n + 1):
                    simplex[j] = [b + 0.5 * (v - b) for v, b in zip(simplex[j], best)]
                    fvals[j] = safe(simplex[j])

    lowest = min(range(n + 1), key=fvals.__getitem__)
    return OptimResult(
        x=np.array(simplex[lowest]),
        fun=fvals[lowest],
        iterations=iterations,
        converged=converged,
    )


def numeric_hessian(objective, point) -> np.ndarray:
    """Central-difference Hessian with per-coordinate step 1e-4*(1+|x_j|).

    The output is symmetric by construction. A probed point that evaluates
    non-finite leaves the entries it enters non-finite.
    """
    x = np.asarray(point, dtype=np.float64)
    n = x.size
    h = 1e-4 * (1.0 + np.abs(x))

    def ev(offset):
        return float(objective(x + offset))

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
    return H
