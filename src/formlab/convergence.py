"""Grid-refinement studies against closed-form oracles.

Oracles:
  * lap1d with a unit atom at a: the two-sided linear profile
    u(x) = x (1 - a) for x <= a and a (1 - x) for x >= a, from direct
    integration of -u'' = delta_a with zero boundary values.
  * diag: nodal-exact solution 1/c(x).
  * frac: the boundary behaviour dist^(alpha/2); the study reports the
    exponent fitted by log-log regression of u against (1 - x^2) over the
    10% of nodes nearest each endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import build_catalog_problem
from .drivers import Driver
from .elliptic import solve
from .forms import SignedMeasure


# the deterministic solvers a refinement study runs
STUDY_METHODS = ("gauss-seidel", "ladder")


class StudyError(ValueError):
    """Unusable study configuration or oracle evaluation failure."""


@dataclass(frozen=True)
class StudyRow:
    n: int
    h: float
    error: float | None
    order: float | None
    boundary_exponent: float | None


@dataclass(frozen=True)
class StudyReport:
    family: str
    rows: tuple

    @property
    def orders(self):
        return [r.order for r in self.rows if r.order is not None]

    @property
    def exponents(self):
        return [r.boundary_exponent for r in self.rows
                if r.boundary_exponent is not None]


def green_profile_1d(x, a):
    """Solution of -u'' = delta_a on (0,1) with zero boundary values."""
    x = np.asarray(x, dtype=float)
    return np.where(x <= a, x * (1.0 - a), a * (1.0 - x))


def boundary_exponent_fit(x, u, fraction=0.1):
    """Slope of log u against log(1 - x^2) over the outer fraction of nodes."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    count = max(2, int(np.ceil(fraction * x.size)))
    order = np.argsort(1.0 - np.abs(x))
    sel = order[:2 * count]
    w = 1.0 - x[sel] ** 2
    vals = u[sel]
    good = (vals > 0) & (w > 0)
    if np.count_nonzero(good) < 3:
        raise StudyError("boundary fit needs at least 3 positive samples")
    slope, _ = np.polyfit(np.log(w[good]), np.log(vals[good]), 1)
    return float(slope)


def convergence_study(family: str, grid_sizes, method: str = "gauss-seidel",
                      *, alpha: float = 1.0, tol: float = 1e-9) -> StudyReport:
    """Refinement study for a catalog family; needs >= 3 increasing grids.

    The lap1d study places its unit atom at x = 0.5.
    """
    sizes = [int(s) for s in grid_sizes]
    if len(sizes) < 3 or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise StudyError("study needs at least 3 strictly increasing grid sizes")
    if method not in STUDY_METHODS:
        raise StudyError(f"unknown study method {method!r}")

    errors, exponents, hs = [], [], []
    for n in sizes:
        if family == "lap1d":
            problem = build_catalog_problem({
                "family": "lap1d", "n": n,
                "measure": [{"x": 0.5, "mass": 1.0}],
                "driver": {"family": "zero"}})
            sol = solve(problem, method, tol=tol)
            x = problem.form.space.labels
            placed = float(x[int(np.argmax(problem.mu.masses))])
            exact = green_profile_1d(x, placed)
            errors.append(float(np.max(np.abs(sol.u - exact))))
            exponents.append(None)
        elif family == "diag":
            problem = build_catalog_problem({
                "family": "diag", "n": n, "measure": "reference",
                "driver": {"family": "zero"}})
            sol = solve(problem, method, tol=tol)
            x = problem.form.space.labels
            errors.append(float(np.max(np.abs(sol.u - 1.0 / np.abs(x)))))
            exponents.append(None)
        elif family == "frac":
            problem = build_catalog_problem({
                "family": "frac", "n": n, "alpha": alpha,
                "driver": {"family": "affine", "a": 1.0, "b": 0.0}})
            sol = solve(problem, method, tol=tol)
            x = problem.form.space.labels
            exponents.append(boundary_exponent_fit(x, sol.u))
            errors.append(None)
        else:
            raise StudyError(f"no oracle for family {family!r}")
        hs.append(float(problem.form.m[0]))

    rows = []
    for i, n in enumerate(sizes):
        order = None
        if errors[i] is not None and i + 1 < len(sizes) \
                and errors[i + 1] is not None and errors[i + 1] > 0:
            order = float(np.log2(errors[i] / errors[i + 1]))
        rows.append(StudyRow(n=n, h=hs[i], error=errors[i], order=order,
                             boundary_exponent=exponents[i]))
    return StudyReport(family=family, rows=tuple(rows))
