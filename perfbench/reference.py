"""Reference solutions and answer checks, computed apart from formlab.

The operator is assembled here from the descriptor by the conventions of the
project README (cell-centered grids, `m = h^d`, face weights `a/h^(2-d)`, one
killing contribution per boundary face, the `|xi|^alpha` jump kernel with
exterior-mass killing, atoms snapped to the nearest node with ties low).  The
node equations `L u = m f(u) + mu` are then solved by damped Newton with the
driver's formula and its own derivative.  Nothing here imports formlab, so a
change to the program's assembly or solvers cannot move the reference.

Every check returns a list of failure messages; an empty list means the answer
passed.
"""

from __future__ import annotations

import math

import numpy as np

# Rows every `formlab verify` report carries for a transient problem.
VERIFY_CHECKS = ("weak-form", "duality", "l1-bound", "truncation-energy",
                 "vanishing-energy", "green-bound", "revuz", "martingale")

LIPSCHITZ_LADDER_GAP = 1e-6   # acceptance criterion 02
MC_SE_MULTIPLE = 3.0          # acceptance criterion 02


class Reference:
    """Dense node system of one descriptor and its Newton solution."""

    def __init__(self, desc):
        self.m, self.L, self.mu = _assemble(desc)
        self.f, self.df = _driver(desc.get("driver", {"family": "zero"}))
        self.u = _newton(self)

    def residual(self, u):
        """The defect vector L u - m f(u) - mu."""
        return self.L @ u - self.m * self.f(u) - self.mu

    def rounding(self, u):
        """A bound on the rounding error of `residual(u)`, node by node."""
        scale = np.abs(self.L) @ np.abs(u) + self.m * np.abs(self.f(u)) \
            + np.abs(self.mu)
        return 16.0 * np.finfo(float).eps * scale

    def gap_bound(self, u, defect):
        """Node-wise bound on |u - u_ref| for an answer u whose defect is at most `defect`.

        With f nonincreasing, L u - m f(u) is an M-function whose inverse
        Jacobian lies below G = L^-1 entry by entry, so
        |u - v| <= G (|r(u)| + |r(v)|) for the defects r.
        """
        slack = (defect + self.rounding(u)
                 + np.abs(self.residual(self.u)) + self.rounding(self.u))
        return np.linalg.solve(self.L, slack)


def _cell_grid(lo, hi, n):
    h = (hi - lo) / n
    return lo + (np.arange(n) + 0.5) * h, h


def _coefficient(desc):
    if desc is None:
        return lambda x: 1.0
    if desc.get("kind") == "affine":
        c0, c1 = float(desc.get("c0", 1.0)), float(desc.get("c1", 0.0))
        return lambda x: c0 + c1 * x
    if desc.get("kind") == "constant":
        value = float(desc.get("value", 1.0))
        return lambda x: value
    raise ValueError(f"no reference assembly for coefficient {desc!r}")


def _chain_1d(n, coeff, dirichlet):
    x, h = _cell_grid(0.0, 1.0, n)
    a = _coefficient(coeff)
    W = np.zeros((n, n))
    for i in range(n - 1):
        W[i, i + 1] = W[i + 1, i] = a(x[i] + h / 2.0) / h
    k = np.zeros(n)
    if dirichlet:
        k[0] += a(0.0) / h
        k[-1] += a(1.0) / h
    return x, np.full(n, h), W, k


def _grid_2d(n_side):
    xs, h = _cell_grid(0.0, 1.0, n_side)
    n = n_side * n_side
    W = np.zeros((n, n))
    k = np.zeros(n)
    coords = np.zeros((n, 2))
    for i in range(n_side):
        for j in range(n_side):
            p = i * n_side + j
            coords[p] = xs[i], xs[j]
            if i + 1 < n_side:
                W[p, p + n_side] = W[p + n_side, p] = 1.0
            if j + 1 < n_side:
                W[p, p + 1] = W[p + 1, p] = 1.0
            k[p] = (i == 0) + (i == n_side - 1) + (j == 0) + (j == n_side - 1)
    return coords, np.full(n, h * h), W, k


def _frac(n, alpha):
    x, h = _cell_grid(-1.0, 1.0, n)
    c = (alpha * 2.0 ** (alpha - 1.0) * math.gamma((1.0 + alpha) / 2.0)
         / (math.sqrt(math.pi) * math.gamma(1.0 - alpha / 2.0)))
    dist = np.abs(x[:, None] - x[None, :])
    np.fill_diagonal(dist, 1.0)
    W = c * h * h / dist ** (1.0 + alpha)
    np.fill_diagonal(W, 0.0)
    k = c * h * ((1.0 - x) ** -alpha + (1.0 + x) ** -alpha) / alpha
    return x, np.full(n, h), W, k


def _assemble(desc):
    family, n = desc["family"], int(desc["n"])
    if family in ("lap1d", "divform"):
        coeff = desc.get("coeff")
        if family == "divform" and coeff is None:
            coeff = {"kind": "affine", "c0": 1.0, "c1": 2.0}
        coords, m, W, k = _chain_1d(n, coeff, dirichlet=True)
    elif family == "lap2d" and "coeff" not in desc:
        coords, m, W, k = _grid_2d(n)
    elif family == "frac":
        coords, m, W, k = _frac(n, float(desc.get("alpha", 1.0)))
    elif family == "perturbed":
        coords, m, W, k = _chain_1d(n, desc.get("coeff"), dirichlet=False)
        k = k + float(desc.get("g", 1.0)) * m
    else:
        raise ValueError(f"no reference assembly for family {family!r}")
    L = np.diag(W.sum(axis=1) + k) - W
    mu = np.zeros(coords.shape[0])
    for atom in desc.get("measure", []):
        target = np.asarray(atom["x"], dtype=float)
        dist = np.abs(coords - target) if coords.ndim == 1 \
            else np.linalg.norm(coords - target, axis=1)
        mu[int(np.argmin(dist))] += float(atom["mass"])
    return m, L, mu


def _driver(desc):
    """(f, f') for the driver families the workloads use."""
    family = desc["family"]
    if family == "zero":
        return (lambda y: np.zeros_like(y)), (lambda y: np.zeros_like(y))
    if family == "affine":
        a, b = float(desc.get("a", 0.0)), float(desc.get("b", 0.0))
        return (lambda y: a + b * y), (lambda y: np.full_like(y, b))
    if family == "power":
        c, p, g = (float(desc.get("c", 1.0)), float(desc.get("p", 2.0)),
                   float(desc.get("g", 0.0)))

        def f(y):
            return g - c * np.sign(y) * np.abs(y) ** p

        def df(y):
            return -c * p * np.maximum(np.abs(y), 1e-300) ** (p - 1.0)
        return f, df
    raise ValueError(f"no reference driver for family {family!r}")


def _newton(ref, max_iter=200):
    """Damped Newton on L u - m f(u) = mu, from the solution with f frozen at 0."""
    u = np.linalg.solve(ref.L, ref.m * ref.f(np.zeros_like(ref.mu)) + ref.mu)
    r = ref.residual(u)
    for _ in range(max_iter):
        J = ref.L - np.diag(ref.m * ref.df(u))
        step = np.linalg.solve(J, -r)
        t = 1.0
        while True:
            trial = u + t * step
            r_trial = ref.residual(trial)
            if np.max(np.abs(r_trial)) < np.max(np.abs(r)) or t < 1e-12:
                break
            t *= 0.5
        if not np.max(np.abs(r_trial)) < np.max(np.abs(r)):
            break
        u, r = trial, r_trial
        if np.max(np.abs(t * step)) <= 4 * np.finfo(float).eps * (1.0 + np.max(np.abs(u))):
            break
    if not np.all(np.abs(r) <= 1e3 * ref.rounding(u) + 1e-14):
        raise ArithmeticError(
            f"reference Newton stalled at defect {np.max(np.abs(r)):.3e}")
    return u


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_oracle(ref: Reference, u, tol):
    """Gauss-Seidel answer: defect <= 10 tol, and as close to the reference
    as a defect of 10 tol allows."""
    u = np.asarray(u, dtype=float)
    fails = []
    defect = float(np.max(np.abs(ref.residual(u))))
    if not defect <= 10.0 * tol:
        fails.append(f"defect {defect:.3e} exceeds 10*tol = {10.0 * tol:.1e}")
    gap = np.abs(u - ref.u)
    bound = ref.gap_bound(u, 10.0 * tol)
    if not np.all(gap <= bound):
        worst = int(np.argmax(gap - bound))
        fails.append(f"gap {gap[worst]:.3e} to the reference at node {worst} "
                     f"exceeds the defect bound {bound[worst]:.3e}")
    return fails


def check_ladder(ref: Reference, u, limit):
    """Ladder answer: sup gap to the reference at most `limit`."""
    gap = float(np.max(np.abs(np.asarray(u, dtype=float) - ref.u)))
    if not gap <= limit:
        return [f"sup gap {gap:.3e} to the reference exceeds {limit:.3e}"]
    return []


def check_mc(ref: Reference, u, max_se):
    """Monte Carlo answer: sup gap to the reference at most 3 max_se."""
    gap = float(np.max(np.abs(np.asarray(u, dtype=float) - ref.u)))
    limit = MC_SE_MULTIPLE * float(max_se)
    if not gap <= limit:
        return [f"sup gap {gap:.3e} to the reference exceeds "
                f"{MC_SE_MULTIPLE:g}*max_se = {limit:.3e}"]
    return []


def check_repeat(first, again):
    """A fixed-seed answer computed again must agree bit for bit."""
    a = np.ascontiguousarray(first, dtype=float)
    b = np.ascontiguousarray(again, dtype=float)
    if a.shape != b.shape or a.tobytes() != b.tobytes():
        return ["a repeated fixed-seed answer differs from the first"]
    return []


def check_verify(exit_code, rows, problems):
    """`formlab verify` report: exit 0, every row passes and agrees with lhs <= bound,
    and each problem has the full set of check rows exactly once."""
    fails = []
    if exit_code != 0:
        fails.append(f"verify exited {exit_code}")
    seen = {}
    for check, problem, lhs, bound, _slack, passed in rows:
        seen.setdefault(problem, []).append(check)
        if not passed:
            fails.append(f"{problem}/{check} failed (lhs {lhs:.3e}, bound {bound:.3e})")
        if passed != (lhs <= bound):
            fails.append(f"{problem}/{check}: pass={passed} disagrees with "
                         f"lhs {lhs!r} <= bound {bound!r}")
    for problem in problems:
        got = sorted(seen.pop(problem, []))
        if got != sorted(VERIFY_CHECKS):
            fails.append(f"{problem}: check rows {got}, expected {sorted(VERIFY_CHECKS)}")
    for problem in seen:
        fails.append(f"unexpected rows for {problem}")
    return fails


def read_verify_csv(path):
    """Rows (check, problem, lhs, bound, slack, pass) of a verify report."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header != ["check", "problem", "lhs", "bound", "slack", "pass"]:
            raise ValueError(f"{path}: unexpected header {header}")
        for line in fh:
            check, problem, lhs, bound, slack, passed = line.rstrip("\n").split(",")
            if passed not in ("True", "False"):
                raise ValueError(f"{path}: pass column reads {passed!r}")
            rows.append((check, problem, float(lhs), float(bound),
                         float(slack), passed == "True"))
    return rows
