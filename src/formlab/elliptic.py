"""Elliptic solvers and the estimate suite.

Every solver targets the shared node equations

    (Lu)(x) = m_x f(x, u_x) + mu({x}),

through three independent routes:

  gauss-seidel  over-relaxed node sweeps, each scalar equation solved by
                expanding bisection (the left side is increasing, the right
                side nonincreasing, so the root is unique); two-color
                vectorized sweeps on bipartite jump graphs.  Updates are
                scaled by Young's omega from the Jacobi radius of L; a
                defect that blows up restores the best iterate and finishes
                at omega = 1, plain Gauss-Seidel.
  ladder        the random-horizon backward construction (module bsde).
  mc            nonlinear Feynman-Kac with per-node occupation measures
                sampled once and reused across Picard iterations.

Each solver first checks that f is nonincreasing in y and raises DriverError
naming the node where it increases.

The check functions compute both sides of each estimate the solutions must
satisfy, from u and f_u = f(., u), and return Check(name, lhs, bound) rows
with passed = lhs <= bound; nothing is clipped silently.  verify_solution
runs them all on one solution, the suite behind `formlab verify`: it reads
only u, computing f_u and the defect Lu - M f_u - mu once.  The revuz row
checks the chain and the measure, not u.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bsde import (SolverError, _checked_u, martingale_residual_check,
                   solve_random_horizon_ladder)
from .drivers import Driver, require_monotone
from .forms import (MAX_DENSE_VALUES, DirichletForm, FormError, SignedMeasure,
                    _require_transient)
from .markov import (_mean_se, _occupation, _path_rng, build_chain,
                     default_horizon_cap, revuz_check)


class UnboundedSolutionError(SolverError):
    """A node equation has no root inside the bracket bound."""


# The node solves give up, as an unbounded solution, once a bracket end
# passes this magnitude.
BRACKET_BOUND = 1e12


@dataclass
class EllipticSolution:
    """Solution vector with the solver's own defect, ||Lu - M f(u) - mu||_inf.

    residual is the solver's report (`formlab solve` writes it to the
    sidecar summary); the estimate suite recomputes every row from u.
    """

    u: np.ndarray
    residual: float
    method: str
    diagnostics: dict = field(default_factory=dict)


def weak_form_defect(form, u, f_u, mu) -> np.ndarray:
    """Per-node defect of the node equations, Lu - M f_u - masses(mu)."""
    return form.matvec(u) - form.m * f_u - mu.masses


def weak_form_residual(form, u, f_u, mu) -> float:
    return float(np.max(np.abs(weak_form_defect(form, u, f_u, mu))))


def _two_coloring(W):
    """Greedy 2-coloring of the jump graph, or None if not bipartite."""
    n = W.shape[0]
    color = np.full(n, -1, dtype=np.int8)
    indptr, indices = W.indptr, W.indices
    for root in range(n):
        if color[root] >= 0:
            continue
        color[root] = 0
        stack = [root]
        while stack:
            x = stack.pop()
            for y in indices[indptr[x]:indptr[x + 1]]:
                if color[y] < 0:
                    color[y] = 1 - color[x]
                    stack.append(y)
                elif color[y] == color[x]:
                    return None
    return np.nonzero(color == 0)[0], np.nonzero(color == 1)[0]


def _bisect_block(diag, scale, drv, nodes, target, guess, *, tol, width):
    """Vectorized roots of diag*y - scale*f(node, y) = target (increasing in y).

    Brackets expand geometrically from guess +- width; the roots are then
    bisected to absolute tolerance tol (per node).
    """
    w = np.broadcast_to(width, guess.shape).astype(float).copy()
    np.maximum(w, 16 * tol, out=w)
    lo = guess - w
    hi = guess + w

    def phi(y):
        return diag * y - scale * drv.value_at(nodes, y) - target

    step = w.copy()
    for _ in range(140):
        mask = phi(lo) > 0
        if not np.any(mask):
            break
        step[mask] *= 2.0
        lo[mask] -= step[mask]
        if np.any(np.abs(lo) > BRACKET_BOUND):
            bad = nodes[np.abs(lo) > BRACKET_BOUND][0]
            raise UnboundedSolutionError(
                f"no bracket below -{BRACKET_BOUND:g} at node {bad}: "
                f"solution unbounded")
    step = w.copy()
    for _ in range(140):
        mask = phi(hi) < 0
        if not np.any(mask):
            break
        step[mask] *= 2.0
        hi[mask] += step[mask]
        if np.any(np.abs(hi) > BRACKET_BOUND):
            bad = nodes[np.abs(hi) > BRACKET_BOUND][0]
            raise UnboundedSolutionError(
                f"no bracket above {BRACKET_BOUND:g} at node {bad}: "
                f"solution unbounded")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        neg = phi(mid) < 0
        lo = np.where(neg, mid, lo)
        hi = np.where(neg, hi, mid)
        if np.all(hi - lo <= tol):
            break
    return 0.5 * (lo + hi)


def _bisect_scalar(diag, scale, drv, x, target, guess, *, tol, width):
    """Scalar version of _bisect_block on pure floats (hot loop)."""
    f = drv.scalar
    w = max(width, 16 * tol)
    lo, hi = guess - w, guess + w
    step = w
    while diag * lo - scale * f(x, lo) > target:
        step *= 2.0
        lo -= step
        if abs(lo) > BRACKET_BOUND:
            raise UnboundedSolutionError(
                f"no bracket below -{BRACKET_BOUND:g} at node {x}: "
                f"solution unbounded")
    step = w
    while diag * hi - scale * f(x, hi) < target:
        step *= 2.0
        hi += step
        if abs(hi) > BRACKET_BOUND:
            raise UnboundedSolutionError(
                f"no bracket above {BRACKET_BOUND:g} at node {x}: "
                f"solution unbounded")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if diag * mid - scale * f(x, mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _jacobi_radius(form: DirichletForm) -> float:
    """Spectral radius of the Jacobi iteration matrix D^-1 W, D = diag(L).

    D^-1 W is nonnegative, so its radius is its largest eigenvalue
    (Perron-Frobenius), 1 - lambda_min(D^-1/2 L D^-1/2).  Every node must
    have jumps or killing, so that D is positive.
    """
    return 1.0 - form._lowest_eigenvalue("diag")


def _young_omega(form: DirichletForm) -> float:
    """Young's over-relaxation factor 2 / (1 + sqrt(1 - rho_J^2)).

    A recurrent form has rho_J = 1 and no linear contraction to accelerate,
    so its sweeps run at omega = 1.  It is found by its killing-free
    component (which also covers a node with neither jumps nor killing,
    where D is not invertible).  A lambda_min of D^-1/2 L D^-1/2 (a matrix
    of norm at most 2) within the eigensolver's rounding, about 2 n eps, of
    zero also runs at omega = 1.  The eigensolver, LAPACK's dsbevx on the
    band, reduces it to tridiagonal form T by orthogonal rotations and
    bisects T to the absolute tolerance eps ||T||_1; both steps are
    backward stable, so its error is of order n eps ||A|| <= 2 n eps.
    """
    if form.killing_free_component() is not None:
        return 1.0
    rho = _jacobi_radius(form)
    if rho >= 1.0 - 2.0 * form.n * np.finfo(float).eps:
        return 1.0
    return 2.0 / (1.0 + float(np.sqrt(1.0 - rho * rho)))


# While omega > 1, a sweep whose defect exceeds this multiple of the smallest
# defect so far (or is not finite) ends over-relaxation.
SOR_GROWTH_LIMIT = 1e3


def solve_elliptic_gauss_seidel(form: DirichletForm, driver: Driver,
                                mu: SignedMeasure, *, tol: float = 1e-11,
                                max_sweeps: int = 2_000_000,
                                x0=None) -> EllipticSolution:
    """Nonlinear over-relaxed Gauss-Seidel sweeps with bisection node solves.

    Each node update is u += omega (u_GS - u), where u_GS solves the node's
    equation with its neighbours held fixed: by the exact closed form for
    affine drivers, by bisection otherwise.  Bipartite jump graphs get
    two-color vectorized sweeps; other graphs are swept node by node.
    omega is Young's factor 2 / (1 + sqrt(1 - rho_J^2)) for the Jacobi
    radius rho_J of L, taken once per solve.  While omega > 1 the defect
    ||Lu - M f_u - mu||_inf is computed after every sweep; if it turns
    non-finite or grows SOR_GROWTH_LIMIT-fold past its smallest value, the
    iterate with that smallest defect is restored and the sweeps finish at
    omega = 1, where nonlinear Gauss-Seidel converges globally on these
    monotone equations.

    Stops when the sup-norm sweep change is at most tol on two sweeps in a
    row and the defect is at most 10*tol; tol must be a positive finite
    number, else FormError.  A node equation with no root within
    BRACKET_BOUND raises UnboundedSolutionError.  x0 is the starting iterate
    (zeros by default).  diagnostics holds the sweep count, the final omega
    and fallback_sweep (the sweep that ended over-relaxation, or None).
    """
    if not (tol > 0.0 and np.isfinite(tol)):
        raise FormError(f"tol must be a positive finite number, got {tol}")
    require_monotone(driver)
    n = form.n
    diag_L = form.degree + form.k
    masses = mu.masses
    m = form.m
    W = form.W
    u = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    affine = driver.constant_slope is not None
    if affine:
        a0 = driver.f0()
        slope = driver.constant_slope
        denom = diag_L - m * slope
        if np.any(denom <= 0):
            bad = int(np.argmin(denom))
            raise UnboundedSolutionError(
                f"node {bad} has no unique root: zero diagonal and "
                f"non-damping driver")
    coloring = _two_coloring(W)
    floor = np.finfo(float).eps * 4
    blocks = None
    if coloring is not None:
        blocks = [(np.asarray(c, dtype=int), W[c, :].tocsr())
                  for c in coloring if len(c)]
    omega = _young_omega(form)
    fallback_sweep = None
    best_residual, best_u = np.inf, u.copy()

    sweeps = 0
    change = np.inf
    while sweeps < max_sweeps:
        sweeps += 1
        # solve each node equation a bit tighter than the current sweep
        # motion; the final sweeps bottom out at machine precision
        node_tol = max(floor * (1.0 + float(np.max(np.abs(u), initial=0.0))),
                       0.05 * min(change, 1.0))
        warm = 4.0 * change if np.isfinite(change) else 1.0
        prev_change = change
        change = 0.0
        if blocks is not None:
            for nodes, Wblock in blocks:
                target = Wblock @ u + masses[nodes]
                if affine:
                    new = (target + m[nodes] * a0[nodes]) / denom[nodes]
                else:
                    new = _bisect_block(diag_L[nodes], m[nodes], driver,
                                        nodes, target, u[nodes],
                                        tol=node_tol, width=warm)
                step = omega * (new - u[nodes])
                change = max(change, float(np.max(np.abs(step), initial=0.0)))
                u[nodes] += step
        else:
            indptr, indices, data = W.indptr, W.indices, W.data
            for x in range(n):
                row = slice(indptr[x], indptr[x + 1])
                target = float(data[row] @ u[indices[row]]) + masses[x]
                if affine:
                    new = (target + m[x] * a0[x]) / denom[x]
                else:
                    new = _bisect_scalar(float(diag_L[x]), float(m[x]),
                                         driver, x, target, float(u[x]),
                                         tol=node_tol, width=warm)
                step = omega * (new - u[x])
                change = max(change, abs(step))
                u[x] += step
        f_u = None
        if omega > 1.0:
            f_u = driver.value(u)
            residual = weak_form_residual(form, u, f_u, mu)
            if not np.isfinite(residual) or \
                    residual > SOR_GROWTH_LIMIT * best_residual:
                u, omega, fallback_sweep = best_u, 1.0, sweeps
                change = np.inf
                continue
            if residual < best_residual:
                best_residual, best_u = residual, u.copy()
        # an overflowing iterate shows first as an infinite change; once it
        # turns to NaN the change reads 0 and only the residual shows it
        if change == np.inf:
            _raise_non_finite(u, sweeps)
        if change <= tol and prev_change <= tol:
            if f_u is None:
                f_u = driver.value(u)
                residual = weak_form_residual(form, u, f_u, mu)
            if residual <= 10 * tol:
                return EllipticSolution(u, residual, "gauss-seidel", {
                    "sweeps": sweeps, "omega": omega,
                    "fallback_sweep": fallback_sweep})
            if not np.isfinite(residual):
                _raise_non_finite(u, sweeps)
    defect = np.abs(weak_form_defect(form, u, driver.value(u), mu))
    worst = int(np.argmax(defect))
    raise SolverError(
        f"gauss-seidel did not converge in {max_sweeps} sweeps "
        f"(last change {change:g}, residual {defect[worst]:g} at node {worst})")


def _raise_non_finite(u, sweep):
    bad = int(np.argmax(~np.isfinite(u)))
    raise SolverError(
        f"gauss-seidel diverged: node {bad} is {u[bad]:g} after sweep {sweep}")


def solve_elliptic_ladder(form: DirichletForm, driver: Driver,
                          mu: SignedMeasure) -> EllipticSolution:
    """Elliptic solution read off the random-horizon ladder, u = v(0, .).

    The ladder runs at bsde's LADDER_TOL, LADDER_STEPS and LADDER_MAX_LEVELS
    on its gap-based horizon schedule.  diagnostics["ladder"] is the
    LadderTrace, one LadderLevel per level.
    """
    require_monotone(driver)
    sol, trace = solve_random_horizon_ladder(form, driver, mu)
    residual = weak_form_residual(form, sol.u, driver.value(sol.u), mu)
    return EllipticSolution(sol.u, residual, "ladder", {"ladder": trace})


# Monte Carlo Picard iteration: round budget, stopping tolerance relative to
# 1 + max|u|, and initial damping.  A horizon-capped path fraction above
# MAX_CAPPED_FRACTION stops the solve as suspected non-transience.
PICARD_ITERS = 600
PICARD_TOL = 1e-10
PICARD_DAMPING = 0.5
MAX_CAPPED_FRACTION = 1e-4


def solve_elliptic_mc(form: DirichletForm, driver: Driver, mu: SignedMeasure,
                      *, n_paths: int = 100_000,
                      seed: int = 0) -> EllipticSolution:
    """Feynman-Kac Monte Carlo solution on empirical occupation measures.

    n_paths is the total budget, split evenly across start nodes.  All paths
    run in one lockstep loop as one block on the one stream
    _path_rng(seed), each start's paths together in start order, so an
    iteration makes three Generator calls whatever the number of starts;
    each path is cut at default_horizon_cap(chain), and a cut fraction
    above MAX_CAPPED_FRACTION raises SolverError.  Paths are
    sampled once; the same paths are reused by every damped Picard
    iteration (common random numbers), so the output is deterministic given
    the seed.  Per-node standard errors are evaluated at the returned
    iterate.  A budget whose (n_paths, n) occupation matrix would exceed
    MAX_DENSE_VALUES raises FormError naming n_paths before any path.
    """
    require_monotone(driver)
    _require_transient(form)
    n = form.n
    if int(n_paths) * n > MAX_DENSE_VALUES:
        raise FormError(
            f"n_paths must be at most {MAX_DENSE_VALUES // n} on {n} nodes, "
            f"an occupation matrix of MAX_DENSE_VALUES = {MAX_DENSE_VALUES} "
            f"values, got {n_paths}")
    chain = build_chain(form)
    horizon_cap = default_horizon_cap(chain)
    base, extra = divmod(n_paths, n)
    counts = np.full(n, base, dtype=int)
    counts[:extra] += 1
    if np.any(counts < 2):
        raise FormError(
            f"MC budget {n_paths} too small for {n} start nodes")
    rho = mu.density(form.space)

    occ, capped = _occupation(
        chain, [(np.repeat(np.arange(n, dtype=np.int64), counts),
                 _path_rng(seed))], horizon_cap)
    capped_fraction = capped / float(n_paths)
    if capped_fraction > MAX_CAPPED_FRACTION:
        raise SolverError(
            f"horizon-capped fraction {capped_fraction:.2e} exceeds "
            f"{MAX_CAPPED_FRACTION:.0e}: non-transience suspected")

    occ_rows = np.split(occ, np.cumsum(counts)[:-1])  # per start node, views
    addf = [rows @ rho for rows in occ_rows]  # per-path additive functional
    occ_mean = np.vstack([rows.mean(axis=0) for rows in occ_rows])
    add_mean = np.array([float(np.mean(a)) for a in addf])

    u = add_mean.copy()
    iters = 0
    theta = PICARD_DAMPING
    prev_delta = np.inf
    growth = 0
    for iters in range(1, PICARD_ITERS + 1):
        new = occ_mean @ driver.value(u) + add_mean
        nxt = (1.0 - theta) * u + theta * new
        delta = float(np.max(np.abs(nxt - u)))
        u = nxt
        if delta <= PICARD_TOL * (1.0 + float(np.max(np.abs(u)))):
            break
        # a growing iteration signals the damped map is not yet contractive
        growth = growth + 1 if delta > prev_delta else 0
        if growth >= 3:
            theta *= 0.5
            growth = 0
            if theta < 1.0 / 1024.0:
                raise SolverError(
                    "MC Picard iteration diverges even at minimal damping")
        prev_delta = delta
    else:
        raise SolverError(
            f"MC Picard iteration did not settle in {PICARD_ITERS} rounds")

    f_u = driver.value(u)
    se = np.array([_mean_se(occ_rows[x] @ f_u + addf[x])[1]
                   for x in range(n)])
    residual = weak_form_residual(form, u, f_u, mu)
    return EllipticSolution(u, residual, "mc", {
        "se": se, "max_se": float(np.max(se)),
        "capped_fraction": capped_fraction, "picard_iters": iters,
        "damping": theta, "n_paths": int(n_paths), "seed": int(seed),
        "horizon_cap": float(horizon_cap)})


METHODS = ("gauss-seidel", "ladder", "mc")


def solve(problem, method: str, *, tol: float = 1e-11,
          n_paths: int = 100_000, seed: int = 0) -> EllipticSolution:
    """Solve a Problem by one of METHODS.

    tol is the Gauss-Seidel tolerance; n_paths and seed go to Monte Carlo;
    the ladder runs at its own defaults.
    """
    form, driver, mu = problem.form, problem.driver, problem.mu
    if method == "gauss-seidel":
        return solve_elliptic_gauss_seidel(form, driver, mu, tol=tol)
    if method == "ladder":
        return solve_elliptic_ladder(form, driver, mu)
    if method == "mc":
        return solve_elliptic_mc(form, driver, mu, n_paths=n_paths, seed=seed)
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


# ---------------------------------------------------------------------------
# estimate suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Check:
    """One row of the estimate suite: the checked side and its bound."""

    name: str
    lhs: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.lhs <= self.bound


def duality_check(form: DirichletForm, u, f_u, mu: SignedMeasure,
                  tol: float = 1e-9) -> Check:
    """Pairing identity <nu, u> = (f_u, U nu)_m + <mu, U nu> for every Dirac nu.

    lhs is max |u - G(M f_u + masses)|, from one Green solve.  It bounds the
    pairing defect of any test measure nu by |nu|(E) lhs.
    """
    res = np.abs(u - form.solve(form.m * f_u + mu.masses))
    return Check("duality", float(np.max(res)), float(tol))


def l1_bound_check(form: DirichletForm, driver: Driver, f_u,
                   mu: SignedMeasure, tol: float = 1e-9) -> Check:
    """Integrability bound: sum m|f_u| <= sum m|f(.,0)| + |mu|(E)."""
    lhs = float(np.sum(form.m * np.abs(f_u)))
    rhs = float(np.sum(form.m * np.abs(driver.f0()))) + mu.total_variation
    return Check("l1-bound", lhs, float(rhs + tol))


def clamp(u, k):
    """Symmetric clamp of u to [-k, k]."""
    return np.clip(u, -k, k)


def level_slice(u, k):
    """The unit slice of u above level k: clamp(u - clamp(u, k), 1)."""
    return clamp(u - clamp(u, k), 1.0)


def truncation_report(form: DirichletForm, u, f_u, mu: SignedMeasure, ks,
                      tol: float = 1e-9) -> tuple[Check, Check]:
    """Truncation and vanishing energies over the levels ks, with their bounds.

    E(T_k u) <= k (||f_u||_L1 + |mu|(E)) for the clamp T_k, and the energy of
    the unit slice above k is at most the mass of m|f_u| + |mu| on |u| >= k.
    Each row reports the level with the least slack, bound - energy.
    """
    ks = np.asarray(ks, dtype=float)
    m = form.m
    l1 = float(np.sum(m * np.abs(f_u)))
    tv = mu.total_variation
    te = np.array([form.energy(clamp(u, k)) for k in ks])
    tb = ks * (l1 + tv)
    ve = np.array([form.energy(level_slice(u, k)) for k in ks])
    vb = np.array([
        float(np.sum((m * np.abs(f_u) + np.abs(mu.masses))[np.abs(u) >= k]))
        for k in ks])
    t, v = int(np.argmin(tb - te)), int(np.argmin(vb - ve))
    return (Check("truncation-energy", float(te[t]), float(tb[t] + tol)),
            Check("vanishing-energy", float(ve[v]), float(vb[v] + tol)))


def green_bound_check(form: DirichletForm, u, f_u, mu: SignedMeasure,
                      tol: float = 1e-9) -> Check:
    """L1 bound through the bounded potential of the reference measure.

    With U1 = G(M 1):  sum m|u| <= (|f_u|, U1)_m + <|mu|, U1>.
    """
    U1 = form.solve(form.m * np.ones(form.n))
    lhs = float(np.sum(form.m * np.abs(u)))
    rhs = float(np.sum(np.abs(f_u) * U1 * form.m)
                + np.sum(np.abs(mu.masses) * U1))
    return Check("green-bound", lhs, float(rhs + tol))


def verify_solution(problem, solution: EllipticSolution, *,
                    check_tol: float = 1e-9, revuz_t: float = 0.01,
                    paths: int = 100_000, seed: int = 0) -> list[Check]:
    """Run the estimate suite on a solution of problem; one Check per row.

    Every row that reads the solution reads solution.u alone: f_u and the
    defect Lu - M f_u - mu are computed here, once.  Rows, in order:
    weak-form; on a transient form duality, l1-bound, truncation-energy,
    vanishing-energy and green-bound; then revuz (from max(2, paths // 5)
    paths on seed) and martingale (on seed + 1).  The revuz row checks the
    chain and the measure, not u.  A Monte Carlo solution carries per-node
    standard errors, and the deterministic gates get statistical allowances
    sized from them.  A u that is not n finite values raises FormError
    naming u before any check.
    """
    form, driver, mu = problem.form, problem.driver, problem.mu
    u = _checked_u(solution.u, form.n)
    f_u = driver.value(u)
    defect = weak_form_defect(form, u, f_u, mu)
    det_gate = check_tol
    wf_gate = det_gate * 10
    energy_allow = l1_allow = green_allow = 0.0
    if solution.method == "mc":
        se = solution.diagnostics["se"]
        max_se = float(np.max(se))
        slope = np.abs(driver.deriv(u))
        det_gate = max(check_tol, 8.0 * max_se)
        energy_allow = 4.0 * float(np.sum((form.degree + form.k) * se ** 2))
        l1_allow = 4.0 * float(np.sum(form.m * slope * se))
        # green-bound's lhs, sum m|u|, carries the error of u itself
        green_allow = l1_allow + 4.0 * float(np.sum(form.m * se))
        row_scale = float(np.max(2 * form.degree + form.k + form.m * slope))
        wf_gate = check_tol * 10 + 4.0 * max_se * row_scale
    checks = [Check("weak-form", float(np.max(np.abs(defect))), wf_gate)]
    if form.killing_free_component() is None:
        sup = float(np.max(np.abs(u)))
        ks = np.arange(0.0, 2.0 * sup + 0.25, 0.25)
        checks += [duality_check(form, u, f_u, mu, tol=det_gate),
                   l1_bound_check(form, driver, f_u, mu,
                                  tol=check_tol + l1_allow),
                   *truncation_report(form, u, f_u, mu, ks,
                                      tol=check_tol + energy_allow),
                   green_bound_check(form, u, f_u, mu,
                                     tol=check_tol + green_allow)]

    chain = build_chain(form)
    rv = revuz_check(chain, np.ones(form.n), mu, t=revuz_t,
                     N=max(2, paths // 5), seed=seed)
    checks.append(Check("revuz", float(rv.discrepancy),
                        float(3.0 * rv.se + rv.bias_bound)))

    starts = np.unique(np.linspace(0, form.n - 1, min(form.n, 8)).astype(int))
    # discount the solution's own algebraic defect before the z-ratio; the
    # per-node floor keeps 4-sigma tails meaningful for skewed increments
    drift = float(np.max(np.abs(defect) / form.m))
    mart = martingale_residual_check(
        chain, u, driver, mu, N=max(4000 * starts.size, paths // 5),
        seed=seed + 1, start_nodes=starts, drift_allowance=drift)
    checks.append(Check("martingale", float(mart.max_abs_z), 4.0))
    return checks
