"""Backward equations on the chain filtration.

On a finite chain the backward value process is Y_t = v(t, X_t) for a value
function v on [0, T] x E.  The finite-horizon equation is the backward system

    d/dt v = (Lv)/m - f(., v) - rho,      v(T, .) = terminal,

integrated here by implicit Euler, keeping only the current time slice:
each step solves the monotone system

    (M + dt L) v - dt M f(., v) = M v_prev + dt masses(mu)

by chord Newton, with Gauss-Seidel on the form perturbed by 1/dt as the
fallback.  Each step builds its residual kernel
(M v + dt L v) - dt M f(v) - rhs once, over bound locals: L v is the CSR
mat-vec over L's cached arrays (DirichletForm.matvec) and f(v) is
Driver.value.  An iteration takes three sup-norms, of the correction, the
new residual and the new iterate, and reuses each where it is needed again.
The Jacobian dt L + diag(m - dt m f'(v)) is SPD when f is nonincreasing.
Each solve scales the form's cached band of L by dt once and holds one
factor of the step Jacobian, in one Fortran-ordered work array, across
all its steps: the first step factors it at the terminal by LAPACK's
banded Cholesky (DirichletForm._factor), and every correction is a banded
solve with the held factor.  A chord step is kept when it cuts
the residual sup-norm at least fourfold, or meets the residual gate;
otherwise the step copies the step band into the work array, adds the
diagonal at the current iterate, refactors in place and takes a damped
Newton step.  At a contraction rate rho <= 1/4 a correction understates
the remaining error by a factor of about rho / (1 - rho) <= 1/3.  An
affine driver's Jacobian does not depend on v, so its first factor
serves every step.  A non-finite Jacobian diagonal or residual raises
SolverError naming the step and the node.  A correction that is already
within the step tolerance, at a residual that already meets the residual
gate, is taken whole without a line search.  The stationary point of a
step is exactly the elliptic solution, so long horizons converge to it
without a step-size floor.

The random-horizon solution u(x) = Y_0 under P_x is built by the horizon
ladder: at level n the data are truncated at n, the driver is regularized
at Lipschitz level n when it carries no usable Lipschitz bound, and the
finite-horizon problem is solved up to T_n = 2^n t0, with t0 set by the
least positive rate and the spectral gap; each level reads only v(0, .).
The driver and the data do not depend on time, so by the flow (Markov)
property of Y, Phi_{2T}(h) = Phi_T(Phi_T(h)), where Phi_T carries a
terminal h over a horizon T.  A level whose data, and the data of the level
before, are neither truncated nor regularized therefore starts from the
level before's u_n and integrates over T_n only, half its horizon; every
other level starts from terminal 0.  Level n + 1's increment is then
Phi_{T_n}(u_n) - u_n, a stationarity defect of u_n.  Ladder increments
contract super-geometrically once truncation deactivates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import LinAlgError

from .drivers import Driver, truncate_data, yosida_regularize
from .forms import (MAX_DENSE_VALUES, DirichletForm, FormError,
                    GreenOperatorUndefined, SignedMeasure, _band_solve, perturb)
from .markov import (Chain, _lockstep, _mean_se, _path_rng,
                     default_horizon_cap)


class SolverError(RuntimeError):
    """Nonlinear solve failed; the message names the step and node."""


# Newton step tolerance of each implicit step, relative to 1 + max|v|, and
# the Newton iterations a step takes before Gauss-Seidel finishes it.
NEWTON_TOL = 1e-13
MAX_NEWTON = 60
# Yosida grid spacing as a fraction of the a priori radius.
YOSIDA_DELTA_FRAC = 1.0 / 4096.0
# Most node updates, steps * n, that one solve_finite_horizon call takes on.
MAX_STEP_WORK = 2 ** 26
# Horizon ladder: stop when the sup-norm increment between consecutive
# levels is at most LADDER_TOL, with LADDER_STEPS implicit steps per level
# and at most LADDER_MAX_LEVELS doubling horizons.
LADDER_TOL = 1e-8
LADDER_STEPS = 128
LADDER_MAX_LEVELS = 44


@dataclass
class BsdeSolution:
    """The time-0 slice u = v(0, .) of a backward solve, with its diagnostics."""

    u: np.ndarray
    diagnostics: dict = field(default_factory=dict)


_max_reduce = np.maximum.reduce


def _sup(x) -> float:
    """max |x|, the sup-norm of every increment, residual and correction."""
    return float(_max_reduce(np.abs(x)))


def _implicit_step(form, dt, driver, rhs, v_init, factor, refresh, *, tol,
                   max_iter):
    """Solve (M + dt L) v - dt M f(v) = rhs by chord Newton.

    factor is the held banded factor of a step Jacobian, or None to factor
    at v_init; refresh(v) factors the Jacobian at v and returns it.  Returns
    (v, iterations, factor), the factor to hold for the next step.

    The residual kernel F(v) = (M v + dt L v) - dt M f(v) - rhs is built
    once per step over bound locals, with L v from form.matvec and f(v)
    from driver.value.  Each iteration takes three sup-norms, of the
    correction, the new residual and the new iterate: those of F and v
    carry over to the next iteration's tests, and that of a damped
    correction alpha delta is alpha |delta|, exact since alpha is a power
    of two and rounding is monotone.

    The held factor serves as a chord (simplified Newton) operator: the
    step v + delta is kept only if its residual sup-norm is finite and at
    most max(|F|/4, gate).  Otherwise the Jacobian is refactored at the
    current v and a Newton step is taken, damped by a line search.  The
    rule keeps the chord's contraction rate rho at most 1/4, and a
    correction at rate rho understates the remaining error by a factor of
    about rho / (1 - rho), at most 1/3, so the step tolerance holds.
    Affine drivers take one exact linear solve.  A correction that is
    already within tol, at a residual that already meets the gate, is taken
    whole: no damping could improve on a residual at rounding level.  When
    Newton stalls, the step is finished by Gauss-Seidel on the form
    perturbed by 1/dt, whose node equations are the step system divided by
    dt.  The caller names the step in any SolverError raised here.
    """
    m = form.m
    dtm = dt * m
    matvec, value = form.matvec, driver.value

    def residual(v):
        return m * v + dt * matvec(v) - dtm * value(v) - rhs

    exact = driver.constant_slope is not None  # the Newton step is exact
    v = v_init.copy()
    F = residual(v)
    norm = _sup(F)
    gate = max(1e-9 * (1 + norm), 1e2 * tol)
    fresh = factor is None
    if fresh:
        factor = refresh(v)
    v_sup = _sup(v)
    for it in range(1, max_iter + 1):
        try:
            delta = _band_solve(factor, -F, "Newton residual")
        except ValueError as exc:
            raise SolverError(str(exc))
        if exact:
            return v + delta, 1, factor
        d_sup = _sup(delta)
        if d_sup <= tol * (1.0 + v_sup) and norm <= gate:
            return v + delta, it, factor
        alpha = 1.0
        if fresh:
            for _ in range(40):
                v_new = v + alpha * delta
                F_new = residual(v_new)
                norm_new = _sup(F_new)
                if norm_new <= (1 - 0.25 * alpha) * norm + 1e-300:
                    break
                alpha *= 0.5
            fresh = False
        else:
            v_new = v + delta
            F_new = residual(v_new)
            norm_new = _sup(F_new)
            if not norm_new <= max(0.25 * norm, gate):  # also when nan
                factor, fresh = refresh(v), True
                continue
        v, F, norm = v_new, F_new, norm_new
        v_sup = _sup(v)
        if alpha * d_sup <= tol * (1.0 + v_sup):
            if norm <= gate:
                return v, it, factor
    from .elliptic import solve_elliptic_gauss_seidel
    sol = solve_elliptic_gauss_seidel(
        perturb(form, np.full(form.n, 1.0 / dt)), driver,
        SignedMeasure(rhs / dt), x0=v,
        tol=tol * (1.0 + v_sup), max_sweeps=5000)
    return sol.u, max_iter + sol.diagnostics["sweeps"], factor


def solve_finite_horizon(form: DirichletForm, driver: Driver, mu: SignedMeasure,
                         terminal, T: float, dt: float) -> BsdeSolution:
    """Backward implicit-Euler integration of v from v(T, .) = terminal to t = 0.

    Only the current slice is kept, so memory does not grow with the step
    count; the result holds u = v(0, .).  dt is rounded so the grid divides
    T evenly.  A terminal that is not n finite values, or a grid whose
    steps * n node updates would exceed MAX_STEP_WORK, raises FormError
    before any step is taken.  Each step takes at most MAX_NEWTON Newton
    iterations before the Gauss-Seidel fallback.  The step band dt L is
    formed once.  One factor of the step Jacobian is held in one work array
    across all the steps: the first step factors it at the terminal, and a
    step refactors it in place only when a chord step fails to cut the
    residual fourfold (_implicit_step).  For an affine driver the Jacobian
    does not depend on v, so the first factor serves every step.  The
    diagnostics count the steps, the Newton iterations (inner_iterations)
    and the step-Jacobian factorizations (factors).
    """
    if not (np.isfinite(T) and T >= 0):
        raise FormError(f"horizon T must be finite and nonnegative, got {T}")
    if not (np.isfinite(dt) and dt > 0):
        raise FormError(f"step dt must be positive and finite, got {dt}")
    terminal = _checked_u(terminal, form.n, "terminal")
    if T == 0:
        return BsdeSolution(terminal.copy(), {"steps": 0})
    steps = max(1.0, float(np.rint(T / dt)))
    if steps * form.n > MAX_STEP_WORK:
        raise FormError(
            f"horizon T = {T:g} at step dt = {dt:g} takes {steps:g} steps; "
            f"{steps:g} x {form.n} node updates exceed "
            f"MAX_STEP_WORK = {MAX_STEP_WORK}")
    steps = int(steps)
    dt = T / steps
    m = form.m
    dtm = dt * m
    dt_masses = dt * mu.masses
    band = dt * form._lower_band()  # Fortran-ordered, as is work
    work = np.empty_like(band)
    factors = 0

    def refresh(v):
        """Factor the step Jacobian at v in place in work."""
        nonlocal factors
        factors += 1
        np.copyto(work, band)
        slope = driver.constant_slope
        if slope is None:
            slope = np.minimum(driver.deriv(v), 0.0)
        try:
            return form._factor(dt, m - dtm * slope, work)
        except LinAlgError as exc:
            raise SolverError(f"step Jacobian not SPD ({exc})")
        except ValueError as exc:
            raise SolverError(f"step Jacobian {exc}")

    total_iters = 0
    factor = None
    v = terminal.copy()
    for j in range(steps - 1, -1, -1):
        try:
            v, iters, factor = _implicit_step(
                form, dt, driver, m * v + dt_masses, v, factor, refresh,
                tol=NEWTON_TOL, max_iter=MAX_NEWTON)
        except SolverError as exc:
            raise SolverError(f"backward step {j} (t = {j * dt:.6g}): {exc}")
        if not np.isfinite(v).all():
            bad = int(np.argmax(~np.isfinite(v)))
            raise SolverError(f"non-finite value at step {j}, node {bad}")
        total_iters += iters
    return BsdeSolution(v, {"steps": steps, "dt": dt,
                            "inner_iterations": total_iters,
                            "factors": factors})


@dataclass(frozen=True)
class LadderLevel:
    level: int
    horizon: float
    sup_increment: float
    inner_iterations: int
    truncation_active: bool
    yosida_level: int | None
    factors: int


@dataclass
class LadderTrace:
    levels: list
    achieved_tol: float


def _apriori_radius(form, driver, mu):
    """Sup-norm bound 2*||G(M|f0| + |mu|)||_inf when the form is transient."""
    if form.killing_free_component() is not None:
        return None
    rhs = form.m * np.abs(driver.f0()) + np.abs(mu.masses)
    bound = _sup(form.solve(rhs))
    return 2.0 * max(bound, 1e-6)


def _regularization_defect(base: Driver, reg: Driver, span: float) -> float:
    """max of f - f_n on 129 points of [-span, span], at every node.

    Measures both the quadrature spacing error and any takeover by the
    penalty cones anchored at the grid boundary (loose grids on steep
    drivers); the ladder cannot certify accuracy below this defect.
    """
    ys = np.linspace(-span, span, 129)
    idx = np.repeat(np.arange(base.n), ys.size)
    yy = np.tile(ys, base.n)
    gap = base.value_at(idx, yy) - reg.value_at(idx, yy)
    return float(np.max(gap, initial=0.0))


def solve_random_horizon_ladder(form: DirichletForm, driver: Driver,
                                mu: SignedMeasure, *,
                                yosida_radius: float | None = None):
    """Random-horizon solution via the doubling-horizon ladder.

    Level n truncates the data at n, regularizes the driver at Lipschitz
    level n if it has no finite local Lipschitz bound on the a priori range,
    and integrates backward from terminal 0 over [0, T_n], T_n = 2^n t0, in
    LADDER_STEPS steps.  t0 is 1 / (least positive rate), raised to
    ln 2 / spectral gap when the gap exceeds 1e-12.  When truncation
    returned the driver and the measure unchanged at this level and the one
    before (a regularized driver never is unchanged), the level continues
    the one before by the flow property: it starts from u_(n-1) and
    integrates over T_n / 2 only, at the same dt T_n / LADDER_STEPS.  Its
    increment is then Phi_{T_(n-1)}(u_(n-1)) - u_(n-1), the motion of
    u_(n-1) over one more horizon: a stationarity defect, which is what the
    stop rule tests.  Stops when the sup-norm increment between consecutive
    levels is at most LADDER_TOL (or the regularization floor), else raises
    SolverError after LADDER_MAX_LEVELS levels.  The regularization grid has
    half-width yosida_radius, by default the a priori radius of a transient
    form; a recurrent form with a driver that has no slope bound must pass
    it.

    Returns (BsdeSolution, LadderTrace).
    """
    lam = (form.degree + form.k) / form.m
    positive = lam[lam > 0]
    t0 = 1.0 / float(positive.min()) if positive.size else 1.0
    # Starting below the relaxation time makes the early sup-increments
    # grow while the solution mass fills in; the horizon origin is raised
    # to ln2/gap so the recorded increments decrease from the first level.
    gap = form.spectral_gap()
    if gap > 1e-12:
        t0 = max(t0, np.log(2.0) / gap)
    radius = yosida_radius
    if radius is None:
        radius = _apriori_radius(form, driver, mu)
    f0_max = _sup(driver.f0())
    mu_max = _sup(mu.masses) if mu.n else 0.0
    needs_grid = driver.slope_bound(radius if radius is not None else 1.0) is None
    if needs_grid and radius is None:
        raise SolverError(
            "ladder needs a Lipschitz bound or a transient form to size "
            "the regularization grid; pass yosida_radius explicitly")
    green_scale = 0.0
    if needs_grid:
        # driver error delta_f moves the solution by at most |G(M delta_f)|,
        # so the regularization defect caps the achievable ladder tolerance
        try:
            green_scale = _sup(form.solve(form.m))
        except GreenOperatorUndefined:
            green_scale = 1.0

    u_prev = np.zeros(form.n)
    levels = []
    plain_before = False
    for level in range(1, LADDER_MAX_LEVELS + 1):
        T = t0 * 2.0 ** level
        drv = driver
        yosida_level = None
        floor = 0.0
        if needs_grid:
            drv = yosida_regularize(
                driver, level,
                {"R": radius, "delta": radius * YOSIDA_DELTA_FRAC})
            yosida_level = level
            floor = green_scale * _regularization_defect(driver, drv,
                                                         radius / 2.0)
        drv_n, mu_n = truncate_data(drv, mu, level)
        # the data unchanged here and at the level before: by the flow
        # property this level's value is the last u carried over T / 2
        plain = drv_n is driver and mu_n is mu
        flow = plain and plain_before
        plain_before = plain
        sol = solve_finite_horizon(
            form, drv_n, mu_n, u_prev if flow else np.zeros(form.n),
            T / 2.0 if flow else T, T / LADDER_STEPS)
        inc = _sup(sol.u - u_prev)
        levels.append(LadderLevel(
            level=level, horizon=T, sup_increment=inc,
            inner_iterations=sol.diagnostics.get("inner_iterations", 0),
            truncation_active=(f0_max > level or mu_max > level),
            yosida_level=yosida_level,
            factors=sol.diagnostics.get("factors", 0)))
        u_prev = sol.u
        if level >= 2 and inc <= max(LADDER_TOL, floor):
            return sol, LadderTrace(levels, achieved_tol=max(LADDER_TOL, floor))
    incs = [lv.sup_increment for lv in levels]
    raise SolverError(
        f"horizon ladder did not stabilize within {LADDER_MAX_LEVELS} levels; "
        f"sup-increments: {incs} (non-transient form or unbounded solution?)")


def _checkpoint_values(chain: Chain, blocks, horizon: float, u, c, cps):
    """M_t = u(X_t) - u(X_0) + int_0^t c(X_s) ds at the times cps, per path.

    `blocks` is a list of (starts, rng) pairs run in one _lockstep call, so
    the rows of each block equal those of a call on that block alone.  M
    freezes at the lifetime, after the final jump of u to 0.  Holding
    windows [t_entry, t_entry + hold) are contiguous, so a checkpoint before
    a path's end falls in exactly one of them; each path keeps a counter of
    its next checkpoint not yet written, and the checkpoints it never reaches
    (those at or after a killing time) take the frozen value.  cps must be
    strictly increasing and the horizon must lie beyond its last entry.
    Returns a (total paths, cps.size) array, its rows in block order.
    """
    size = sum(np.size(s) for s, _ in blocks)
    vals = np.zeros((size, cps.size))
    m = np.zeros(size)
    k = np.zeros(size, dtype=np.int64)
    due = np.full(size, cps[0])
    cps_inf = np.append(cps, np.inf)
    u0 = np.append(u, 0.0)
    for step in _lockstep(chain, blocks, horizon):
        _record_step(step, vals, m, k, due, u0, c, cps_inf)
        del step  # free its arrays before the engine builds the next Step
    np.copyto(vals, m[:, None], where=np.arange(cps.size) >= k[:, None])
    return vals


def _record_step(step, vals, m, k, due, u0, c, cps_inf):
    """Write the checkpoints inside this Step's windows, then take its jumps.

    Path p's next checkpoint is k[p], due at cps_inf[k[p]] (+inf once all
    are written).  Each pass writes it for every path r of the Step with
    due[r] < t_entry + hold, then moves k and due on by one.  A jump adds
    c(x) hold + (u0[outcome] - u0[x]) to M in one gather and one scatter,
    masked only in a Step that caps some path; u0 is u with u0[-1] = 0
    appended, the value at the cemetery, so a killed path's M ends at its
    frozen value.
    """
    idx = step.idx
    end = step.t_entry + step.hold
    r = np.nonzero(due[idx] < end)[0]
    while r.size:
        rows = idx[r]
        kr = k[rows]
        vals[rows, kr] = m[rows] + c[step.state[r]] * (
            cps_inf[kr] - step.t_entry[r])
        kr += 1
        k[rows] = kr
        due[rows] = cps_inf[kr]
        r = r[due[rows] < end[r]]
    del end, r
    jidx, js, hold = idx, step.state, step.hold
    if step.outcome.size < idx.size:  # a capped path does not jump
        jumps = ~step.capped
        jidx, js, hold = jidx[jumps], js[jumps], hold[jumps]
    mj = m[jidx]
    mj += c[js] * hold
    mj += u0[step.outcome] - u0[js]
    m[jidx] = mj


@dataclass(frozen=True)
class MartingaleReport:
    """Per start node and checkpoint interval: mean increment and its SE."""

    rows: tuple  # (start, t_lo, t_hi, mean, se, zscore)
    max_abs_z: float
    n_paths: int

    def passed(self, gate: float = 4.0) -> bool:
        return self.max_abs_z <= gate


def martingale_residual_check(chain: Chain, u, driver: Driver,
                              mu: SignedMeasure, N: int, seed: int,
                              checkpoints=None, start_nodes=None,
                              drift_allowance: float = 0.0) -> MartingaleReport:
    """MC test that M is a martingale: E_x[M_{t'} - M_t] = 0 at checkpoints.

    N paths are split evenly across the start nodes, and all of them run
    in one lockstep pass: start r's paths form one block on the substream
    _path_rng(seed, r), so each start's values are those it would get
    alone.  The report carries the worst |mean|/SE ratio over all start
    nodes and checkpoint intervals.  drift_allowance (per unit time)
    discounts a known algebraic defect of u before forming the ratio, e.g.
    max|Lu - M f_u - mu|/m for a solution carrying Monte Carlo noise.

    u must be n finite values, start_nodes a non-empty sequence of integer
    nodes in [0, n), N an int of at least 2 paths per start, and checkpoints
    finite, positive and strictly increasing, and N times the number of
    checkpoints (with 0) at most MAX_DENSE_VALUES, the values recorded;
    otherwise FormError names the argument before any path is drawn.
    """
    form = chain.form
    u = _checked_u(u, chain.n)
    if start_nodes is None:
        start_nodes = np.arange(chain.n)
    start_nodes = _checked_starts(start_nodes, chain.n)
    if isinstance(N, bool) or not isinstance(N, (int, np.integer)) \
            or N < 2 * start_nodes.size:
        raise FormError(
            f"N must be an int of at least 2 paths per start node "
            f"({2 * start_nodes.size} for {start_nodes.size} starts), "
            f"got {N!r}")
    if checkpoints is None:
        scale = default_horizon_cap(chain) / 40.0  # about one relaxation time
        checkpoints = scale * np.array([0.25, 0.5, 1.0, 2.0, 4.0, 8.0])
    cps = np.concatenate([[0.0], _checked_checkpoints(checkpoints)])
    if int(N) * cps.size > MAX_DENSE_VALUES:
        raise FormError(
            f"N must be at most {MAX_DENSE_VALUES // cps.size} paths at "
            f"{cps.size} checkpoints, {MAX_DENSE_VALUES} values "
            f"(MAX_DENSE_VALUES), got {N}")
    rho = mu.density(form.space)
    c_vec = driver.value(u) + rho
    per = N // start_nodes.size
    horizon = float(cps[-1]) * (1.0 + 1e-9)
    blocks = [(np.full(per, x0, dtype=np.int64), _path_rng(seed, rank))
              for rank, x0 in enumerate(start_nodes)]
    vals = _checkpoint_values(chain, blocks, horizon, u, c_vec, cps)
    rows = []
    max_z = 0.0
    for rank, x0 in enumerate(start_nodes):
        block = vals[rank * per:(rank + 1) * per]
        for ci in range(cps.size - 1):
            inc = block[:, ci + 1] - block[:, ci]
            mean, se = _mean_se(inc)
            excess = max(0.0, abs(mean)
                         - drift_allowance * float(cps[ci + 1] - cps[ci]))
            z = excess / se if se > 0 else (0.0 if excess < 1e-12 else np.inf)
            max_z = max(max_z, z)
            rows.append((int(x0), float(cps[ci]), float(cps[ci + 1]), mean, se, z))
    return MartingaleReport(tuple(rows), max_z, per * start_nodes.size)


def _checked_u(u, n: int, name: str = "u") -> np.ndarray:
    """u as a float vector of n finite values, or FormError naming the
    argument (name) and what is wrong with it."""
    u = np.asarray(u, dtype=float)
    if u.shape != (n,):
        raise FormError(
            f"{name} must be a vector of {n} values, got shape {u.shape}")
    bad = ~np.isfinite(u)
    if np.any(bad):
        node = int(np.argmax(bad))
        raise FormError(f"{name} must be finite, got {u[node]} at node {node}")
    return u


def _checked_starts(start_nodes, n: int) -> np.ndarray:
    """start_nodes as an int array, or FormError naming what is wrong."""
    starts = np.asarray(start_nodes)
    if starts.ndim != 1 or starts.size == 0:
        raise FormError(
            f"start_nodes must be a non-empty 1-D sequence of nodes, "
            f"got shape {starts.shape}")
    if starts.dtype == bool or not np.issubdtype(starts.dtype, np.integer):
        raise FormError(
            f"start_nodes must be integer nodes, got dtype {starts.dtype}")
    bad = (starts < 0) | (starts >= n)
    if np.any(bad):
        raise FormError(
            f"start_nodes must lie in [0, {n}), got node "
            f"{int(starts[np.argmax(bad)])}")
    return starts.astype(int)


def _checked_checkpoints(checkpoints) -> np.ndarray:
    """checkpoints as a float array, or FormError naming what is wrong."""
    try:
        cps = np.asarray(checkpoints, dtype=float)
    except (TypeError, ValueError):
        raise FormError(f"checkpoints must be numbers, got {checkpoints!r}")
    if cps.ndim != 1 or cps.size == 0 or not np.all(np.isfinite(cps)) \
            or cps[0] <= 0.0 or np.any(np.diff(cps) <= 0.0):
        raise FormError(
            f"checkpoints must be a non-empty sequence of finite, positive, "
            f"strictly increasing times, got {cps.tolist()}")
    return cps
