import hashlib
import time
import tracemalloc

import numpy as np
import pytest

import formlab as fl
from formlab import bsde
from formlab.bsde import SolverError, _checkpoint_values
from formlab.markov import _occupation, _path_rng
from oracles import CallableDriver, extract_martingale, mc_expectation
from randomized import (random_measure, random_monotone_driver,
                        random_shaped_form, random_transient_form)


def single_node(m=1.0, k=1.0):
    space = fl.StateSpace(np.array([m]))
    return fl.build_form(space, np.zeros((1, 1)), np.array([k]))


# -- finite horizon ------------------------------------------------------------

def test_scalar_linear_source():
    # dv/dt = v - 1 backward from v(T) = 0 gives v(0) = 1 - e^-T
    form = single_node()
    T = 2.0
    sol = fl.solve_finite_horizon(form, fl.Driver.zero(1),
                                  fl.SignedMeasure(np.array([1.0])),
                                  np.zeros(1), T, dt=T / 8000)
    assert sol.u[0] == pytest.approx(1 - np.exp(-T), abs=4e-4)


def test_zero_horizon_returns_terminal():
    form = single_node()
    term = np.array([3.14])
    sol = fl.solve_finite_horizon(form, fl.Driver.zero(1),
                                  fl.SignedMeasure(np.zeros(1)), term, 0.0, 1.0)
    assert np.array_equal(sol.u, term)


def test_scalar_linear_damping():
    # f(y) = -c y, terminal h: v(0) = h exp(-(1+c) T)
    c, h, T = 0.7, 1.3, 1.5
    form = single_node()
    sol = fl.solve_finite_horizon(form, fl.Driver.affine(1, 0.0, -c),
                                  fl.SignedMeasure(np.zeros(1)),
                                  np.array([h]), T, dt=T / 8000)
    assert sol.u[0] == pytest.approx(h * np.exp(-(1 + c) * T), abs=4e-4)


def test_terminal_slice_bit_exact():
    # the solve reads the terminal slice without writing to it
    rng = np.random.default_rng(1)
    form = random_transient_form(rng, 5, 8)
    term = rng.normal(size=form.n)
    kept = term.copy()
    sol = fl.solve_finite_horizon(form, fl.Driver.zero(form.n),
                                  fl.SignedMeasure(np.zeros(form.n)),
                                  term, 1.0, 0.125)
    assert np.array_equal(term, kept)
    assert sol.diagnostics["steps"] == 8
    assert np.all(np.isfinite(sol.u))


def test_first_order_step_convergence():
    # halving dt roughly halves the error on a smooth problem
    form = single_node()
    drv = fl.Driver.power(1, 1.0, 3.0, 0.5)
    mu = fl.SignedMeasure(np.array([0.25]))
    T = 1.0
    ref = fl.solve_finite_horizon(form, drv, mu, np.zeros(1), T, T / 16384).u[0]
    errs = [abs(fl.solve_finite_horizon(form, drv, mu, np.zeros(1), T,
                                        T / nsteps).u[0] - ref)
            for nsteps in (64, 128, 256)]
    for e0, e1 in zip(errs, errs[1:]):
        assert e0 / e1 == pytest.approx(2.0, rel=0.35)


def test_rejects_bad_arguments():
    form = single_node()
    with pytest.raises(fl.FormError):
        fl.solve_finite_horizon(form, fl.Driver.zero(1),
                                fl.SignedMeasure(np.zeros(1)),
                                np.zeros(1), -1.0, 0.1)
    with pytest.raises(fl.FormError):
        fl.solve_finite_horizon(form, fl.Driver.zero(1),
                                fl.SignedMeasure(np.zeros(1)),
                                np.zeros(2), 1.0, 0.1)


def test_failed_step_named_once():
    # b > 0 makes the step Jacobian indefinite once dt*b*m outweighs M + dt L
    p = fl.build_catalog_problem(
        {"family": "lap1d", "n": 16, "driver": {"family": "affine", "b": 50.0},
         "measure": [{"x": 0.5, "mass": 1.0}]})
    with pytest.raises(SolverError) as err:
        fl.solve_finite_horizon(p.form, p.driver, p.mu, np.zeros(16),
                                1.0, 1.0 / 8)
    msg = str(err.value)
    assert msg.startswith("backward step 7 (t = 0.875): step Jacobian not SPD")
    assert msg.count("step 7") == 1


def test_affine_solve_factors_step_jacobian_once(monkeypatch):
    rng = np.random.default_rng(47)
    form = random_transient_form(rng, 6, 12)
    drv = fl.Driver.affine(form.n, rng.normal(size=form.n),
                           -rng.uniform(0.0, 2.0, size=form.n))
    mu = random_measure(rng, form.n)
    steps, dt = 16, 0.125
    calls = []
    factor = fl.DirichletForm._factor

    def counted(*args, **kwargs):
        calls.append(1)
        return factor(*args, **kwargs)

    monkeypatch.setattr(fl.DirichletForm, "_factor", counted)
    sol = fl.solve_finite_horizon(form, drv, mu, np.zeros(form.n),
                                  steps * dt, dt)
    assert len(calls) == 1
    # the same steps one solve at a time, each factoring its own Jacobian
    v = np.zeros(form.n)
    for _ in range(steps):
        v = fl.solve_finite_horizon(form, drv, mu, v, dt, dt).u
    assert np.array_equal(sol.u, v)
    assert len(calls) == 1 + steps


def test_non_finite_step_named():
    # f turns nan above 0.05: the central-difference slope, and with it the
    # step Jacobian's diagonal, goes nan first
    p = fl.build_catalog_problem(
        {"family": "lap1d", "n": 16, "measure": [{"x": 0.5, "mass": 1.0}]})
    drv = CallableDriver(
        16, lambda i, y: np.where(y > 0.05, np.nan, -y),
        monotone=True, lipschitz=1.0)
    with pytest.raises(SolverError, match=r"^backward step \d+ \(t = .*\): "
                       r"step Jacobian diagonal is not finite at node \d+"):
        fl.solve_random_horizon_ladder(p.form, drv, p.mu)
    # f is nan at y = 0 alone, so the slopes stay finite and the first
    # residual is what fails
    drv = CallableDriver(
        16, lambda i, y: np.where(y == 0.0, np.nan, -y),
        monotone=True, lipschitz=1.0)
    with pytest.raises(SolverError) as err:
        fl.solve_finite_horizon(p.form, drv, p.mu, np.zeros(16), 1.0, 0.125)
    assert str(err.value) == ("backward step 7 (t = 0.875): Newton residual "
                              "is not finite at node 0 (nan)")


@pytest.mark.parametrize("driver", ["zero", "power"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_terminal_named_before_any_step(driver, value, monkeypatch):
    p = fl.build_catalog_problem("perturbed-g")
    drv = fl.Driver.zero(p.form.n) if driver == "zero" else p.driver

    def no_step(*args, **kwargs):
        raise AssertionError("a backward step ran")

    monkeypatch.setattr(bsde, "_implicit_step", no_step)
    terminal = np.zeros(p.form.n)
    terminal[3] = value
    with pytest.raises(fl.FormError,
                       match=rf"^terminal must be finite, got {value} at node 3$"):
        fl.solve_finite_horizon(p.form, drv, p.mu, terminal, 1.0, 0.125)


@pytest.mark.parametrize("kwargs, name", [
    ({"T": np.nan}, "T"), ({"T": np.inf}, "T"), ({"T": -1.0}, "T"),
    ({"dt": np.nan}, "dt"), ({"dt": np.inf}, "dt"), ({"dt": 0.0}, "dt"),
    ({"dt": -0.5}, "dt"),
])
def test_hostile_ladder_arguments_named(kwargs, name):
    p = fl.build_catalog_problem("perturbed-g")
    t0 = time.perf_counter()
    args = {"T": 1.0, "dt": 0.125, **kwargs}
    with pytest.raises(fl.FormError, match=rf"\b{name}\b.*, got "):
        fl.solve_finite_horizon(p.form, p.driver, p.mu,
                                np.zeros(p.form.n), args["T"], args["dt"])
    assert time.perf_counter() - t0 < 2.0


@pytest.mark.parametrize("dt", [1e-300, 1e-12])
def test_finite_horizon_surface_bounded_before_allocation(dt):
    # 1e-300 and 1e-12 would ask for about 1e300 and 1e12 steps of n nodes
    p = fl.build_catalog_problem("perturbed-g")
    tracemalloc.start()
    try:
        with pytest.raises(fl.FormError,
                           match=r"T = 1 at step dt = .* takes .* steps"):
            fl.solve_finite_horizon(p.form, p.driver, p.mu,
                                    np.zeros(p.form.n), 1.0, dt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("regularized", [False, True])
def test_step_fallback_matches_newton(regularized, monkeypatch):
    # MAX_NEWTON = 0 hands every implicit step to the Gauss-Seidel fallback
    rng = np.random.default_rng(45)
    form = random_transient_form(rng, 6, 12)
    drv = random_monotone_driver(rng, form.n)
    if regularized:
        drv = fl.yosida_regularize(drv, 4, {"R": 4.0, "delta": 4.0 / 2048})
    mu = random_measure(rng, form.n)
    T = 4.0 / float(np.min((form.degree + form.k) / form.m))
    args = (form, drv, mu, np.zeros(form.n), T, T / 32)
    newton = fl.solve_finite_horizon(*args)
    monkeypatch.setattr(bsde, "MAX_NEWTON", 0)
    fallback = fl.solve_finite_horizon(*args)
    assert fallback.diagnostics["inner_iterations"] > newton.diagnostics["steps"]
    assert np.max(np.abs(fallback.u - newton.u)) <= 1e-10


def test_finite_horizon_memory_independent_of_steps():
    # only the current slice is kept: 8,192 steps on lap2d's 256 nodes stay
    # far below the 16.8 MB that a (steps + 1) x n surface would take
    p = fl.build_catalog_problem("lap2d")
    n = p.form.n
    assert n == 256
    drv = fl.Driver.affine(n, np.ones(n), -1.0)
    tracemalloc.start()
    try:
        sol = fl.solve_finite_horizon(p.form, drv, p.mu, np.zeros(n),
                                      8.0, 8.0 / 8192)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.diagnostics["steps"] == 8192
    assert peak < 2 * 10 ** 6, peak


# -- random-horizon ladder ------------------------------------------------------

def test_ladder_zero_data():
    rng = np.random.default_rng(2)
    form = random_transient_form(rng, 5, 8)
    sol, trace = fl.solve_random_horizon_ladder(
        form, fl.Driver.zero(form.n), fl.SignedMeasure(np.zeros(form.n)))
    np.testing.assert_allclose(sol.u, 0.0, atol=1e-15)
    assert all(lv.sup_increment == 0.0 for lv in trace.levels)


def test_ladder_linear_matches_direct_solve():
    rng = np.random.default_rng(3)
    form = random_transient_form(rng, 6, 14)
    g = rng.normal(size=form.n)
    mu = random_measure(rng, form.n)
    sol, _ = fl.solve_random_horizon_ladder(
        form, fl.Driver.affine(form.n, g, 0.0), mu)
    exact = form.solve(form.m * g + mu.masses)
    assert np.max(np.abs(sol.u - exact)) <= 1e-7


def test_ladder_scalar_cubic_root():
    # u = 1 - u^3 has the root bisected here as the independent oracle
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid ** 3 + mid - 1 < 0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    assert root == pytest.approx(0.6823278, abs=1e-7)
    form = single_node()
    sol, _ = fl.solve_random_horizon_ladder(
        form, fl.Driver.power(1, 1.0, 3.0, 1.0),
        fl.SignedMeasure(np.zeros(1)))
    assert sol.u[0] == pytest.approx(root, abs=1e-8)


def test_ladder_non_stabilization_diagnostic():
    # recurrent chain with a pure source never settles
    space = fl.StateSpace(np.ones(2))
    form = fl.build_form(space, np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros(2))
    with pytest.raises(SolverError, match="sup-increments"):
        fl.solve_random_horizon_ladder(
            form, fl.Driver.affine(2, 1.0, 0.0),
            fl.SignedMeasure(np.zeros(2)), yosida_radius=5.0)


def test_yosida_ladder_monotone_solutions():
    # fixed data and horizon, rising regularization levels: u nondecreasing
    rng = np.random.default_rng(4)
    form = random_transient_form(rng, 5, 8)
    base = CallableDriver(
        form.n, lambda idx, y: 0.5 - y ** 3, monotone=True)
    mu = random_measure(rng, form.n, nonneg=True)
    radius = 2.0 + 2.0 * float(np.max(np.abs(
        form.solve(form.m * np.abs(base.f0()) + mu.masses))))
    T = 8.0 / float(np.min((form.degree + form.k) / form.m))
    prev = None
    for level in (2, 4, 8, 16):
        reg = fl.yosida_regularize(base, level,
                                   {"R": radius, "delta": radius / 2048})
        sol = fl.solve_finite_horizon(form, reg, mu, np.zeros(form.n),
                                      T, T / 256)
        if prev is not None:
            assert np.all(sol.u >= prev - 1e-7)
        prev = sol.u


def test_ladder_regularizes_unmetered_driver():
    # a callable driver without Lipschitz metadata goes through the
    # inf-convolution route; accuracy is then capped by the reported
    # regularization floor, which is tight for a well-sized grid radius
    rng = np.random.default_rng(44)
    form = random_transient_form(rng, 6, 6)
    g = rng.normal(size=form.n)
    raw = CallableDriver(
        form.n, lambda idx, y, g=g: g[idx] - y ** 3, monotone=True)
    mu = random_measure(rng, form.n, nonneg=True)
    sol, trace = fl.solve_random_horizon_ladder(form, raw, mu,
                                                yosida_radius=3.0)
    assert any(lv.yosida_level is not None for lv in trace.levels)
    assert trace.achieved_tol > 0
    oracle = fl.solve_elliptic_gauss_seidel(
        form, fl.Driver.power(form.n, 1.0, 3.0, g), mu, tol=1e-12)
    assert np.max(np.abs(sol.u - oracle.u)) <= 3 * trace.achieved_tol


def test_ladder_loose_grid_reports_honest_floor():
    # with the default (loose) radius the boundary cones dominate a steep
    # driver; the ladder still stops but certifies only a large tolerance
    rng = np.random.default_rng(44)
    form = random_transient_form(rng, 6, 6)
    g = rng.normal(size=form.n)
    raw = CallableDriver(
        form.n, lambda idx, y, g=g: g[idx] - y ** 3, monotone=True)
    mu = random_measure(rng, form.n, nonneg=True)
    sol, trace = fl.solve_random_horizon_ladder(form, raw, mu)
    oracle = fl.solve_elliptic_gauss_seidel(
        form, fl.Driver.power(form.n, 1.0, 3.0, g), mu, tol=1e-12)
    gap = float(np.max(np.abs(sol.u - oracle.u)))
    assert gap <= trace.achieved_tol


# reference values from the brute-force envelope (a min over every grid point)
SQRT_LADDER_LEVELS = 3
SQRT_LADDER_INNER = 1805
SQRT_LADDER_TOL = 0.02341373425603003
SQRT_LADDER_U = [
    0.050813063238960565, 0.09860488010667663, 0.14372544171140417,
    0.18643326211690478, 0.22693819975977372, 0.26541700544406605,
    0.30202410339944125, 0.3368956290916659, 0.30765261883087275,
    0.2766941820743552, 0.2439082479106313, 0.2091667650423721,
    0.17232517070999995, 0.13321516618626694, 0.09163742777589304,
    0.04734481266833335]


def test_ladder_regularized_path_pinned():
    # p = 0.5 has no slope bound at 0, so every level runs on the envelope
    p = fl.build_catalog_problem(
        {"family": "lap1d", "n": 16,
         "driver": {"family": "power", "c": 1.0, "p": 0.5, "g": 1.0},
         "measure": [{"x": 0.5, "mass": 1.0}]})
    sol, trace = fl.solve_random_horizon_ladder(p.form, p.driver, p.mu)
    assert all(lv.yosida_level == lv.level for lv in trace.levels)
    assert len(trace.levels) == SQRT_LADDER_LEVELS
    assert sum(lv.inner_iterations for lv in trace.levels) == SQRT_LADDER_INNER
    assert trace.achieved_tol == SQRT_LADDER_TOL
    assert np.max(np.abs(sol.u - SQRT_LADDER_U)) <= 1e-12


def _spied_ladder(monkeypatch, problem):
    """The ladder on problem, with the (terminal, T, dt, solution) of each
    solve_finite_horizon call it makes, one per level."""
    calls = []
    solve = bsde.solve_finite_horizon

    def spy(form, driver, mu, terminal, T, dt):
        sol = solve(form, driver, mu, terminal, T, dt)
        calls.append((terminal.copy(), T, dt, sol))
        return sol

    monkeypatch.setattr(bsde, "solve_finite_horizon", spy)
    sol, trace = fl.solve_random_horizon_ladder(
        problem.form, problem.driver, problem.mu)
    assert len(calls) == len(trace.levels)
    return sol, trace, calls


def _flow_levels(trace, calls):
    """The levels that carried the level before's u over half their
    horizon; every other level integrates from 0 over its whole horizon."""
    flowed = []
    for i, (lv, (terminal, T, dt, _)) in enumerate(zip(trace.levels, calls)):
        assert dt == lv.horizon / bsde.LADDER_STEPS
        if T == lv.horizon / 2:
            assert i > 0 and np.array_equal(terminal, calls[i - 1][3].u)
            flowed.append(lv.level)
        else:
            assert T == lv.horizon and not terminal.any()
    return flowed


def test_ladder_takes_converged_newton_steps_whole(monkeypatch):
    # once a Newton correction is within tol at a rounding-level residual,
    # no damping can pass the line search's decrease test; the step is
    # taken whole, so each Newton iteration costs at most two driver values
    p = fl.build_catalog_problem("lap2d")
    calls = []
    value = fl.Driver.value

    def counted(self, u):
        calls.append(1)
        return value(self, u)

    monkeypatch.setattr(fl.Driver, "value", counted)
    _, trace, solves = _spied_ladder(monkeypatch, p)
    inner = [lv.inner_iterations for lv in trace.levels]
    assert inner == [639, 253, 251, 192, 128, 82]
    steps = sum(s.diagnostics["steps"] for *_, s in solves)
    assert len(calls) <= steps + 2 * sum(inner)


def test_ladder_reports_factors_per_level():
    # lap2d's chord steps all cut the residual fourfold: each level factors
    # its step Jacobian once, at its terminal
    p = fl.build_catalog_problem("lap2d")
    sol, trace = fl.solve_random_horizon_ladder(p.form, p.driver, p.mu)
    assert [lv.factors for lv in trace.levels] == [1, 1, 1, 1, 1, 1]
    assert sol.diagnostics["factors"] == trace.levels[-1].factors


@pytest.mark.parametrize("pid", fl.catalog_ids())
def test_ladder_factors_at_most_twice_per_level(pid, monkeypatch):
    # the step Jacobian's factor is held across the steps of a level and
    # refreshed only when a chord step fails to cut the residual fourfold
    p = fl.build_catalog_problem(pid)
    calls = []
    factor = fl.DirichletForm._factor

    def counted(*args, **kwargs):
        calls.append(1)
        return factor(*args, **kwargs)

    monkeypatch.setattr(fl.DirichletForm, "_factor", counted)
    _, trace = fl.solve_random_horizon_ladder(p.form, p.driver, p.mu)
    assert len(calls) <= 2 * len(trace.levels)


@pytest.mark.parametrize("desc, first", [
    # untruncated, unregularized data from level 1 on
    ("lap2d", 2),
    # p = 0.5 runs every level on its own Yosida envelope
    ({"family": "lap1d", "n": 16,
      "driver": {"family": "power", "c": 1.0, "p": 0.5, "g": 1.0},
      "measure": [{"x": 0.5, "mass": 1.0}]}, None),
    # a mass-3 atom is clamped at levels 1 and 2; level 3 has the whole
    # atom but the level before did not
    ({"family": "lap1d", "n": 16, "measure": [{"x": 0.5, "mass": 3.0}]}, 4),
], ids=["plain", "yosida", "truncated"])
def test_ladder_flow_levels(desc, first, monkeypatch):
    # a level carries the level before's u over half its horizon only
    # when both levels ran on the untruncated, unregularized data
    _, trace, calls = _spied_ladder(monkeypatch,
                                    fl.build_catalog_problem(desc))
    flowed = _flow_levels(trace, calls)
    if first is None:
        assert flowed == []
    else:
        assert len(trace.levels) > first
        assert flowed == list(range(first, len(trace.levels) + 1))
        assert not any(lv.truncation_active
                       for lv in trace.levels[first - 2:])
        assert first == 2 or trace.levels[first - 3].truncation_active


@pytest.mark.parametrize("desc, digest", [
    # f0 = 2.5 is clamped at levels 1 and 2: the truncated family over an
    # affine base, whose constant slope gives one exact solve per step
    ({"family": "lap2d", "n": 8,
      "driver": {"family": "affine", "a": 2.5, "b": -1.5},
      "measure": [{"x": [0.5, 0.5], "mass": 1.0}]},
     "d8b56af175289e5b91898335072042d8a6c26eb2500ddd6c726c30df4696e92a"),
    # the mass-3 atom of test_ladder_flow_levels, clamped at levels 1 and 2
    ({"family": "lap1d", "n": 16, "measure": [{"x": 0.5, "mass": 3.0}]},
     "48c6ae8124d0b5fafeb67ead2fcbc0b8d16b8c87e03912aa465e43eb261e9113"),
], ids=["affine", "truncated"])
def test_ladder_step_branches_pinned(desc, digest):
    # the exact affine step and the truncated data, bit for bit
    p = fl.build_catalog_problem(desc)
    sol, trace = fl.solve_random_horizon_ladder(p.form, p.driver, p.mu)
    assert [lv.inner_iterations for lv in trace.levels] == \
        [128, 128, 128, 64, 64, 64]
    assert [lv.truncation_active for lv in trace.levels] == \
        [True, True, False, False, False, False]
    assert hashlib.sha256(sol.u.tobytes()).hexdigest() == digest


def test_l1_bound_along_truncation_levels():
    # at each truncation level the elliptic limit of the truncated problem
    # keeps the integrability bound with its own truncated data
    rng = np.random.default_rng(46)
    form = random_transient_form(rng, 8, 14)
    driver = random_monotone_driver(rng, form.n)
    mu = fl.SignedMeasure(3.0 * random_measure(rng, form.n).masses)
    for level in (1, 2, 3, 5):
        drv_n, mu_n = fl.truncate_data(driver, mu, level)
        sol = fl.solve_elliptic_gauss_seidel(form, drv_n, mu_n, tol=1e-12)
        lhs = float(np.sum(form.m * np.abs(drv_n.value(sol.u))))
        rhs = float(np.sum(form.m * np.abs(drv_n.f0()))) + mu_n.total_variation
        assert lhs <= rhs + 1e-9


def test_truncation_deactivation_recorded():
    form = single_node()
    mu = fl.SignedMeasure(np.array([3.0]))
    sol, trace = fl.solve_random_horizon_ladder(
        form, fl.Driver.zero(1), mu)
    active = [lv.truncation_active for lv in trace.levels]
    assert active[0] and active[1]          # levels 1, 2 clamp mass 3
    assert not any(active[3:])
    # final value matches the untruncated direct solve
    assert sol.u[0] == pytest.approx(3.0, abs=1e-7)


# -- martingale extraction -------------------------------------------------------

def test_martingale_harmonic_function():
    # f = 0, mu = 0, Lu = 0: M_t = u(X_t) - u(X_0) along every path
    space = fl.StateSpace(np.ones(3))
    W = np.zeros((3, 3))
    W[0, 1] = W[1, 0] = 1.0
    W[1, 2] = W[2, 1] = 1.0
    form = fl.build_form(space, W, np.zeros(3))
    u = np.full(3, 2.5)   # constants are harmonic without killing
    chain = fl.build_chain(form)
    path = fl.sample_path(chain, 0, seed=3, horizon_cap=5.0)
    times, M = extract_martingale(path, u, fl.Driver.zero(3),
                                  fl.SignedMeasure(np.zeros(3)), form)
    np.testing.assert_allclose(M, 0.0, atol=1e-14)


def test_martingale_constant_on_absorbing_alive_node():
    space = fl.StateSpace(np.ones(1))
    form = fl.build_form(space, np.zeros((1, 1)), np.zeros(1))
    chain = fl.build_chain(form)
    path = fl.sample_path(chain, 0, seed=1, horizon_cap=4.0)
    _, M = extract_martingale(path, np.array([1.0]), fl.Driver.zero(1),
                              fl.SignedMeasure(np.zeros(1)), form)
    np.testing.assert_allclose(M, 0.0, atol=1e-15)


def test_martingale_terminal_value_single_node():
    # u = 1, kappa = 1, rho = 1, f = 0: M at the lifetime equals zeta - 1
    form = single_node()
    chain = fl.build_chain(form)
    mu = fl.SignedMeasure(np.array([1.0]))
    u = np.array([1.0])
    drv = fl.Driver.zero(1)

    def terminal_m(path):
        _, M = extract_martingale(path, u, drv, mu, form)
        return M[-1]

    path = fl.sample_path(chain, 0, seed=9, horizon_cap=1e6)
    assert terminal_m(path) == pytest.approx(path.zeta - 1.0, rel=1e-12)
    mean, se = mc_expectation(chain, 0, terminal_m, 100_000, seed=10)
    assert abs(mean) <= 3 * se


# -- martingale residual check ---------------------------------------------------

@pytest.fixture(scope="module")
def residual_setup():
    rng = np.random.default_rng(21)
    form = random_transient_form(rng, 6, 6)
    drv = fl.Driver.power(form.n, 0.5, 2.0, rng.normal(size=form.n))
    mu = random_measure(rng, form.n)
    sol = fl.solve_elliptic_gauss_seidel(form, drv, mu, tol=1e-13)
    return form, drv, mu, sol


def test_martingale_residual_true_solution(residual_setup):
    form, drv, mu, sol = residual_setup
    chain = fl.build_chain(form)
    rep = fl.martingale_residual_check(chain, sol.u, drv, mu,
                                       N=100_000, seed=9)
    assert rep.passed(4.0), rep.max_abs_z


def test_martingale_residual_detects_perturbation(residual_setup):
    form, drv, mu, sol = residual_setup
    chain = fl.build_chain(form)
    bad = sol.u.copy()
    bad[2] += 1.0
    rep = fl.martingale_residual_check(chain, bad, drv, mu,
                                       N=100_000, seed=9)
    assert not rep.passed(4.0)
    assert rep.max_abs_z > 10


def test_zero_problem_increments_identically_zero():
    space = fl.StateSpace(np.ones(2))
    form = fl.build_form(space, np.array([[0.0, 1.0], [1.0, 0.0]]),
                         np.array([0.5, 0.5]))
    chain = fl.build_chain(form)
    rep = fl.martingale_residual_check(
        chain, np.zeros(2), fl.Driver.zero(2),
        fl.SignedMeasure(np.zeros(2)), N=2000, seed=1)
    assert rep.max_abs_z == 0.0


def test_lockstep_engine_matches_single_path_exactly():
    # with one start, the lockstep engine and sample_path walk the same path
    # on the same substream, so its sums must equal the per-path references
    rng = np.random.default_rng(41)
    form = random_transient_form(rng, 6, 9)
    drv = random_monotone_driver(rng, form.n)
    mu = random_measure(rng, form.n)
    u = rng.normal(size=form.n)
    c = drv.value(u) + mu.density(form.space)
    chain = fl.build_chain(form)
    scale = fl.default_horizon_cap(chain) / 40.0
    cps = scale * np.array([0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0])
    horizon = float(cps.max()) * (1.0 + 1e-9)
    for i in range(300):
        x = i % form.n
        path = fl.sample_path(chain, x, 0, horizon, rng=_path_rng(7, i))
        occ, _ = _occupation(chain, [([x], _path_rng(7, i))], horizon)
        ref = np.zeros(form.n)
        np.add.at(ref, path.states, path.holds)
        assert np.array_equal(occ[0], ref)

        vals = _checkpoint_values(chain, [([x], _path_rng(7, i))], horizon,
                                  u, c, cps)
        times, M = extract_martingale(path, u, drv, mu, form)
        j = np.searchsorted(times, cps, side="right") - 1
        alive = j < len(path)
        jj = np.where(alive, j, 0)
        expect = np.where(alive,
                          M[jj] + c[path.states[jj]] * (cps - times[jj]),
                          M[-1])
        assert np.array_equal(vals[0], expect)



def _with_isolated_node(form):
    """The form with one more node, which neither jumps nor dies."""
    n = form.n
    W = np.zeros((n + 1, n + 1))
    W[:n, :n] = form.W.toarray()
    return fl.build_form(fl.StateSpace(np.append(form.m, 1.0)), W,
                         np.append(form.k, 0.0))


@pytest.mark.parametrize("kind", ["path", "grid", "dense"])
@pytest.mark.parametrize("case", ["uncapped", "capped", "zero-rate"])
def test_martingale_starts_run_as_if_alone(kind, case):
    # one lockstep pass over every start stacks the one-block recordings bit
    # for bit, whether paths die, are cut at the horizon or hold forever
    rng = np.random.default_rng(["path", "grid", "dense"].index(kind))
    form = random_shaped_form(rng, kind, 9)
    if case == "zero-rate":
        form = _with_isolated_node(form)
    chain = fl.build_chain(form)
    u = rng.normal(size=form.n)
    c = rng.normal(size=form.n)
    scale = fl.default_horizon_cap(chain) / 40.0
    cps = scale * np.array([0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0])
    horizon = scale if case == "capped" else np.inf
    starts = [rng.integers(0, form.n, size=size) for size in (1, 37, 200, 5)]
    if case == "zero-rate":
        starts.insert(2, np.full(3, form.n - 1))

    def blocks():
        return [(s, _path_rng(11, b)) for b, s in enumerate(starts)]

    merged = _checkpoint_values(chain, blocks(), horizon, u, c, cps)
    alone = [_checkpoint_values(chain, [block], horizon, u, c, cps)
             for block in blocks()]
    assert np.array_equal(merged, np.vstack(alone))
    _, capped = _occupation(chain, blocks(), horizon)
    assert (capped > 0) == (case != "uncapped")
    if case == "zero-rate":  # a path that never moves keeps M = c t
        frozen = merged[38:41]
        assert np.array_equal(frozen, np.tile(c[-1] * cps, (3, 1)))


@pytest.fixture(scope="module")
def hostile_setup():
    rng = np.random.default_rng(22)
    form = random_transient_form(rng, 6, 6)
    return fl.build_chain(form), rng.normal(size=form.n), \
        random_monotone_driver(rng, form.n), random_measure(rng, form.n)


@pytest.mark.parametrize("kwargs, name", [
    ({"start_nodes": []}, "start_nodes"),
    ({"start_nodes": [-1]}, "start_nodes"),
    ({"start_nodes": [6]}, "start_nodes"),
    ({"start_nodes": [0.5]}, "start_nodes"),
    ({"start_nodes": [True]}, "start_nodes"),
    ({"start_nodes": [[0, 1]]}, "start_nodes"),
    ({"N": 1}, "N"), ({"N": 0}, "N"), ({"N": -5}, "N"), ({"N": 2.5}, "N"),
    ({"N": 3, "start_nodes": [0, 1]}, "N"),
    ({"checkpoints": [2.0, 1.0]}, "checkpoints"),
    ({"checkpoints": [1.0, 1.0]}, "checkpoints"),
    ({"checkpoints": []}, "checkpoints"),
    ({"checkpoints": [0.0]}, "checkpoints"),
    ({"checkpoints": [-1.0, 1.0]}, "checkpoints"),
    ({"checkpoints": [0.5, np.nan]}, "checkpoints"),
    ({"checkpoints": [0.5, np.inf]}, "checkpoints"),
    ({"checkpoints": "soon"}, "checkpoints"),
    ({"N": 10 ** 8}, "N"),
])
def test_hostile_martingale_arguments_named(hostile_setup, monkeypatch,
                                            kwargs, name):
    # each is refused by name before any path is drawn
    chain, u, drv, mu = hostile_setup
    assert chain.n == 6
    drawn = []
    monkeypatch.setattr(fl.bsde, "_lockstep",
                        lambda *args: drawn.append(args) or iter(()))
    with pytest.raises(fl.FormError, match=rf"\b{name}\b.*, got "):
        fl.martingale_residual_check(chain, u, drv, mu,
                                     **{"N": 100, "seed": 0, **kwargs})
    assert drawn == []


BAD_U = {
    "one-nan": lambda n: np.where(np.arange(n) == 0, np.nan, 0.5),
    "all-nan": lambda n: np.full(n, np.nan),
    "one-inf": lambda n: np.where(np.arange(n) == n - 1, np.inf, 0.5),
    "wrong-length": lambda n: np.zeros(3),
}


@pytest.mark.parametrize("check", ["martingale", "verify"])
@pytest.mark.parametrize("case", sorted(BAD_U))
def test_bad_u_named_before_any_path(monkeypatch, check, case):
    # a NaN u once passed the martingale row with z = 0, and a short one
    # ended in a numpy broadcast error; both are now refused by name
    p = fl.build_catalog_problem("perturbed-g")
    chain = fl.build_chain(p.form)
    u = BAD_U[case](p.form.n)
    drawn = []
    monkeypatch.setattr(fl.bsde, "_lockstep",
                        lambda *args: drawn.append(args) or iter(()))
    monkeypatch.setattr(fl.elliptic, "build_chain",
                        lambda *args: drawn.append(args))
    with pytest.raises(fl.FormError, match=r"\bu\b.*, got "):
        if check == "martingale":
            fl.martingale_residual_check(chain, u, p.driver, p.mu,
                                         N=100, seed=0)
        else:
            sol = fl.EllipticSolution(u, 0.0, "gauss-seidel")
            fl.verify_solution(p, sol)
    assert drawn == []


def test_martingale_check_memory_bounded():
    # 8 starts x 4,000 paths in one pass: the engine keeps only the alive
    # paths and the recorder frees each Step, so no width-by-checkpoint
    # temporary or second generation of arrays lifts the peak
    p = fl.build_catalog_problem(
        {"family": "lap1d", "n": 24,
         "driver": {"family": "power", "c": 1.0, "p": 2.0, "g": 1.0},
         "measure": [{"x": 0.5, "mass": 1.0}]})
    sol = fl.solve_elliptic_gauss_seidel(p.form, p.driver, p.mu, tol=1e-11)
    chain = fl.build_chain(p.form)
    starts = np.unique(np.linspace(0, p.form.n - 1, 8).astype(int))
    assert starts.size == 8
    tracemalloc.start()
    try:
        rep = fl.martingale_residual_check(chain, sol.u, p.driver, p.mu,
                                           N=32_000, seed=1,
                                           start_nodes=starts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.n_paths == 32_000
    assert peak < 8 * 2 ** 20, peak


# -- comparison -------------------------------------------------------------------

def test_comparison_added_atom():
    rng = np.random.default_rng(32)
    form = random_transient_form(rng, 6, 10)
    drv = random_monotone_driver(rng, form.n)
    mu1 = random_measure(rng, form.n)
    bump = np.zeros(form.n)
    bump[3] = 1.0
    mu2 = fl.SignedMeasure(mu1.masses + bump)
    s1 = fl.solve_elliptic_gauss_seidel(form, drv, mu1)
    s2 = fl.solve_elliptic_gauss_seidel(form, drv, mu2)
    # resolvent positivity oracle for the linearized gap
    assert np.all(s2.u >= s1.u - 1e-10)


def test_comparison_shifted_driver():
    rng = np.random.default_rng(33)
    form = random_transient_form(rng, 6, 10)
    g = rng.normal(size=form.n)
    d1 = fl.Driver.power(form.n, 1.0, 2.0, g)
    d2 = fl.Driver.power(form.n, 1.0, 2.0, g + 1.0)
    mu = random_measure(rng, form.n)
    s1 = fl.solve_elliptic_gauss_seidel(form, d1, mu)
    s2 = fl.solve_elliptic_gauss_seidel(form, d2, mu)
    # f1 <= f2 with both monotone orders the solutions: u1 <= u2
    assert np.all(s1.u <= s2.u + 1e-10)


def test_bracket_growth_stable_under_path_count():
    # empirical second moment of M at a fixed time is stable in N
    form = single_node()
    chain = fl.build_chain(form)
    mu = fl.SignedMeasure(np.array([1.0]))
    u = np.array([1.0])
    drv = fl.Driver.zero(1)

    def second_moment(N, seed):
        vals = np.empty(N)
        for i in range(N):
            p = fl.sample_path(chain, 0, 0, 50.0,
                               rng=fl.markov._path_rng(seed, i))
            _, M = extract_martingale(p, u, drv, mu, form)
            vals[i] = M[-1] ** 2
        return float(np.mean(vals))

    m1 = second_moment(4000, 3)
    m2 = second_moment(8000, 4)
    assert np.isfinite(m1) and np.isfinite(m2)
    assert abs(m1 - m2) <= 0.5 * max(m1, m2)
