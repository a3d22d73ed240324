import dataclasses
import json
import os
import re
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import formlab as fl
from formlab import elliptic
from formlab.catalog import CATALOG
from formlab.elliptic import (UnboundedSolutionError, clamp, level_slice,
                              weak_form_residual)
from oracles import equilibrium_potential
from randomized import (random_measure, random_monotone_driver,
                        random_shaped_form, random_transient_form)


def single_node(m=1.0, k=1.0):
    space = fl.StateSpace(np.array([m]))
    return fl.build_form(space, np.zeros((1, 1)), np.array([k]))


# -- gauss-seidel ---------------------------------------------------------------

def test_gs_degenerate_diagonal_exact():
    space = fl.StateSpace(np.ones(2), labels=np.array([-0.5, 0.25]))
    form = fl.build_form(space, np.zeros((2, 2)),
                         np.abs(space.labels) * space.m)
    sol = fl.solve_elliptic_gauss_seidel(form, fl.Driver.zero(2),
                                         fl.SignedMeasure(space.m.copy()))
    np.testing.assert_allclose(sol.u, [2.0, 4.0], rtol=1e-12)


def test_gs_linear_matches_direct():
    rng = np.random.default_rng(5)
    form = random_transient_form(rng, 10, 16)
    g = rng.normal(size=form.n)
    mu = random_measure(rng, form.n)
    sol = fl.solve_elliptic_gauss_seidel(
        form, fl.Driver.affine(form.n, g, 0.0), mu, tol=1e-13)
    exact = form.solve(form.m * g + mu.masses)
    assert np.max(np.abs(sol.u - exact)) <= 1e-10


def test_gs_scalar_cubic():
    form = single_node()
    sol = fl.solve_elliptic_gauss_seidel(form, fl.Driver.power(1, 1.0, 3.0, 1.0),
                                         fl.SignedMeasure(np.zeros(1)))
    assert sol.u[0] == pytest.approx(0.6823278, abs=1e-7)
    drv = fl.Driver.power(1, 1.0, 3.0, 1.0)
    assert drv.value(sol.u)[0] == pytest.approx(1 - sol.u[0] ** 3, rel=1e-12)


def test_gs_unbounded_node_reported():
    # zero diagonal and constant source: no root exists at the dead node
    space = fl.StateSpace(np.ones(2))
    form = fl.build_form(space, np.zeros((2, 2)), np.array([1.0, 0.0]))
    with pytest.raises(UnboundedSolutionError, match="node 1"):
        fl.solve_elliptic_gauss_seidel(form, fl.Driver.zero(2),
                                       fl.SignedMeasure(np.ones(2)))


def test_gs_residual_definition():
    rng = np.random.default_rng(6)
    form = random_transient_form(rng, 6, 10)
    drv = random_monotone_driver(rng, form.n)
    mu = random_measure(rng, form.n)
    sol = fl.solve_elliptic_gauss_seidel(form, drv, mu)
    assert sol.residual == weak_form_residual(form, sol.u, drv.value(sol.u), mu)
    assert sol.residual <= 1e-10


def test_uniqueness_from_distinct_starts():
    rng = np.random.default_rng(7)
    form = random_transient_form(rng, 8, 14)
    drv = random_monotone_driver(rng, form.n)
    mu = random_measure(rng, form.n)
    a = fl.solve_elliptic_gauss_seidel(form, drv, mu, x0=np.full(form.n, 40.0))
    b = fl.solve_elliptic_gauss_seidel(form, drv, mu, x0=np.full(form.n, -40.0))
    assert np.max(np.abs(a.u - b.u)) <= 1e-8


def test_linearity_scaling():
    rng = np.random.default_rng(8)
    form = random_transient_form(rng, 6, 10)
    mu = random_measure(rng, form.n)
    drv = fl.Driver.zero(form.n)
    u1 = fl.solve_elliptic_gauss_seidel(form, drv, mu, tol=1e-13).u
    u2 = fl.solve_elliptic_gauss_seidel(
        form, drv, fl.SignedMeasure(2.0 * mu.masses), tol=1e-13).u
    np.testing.assert_allclose(u2, 2.0 * u1, rtol=1e-9, atol=1e-12)


@given(kind=st.sampled_from(["path", "grid", "dense"]),
       n=st.integers(3, 30), p=st.sampled_from([1.0, 2.0, 3.0]),
       seed=st.integers(0, 2**32 - 1))
def test_sor_agrees_with_unrelaxed_sweeps(kind, n, p, seed):
    rng = np.random.default_rng(seed)
    form = random_shaped_form(rng, kind, n)
    drv = fl.Driver.power(form.n, rng.uniform(0.0, 2.0, size=form.n), p,
                          rng.uniform(-1.0, 1.0, size=form.n))
    mu = random_measure(rng, form.n)
    tol = 1e-11
    sor = fl.solve_elliptic_gauss_seidel(form, drv, mu, tol=tol)
    with mock.patch.object(elliptic, "_young_omega", lambda form: 1.0):
        gs = fl.solve_elliptic_gauss_seidel(form, drv, mu, tol=tol)
    assert gs.diagnostics["omega"] == 1.0
    assert sor.residual <= 10 * tol and gs.residual <= 10 * tol
    # both defects are small, so by monotonicity the iterates differ by at
    # most ||G||_inf (r_1 + r_2); the floor absorbs rounding in the defects
    green = float(np.max(form.solve(np.ones(form.n))))
    bound = green * (sor.residual + gs.residual) + 1e-13
    assert np.max(np.abs(sor.u - gs.u)) <= bound


def test_sor_sweep_count_linear_in_n():
    # plain Gauss-Seidel needs 122,594 sweeps here, over-relaxation ~1,400
    p = fl.build_catalog_problem({**CATALOG["lap1d-dirac"], "n": 256})
    sol = fl.solve_elliptic_gauss_seidel(p.form, p.driver, p.mu)
    assert sol.diagnostics["sweeps"] <= 3000
    assert sol.diagnostics["omega"] > 1.9
    assert sol.diagnostics["fallback_sweep"] is None


@pytest.mark.parametrize("pid", ["perturbed-g", "frac-a10"])
def test_sor_safeguard_falls_back_to_gauss_seidel(pid, monkeypatch):
    p = fl.build_catalog_problem(pid)
    reference = fl.solve_elliptic_gauss_seidel(p.form, p.driver, p.mu)
    monkeypatch.setattr(elliptic, "_young_omega", lambda form: 2.5)
    sol = fl.solve_elliptic_gauss_seidel(p.form, p.driver, p.mu)
    assert sol.diagnostics["fallback_sweep"] is not None
    assert sol.diagnostics["omega"] == 1.0
    assert sol.residual <= 1e-10
    green = float(np.max(p.form.solve(np.ones(p.form.n))))
    assert np.max(np.abs(sol.u - reference.u)) <= \
        green * (sol.residual + reference.residual) + 1e-13


def test_jacobi_radius_matches_dense_spectrum():
    rng = np.random.default_rng(18)
    for _ in range(10):
        form = random_transient_form(rng, 5, 40)
        s = 1.0 / np.sqrt(form.degree + form.k)
        J = form.W.toarray() * s[:, None] * s[None, :]
        brute = float(np.max(np.abs(np.linalg.eigvalsh(J))))
        assert elliptic._jacobi_radius(form) == pytest.approx(brute, rel=1e-12)


def test_young_omega_is_one_on_recurrent_form():
    space = fl.StateSpace(np.ones(3))
    path = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    pair = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    # a killing-free path, and a killed pair beside an isolated bare node
    for W, k in ((path, np.zeros(3)), (pair, np.array([1.0, 0.0, 0.0]))):
        form = fl.build_form(space, W, k)
        assert elliptic._young_omega(form) == 1.0
        sol = fl.solve_elliptic_gauss_seidel(
            form, fl.Driver.power(3, 1.0, 1.0, 0.0), fl.SignedMeasure(np.ones(3)))
        assert sol.diagnostics["omega"] == 1.0 and sol.residual <= 1e-10


def test_gs_nonconvergence_names_residual_and_node():
    p = fl.build_catalog_problem({**CATALOG["lap1d-dirac"], "n": 48})
    with pytest.raises(fl.SolverError, match="did not converge") as info:
        fl.solve_elliptic_gauss_seidel(p.form, p.driver, p.mu, max_sweeps=3)
    found = re.search(r"residual (\S+) at node (\d+)\)", str(info.value))
    assert found is not None
    assert np.isfinite(float(found.group(1)))
    assert 0 <= int(found.group(2)) < p.form.n


@pytest.mark.parametrize("pid, tol", [("diag-5.7", np.nan),
                                      ("diag-5.7", -1.0),
                                      ("perturbed-g", 0.0),
                                      ("perturbed-g", np.inf)])
def test_gs_rejects_tol_it_cannot_reach(pid, tol):
    p = fl.build_catalog_problem(pid)
    with pytest.raises(fl.FormError, match=f"got {tol}"):
        fl.solve_elliptic_gauss_seidel(p.form, p.driver, p.mu, tol=tol)


# -- ladder and mc ----------------------------------------------------------------

def test_ladder_solver_agrees_with_gs():
    rng = np.random.default_rng(9)
    form = random_transient_form(rng, 20, 20)
    drv = fl.Driver.power(form.n, 1.0, 3.0, rng.normal(size=form.n))
    mu = random_measure(rng, form.n)
    gs = fl.solve_elliptic_gauss_seidel(form, drv, mu, tol=1e-12)
    lad = fl.solve_elliptic_ladder(form, drv, mu)
    assert np.max(np.abs(gs.u - lad.u)) <= 1e-6
    assert "ladder" in lad.diagnostics


def test_ladder_zero_data():
    rng = np.random.default_rng(10)
    form = random_transient_form(rng, 5, 8)
    sol = fl.solve_elliptic_ladder(form, fl.Driver.zero(form.n),
                                   fl.SignedMeasure(np.zeros(form.n)))
    np.testing.assert_allclose(sol.u, 0.0, atol=1e-14)


def test_mc_zero_data_exact():
    rng = np.random.default_rng(11)
    form = random_transient_form(rng, 5, 8)
    sol = fl.solve_elliptic_mc(form, fl.Driver.zero(form.n),
                               fl.SignedMeasure(np.zeros(form.n)),
                               n_paths=2000, seed=1)
    np.testing.assert_allclose(sol.u, 0.0)


def test_mc_single_node_lifetime():
    form = single_node()
    sol = fl.solve_elliptic_mc(form, fl.Driver.zero(1),
                               fl.SignedMeasure(np.array([1.0])),
                               n_paths=50_000, seed=2)
    se = sol.diagnostics["se"][0]
    assert abs(sol.u[0] - 1.0) <= 3 * se


def test_mc_linear_within_cl_gate():
    rng = np.random.default_rng(12)
    form = random_transient_form(rng, 8, 8)
    g = rng.normal(size=form.n)
    mu = random_measure(rng, form.n)
    sol = fl.solve_elliptic_mc(form, fl.Driver.affine(form.n, g, 0.0), mu,
                               n_paths=60_000, seed=3)
    exact = form.solve(form.m * g + mu.masses)
    assert np.max(np.abs(sol.u - exact)) <= 3 * sol.diagnostics["max_se"]


def test_mc_requires_transient():
    space = fl.StateSpace(np.ones(2))
    form = fl.build_form(space, np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros(2))
    with pytest.raises(fl.GreenOperatorUndefined):
        fl.solve_elliptic_mc(form, fl.Driver.zero(2),
                             fl.SignedMeasure(np.zeros(2)), n_paths=100, seed=0)


def test_green_solves_raise_on_recurrent_form():
    # killing-free path graph 0 - 1 - 2: L is singular
    W = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    form = fl.build_form(fl.StateSpace(np.ones(3)), W, np.zeros(3))
    mu = fl.SignedMeasure(np.ones(3))
    zeros = np.zeros(3)
    calls = [
        lambda: form.solve(np.ones(3)),
        lambda: equilibrium_potential(form, [0]),
        lambda: fl.duality_check(form, zeros, zeros, mu),
        lambda: fl.green_bound_check(form, zeros, zeros, mu),
        lambda: fl.solve_elliptic_mc(form, fl.Driver.zero(3), mu,
                                     n_paths=300, seed=0),
    ]
    for call in calls:
        with pytest.raises(fl.GreenOperatorUndefined,
                           match=r"killing-free component \(0, 1, 2\)"):
            call()


@pytest.mark.parametrize("call", [
    "fl.solve_elliptic_mc(p.form, p.driver, p.mu, n_paths=640)",
    "fl.solve_elliptic_ladder(p.form, p.driver, p.mu)",
    "main(['verify', '--problem', desc, '--method', 'ladder',"
    " '--paths', '2000', '--out', out])",
], ids=["mc", "ladder", "verify"])
def test_transient_solves_leave_csgraph_unimported(tmp_path, call):
    # on a transient form the killing reach is found by sparse mat-vecs, so
    # the connected-components routine is never loaded
    desc = tmp_path / "p.json"
    desc.write_text(json.dumps({"family": "lap1d", "n": 6,
                                "measure": [{"x": 0.5, "mass": 1.0}]}))
    code = ("import sys, formlab as fl\n"
            "from formlab.cli import main\n"
            f"desc, out = {str(desc)!r}, {str(tmp_path)!r}\n"
            "p = fl.load_problem(desc)\n"
            f"{call}\n"
            "print('scipy.sparse.csgraph' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(fl.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "False"


def test_mc_deterministic():
    rng = np.random.default_rng(13)
    form = random_transient_form(rng, 5, 6)
    drv = random_monotone_driver(rng, form.n)
    mu = random_measure(rng, form.n)
    a = fl.solve_elliptic_mc(form, drv, mu, n_paths=4000, seed=5)
    b = fl.solve_elliptic_mc(form, drv, mu, n_paths=4000, seed=5)
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.diagnostics["se"], b.diagnostics["se"])


def test_mc_draws_three_generator_calls_per_iteration(monkeypatch):
    # every start's paths share one stream, so a lockstep iteration draws
    # its holds in one call and its jump uniforms in two, however many of
    # lap2d's 256 starts are alive
    calls, iters = [], [0]
    path_rng, lockstep = fl.elliptic._path_rng, fl.markov._lockstep

    class Counted:
        def __init__(self, rng):
            self.rng = rng

        def __getattr__(self, name):
            draw = getattr(self.rng, name)

            def counted(*args, **kwargs):
                calls.append(name)
                return draw(*args, **kwargs)
            return counted

    def engine(*args):
        for step in lockstep(*args):
            iters[0] += 1
            yield step

    monkeypatch.setattr(fl.elliptic, "_path_rng",
                        lambda *args: Counted(path_rng(*args)))
    monkeypatch.setattr(fl.markov, "_lockstep", engine)
    p = fl.build_catalog_problem("lap2d")
    assert p.form.n == 256
    fl.solve_elliptic_mc(p.form, p.driver, p.mu, n_paths=256 * 8, seed=0)
    assert iters[0] > 0
    assert len(calls) <= 3 * iters[0], (len(calls), iters[0])


# -- checks -----------------------------------------------------------------------

@pytest.fixture(scope="module")
def solved_problem():
    rng = np.random.default_rng(20)
    form = random_transient_form(rng, 10, 18)
    drv = random_monotone_driver(rng, form.n)
    mu = random_measure(rng, form.n)
    sol = fl.solve_elliptic_gauss_seidel(form, drv, mu, tol=1e-13)
    return form, drv, mu, sol.u, drv.value(sol.u)


def test_check_row_passes_iff_lhs_within_bound():
    assert fl.Check("x", 1.0, 1.0).passed
    assert not fl.Check("x", np.nextafter(1.0, 2.0), 1.0).passed
    assert not fl.Check("x", np.nan, 1.0).passed


def test_duality_exact_solution(solved_problem):
    form, drv, mu, u, f_u = solved_problem
    row = fl.duality_check(form, u, f_u, mu)
    assert row.name == "duality" and row.bound == 1e-9
    assert row.passed


def test_duality_detects_perturbation(solved_problem):
    form, drv, mu, u, f_u = solved_problem
    bad = u.copy()
    bad[4] += 1e-2
    row = fl.duality_check(form, bad, drv.value(bad), mu)
    assert row.lhs > 1e-3 and not row.passed


def test_duality_explicit_test_measures(solved_problem):
    # the Dirac row bounds the pairing defect of any test measure nu by
    # |nu|(E) times its lhs, here for two Diracs and a signed mixture
    form, drv, mu, u, f_u = solved_problem
    bad = u + 1e-3 * np.sin(np.arange(form.n))
    f_bad = drv.value(bad)
    row = fl.duality_check(form, bad, f_bad, mu)
    for nu in (np.eye(form.n)[0], np.eye(form.n)[2],
               np.linspace(-1.0, 2.0, form.n)):
        pot = form.solve(nu)
        pairing = abs(float(np.sum(bad * nu))
                      - float(np.sum(f_bad * pot * form.m) + np.sum(pot * mu.masses)))
        assert pairing <= float(np.sum(np.abs(nu))) * row.lhs * (1 + 1e-9) + 1e-13


def test_weak_form_zero_and_defect(solved_problem):
    form, drv, mu, u, f_u = solved_problem
    assert weak_form_residual(form, u, f_u, mu) <= 1e-9
    res = weak_form_residual(form, np.zeros(form.n), np.zeros(form.n), mu)
    assert res == pytest.approx(float(np.max(np.abs(mu.masses))))


def test_l1_bound(solved_problem):
    form, drv, mu, u, f_u = solved_problem
    row = fl.l1_bound_check(form, drv, f_u, mu)
    assert row.passed and row.bound - row.lhs >= -1e-9


def test_l1_bound_y_independent_driver():
    rng = np.random.default_rng(21)
    form = random_transient_form(rng, 6, 9)
    g = rng.normal(size=form.n)
    drv = fl.Driver.affine(form.n, g, 0.0)
    mu = random_measure(rng, form.n)
    sol = fl.solve_elliptic_gauss_seidel(form, drv, mu)
    row = fl.l1_bound_check(form, drv, drv.value(sol.u), mu)
    assert row.lhs == pytest.approx(float(np.sum(form.m * np.abs(g))), rel=1e-12)
    assert row.bound - 1e-9 - row.lhs == pytest.approx(mu.total_variation,
                                                       abs=1e-12)


def test_l1_bound_linear_damping_nonneg():
    rng = np.random.default_rng(22)
    form = random_transient_form(rng, 6, 9)
    drv = fl.Driver.affine(form.n, 0.0, -1.0)
    mu = random_measure(rng, form.n, nonneg=True)
    sol = fl.solve_elliptic_gauss_seidel(form, drv, mu, tol=1e-13)
    assert np.all(sol.u >= -1e-12)
    assert fl.l1_bound_check(form, drv, drv.value(sol.u), mu).passed


def test_truncation_energy_report(solved_problem):
    form, drv, mu, u, f_u = solved_problem
    sup = float(np.max(np.abs(u)))
    ks = np.arange(0.0, 2 * sup + 0.25, 0.25)
    trunc, _ = fl.truncation_report(form, u, f_u, mu, ks)
    assert trunc.name == "truncation-energy" and trunc.passed
    # the row is the level with the least slack; one level at a time, each
    # row reads that level's energy, inactive truncation included
    assert np.any(ks >= sup)
    rows = [fl.truncation_report(form, u, f_u, mu, [k])[0] for k in ks]
    vals = [form.energy(clamp(u, k)) for k in ks]
    np.testing.assert_allclose([r.lhs for r in rows], vals)
    assert all(r.lhs >= 0 and r.passed for r in rows)
    worst = int(np.argmin([r.bound - r.lhs for r in rows]))
    assert trunc.lhs == rows[worst].lhs and trunc.bound == rows[worst].bound


def test_vanishing_energy_report(solved_problem):
    form, drv, mu, u, f_u = solved_problem
    sup = float(np.max(np.abs(u)))
    ks = np.arange(0.0, 2 * sup + 0.25, 0.25)
    assert fl.truncation_report(form, u, f_u, mu, ks)[1].passed
    # both sides vanish once k clears the solution's sup norm
    for k in ks[ks > sup]:
        row = fl.truncation_report(form, u, f_u, mu, [k], tol=0.0)[1]
        assert row.lhs == 0.0 and row.bound == 0.0
    # k = 0 slice is the unit clamp
    row = fl.truncation_report(form, u, f_u, mu, [0.0])[1]
    assert row.name == "vanishing-energy"
    assert row.lhs == pytest.approx(form.energy(clamp(u, 1.0)))


def test_level_slice_definition():
    u = np.array([-3.0, -0.4, 0.2, 1.4, 2.6])
    np.testing.assert_allclose(level_slice(u, 1.0),
                               [-1.0, 0.0, 0.0, 0.4, 1.0])


def test_green_bound(solved_problem):
    form, drv, mu, u, f_u = solved_problem
    row = fl.green_bound_check(form, u, f_u, mu)
    assert row.name == "green-bound" and row.passed


def test_duality_weak_martingale_agree_iff():
    # the three characterizations agree: all pass on the true solution and
    # all fail on a perturbed one
    rng = np.random.default_rng(25)
    form = random_transient_form(rng, 6, 6)
    drv = fl.Driver.power(form.n, 0.5, 2.0, rng.normal(size=form.n))
    mu = random_measure(rng, form.n)
    u = fl.solve_elliptic_gauss_seidel(form, drv, mu, tol=1e-13).u
    chain = fl.build_chain(form)
    assert fl.duality_check(form, u, drv.value(u), mu).passed
    assert weak_form_residual(form, u, drv.value(u), mu) <= 1e-9
    assert fl.martingale_residual_check(chain, u, drv, mu,
                                        N=60_000, seed=2).passed()
    bad = u + np.eye(form.n)[1]
    assert not fl.duality_check(form, bad, drv.value(bad), mu).passed
    assert weak_form_residual(form, bad, drv.value(bad), mu) > 1e-3
    assert not fl.martingale_residual_check(chain, bad, drv, mu,
                                            N=60_000, seed=2).passed()


# -- power of the verify rows --------------------------------------------------------

def _bump(size):
    return lambda u: u + size * (np.arange(u.size) == np.argmax(u))


PERTURBATIONS = {"none": lambda u: u, "+1e-9": _bump(1e-9),
                 "+1e-6": _bump(1e-6), "+1e-3": _bump(1e-3),
                 "+0.1": _bump(0.1), "x1.01": lambda u: 1.01 * u,
                 "zero": np.zeros_like}
WF_DUAL = {"weak-form", "duality"}
# Every (problem, method, perturbation) case with the rows it must fail.
# The +c cases raise u by c at its largest node.  Every lap2d case runs;
# perturbed-g's verify takes about 2 s (its martingale paths live long), so
# it runs a subset.  GS and the ladder fail the same rows in every case.
POWER_CASES = [
    *[("lap2d", method, name, fails)
      for method in ("gauss-seidel", "ladder")
      for name, fails in [("none", set()), ("+1e-9", {"duality"}),
                          ("+1e-6", WF_DUAL | {"green-bound"}),
                          ("+1e-3", WF_DUAL | {"green-bound"}),
                          ("+0.1", WF_DUAL | {"green-bound"}),
                          ("x1.01", WF_DUAL | {"green-bound"}),
                          ("zero", WF_DUAL)]],
    ("perturbed-g", "gauss-seidel", "none", set()),
    ("perturbed-g", "gauss-seidel", "+1e-3", WF_DUAL),
    ("perturbed-g", "gauss-seidel", "+0.1",
     WF_DUAL | {"truncation-energy", "vanishing-energy"}),
    ("perturbed-g", "ladder", "+1e-3", WF_DUAL),
    ("perturbed-g", "ladder", "x1.01", WF_DUAL),
]


@pytest.fixture(scope="module")
def power_solutions():
    problems = {pid: fl.build_catalog_problem(pid)
                for pid in ("lap2d", "perturbed-g")}
    return {(pid, method): (p, fl.solve(p, method))
            for pid, p in problems.items()
            for method in ("gauss-seidel", "ladder")}


@pytest.mark.parametrize("pid, method, name, fails", POWER_CASES,
                         ids=[f"{c[0]}-{c[1]}-{c[2]}" for c in POWER_CASES])
def test_verify_rows_power(power_solutions, pid, method, name, fails):
    # the solver's residual rides along unchanged, so a row that trusted it
    # would pass; on perturbed-g at +1e-3 the weak-form row once read 6.9e-11
    # from it, and now reads 3.2e-2 from u
    p, sol = power_solutions[pid, method]
    bad = dataclasses.replace(sol, u=PERTURBATIONS[name](sol.u))
    rows = fl.verify_solution(p, bad, paths=2000, seed=2)
    assert {r.name for r in rows if not r.passed} == fails
    # today's power: revuz reads no u, and the martingale row's allowance
    # grows with u's own defect, so neither fails on any of these
    assert all(r.passed for r in rows if r.name in ("revuz", "martingale"))
