"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every tolerance is pinned here; nothing is calibrated at runtime.
"""

import numpy as np
import pytest

import formlab as fl
from formlab.elliptic import clamp
from randomized import (random_form, random_measure,
                        random_monotone_driver, random_transient_form)

MC_PROBLEMS = ("lap1d-dirac", "divform-b", "frac-a10", "perturbed-g")


def report(num, name, ok, detail):
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def catalog_ladder(catalog_problems):
    return {pid: fl.solve_elliptic_ladder(p.form, p.driver, p.mu)
            for pid, p in catalog_problems.items()}


@pytest.fixture(scope="module")
def randomized_suite():
    """200 transient problems with ordered measure pairs and both solutions."""
    rng = np.random.default_rng(20260808)
    suite = []
    for _ in range(200):
        form = random_transient_form(rng, 5, 50)
        driver = random_monotone_driver(rng, form.n)
        mu1 = random_measure(rng, form.n)
        bump = random_measure(rng, form.n, nonneg=True, density=0.4)
        mu2 = fl.SignedMeasure(mu1.masses + bump.masses)
        s1 = fl.solve_elliptic_gauss_seidel(form, driver, mu1, tol=1e-12)
        s2 = fl.solve_elliptic_gauss_seidel(form, driver, mu2, tol=1e-12)
        suite.append((form, driver, mu1, mu2, s1, s2))
    return suite


def test_criterion_01_example_exactness(catalog_gs, catalog_problems):
    prob = catalog_problems["diag-5.7"]
    sol = catalog_gs["diag-5.7"]
    x = prob.form.space.labels
    defect = float(np.max(np.abs(sol.u * np.abs(x) - 1.0)))
    report(1, "degenerate-family exact inverse", defect <= 1e-10,
           f"max |u*|x|-1| = {defect:.2e} <= 1e-10")


def test_criterion_02_three_way_solver_agreement(catalog_gs, catalog_problems,
                                                 catalog_ladder):
    worst = []
    ok = True
    for pid in MC_PROBLEMS:
        prob = catalog_problems[pid]
        gs, lad = catalog_gs[pid], catalog_ladder[pid]
        ladder_gap = float(np.max(np.abs(gs.u - lad.u)))
        mc = fl.solve_elliptic_mc(prob.form, prob.driver, prob.mu,
                                  n_paths=100_000, seed=12)
        mc_gap = float(np.max(np.abs(gs.u - mc.u)))
        gate = 3.0 * mc.diagnostics["max_se"]
        ok = ok and ladder_gap <= 1e-6 and mc_gap <= gate
        worst.append(f"{pid}: ladder {ladder_gap:.1e}, mc {mc_gap:.1e}"
                     f" vs {gate:.1e}")
    report(2, "three-way solver agreement", ok, "; ".join(worst))


def test_criterion_03_comparison_principle(randomized_suite):
    violations = 0
    worst = -np.inf
    for form, driver, mu1, mu2, s1, s2 in randomized_suite:
        margin = float(np.max(s1.u - s2.u))
        worst = max(worst, margin)
        if margin > 1e-10:
            violations += 1
    report(3, "comparison principle on 200 randomized pairs",
           violations == 0, f"violations = {violations}, worst margin {worst:.2e}")


def test_criterion_04_l1_estimate(randomized_suite):
    violations = 0
    min_slack = np.inf
    for form, driver, mu1, mu2, s1, s2 in randomized_suite:
        for mu, sol in ((mu1, s1), (mu2, s2)):
            row = fl.l1_bound_check(form, driver, driver.value(sol.u), mu,
                                    tol=1e-9)
            min_slack = min(min_slack, row.bound - 1e-9 - row.lhs)
            if not row.passed:
                violations += 1
    report(4, "integrability bound on the randomized suite", violations == 0,
           f"violations = {violations}, min slack {min_slack:.2e}")


def test_criterion_05_energy_estimates(randomized_suite):
    violations = 0
    min_slack = np.inf
    for form, driver, mu1, mu2, s1, s2 in randomized_suite:
        for mu, sol in ((mu1, s1), (mu2, s2)):
            sup = float(np.max(np.abs(sol.u)))
            ks = np.arange(0.0, 2.0 * sup + 0.25, 0.25)
            rows = fl.truncation_report(form, sol.u, driver.value(sol.u), mu,
                                        ks, tol=1e-9)
            min_slack = min(min_slack, *(r.bound - 1e-9 - r.lhs for r in rows))
            if not all(r.passed for r in rows):
                violations += 1
    report(5, "clamped and sliced energy bounds", violations == 0,
           f"violations = {violations}, min slack {min_slack:.2e}")


def test_criterion_06_duality_identity(catalog_gs, catalog_problems):
    ok = True
    details = []
    for pid, prob in catalog_problems.items():
        sol = catalog_gs[pid]
        f_u = prob.driver.value(sol.u)
        row = fl.duality_check(prob.form, sol.u, f_u, prob.mu, tol=1e-9)
        # sensitivity: bump u at each node in turn and recheck its own pairing
        G = prob.form.solve(np.eye(prob.form.n))
        delta = 1e-2
        d_f = prob.driver.value(sol.u + delta) - f_u
        base = sol.u - G @ (prob.form.m * f_u + prob.mu.masses)
        perturbed = np.abs(base + delta - np.diag(G) * prob.form.m * d_f)
        sens = float(np.min(perturbed))
        ok = ok and row.lhs <= 1e-9 and sens > 1e-3
        details.append(f"{pid}: res {row.lhs:.1e}, min sens {sens:.1e}")
    report(6, "pairing identity with per-node sensitivity", ok,
           "; ".join(details))


def test_criterion_07_revuz_correspondence():
    rng = np.random.default_rng(777)
    failures = 0
    for i in range(20):
        form = random_transient_form(rng, 5, 12)
        chain = fl.build_chain(form)
        f = rng.uniform(-1.0, 1.0, size=form.n)
        mu = random_measure(rng, form.n)
        rep = fl.revuz_check(chain, f, mu, t=0.01, N=100_000, seed=1000 + i)
        if not rep.passed(3.0):
            failures += 1
    report(7, "short-time occupation vs measure pairing on 20 forms",
           failures == 0, f"failures = {failures} at t = 0.01, N = 1e5")


def test_criterion_08_martingale_property():
    rng = np.random.default_rng(88)
    ok = True
    details = []
    for trial in range(3):
        form = random_transient_form(rng, 5, 8)
        driver = fl.Driver.power(form.n, 0.5, 2.0, rng.normal(size=form.n))
        mu = random_measure(rng, form.n)
        sol = fl.solve_elliptic_gauss_seidel(form, driver, mu, tol=1e-13)
        chain = fl.build_chain(form)
        true_rep = fl.martingale_residual_check(chain, sol.u, driver, mu,
                                                N=100_000, seed=300 + trial)
        bad = sol.u.copy()
        bad[int(rng.integers(form.n))] += 1.0
        bad_rep = fl.martingale_residual_check(chain, bad, driver, mu,
                                               N=100_000, seed=300 + trial)
        ok = ok and true_rep.passed(4.0) and not bad_rep.passed(4.0)
        details.append(f"true z {true_rep.max_abs_z:.2f}, "
                       f"perturbed z {bad_rep.max_abs_z:.1f}")
    report(8, "martingale residuals separate true from perturbed", ok,
           "; ".join(details))


def test_criterion_09_random_horizon_ladder(catalog_gs, catalog_problems,
                                            catalog_ladder):
    ok = True
    details = []
    for pid, prob in catalog_problems.items():
        lad = catalog_ladder[pid]
        trace = lad.diagnostics["ladder"]
        incs = [lv.sup_increment for lv in trace.levels]
        start = next((i for i, lv in enumerate(trace.levels)
                      if not lv.truncation_active), 0)
        mono = all(incs[i + 1] <= incs[i] * (1 + 1e-9) + 1e-12
                   for i in range(start, len(incs) - 1))
        gap = float(np.max(np.abs(lad.u - catalog_gs[pid].u)))
        ok = ok and mono and gap <= 1e-6
        details.append(f"{pid}: gap {gap:.1e}, monotone {mono}")
    report(9, "horizon ladder stabilizes onto the sweep oracle", ok,
           "; ".join(details))


def test_criterion_10_regularization_properties():
    n_nodes = 3
    drivers = {
        "cubic": fl.Driver.power(n_nodes, 1.0, 3.0, 0.0),
        "half-power": fl.Driver.power(n_nodes, 1.0, 0.5, 0.3),
        "affine": fl.Driver.affine(n_nodes, 0.5, -2.0),
    }
    R = 2.0
    delta = R / 2048
    levels = [2, 5, 10, 20]
    ok = True
    details = []
    for name, drv in drivers.items():
        prev_vals = None
        prev_gap = None
        for lvl in levels:
            reg = fl.yosida_regularize(drv, lvl, {"R": R, "delta": delta})
            z = reg.params["z"]
            probe = z[::4]
            idx = np.repeat(np.arange(n_nodes), probe.size)
            ys = np.tile(probe, n_nodes)
            vals = reg.value_at(idx, ys).reshape(n_nodes, probe.size)
            base = drv.value_at(idx, ys).reshape(n_nodes, probe.size)
            below = float(np.max(vals - base))
            ratio = float(np.max(np.abs(np.diff(vals, axis=1)))
                          / (probe[1] - probe[0]))
            gap = float(np.max(base - vals))
            slack = lvl * delta + 1e-9
            if below > 1e-12 or ratio > lvl + slack:
                ok = False
            if prev_vals is not None:
                if np.max(prev_vals - vals) > 1e-12 or gap > prev_gap + 1e-12:
                    ok = False
            prev_vals, prev_gap = vals, gap
        details.append(f"{name}: final sup-gap {gap:.2e}")
    report(10, "regularization ladder properties on the y-grid", ok,
           "; ".join(details))


def test_criterion_11_grid_convergence():
    study = fl.convergence_study("lap1d", [64, 128, 256, 512], tol=1e-9)
    orders = study.orders
    orders_ok = len(orders) == 3 and all(0.75 <= o <= 1.25 for o in orders)
    frac = fl.convergence_study("frac", [64, 128, 256], alpha=1.0)
    exponent = frac.exponents[-1]
    frac_ok = 0.4 <= exponent <= 0.6
    report(11, "grid refinement against closed-form profiles",
           orders_ok and frac_ok,
           f"orders {[f'{o:.2f}' for o in orders]}, "
           f"boundary exponent {exponent:.3f}")


def test_criterion_12_transience_classifier():
    rng = np.random.default_rng(55)
    disagreements = 0
    for i in range(100):
        killing = ("all", "none", "mixed")[i % 3]
        comps = 1 + (i % 3)
        form = random_form(rng, 5, 30, n_components=comps, killing=killing)
        flag = form.killing_free_component() is None
        L = form.L.toarray()
        sol, *_ = np.linalg.lstsq(L, form.m, rcond=None)
        probe = bool(np.max(np.abs(L @ sol - form.m))
                     <= 1e-8 * float(np.max(form.m)))
        if probe != flag:
            disagreements += 1
    report(12, "transience classifier vs direct solvability probe",
           disagreements == 0, f"disagreements = {disagreements} of 100")
