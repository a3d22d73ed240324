import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import formlab as fl
from formlab import elliptic
from formlab.bsde import SolverError
from formlab.forms import _band_solve
from oracles import equilibrium_potential
from randomized import (random_form, random_measure,
                        random_shaped_form, random_transient_form)


def two_node_form(w=1.0, k=(0.0, 0.0), m=(1.0, 1.0)):
    space = fl.StateSpace(np.asarray(m, dtype=float))
    W = np.array([[0.0, w], [w, 0.0]])
    return fl.build_form(space, W, np.asarray(k, dtype=float))


# -- construction and validation -------------------------------------------

def test_build_form_accepts_and_energy():
    form = two_node_form(w=1.0)
    assert form.energy(np.array([1.0, 0.0])) == pytest.approx(1.0)


def test_build_form_rejects_asymmetric():
    space = fl.StateSpace(np.ones(2))
    W = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(fl.FormError, match="asymmetric"):
        fl.build_form(space, W, np.zeros(2))


def test_build_form_rejects_negative_killing():
    space = fl.StateSpace(np.ones(2))
    with pytest.raises(fl.FormError, match="negative killing"):
        fl.build_form(space, np.zeros((2, 2)), np.array([-1.0, 0.0]))


def test_build_form_rejects_negative_weight_and_diagonal():
    space = fl.StateSpace(np.ones(2))
    with pytest.raises(fl.FormError, match="negative jump weight"):
        fl.build_form(space, np.array([[0.0, -1.0], [-1.0, 0.0]]), np.zeros(2))
    with pytest.raises(fl.FormError, match="diagonal"):
        fl.build_form(space, np.eye(2), np.zeros(2))


def test_state_space_requires_positive_measure():
    with pytest.raises(fl.FormError, match="strictly positive"):
        fl.StateSpace(np.array([1.0, 0.0]))


def test_signed_measure_parts_and_tv():
    mu = fl.SignedMeasure(np.array([2.0, -3.0, 0.0]))
    assert mu.total_variation == 5.0
    positive_part = np.maximum(mu.masses, 0.0)
    negative_part = np.maximum(-mu.masses, 0.0)
    assert np.all(positive_part == [2.0, 0.0, 0.0])
    assert np.all(negative_part == [0.0, 3.0, 0.0])
    # disjoint supports
    assert np.all(positive_part * negative_part == 0.0)


def test_density_roundtrip():
    space = fl.StateSpace(np.array([0.5, 2.0, 1.25]))
    mu = fl.SignedMeasure(np.array([1.0, -0.75, 0.0]))
    back = fl.SignedMeasure(mu.density(space) * space.m)
    np.testing.assert_allclose(back.masses, mu.masses, rtol=4e-16)


# -- energy ------------------------------------------------------------------

def test_energy_zero_vector():
    form = two_node_form(w=2.0)
    assert form.energy(np.zeros(2), np.zeros(2)) == 0.0


def test_energy_constant_killing_free():
    form = two_node_form(w=5.0)
    assert form.energy(np.full(2, 3.7), np.full(2, 3.7)) == 0.0


def test_energy_cross_term_hand_expanded():
    # 1/2 [w (u0-u1)(v0-v1) + w (u1-u0)(v1-v0)] = w * (1)(-1) = -3
    form = two_node_form(w=3.0)
    val = form.energy(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert val == pytest.approx(-3.0)


def test_energy_dimension_mismatch():
    form = two_node_form()
    with pytest.raises(fl.FormError):
        form.energy(np.zeros(3))


def test_energy_matches_laplacian_quadratic_form():
    rng = np.random.default_rng(0)
    form = random_transient_form(rng, 8, 14)
    for _ in range(5):
        u = rng.normal(size=form.n)
        v = rng.normal(size=form.n)
        assert form.energy(u, v) == pytest.approx(float(v @ (form.L @ u)),
                                                  rel=1e-12, abs=1e-12)


@given(u=arrays(np.float64, 6, elements=st.floats(-50, 50)))
def test_energy_nonnegative(u):
    rng = np.random.default_rng(1234)
    form = random_form(rng, 6, 6, killing="mixed")
    assert form.energy(u) >= -1e-9 * (1 + np.max(np.abs(u)) ** 2)


@given(u=arrays(np.float64, 7, elements=st.floats(-20, 20)),
       k=st.floats(0.01, 30.0))
def test_normal_contraction(u, k):
    rng = np.random.default_rng(99)
    form = random_form(rng, 7, 7, killing="mixed")
    v = np.clip(u, -k, k)
    assert form.energy(v) <= form.energy(u) + 1e-10 * (1 + form.energy(u))


# -- transience ---------------------------------------------------------------

def test_transient_killing_free_chain_is_recurrent():
    form = two_node_form(w=1.0, k=(0.0, 0.0))
    assert form.killing_free_component() == (0, 1)


def test_transient_with_killing_anywhere():
    form = two_node_form(w=1.0, k=(1.0, 0.0))
    assert form.killing_free_component() is None


def test_two_components_killing_in_one():
    space = fl.StateSpace(np.ones(4))
    W = np.zeros((4, 4))
    W[0, 1] = W[1, 0] = 1.0
    W[2, 3] = W[3, 2] = 1.0
    form = fl.build_form(space, W, np.array([1.0, 0.0, 0.0, 0.0]))
    assert form.killing_free_component() == (2, 3)


@given(n_components=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_killing_free_component_matches_components(n_components, seed):
    rng = np.random.default_rng(seed)
    form = random_form(rng, 4, 30, n_components=n_components,
                       killing="mixed")
    dead = form.killing_free_component()
    first = next((c for c in form.components()
                  if float(np.sum(form.k[list(c)])) <= 0.0), None)
    assert dead == first


def test_transience_matches_green_probe_on_random_forms():
    rng = np.random.default_rng(7)
    disagreements = 0
    for i in range(100):
        killing = ("all", "none", "mixed")[i % 3]
        comps = 1 + (i % 3)
        form = random_form(rng, 5, 25, n_components=comps, killing=killing)
        flag = form.killing_free_component() is None
        L = form.L.toarray()
        sol, res, *_ = np.linalg.lstsq(L, form.m, rcond=None)
        probe_res = float(np.max(np.abs(L @ sol - form.m)))
        probe = probe_res <= 1e-8 * float(np.max(form.m)) \
            and np.all(np.isfinite(sol))
        disagreements += int(probe != flag)
    assert disagreements == 0


def test_transience_inequality_witness():
    # on a transient form the constant g = sqrt(gap)/sqrt(|m|) satisfies
    # (|u|, g)_m <= sqrt(E(u,u)) for every u
    rng = np.random.default_rng(17)
    for _ in range(10):
        form = random_transient_form(rng, 5, 20)
        s = 1.0 / np.sqrt(form.m)
        gap = np.linalg.eigvalsh(form.L.toarray() * s[:, None] * s[None, :])[0]
        assert form.spectral_gap() == pytest.approx(gap, rel=1e-12)
        g = np.sqrt(gap) / np.sqrt(np.sum(form.m))
        for _ in range(10):
            u = rng.normal(size=form.n) * rng.uniform(0.1, 10)
            lhs = float(np.sum(np.abs(u) * g * form.m))
            assert lhs <= np.sqrt(form.energy(u)) + 1e-9


# -- potentials ---------------------------------------------------------------

def test_potential_zero_measure():
    form = two_node_form(w=1.0, k=(1.0, 0.0))
    u = form.solve(np.zeros(2))
    np.testing.assert_allclose(u, 0.0)


def test_potential_diagonal_inverse_abs():
    # multiplication form c(x) = |x| on nodes {-0.5, 0.25}; mu = m gives 1/|x|
    space = fl.StateSpace(np.array([1.0, 1.0]), labels=np.array([-0.5, 0.25]))
    form = fl.build_form(space, np.zeros((2, 2)),
                         np.abs(space.labels) * space.m)
    u = form.solve(space.m.copy())
    np.testing.assert_allclose(u, [2.0, 4.0], rtol=1e-13)


def test_potential_green_function_1d():
    # -u'' = delta_a, zero boundary: u(x) = x(1-a) left of the atom
    prob = fl.build_catalog_problem({
        "family": "lap1d", "n": 256,
        "measure": [{"x": 0.5, "mass": 1.0}], "driver": {"family": "zero"}})
    u = prob.form.solve(prob.mu.masses)
    x = prob.form.space.labels
    a = float(x[int(np.argmax(prob.mu.masses))])
    i = int(np.argmin(np.abs(x - 0.25)))
    exact = x[i] * (1.0 - a)
    h = prob.form.m[0]
    assert abs(u[i] - exact) <= 5 * h
    assert abs(u[i] - 0.125) <= 5 * h


def test_potential_requires_transience_at_alpha_zero():
    form = two_node_form(w=1.0)
    with pytest.raises(fl.GreenOperatorUndefined):
        form.solve(np.ones(2))
    # alpha > 0 is fine on the same form
    u = _band_solve(form._factor(1.0, 0.5 * form.m), np.ones(2))
    assert np.all(np.isfinite(u))


def test_potential_duality_identity():
    rng = np.random.default_rng(3)
    form = random_transient_form(rng, 6, 12)
    mu = random_measure(rng, form.n)
    for alpha in (0.0, 0.7):
        u = (form.solve(mu.masses) if alpha == 0.0 else
             _band_solve(form._factor(1.0, alpha * form.m), mu.masses))
        for j in range(form.n):
            v = np.eye(form.n)[j]
            lhs = form.energy(u, v) + alpha * float(np.sum(u * v * form.m))
            assert lhs == pytest.approx(mu.masses[j], abs=1e-9)


def test_resolvent_positivity():
    rng = np.random.default_rng(5)
    for _ in range(20):
        form = random_transient_form(rng, 5, 20)
        mu = random_measure(rng, form.n, nonneg=True)
        u = form.solve(mu.masses)
        assert np.all(u >= -1e-12)


@given(kind=st.sampled_from(["path", "grid", "dense"]),
       n=st.integers(2, 30), c=st.floats(0.1, 10.0),
       seed=st.integers(0, 2**32 - 1))
def test_band_factor_matches_dense_cholesky(kind, n, c, seed):
    rng = np.random.default_rng(seed)
    form = random_shaped_form(rng, kind, n)
    d = rng.uniform(0.5, 2.0, size=form.n)
    rhs = rng.normal(size=form.n)
    A = c * form.L.toarray() + np.diag(d)
    ref = sla.cho_solve(sla.cho_factor(A, lower=True), rhs)
    x = sla.cho_solve_banded(form._factor(c, d), rhs)
    assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))
    # the Green solve and both lowest eigenvalues read the same band
    L = form.L.toarray()
    ref = sla.cho_solve(sla.cho_factor(L, lower=True), rhs)
    assert np.max(np.abs(form.solve(rhs) - ref)) <= 1e-12 * np.max(np.abs(ref))
    s = 1.0 / np.sqrt(form.m)
    gap = np.linalg.eigvalsh(L * s[:, None] * s[None, :])[0]
    assert form.spectral_gap() == pytest.approx(gap, rel=1e-12)
    s = 1.0 / np.sqrt(form.degree + form.k)
    J = form.W.toarray() * s[:, None] * s[None, :]
    rho = float(np.max(np.abs(np.linalg.eigvalsh(J))))
    assert elliptic._jacobi_radius(form) == pytest.approx(rho, rel=1e-12)
    # a diagonal entry of -1 makes c L + diag(d) indefinite
    bad = d.copy()
    node = int(rng.integers(form.n))
    bad[node] = -c * (form.degree + form.k)[node] - 1.0
    with pytest.raises(np.linalg.LinAlgError):
        form._factor(c, bad)
    # one implicit step whose Jacobian c L + diag(m - c m b) is that matrix
    b = (form.m - bad) / (c * form.m)
    with pytest.raises(SolverError, match="step Jacobian not SPD"):
        fl.solve_finite_horizon(form, fl.Driver.affine(form.n, 0.0, b),
                                fl.SignedMeasure(np.zeros(form.n)),
                                np.zeros(form.n), c, c)


@given(kind=st.sampled_from(["path", "grid", "dense"]),
       n=st.integers(2, 30), c=st.floats(0.1, 10.0),
       columns=st.sampled_from([None, 1, 3]),
       seed=st.integers(0, 2**32 - 1))
def test_band_kernel_matches_scipy_wrappers(kind, n, c, columns, seed):
    rng = np.random.default_rng(seed)
    form = random_shaped_form(rng, kind, n)
    d = rng.uniform(0.5, 2.0, size=form.n)
    rhs = rng.normal(size=form.n if columns is None else (form.n, columns))
    ab = c * form._lower_band()
    ab[0] += d
    ref = sla.cholesky_banded(ab, lower=True)
    factor = form._factor(c, d)
    assert factor[1] is True and np.array_equal(factor[0], ref)
    x = _band_solve(factor, rhs)
    assert x.shape == rhs.shape
    assert np.array_equal(x, sla.cho_solve_banded((ref, True), rhs))
    # a caller's Fortran-ordered work array holding c times the band
    work = np.asfortranarray(c * form._lower_band())
    assert np.array_equal(form._factor(c, d, work)[0], ref)
    # the Green and alpha > 0 solves
    green = sla.cholesky_banded(form._lower_band(), lower=True)
    assert np.array_equal(form.solve(rhs),
                          sla.cho_solve_banded((green, True), rhs))
    shifted = form._lower_band().copy()
    shifted[0] += 0.7 * form.m
    assert np.array_equal(
        _band_solve(form._factor(1.0, 0.7 * form.m), rhs),
        sla.cho_solve_banded((sla.cholesky_banded(shifted, lower=True), True),
                             rhs))
    # an indefinite diagonal, a non-finite diagonal and a non-finite rhs
    node = int(rng.integers(form.n))
    bad = d.copy()
    bad[node] = -c * (form.degree + form.k)[node] - 1.0
    with pytest.raises(np.linalg.LinAlgError):
        form._factor(c, bad)
    bad[node] = np.nan
    with pytest.raises(ValueError, match=f"diagonal is not finite at node {node} "):
        form._factor(c, bad)
    bad_rhs = rhs.copy()
    bad_rhs[node] = np.inf
    with pytest.raises(ValueError, match=f"not finite at node {node} "):
        form.solve(bad_rhs)
    with pytest.raises(ValueError, match="does not fit"):
        form.solve(rhs[:-1])


def test_solvers_call_lapack_directly(monkeypatch):
    def wrapper(*args, **kwargs):
        raise AssertionError("scipy's banded Cholesky wrapper called")

    for name in ("cholesky_banded", "cho_solve_banded"):
        monkeypatch.setattr(sla, name, wrapper)
    p = fl.build_catalog_problem("perturbed-g")
    assert np.all(np.isfinite(p.form.solve(p.mu.masses)))
    sol, _ = fl.solve_random_horizon_ladder(p.form, p.driver, p.mu)
    assert np.all(np.isfinite(sol.u))
    affine = fl.Driver.affine(p.form.n, 1.0, -1.0)
    sol = fl.solve_finite_horizon(p.form, affine, p.mu, np.zeros(p.form.n),
                                  1.0, 0.125)
    assert np.all(np.isfinite(sol.u))


@pytest.mark.parametrize("pid", ["lap2d", "frac-a10"])
def test_solvers_use_only_the_band_of_L(pid, monkeypatch):
    def dense(*args, **kwargs):
        raise AssertionError("dense factorization or eigensolve of L")

    for name in ("cho_factor", "cho_solve", "eigvalsh"):
        monkeypatch.setattr(sla, name, dense)
    p = fl.build_catalog_problem(pid)
    form = p.form
    assert np.all(np.isfinite(form.solve(p.mu.masses)))
    assert np.all(np.isfinite(
        _band_solve(form._factor(1.0, 0.5 * form.m), p.mu.masses)))
    assert form.spectral_gap() > 0.0
    e, cap = equilibrium_potential(form, [0, form.n // 2])
    assert cap > 0.0
    gs = fl.solve_elliptic_gauss_seidel(form, p.driver, p.mu)
    assert gs.diagnostics["omega"] > 1.0
    sol, _ = fl.solve_random_horizon_ladder(form, p.driver, p.mu)
    assert np.all(np.isfinite(sol.u))


# -- equilibrium potential ----------------------------------------------------

def test_equilibrium_all_nodes():
    form = two_node_form(w=2.0, k=(0.5, 0.25))
    e, cap = equilibrium_potential(form, [0, 1])
    np.testing.assert_allclose(e, 1.0)
    assert cap == pytest.approx(0.75)


def test_equilibrium_two_node_hand_solve():
    # e(1) solves w(e1 - 1) + k1 e1 = 0, so e1 = w/(w + k1)
    w, k1 = 2.0, 3.0
    form = two_node_form(w=w, k=(0.0, k1))
    e, cap = equilibrium_potential(form, [0])
    assert e[0] == 1.0
    assert e[1] == pytest.approx(w / (w + k1), rel=1e-13)
    assert cap == pytest.approx(form.energy(e), rel=1e-12)


def free_block_equilibrium(form, B):
    """e = 1 on B and the free block of L solved by dense Cholesky off B."""
    e = np.zeros(form.n)
    e[B] = 1.0
    free = np.setdiff1d(np.arange(form.n), B)
    if free.size:
        L = form.L.toarray()
        rhs = -L[np.ix_(free, B)] @ np.ones(len(B))
        e[free] = sla.cho_solve(
            sla.cho_factor(L[np.ix_(free, free)], lower=True), rhs)
    return e


@pytest.mark.parametrize("size", ["one", "several", "all"])
def test_equilibrium_matches_free_block_solve(size):
    rng = np.random.default_rng(23)
    for _ in range(10):
        form = random_transient_form(rng, 5, 30)
        count = {"one": 1, "several": int(rng.integers(2, form.n)),
                 "all": form.n}[size]
        B = np.sort(rng.choice(form.n, size=count, replace=False))
        e, cap = equilibrium_potential(form, B)
        ref = free_block_equilibrium(form, B)
        assert np.all(e[B] == 1.0)
        assert np.max(np.abs(e - ref)) <= 1e-12
        assert cap == pytest.approx(form.energy(e), rel=1e-12)
        assert cap == pytest.approx(form.energy(ref), rel=1e-10)


def test_equilibrium_bounds_and_errors():
    rng = np.random.default_rng(11)
    form = random_transient_form(rng, 8, 16)
    e, cap = equilibrium_potential(form, [0, 3])
    assert np.all(e >= -1e-12) and np.all(e <= 1 + 1e-12)
    assert cap >= 0
    with pytest.raises(fl.FormError):
        equilibrium_potential(form, [])
    recurrent = two_node_form(w=1.0)
    with pytest.raises(fl.GreenOperatorUndefined):
        equilibrium_potential(recurrent, [0])


# -- perturbation -------------------------------------------------------------

def test_perturb_makes_transient():
    form = two_node_form(w=1.0)
    pert = fl.perturb(form, np.ones(2))
    assert pert.killing_free_component() is None
    np.testing.assert_allclose(pert.k, form.k + form.m)


def test_perturb_energy_additivity():
    rng = np.random.default_rng(13)
    form = random_form(rng, 6, 10, killing="mixed")
    g = rng.uniform(0.2, 2.0, size=form.n)
    pert = fl.perturb(form, g)
    for _ in range(5):
        u = rng.normal(size=form.n)
        expected = form.energy(u) + float(np.sum(g * form.m * u * u))
        assert pert.energy(u) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_perturb_rejects_zero_entry():
    form = two_node_form()
    with pytest.raises(fl.FormError, match="strictly positive"):
        fl.perturb(form, np.array([1.0, 0.0]))


@pytest.mark.parametrize("pid", fl.catalog_ids())
def test_matvec_equals_sparse_product_bit_for_bit(pid):
    form = fl.build_catalog_problem(pid).form
    rng = np.random.default_rng(11)
    for v in (rng.normal(size=form.n), rng.normal(size=2 * form.n)[::2],
              np.arange(form.n)):
        assert form.matvec(v).tobytes() == (form.L @ v).tobytes()
    with pytest.raises(fl.FormError, match="mat-vec argument"):
        form.matvec(np.zeros(form.n + 1))
