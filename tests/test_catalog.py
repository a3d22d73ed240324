import json

import numpy as np
import pytest
import scipy.sparse as sp

import formlab as fl
from formlab.catalog import (DescriptorError, _cell_grid, _coefficient,
                             build_diag, build_frac, build_grid_1d,
                             build_grid_2d, frac_normalization, place_atoms)
from formlab.forms import StateSpace, build_form


def test_grid_1d_worked_example():
    # n = 3 on (0,1): h = 1/3, w01 = w12 = 3, boundary killing 3, m = 1/3
    form = build_grid_1d(3)
    W = form.W.toarray()
    assert W[0, 1] == pytest.approx(3.0)
    assert W[1, 2] == pytest.approx(3.0)
    assert W[0, 2] == 0.0
    np.testing.assert_allclose(form.k, [3.0, 0.0, 3.0])
    np.testing.assert_allclose(form.m, 1.0 / 3.0)
    np.testing.assert_allclose(form.space.labels, [1 / 6, 1 / 2, 5 / 6])


def test_grid_1d_variable_coefficient_faces():
    form = build_grid_1d(4, coeff={"kind": "affine", "c0": 1.0, "c1": 2.0})
    # face between cells 0 and 1 sits at x = 1/4: a = 1.5, w = 1.5/h = 6
    assert form.W[0, 1] == pytest.approx(6.0)
    # boundary killing uses the boundary-face coefficient: a(0)/h, a(1)/h
    assert form.k[0] == pytest.approx(4.0)
    assert form.k[-1] == pytest.approx(12.0)


def test_grid_rejects_nonpositive_coefficient():
    # a(x) = 0.1 - x turns nonpositive inside the interval and the square
    with pytest.raises(DescriptorError, match="nonpositive"):
        build_grid_1d(8, coeff={"kind": "affine", "c0": 0.1, "c1": -1.0})
    with pytest.raises(DescriptorError, match="nonpositive"):
        build_grid_2d(8, {"kind": "affine", "c0": 0.1, "c1": -1.0})
    with pytest.raises(DescriptorError, match="nonpositive"):
        build_grid_2d(4, {"kind": "constant", "value": 0.0})


def _grid_2d_loop(n_side, coeff=None):
    """Reference lap2d builder: one a(x) call per face, cell by cell."""
    a_fn = _coefficient(coeff)

    def a_at(x_coord):
        val = float(np.asarray(a_fn(np.array([x_coord])))[0])
        if val <= 0:
            raise DescriptorError(
                f"nonpositive diffusion coefficient a({x_coord}) = {val}")
        return val

    xs, h = _cell_grid(0.0, 1.0, n_side)
    n = n_side * n_side
    ii, jj = np.meshgrid(np.arange(n_side), np.arange(n_side), indexing="ij")
    coords = np.column_stack([xs[ii.ravel()], xs[jj.ravel()]])

    def node(i, j):
        return i * n_side + j

    rows, cols, vals = [], [], []
    k = np.zeros(n)
    for i in range(n_side):
        for j in range(n_side):
            p = node(i, j)
            if i + 1 < n_side:
                af = a_at(xs[i] + h / 2.0)
                rows += [p, node(i + 1, j)]
                cols += [node(i + 1, j), p]
                vals += [af, af]
            if j + 1 < n_side:
                af = a_at(xs[i])
                rows += [p, node(i, j + 1)]
                cols += [node(i, j + 1), p]
                vals += [af, af]
            if i == 0:
                k[p] += a_at(0.0)
            if i == n_side - 1:
                k[p] += a_at(1.0)
            if j == 0:
                k[p] += a_at(xs[i])
            if j == n_side - 1:
                k[p] += a_at(xs[i])
    W = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    W.sum_duplicates()
    space = StateSpace(np.full(n, h * h), labels=coords)
    return build_form(space, W, k)


@pytest.mark.parametrize("coeff", [
    None, {"kind": "constant", "value": 2.5},
    {"kind": "affine", "c0": 1.0, "c1": 2.0}], ids=["none", "constant", "affine"])
@pytest.mark.parametrize("n_side", [2, 3, 5, 16])
def test_grid_2d_matches_loop_bits(n_side, coeff):
    new, ref = build_grid_2d(n_side, coeff), _grid_2d_loop(n_side, coeff)
    for name in ("indptr", "indices", "data"):
        a, b = getattr(new.W, name), getattr(ref.W, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert np.array_equal(new.k, ref.k)
    assert np.array_equal(new.space.labels, ref.space.labels)
    assert np.array_equal(new.m, ref.m)


def test_frac_assembly_and_range():
    form = build_frac(8, alpha=1.0)
    x = form.space.labels
    h = form.m[0]
    c = frac_normalization(1.0)
    assert c == pytest.approx(1.0 / np.pi)
    i, j = 1, 5
    expect = c * h * h / abs(x[i] - x[j]) ** 2
    assert form.W[i, j] == pytest.approx(expect)
    expect_k = c * h * ((1 - x[i]) ** (-1.0) + (1 + x[i]) ** (-1.0))
    assert form.k[i] == pytest.approx(expect_k)
    assert form.killing_free_component() is None


def test_frac_rejects_alpha_out_of_range():
    with pytest.raises(DescriptorError, match="alpha"):
        build_frac(8, alpha=2.5)
    with pytest.raises(DescriptorError, match="alpha"):
        fl.build_catalog_problem({"family": "frac", "n": 8, "alpha": 3.0})


def test_diag_matches_degenerate_family():
    form = build_diag(8)
    x = form.space.labels
    assert form.W.nnz == 0
    np.testing.assert_allclose(form.k, np.abs(x) * form.m)


def test_diag_rejects_node_at_zero():
    # odd node count on a symmetric interval puts a node at the origin
    with pytest.raises(DescriptorError, match="vanishes"):
        build_diag(9)


def test_perturbed_family_transient():
    prob = fl.build_catalog_problem("perturbed-g")
    assert prob.form.killing_free_component() is None
    # base chain is killing-free: all killing comes from g * m
    np.testing.assert_allclose(prob.form.k, prob.form.m)


def test_small_n_rejected():
    with pytest.raises(DescriptorError):
        fl.build_catalog_problem({"family": "lap1d", "n": 1})


def test_unknown_keys_rejected():
    with pytest.raises(DescriptorError, match="unknown descriptor keys"):
        fl.build_catalog_problem({"family": "lap1d", "n": 8, "what": 1})


def test_atom_placement_nearest_and_tie_low():
    space = fl.StateSpace(np.ones(4), labels=np.array([0.0, 1.0, 2.0, 3.0]))
    mu = place_atoms(space, [{"x": 1.2, "mass": 2.0}])
    np.testing.assert_allclose(mu.masses, [0.0, 2.0, 0.0, 0.0])
    tie = place_atoms(space, [{"x": 1.5, "mass": 1.0}])
    np.testing.assert_allclose(tie.masses, [0.0, 1.0, 0.0, 0.0])
    by_node = place_atoms(space, [{"node": 3, "mass": -1.0}])
    assert by_node.masses[3] == -1.0
    with pytest.raises(DescriptorError):
        place_atoms(space, [{"mass": 1.0}])


def test_catalog_ids_build(catalog_problems):
    for pid, prob in catalog_problems.items():
        assert prob.form.n >= 2
        assert prob.mu.n == prob.form.n
        assert prob.driver.n == prob.form.n
        assert prob.form.killing_free_component() is None, pid


def test_lap2d_constant_coefficient_structure():
    prob = fl.build_catalog_problem({"family": "lap2d", "n": 4,
                                     "driver": {"family": "zero"}})
    form = prob.form
    assert form.n == 16
    np.testing.assert_allclose(form.m, (1.0 / 4.0) ** 2)
    # interior cell has 4 unit couplings and no killing
    inner = 1 * 4 + 1   # cell (1,1)
    assert form.degree[inner] == pytest.approx(4.0)
    assert form.k[inner] == 0.0
    # corner cell has 2 couplings and 2 boundary faces
    assert form.degree[0] == pytest.approx(2.0)
    assert form.k[0] == pytest.approx(2.0)


def test_load_problem_json(tmp_path):
    desc = {"family": "diag", "n": 8, "measure": "reference",
            "driver": {"family": "zero"}}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(desc))
    prob = fl.load_problem(path)
    assert prob.form.n == 8
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(DescriptorError, match="invalid JSON"):
        fl.load_problem(bad)


def test_reference_measure():
    prob = fl.build_catalog_problem("diag-5.7")
    np.testing.assert_allclose(prob.mu.masses, prob.form.m)
