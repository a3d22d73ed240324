"""Discretized operator catalog and JSON problem descriptors.

Families (cell-centered finite-volume grids throughout):

  lap1d      divergence-form operator -(a u')' on an interval with Dirichlet
             boundary: w_{i,i+1} = a(x_{i+1/2})/h, killing a(face)/h at the
             two boundary cells, m_i = h.
  lap2d      the same construction on the unit square; w across a face is
             a(face midpoint), boundary faces contribute a(face) killing,
             m_i = h^2.
  divform    lap1d with a variable, uniformly positive coefficient.
  frac       jump form of the symbol |xi|^alpha on an interval:
             w_ij = c_alpha h^2 / |x_i - x_j|^{1+alpha}, exterior-mass killing
             k_i = c_alpha h [(1-x_i)^{-alpha} + (1+x_i)^{-alpha}] / alpha.
  diag       pure multiplication form, W = 0, k_i = c(x_i) m_i; the builder
             rejects nodes where c vanishes (the exact solution 1/c blows up).
  perturbed  a killing-free chain made transient by adding g > 0, i.e.
             k = g * m.

Dirac measures are placed on the grid node nearest the requested coordinate,
ties broken toward the lower index.
"""

from __future__ import annotations

import json
import math

import numpy as np
import scipy.sparse as sp

from .drivers import Driver, DriverError, make_driver
from .forms import (MAX_DENSE_VALUES, DirichletForm, Problem, SignedMeasure,
                    StateSpace, build_form, perturb)


class DescriptorError(ValueError):
    """Malformed catalog or problem descriptor."""


DEFAULT_DRIVER = {"family": "power", "c": 1.0, "p": 2.0, "g": 1.0}

#: Most nodes a descriptor may ask for: n, or n * n for lap2d.  It is
#: checked before anything is allocated.
MAX_NODES = 2 ** 18

_FAMILIES = ("lap1d", "lap2d", "divform", "frac", "diag", "perturbed")

#: Stable catalog ids.  diag-5.7 is the degenerate multiplication form with
#: c(x) = |x|, whose exact solution for mu = m is u(x) = 1/|x|.
CATALOG = {
    "lap1d-dirac": {
        "family": "lap1d", "n": 64,
        "measure": [{"x": 0.5, "mass": 1.0}],
        "driver": DEFAULT_DRIVER,
    },
    "lap2d": {
        "family": "lap2d", "n": 16,
        "measure": [{"x": [0.5, 0.5], "mass": 1.0}],
        "driver": DEFAULT_DRIVER,
    },
    "divform-b": {
        "family": "divform", "n": 64,
        "coeff": {"kind": "affine", "c0": 1.0, "c1": 2.0},
        "measure": [{"x": 0.3, "mass": 1.0}],
        "driver": DEFAULT_DRIVER,
    },
    "frac-a10": {
        "family": "frac", "n": 128, "alpha": 1.0,
        "measure": [{"x": 0.0, "mass": 0.5}],
        "driver": DEFAULT_DRIVER,
    },
    "diag-5.7": {
        "family": "diag", "n": 64,
        "measure": "reference",
        "driver": {"family": "zero"},
    },
    "perturbed-g": {
        "family": "perturbed", "n": 16, "g": 1.0,
        "measure": [{"x": 0.25, "mass": 1.0}],
        "driver": DEFAULT_DRIVER,
    },
}


def catalog_ids():
    return sorted(CATALOG)


def _integer(value, key, least):
    """A JSON integer >= least, or DescriptorError naming key."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise DescriptorError(
            f"{key} must be an integer >= {least}, got {value!r}")
    return value


def _real(value, key):
    """A JSON number as a float, or DescriptorError naming key."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DescriptorError(f"{key} must be a number, got {value!r}")
    return float(value)


def _reals(value, key):
    """A JSON number or list of numbers as floats, or DescriptorError naming key."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise DescriptorError(f"{key} must be numeric, got {value!r}") from None


def _interval(value):
    """(lo, hi) as floats with lo < hi, or DescriptorError naming interval."""
    ends = _reals(value, "interval")
    if ends.shape != (2,) or not ends[0] < ends[1]:
        raise DescriptorError(
            f"interval must be two numbers lo < hi, got {value!r}")
    return float(ends[0]), float(ends[1])


def _cell_grid(a: float, b: float, n: int):
    h = (b - a) / n
    x = a + (np.arange(n) + 0.5) * h
    return x, h


def _coefficient(desc):
    """Coefficient function a(x) from a descriptor; defaults to 1."""
    if desc is None:
        return lambda x: np.ones_like(np.asarray(x, dtype=float))
    if not isinstance(desc, dict):
        raise DescriptorError(f"coeff must be a JSON object, got {desc!r}")
    kind = desc.get("kind")
    if kind == "constant":
        val = _real(desc.get("value", 1.0), "coeff value")
        return lambda x, v=val: np.full_like(np.asarray(x, dtype=float), v)
    if kind == "affine":
        c0 = _real(desc.get("c0", 1.0), "coeff c0")
        c1 = _real(desc.get("c1", 0.0), "coeff c1")
        return lambda x, c0=c0, c1=c1: c0 + c1 * np.asarray(x, dtype=float)
    raise DescriptorError(f"unknown coefficient kind {kind!r}")


def frac_normalization(alpha: float) -> float:
    """Normalization constant of the |xi|^alpha jump kernel in one dimension."""
    return (alpha * 2.0 ** (alpha - 1.0) * math.gamma((1.0 + alpha) / 2.0)
            / (math.sqrt(math.pi) * math.gamma(1.0 - alpha / 2.0)))


def build_grid_1d(n, coeff=None, interval=(0.0, 1.0), dirichlet=True) -> DirichletForm:
    """Cell-centered 1-d divergence-form grid; Dirichlet killing optional."""
    a_fn = _coefficient(coeff)
    lo, hi = _interval(interval)
    x, h = _cell_grid(lo, hi, n)
    faces = x[:-1] + h / 2.0
    a_face = np.asarray(a_fn(faces), dtype=float)
    if np.any(a_face <= 0):
        bad = int(np.argmin(a_face))
        raise DescriptorError(
            f"nonpositive diffusion coefficient a({faces[bad]}) = {a_face[bad]}")
    w = a_face / h
    W = sp.diags([w, w], offsets=[1, -1], shape=(n, n), format="csr")
    k = np.zeros(n)
    if dirichlet:
        a_lo = float(a_fn(np.array([lo]))[0])
        a_hi = float(a_fn(np.array([hi]))[0])
        if a_lo <= 0 or a_hi <= 0:
            raise DescriptorError("nonpositive diffusion coefficient at the boundary")
        k[0] = a_lo / h
        k[-1] = a_hi / h
    space = StateSpace(np.full(n, h), labels=x)
    return build_form(space, W, k)


def build_grid_2d(n_side, coeff=None) -> DirichletForm:
    """Cell-centered grid on the unit square with Dirichlet boundary.

    The coefficient is evaluated at the first coordinate of each face
    midpoint (the descriptor coefficients are functions of one variable).
    Node (i, j), at (xs[i], xs[j]), has index i * n_side + j.
    """
    a_fn = _coefficient(coeff)

    def a_at(x):
        val = np.asarray(a_fn(x), dtype=float)
        if np.any(val <= 0):
            bad = int(np.argmax(val <= 0))
            raise DescriptorError(
                f"nonpositive diffusion coefficient a({x[bad]}) = {val[bad]}")
        return val

    xs, h = _cell_grid(0.0, 1.0, n_side)
    n = n_side * n_side
    ii, jj = np.meshgrid(np.arange(n_side), np.arange(n_side), indexing="ij")
    coords = np.column_stack([xs[ii.ravel()], xs[jj.ravel()]])

    # faces between rows i and i + 1 sit at x = xs[i] + h/2; faces between
    # columns of row i, and the row's two side boundaries, sit at x = xs[i]
    a_rows = a_at(xs[:-1] + h / 2.0)
    a_cols = a_at(xs)
    a_lo, a_hi = a_at(np.array([0.0, 1.0]))
    node = np.arange(n).reshape(n_side, n_side)
    src = np.concatenate([node[:-1].ravel(), node[:, :-1].ravel()])
    dst = np.concatenate([node[1:].ravel(), node[:, 1:].ravel()])
    w = np.concatenate([np.repeat(a_rows, n_side), np.repeat(a_cols, n_side - 1)])
    W = sp.csr_matrix((np.concatenate([w, w]),
                       (np.concatenate([src, dst]), np.concatenate([dst, src]))),
                      shape=(n, n))
    W.sum_duplicates()
    # one killing contribution per boundary face of the cell
    k = np.zeros((n_side, n_side))
    k[0, :] += a_lo
    k[-1, :] += a_hi
    k[:, 0] += a_cols
    k[:, -1] += a_cols
    space = StateSpace(np.full(n, h * h), labels=coords)
    return build_form(space, W, k.ravel())


def build_frac(n, alpha, interval=(-1.0, 1.0)) -> DirichletForm:
    """Jump form of the fractional symbol on an interval, zero outside."""
    if not (0.0 < alpha < 2.0):
        raise DescriptorError(f"alpha must lie in (0, 2), got {alpha}")
    if n * n > MAX_DENSE_VALUES:
        raise DescriptorError(
            f"frac n = {n} asks for a dense kernel of {n * n} values, over "
            f"MAX_DENSE_VALUES = {MAX_DENSE_VALUES}")
    lo, hi = _interval(interval)
    x, h = _cell_grid(lo, hi, n)
    c = frac_normalization(alpha)
    diff = np.abs(x[:, None] - x[None, :])
    np.fill_diagonal(diff, 1.0)
    W = c * h * h / diff ** (1.0 + alpha)
    np.fill_diagonal(W, 0.0)
    k = c * h * ((hi - x) ** (-alpha) + (x - lo) ** (-alpha)) / alpha
    space = StateSpace(np.full(n, h), labels=x)
    return build_form(space, sp.csr_matrix(W), k)


def build_diag(n, interval=(-1.0, 1.0)) -> DirichletForm:
    """Degenerate multiplication form W = 0, k_i = c(x_i) m_i, c(x) = |x|."""
    x, h = _cell_grid(*_interval(interval), n)
    c = np.abs(x)
    if np.any(c < 1e-12):
        bad = int(np.argmin(c))
        raise DescriptorError(
            f"degenerate family rejects a node where c vanishes: "
            f"c({x[bad]}) = {c[bad]} (the exact solution is unbounded there)")
    space = StateSpace(np.full(n, h), labels=x)
    return build_form(space, sp.csr_matrix((n, n)), c * space.m)


def build_perturbed(n, g=1.0, coeff=None) -> DirichletForm:
    """Killing-free 1-d chain made transient by a positive zero-order term."""
    base = build_grid_1d(n, coeff=coeff, dirichlet=False)
    g_vec = np.asarray(g, dtype=float)
    if g_vec.ndim == 0:
        g_vec = np.full(base.n, float(g_vec))
    return perturb(base, g_vec)


def place_atoms(space: StateSpace, atoms) -> SignedMeasure:
    """Sum of point masses; coordinates snap to the nearest node, ties low."""
    masses = np.zeros(space.n)
    coords = space.coordinates()
    for atom in atoms:
        if not isinstance(atom, dict):
            raise DescriptorError(f"measure atom must be a JSON object, got {atom!r}")
        if "node" in atom:
            node = _integer(atom["node"], "atom node", 0)
            if node >= space.n:
                raise DescriptorError(f"atom node {node} out of range")
        elif "x" in atom:
            target = _reals(atom["x"], "atom x")
            if target.shape != coords.shape[1:]:
                raise DescriptorError(
                    f"atom x {atom['x']!r} does not match the grid's "
                    f"{coords.ndim}-d coordinates")
            if coords.ndim == 1:
                dist = np.abs(coords - float(target))
            else:
                dist = np.linalg.norm(coords - target[None, :], axis=1)
            node = int(np.argmin(dist))  # argmin takes the first (lowest) index on ties
        else:
            raise DescriptorError(f"measure atom needs 'node' or 'x': {atom!r}")
        masses[node] += _real(atom.get("mass"), "atom mass")
    return SignedMeasure(masses)


def _resolve_measure(desc, space: StateSpace) -> SignedMeasure:
    if desc is None:
        return SignedMeasure.zero(space.n)
    if desc == "reference":
        return SignedMeasure(space.m.copy())
    if isinstance(desc, list):
        return place_atoms(space, desc)
    raise DescriptorError(f"unknown measure descriptor {desc!r}")


_ALLOWED_KEYS = {"family", "n", "alpha", "interval", "coeff", "measure",
                 "driver", "g"}


def build_catalog_problem(descriptor) -> Problem:
    """Build a Problem from a catalog id or a descriptor dict."""
    if isinstance(descriptor, str):
        if descriptor not in CATALOG:
            raise DescriptorError(
                f"unknown catalog id {descriptor!r}; known ids: {catalog_ids()}")
        desc = dict(CATALOG[descriptor])
    elif isinstance(descriptor, dict):
        desc = dict(descriptor)
    else:
        raise DescriptorError(
            f"a descriptor must be a JSON object, got {type(descriptor).__name__}")
    unknown = set(desc) - _ALLOWED_KEYS
    if unknown:
        raise DescriptorError(f"unknown descriptor keys {sorted(unknown)}")
    family = desc.get("family")
    n = _integer(desc.get("n", 64), "n", 2)
    if family not in _FAMILIES:
        raise DescriptorError(f"unknown catalog family {family!r}")
    nodes = n * n if family == "lap2d" else n
    if nodes > MAX_NODES:
        raise DescriptorError(
            f"{family} n = {n} asks for {nodes} nodes, over "
            f"MAX_NODES = {MAX_NODES}")

    if family == "lap1d":
        form = build_grid_1d(n, coeff=desc.get("coeff"),
                             interval=desc.get("interval", (0.0, 1.0)))
    elif family == "divform":
        coeff = desc.get("coeff", {"kind": "affine", "c0": 1.0, "c1": 2.0})
        form = build_grid_1d(n, coeff=coeff,
                             interval=desc.get("interval", (0.0, 1.0)))
    elif family == "lap2d":
        form = build_grid_2d(n, coeff=desc.get("coeff"))
    elif family == "frac":
        form = build_frac(n, _real(desc.get("alpha", 1.0), "alpha"),
                          interval=desc.get("interval", (-1.0, 1.0)))
    elif family == "diag":
        form = build_diag(n, interval=desc.get("interval", (-1.0, 1.0)))
    else:
        form = build_perturbed(n, g=_reals(desc.get("g", 1.0), "g"),
                               coeff=desc.get("coeff"))

    driver = make_driver(desc.get("driver", {"family": "zero"}), form.n)
    mu = _resolve_measure(desc.get("measure"), form.space)
    return Problem(form=form, driver=driver, mu=mu)


def load_problem(path) -> Problem:
    """Read a problem descriptor from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            desc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DescriptorError(f"{path}: invalid JSON ({exc})") from exc
    except OSError as exc:
        raise DescriptorError(f"{path}: cannot read ({exc.strerror})") from exc
    try:
        return build_catalog_problem(desc)
    except (DescriptorError, DriverError) as exc:
        raise DescriptorError(f"{path}: {exc}") from exc
