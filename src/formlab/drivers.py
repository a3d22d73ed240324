"""Nonlinearities f(x, y), their regularization and data truncation.

A Driver bundles the evaluation rule with the metadata the solvers need:
whether f is nonincreasing in y, an optional global Lipschitz constant, and
family parameters.  Built-in families:

  affine     f(x, y) = a(x) + b(x) * y                 (monotone iff b <= 0)
  power      f(x, y) = g(x) - c(x) * sign(y)|y|^p      (monotone iff c >= 0)
  tabulated  per-node piecewise-linear table in y

All evaluations are vectorized over nodes: ``value(u)`` returns the vector
f(x, u_x) and ``value_at(idx, y)`` evaluates a subset of nodes.
"""

from __future__ import annotations

import numpy as np

from .forms import FormError, SignedMeasure


class DriverError(ValueError):
    """Invalid driver construction or regularization parameters, or a
    driver that increases in y where a solver needs it nonincreasing."""


# a table segment counts as increasing only above this slope (rounding slack)
_TABLE_SLOPE_TOL = 1e-12


def _floats(v, name):
    """v as a float array, or DriverError naming the parameter."""
    try:
        return np.asarray(v, dtype=float)
    except (TypeError, ValueError):
        raise DriverError(f"{name} must be numeric, got {v!r}") from None


def _pernode(v, n, name):
    a = _floats(v, name)
    if a.ndim == 0:
        a = np.full(n, float(a))
    if a.shape != (n,):
        raise DriverError(f"{name} must be scalar or length {n}, got shape {a.shape}")
    return a


def _signed_power(y, p):
    """sign(y) |y|^p with fast paths for the small integer exponents."""
    if p == 1.0:
        return y
    if p == 2.0:
        return y * np.abs(y)
    if p == 3.0:
        return y * y * y
    return np.sign(y) * np.abs(y) ** p


class Driver:
    """Evaluation rule f(x, y) with monotonicity and Lipschitz metadata."""

    def __init__(self, n, family, params, *, monotone, lipschitz=None,
                 constant_slope=None):
        self.n = int(n)
        # the node index array value(u) passes to value_at, which tells it
        # by identity
        self._nodes = np.arange(self.n)
        self._nodes.flags.writeable = False
        self.family = family
        self.params = params
        self.monotone = bool(monotone)
        self.lipschitz = lipschitz
        # slope vector d/dy f when it does not depend on y (affine family);
        # lets the backward integrator reuse one factorization per step size.
        self.constant_slope = constant_slope

    # -- construction -----------------------------------------------------

    @staticmethod
    def affine(n, a, b) -> "Driver":
        a = _pernode(a, n, "a")
        b = _pernode(b, n, "b")
        return Driver(n, "affine", {"a": a, "b": b},
                      monotone=bool(np.all(b <= 0)),
                      lipschitz=float(np.max(np.abs(b))),
                      constant_slope=b)

    @staticmethod
    def zero(n) -> "Driver":
        return Driver.affine(n, 0.0, 0.0)

    @staticmethod
    def power(n, c, p, g=0.0) -> "Driver":
        """f(x, y) = g(x) - c(x) * sign(y)|y|^p with c >= 0, p > 0."""
        c = _pernode(c, n, "c")
        g = _pernode(g, n, "g")
        p = _floats(p, "p")
        if p.ndim or not p > 0:
            raise DriverError(f"power exponent p must be positive, got {p}")
        p = float(p)
        if np.any(c < 0):
            raise DriverError("power coefficient c must be nonnegative")
        return Driver(n, "power", {"c": c, "p": p, "g": g},
                      monotone=True, lipschitz=None)

    @staticmethod
    def tabulated(ygrid, values) -> "Driver":
        """Per-node piecewise-linear table; extrapolates with the end slopes."""
        y = _floats(ygrid, "ygrid")
        V = _floats(values, "values")
        if y.ndim != 1 or y.size < 2 or np.any(np.diff(y) <= 0):
            raise DriverError("tabulated ygrid must be strictly increasing")
        if V.ndim != 2 or V.shape[1] != y.size:
            raise DriverError("tabulated values must be (n_nodes, len(ygrid))")
        slopes = np.diff(V, axis=1) / np.diff(y)
        return Driver(V.shape[0], "tabulated", {"y": y, "V": V, "slopes": slopes},
                      monotone=bool(np.all(slopes <= _TABLE_SLOPE_TOL)),
                      lipschitz=float(np.max(np.abs(slopes))))

    # -- evaluation --------------------------------------------------------

    def value_at(self, idx, y) -> np.ndarray:
        """f at nodes idx (int array) and values y (same-shape array).

        Given self._nodes itself, every node in order, the per-node
        parameters are read whole rather than gathered; the values are the
        same bits.
        """
        every = idx is self._nodes
        if not every:
            idx = np.asarray(idx, dtype=int)
        y = np.asarray(y, dtype=float)
        p = self.params
        if self.family == "affine":
            if every:
                return p["a"] + p["b"] * y
            return p["a"][idx] + p["b"][idx] * y
        if self.family == "power":
            if every:
                return p["g"] - p["c"] * _signed_power(y, p["p"])
            return p["g"][idx] - p["c"][idx] * _signed_power(y, p["p"])
        if self.family == "tabulated":
            return self._table_eval(idx, y)
        if self.family == "yosida":
            return self._yosida_eval(idx, y, every)
        if self.family == "truncated":
            base: Driver = p["base"]
            if every:
                return base.value_at(base._nodes, y) - p["shift"]
            return base.value_at(idx, y) - p["shift"][idx]
        raise DriverError(f"unknown driver family {self.family!r}")

    def value(self, u) -> np.ndarray:
        """Vector f(x, u_x) over all nodes."""
        return self.value_at(self._nodes, u)

    def scalar(self, x: int, y: float) -> float:
        """Scalar f(x, y) without array overhead (hot path of node solvers)."""
        p = self.params
        if self.family == "affine":
            return float(p["a"][x] + p["b"][x] * y)
        if self.family == "power":
            pw = p["p"]
            if pw == 1.0:
                s = y
            elif pw == 2.0:
                s = y * abs(y)
            elif pw == 3.0:
                s = y * y * y
            else:
                s = (1.0 if y >= 0 else -1.0) * abs(y) ** pw
            return float(p["g"][x] - p["c"][x] * s)
        if self.family == "truncated":
            return p["base"].scalar(x, y) - float(p["shift"][x])
        return float(self.value_at(np.array([x]), np.array([float(y)]))[0])

    def f0(self) -> np.ndarray:
        """The vector f(., 0)."""
        return self.value(np.zeros(self.n))

    def deriv(self, u) -> np.ndarray:
        """d/dy f(x, y) at y = u_x; central difference, with step
        1e-6 max(1, |u_x|), for table-like families."""
        u = np.asarray(u, dtype=float)
        p = self.params
        if self.family == "affine":
            return p["b"].copy()
        if self.family == "power":
            c, pw = p["c"], p["p"]
            base = np.abs(u)
            if pw < 1.0:
                base = np.maximum(base, 1e-12)
            return -c * pw * base ** (pw - 1.0)
        if self.family == "truncated":
            return p["base"].deriv(u)
        idx = self._nodes
        h = 1e-6 * np.maximum(1.0, np.abs(u))
        return (self.value_at(idx, u + h) - self.value_at(idx, u - h)) / (2 * h)

    def slope_bound(self, radius: float):
        """Lipschitz bound of y -> f(x, y) on [-radius, radius], or None."""
        if self.lipschitz is not None:
            return self.lipschitz
        if self.family == "power":
            p = self.params["p"]
            if p >= 1.0:
                return float(np.max(self.params["c"]) * p * max(radius, 0.0) ** (p - 1.0))
            return None
        if self.family == "truncated":
            return self.params["base"].slope_bound(radius)
        return None

    # -- family internals ---------------------------------------------------

    def _table_eval(self, idx, y):
        p = self.params
        yg, V, slopes = p["y"], p["V"], p["slopes"]
        j = np.clip(np.searchsorted(yg, y) - 1, 0, yg.size - 2)
        return V[idx, j] + slopes[idx, j] * (y - yg[j])

    def _yosida_eval(self, idx, y, every):
        p = self.params
        z, pre, suf, lip = p["z"], p["pre"], p["suf"], p["n"]
        # grid points z_k <= y lie left of y and the rest right of it, so
        # min_k f(x, z_k) + n|y - z_k| splits into two stored minima
        j = z.searchsorted(y, side="right")
        if every:  # row x of the (n, G + 1) tables starts at x (G + 1)
            flat = p["row_starts"] + j
            left, right = pre.take(flat), suf.take(flat)
        else:
            left, right = pre[idx, j], suf[idx, j]
        # fmin keeps the finite side at y = +-inf, where the other reads nan
        ly = lip * y
        return np.fmin(ly + left, right - ly)


def require_monotone(driver: Driver) -> None:
    """Raise DriverError unless y -> f(x, y) is nonincreasing at every node.

    The message names the first node where f increases and the slope there;
    regularized and truncated drivers are traced to the driver they wrap.
    """
    if driver.monotone:
        return
    base = driver
    while base.family in ("yosida", "truncated"):
        base = base.params["base"]
    if base.family == "affine":
        x = int(np.argmax(~(base.params["b"] <= 0)))
        where = f"increases at node {x} with slope {base.params['b'][x]:g}"
    elif base.family == "tabulated":
        x, j = np.argwhere(~(base.params["slopes"] <= _TABLE_SLOPE_TOL))[0]
        y = base.params["y"]
        where = (f"increases at node {x} with slope "
                 f"{base.params['slopes'][x, j]:g} on [{y[j]:g}, {y[j + 1]:g}]")
    else:
        where = f"is declared non-monotone ({base.family} family)"
    raise DriverError(f"driver must be nonincreasing in y: f {where}")


def yosida_regularize(driver: Driver, n: int, ygrid: dict) -> Driver:
    """Lipschitz lower regularization by inf-convolution over a y-grid.

    Returns the driver  f_n(x, y) = min_z { n|y - z| + f(x, z) }  with z
    ranging over a uniform grid on [-R, R] given by ygrid = {"R": half-width,
    "delta": spacing}.  The result is exactly n-Lipschitz in y; the familiar
    lower-bound and monotone-in-n properties hold on the z-grid and hold
    everywhere up to the quadrature defect n*delta.

    The table f(x, z) is built with one vectorized call of the base driver.
    Only its per-node prefix minima of f - n z and suffix minima of f + n z
    are stored (``pre`` and ``suf``, padded with +inf where a side has no
    grid point), so each evaluation is one binary search into the grid:
    O(log G) time and O(1) memory per point for a grid of G points.
    """
    if n < 1:
        raise DriverError(f"regularization level must be >= 1, got {n}")
    R = float(ygrid["R"])
    delta = float(ygrid["delta"])
    if R <= 0:
        raise DriverError(f"grid half-width R must be positive, got {R}")
    if delta <= 0:
        raise DriverError(f"grid spacing delta must be positive, got {delta}")
    half = max(1, int(np.ceil(R / delta)))
    z = np.linspace(-R, R, 2 * half + 1)
    delta_eff = R / half
    lip = float(n)
    F = driver.value_at(np.repeat(np.arange(driver.n), z.size),
                        np.tile(z, driver.n)).reshape(driver.n, z.size)
    # pre[:, j] = min_{k < j} F_k - n z_k and suf[:, j] = min_{k >= j} F_k + n z_k;
    # the column with no grid point on its side keeps +inf
    pre = np.full((driver.n, z.size + 1), np.inf)
    suf = np.full((driver.n, z.size + 1), np.inf)
    np.minimum.accumulate(F - lip * z, axis=1, out=pre[:, 1:])
    np.minimum.accumulate((F + lip * z)[:, ::-1], axis=1, out=suf[:, -2::-1])
    return Driver(driver.n, "yosida",
                  {"base": driver, "z": z, "pre": pre, "suf": suf, "n": lip,
                   "row_starts": np.arange(driver.n) * (z.size + 1)},
                  monotone=driver.monotone,
                  lipschitz=lip)


def truncate_data(driver: Driver, mu: SignedMeasure, n: int):
    """Bounded-data approximation at level n.

    Returns (driver', mu') with driver'(x, y) = f(x, y) - f(x, 0) + T_n(f(x, 0))
    and mu' the node-wise clamp of the masses to [-n, n].  Both equal the
    inputs once n dominates max|f(., 0)| and max|mu({x})|.
    """
    if n < 1:
        raise DriverError(f"truncation level must be >= 1, got {n}")
    f0 = driver.f0()
    shift = f0 - np.clip(f0, -float(n), float(n))
    if np.all(shift == 0.0):
        trunc_driver = driver
    else:
        trunc_driver = Driver(
            driver.n, "truncated", {"base": driver, "shift": shift},
            monotone=driver.monotone, lipschitz=driver.lipschitz,
            constant_slope=driver.constant_slope)
    masses = np.clip(mu.masses, -float(n), float(n))
    trunc_mu = mu if np.all(masses == mu.masses) else SignedMeasure(masses)
    return trunc_driver, trunc_mu


def make_driver(desc: dict, n: int) -> Driver:
    """Build a driver from a JSON-style descriptor."""
    if not isinstance(desc, dict) or "family" not in desc:
        raise DriverError(f"driver descriptor needs a 'family' key, got {desc!r}")
    fam = desc["family"]
    known = {"affine", "power", "zero", "tabulated"}
    if fam not in known:
        raise DriverError(f"unknown driver family {fam!r}; expected one of {sorted(known)}")
    extra = set(desc) - {"family", "a", "b", "c", "p", "g", "ygrid", "values"}
    if extra:
        raise DriverError(f"unknown driver keys {sorted(extra)}")
    if fam == "zero":
        return Driver.zero(n)
    if fam == "affine":
        return Driver.affine(n, desc.get("a", 0.0), desc.get("b", 0.0))
    if fam == "power":
        return Driver.power(n, desc.get("c", 1.0), desc.get("p", 2.0),
                            desc.get("g", 0.0))
    return Driver.tabulated(desc.get("ygrid"), desc.get("values"))
