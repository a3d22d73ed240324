"""Finite-state symmetric Dirichlet forms: energy, transience, potentials.

A form is a triple (m, W, k): a strictly positive reference measure m on n
nodes, a symmetric matrix W of nonnegative jump weights with zero diagonal,
and a vector k of nonnegative killing weights.  The energy is

    E(u, v) = 1/2 * sum_xy w_xy (u_x - u_y)(v_x - v_y) + sum_x k_x u_x v_x

and the form Laplacian L, defined by (Lu)_x = sum_y w_xy (u_x - u_y) + k_x u_x,
satisfies E(u, v) = v . Lu.  The operator acting on functions is -(Lu)_x / m_x.

The form is transient, so that L is positive definite and the 0-order
Green operator G = L^-1 exists, exactly when every connected component of
the jump graph carries killing; DirichletForm.killing_free_component() is
the one test of it, returning None or the component without killing.

Every factorization and eigensolve of L reads one cached, read-only lower
band of L, whose bandwidth is read from L's nonzeros (1 on a path, the side
on a grid, n - 1 for a dense kernel).  Solves with c*L + diag(d) (the Green
operator and the ladder's implicit steps) factor it by banded Cholesky,
calling LAPACK's dpbtrf and dpbtrs directly (DirichletForm._factor and
_band_solve); the lowest eigenvalue of a diagonally scaled L is taken from
the scaled band by the banded symmetric eigensolver.

Every node-level equation in this package is written in the shared assembly
convention  (Lu)(x) = m_x f(x, u_x) + mu({x}).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf as _dpbtrf, dpbtrs as _dpbtrs
from scipy.sparse._sparsetools import csr_matvec as _csr_matvec


#: Most values a dense array may hold: a frac descriptor's n x n jump
#: kernel, or the per-path arrays a Monte Carlo path budget implies.  Each
#: is checked before anything is allocated.
MAX_DENSE_VALUES = 2 ** 26


class FormError(ValueError):
    """Form data violates an invariant (shape, sign or symmetry)."""


class GreenOperatorUndefined(RuntimeError):
    """A 0-order potential was requested on a form that is not transient."""


def _frozen_array(a, dtype=float):
    out = np.array(a, dtype=dtype)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class StateSpace:
    """Finite node set with a strictly positive reference measure.

    ``labels`` optionally carries one spatial coordinate row per node; it is
    used by catalog problems, measure placement and CSV export only.
    """

    m: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        if m.ndim != 1 or m.size < 1:
            raise FormError("reference measure must be a nonempty 1-d vector")
        if not np.all(np.isfinite(m)) or np.any(m <= 0.0):
            bad = int(np.argmin(m))
            raise FormError(
                f"reference measure must be strictly positive everywhere; "
                f"m[{bad}] = {m[bad]}")
        object.__setattr__(self, "m", _frozen_array(m))
        if self.labels is not None:
            lab = np.asarray(self.labels, dtype=float)
            if lab.shape[0] != m.size:
                raise FormError(
                    f"labels carry {lab.shape[0]} rows for {m.size} nodes")
            object.__setattr__(self, "labels", _frozen_array(lab))

    @property
    def n(self) -> int:
        return self.m.size

    def coordinates(self) -> np.ndarray:
        """Per-node coordinates; node indices if no labels were given."""
        if self.labels is None:
            return np.arange(self.n, dtype=float)
        return self.labels


@dataclass(frozen=True)
class SignedMeasure:
    """Signed measure given by its node masses mu({x})."""

    masses: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.masses, dtype=float)
        if v.ndim != 1:
            raise FormError("measure masses must be a 1-d vector")
        if not np.all(np.isfinite(v)):
            raise FormError("measure masses must be finite")
        object.__setattr__(self, "masses", _frozen_array(v))

    @property
    def n(self) -> int:
        return self.masses.size

    @property
    def total_variation(self) -> float:
        return float(np.sum(np.abs(self.masses)))

    def density(self, space: StateSpace) -> np.ndarray:
        """Density with respect to the reference measure, masses / m."""
        if space.n != self.n:
            raise FormError("measure and space dimensions differ")
        return self.masses / space.m

    @staticmethod
    def zero(n: int) -> "SignedMeasure":
        return SignedMeasure(np.zeros(n))


class DirichletForm:
    """Symmetric jump weights plus killing over a StateSpace.

    Instances are immutable after construction; the assembled Laplacian,
    its lower band (from which every factor and eigenvalue is computed),
    its banded Green factor and its lowest scaled eigenvalues are cached
    read-only, so a form can be shared freely across threads.
    """

    def __init__(self, space: StateSpace, W: sp.csr_matrix, k: np.ndarray):
        self.space = space
        self._W = W
        self._k = _frozen_array(k)
        self._degree = _frozen_array(np.asarray(W.sum(axis=1)).ravel())
        self._L = None
        self._csr = None
        self._band = None
        self._green = None
        self._lowest = {}
        self._components = None
        W.data.flags.writeable = False

    @property
    def n(self) -> int:
        return self.space.n

    @property
    def m(self) -> np.ndarray:
        return self.space.m

    @property
    def W(self) -> sp.csr_matrix:
        return self._W

    @property
    def k(self) -> np.ndarray:
        return self._k

    @property
    def degree(self) -> np.ndarray:
        """Row sums of W, i.e. total jump weight out of each node."""
        return self._degree

    @property
    def L(self) -> sp.csr_matrix:
        """Form Laplacian, (Lu)_x = sum_y w_xy (u_x - u_y) + k_x u_x."""
        if self._L is None:
            D = sp.diags(self._degree + self._k)
            L = (D - self._W).tocsr()
            L.data.flags.writeable = False
            self._L = L
        return self._L

    def matvec(self, v) -> np.ndarray:
        """L v for one vector of n values, bit for bit equal to L @ v.

        It calls the CSR mat-vec kernel that L @ v dispatches to, over
        the cached arrays of L, without scipy's operator dispatch.
        """
        if self._csr is None:
            L = self.L
            self._csr = (self.n, self.n, L.indptr, L.indices, L.data)
        n = self._csr[0]
        v = np.asarray(v, dtype=float)
        if v.shape != (n,):
            raise FormError(
                f"mat-vec argument must have length {n}, got {v.shape}")
        out = np.zeros(n)
        _csr_matvec(*self._csr, v, out)
        return out

    def energy(self, u: np.ndarray, v: np.ndarray | None = None) -> float:
        """E(u, v) by the defining double sum; E(u, u) when v is omitted."""
        u = np.asarray(u, dtype=float)
        v = u if v is None else np.asarray(v, dtype=float)
        if u.shape != (self.n,) or v.shape != (self.n,):
            raise FormError(
                f"energy arguments must have length {self.n}, "
                f"got {u.shape} and {v.shape}")
        coo = self._W.tocoo()
        du = u[coo.row] - u[coo.col]
        dv = v[coo.row] - v[coo.col]
        jump = 0.5 * float(np.sum(coo.data * du * dv))
        kill = float(np.sum(self._k * u * v))
        return jump + kill

    def _lower_band(self) -> np.ndarray:
        """L in LAPACK lower band storage: band[i - j, j] = L[i, j], i >= j.

        The bandwidth is read from the nonzeros of L: 1 on a path, the side
        on a row-major grid, n - 1 for a dense kernel.  Its entries are
        finite, since W and k are checked finite when the form is built.
        """
        if self._band is None:
            coo = self.L.tocoo()
            keep = (coo.row >= coo.col) & (coo.data != 0.0)
            rows, cols = coo.row[keep], coo.col[keep]
            # Fortran order, as LAPACK reads it, so c * band needs no copy
            band = np.zeros((int(np.max(rows - cols, initial=0)) + 1, self.n),
                            order="F")
            band[rows - cols, cols] = coo.data[keep]
            band.flags.writeable = False
            self._band = band
        return self._band

    def _factor(self, c: float, d, ab: np.ndarray | None = None):
        """Banded Cholesky factor of c*L + diag(d), as (cb, True) for _band_solve.

        c*L + diag(d) is formed in a Fortran-ordered array and factored in
        place by LAPACK dpbtrf, so no hidden copy is made.  A caller that
        factors many matrices with one c passes ab, a Fortran-ordered array
        that already holds c times the band of L; it is overwritten by the
        factor.  Only the diagonal row is checked finite: it holds c*L_jj +
        d_j, and every other entry of column j is bounded in magnitude by
        c*L_jj, since L is diagonally dominant.  A non-finite diagonal
        raises ValueError naming its first node; a matrix that is not
        positive definite raises LinAlgError.
        """
        if ab is None:
            ab = c * self._lower_band()
        diag = ab[0]
        diag += d
        if not np.isfinite(diag).all():
            node = _first_nonfinite(diag)
            raise ValueError(
                f"diagonal is not finite at node {node} ({diag[node]})")
        cb, info = _dpbtrf(ab, lower=1, overwrite_ab=1)
        if info > 0:
            raise sla.LinAlgError(
                f"{info}-th leading minor not positive definite")
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dpbtrf")
        return cb, True

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve L u = rhs with the Green operator; needs a transient form.

        rhs may hold one right-hand side per column.  The Green factor, the
        banded Cholesky factor of L, is computed on the first solve and
        cached read-only.  On a form that is not transient, where L is
        singular, a solve raises GreenOperatorUndefined naming a
        killing-free component.
        """
        if self._green is None:
            _require_transient(self)
            green = self._factor(1.0, 0.0)
            green[0].flags.writeable = False
            self._green = green
        return _band_solve(self._green, rhs)

    def spectral_gap(self) -> float:
        """Smallest eigenvalue of the symmetrized Laplacian M^-1/2 L M^-1/2.

        It is the decay rate of the chain's lifetime tail and is positive
        exactly when the form is transient.
        """
        return self._lowest_eigenvalue("m")

    def _lowest_eigenvalue(self, weight: str) -> float:
        """Smallest eigenvalue of D^-1/2 L D^-1/2, cached per weight.

        D = diag(m) for weight "m" (the spectral gap) and D = diag(L) for
        weight "diag" (one minus the Jacobi radius); "diag" needs every
        node to have jumps or killing.  The band of L is scaled entrywise,
        band[r, j] * s_j * s_(j+r) with s = D^-1/2, and handed to LAPACK's
        dsbevx, which selects the lowest eigenvalue by bisection.
        """
        if weight not in self._lowest:
            d = self.m if weight == "m" else self._degree + self._k
            s = 1.0 / np.sqrt(d)
            band = self._lower_band()
            s_pad = np.concatenate([s, np.zeros(band.shape[0] - 1)])
            rows = np.arange(band.shape[0])[:, None] + np.arange(self.n)
            ab = band * s * s_pad[rows]
            self._lowest[weight] = float(sla.eig_banded(
                ab, lower=True, eigvals_only=True,
                select="i", select_range=(0, 0))[0])
        return self._lowest[weight]

    def components(self) -> tuple:
        """Connected components of the jump graph (killing ignored)."""
        if self._components is None:
            n_comp, tags = sp.csgraph.connected_components(
                self._W, directed=False)
            comps = tuple(
                tuple(np.nonzero(tags == c)[0].tolist())
                for c in range(n_comp))
            self._components = comps
        return self._components

    def killing_free_component(self):
        """The first jump-graph component without killing, or None.

        The form is transient exactly when this is None.  First grows the
        set of nodes that reach killing along W, one sparse mat-vec per unit
        of graph distance; the components are found only when some node is
        left out, to name the one without killing.
        """
        reach = self._k > 0.0
        frontier = reach
        while frontier.any():
            frontier = (self._W @ frontier.astype(float) > 0.0) & ~reach
            reach = reach | frontier
        if reach.all():
            return None
        for comp in self.components():
            if float(np.sum(self._k[list(comp)])) <= 0.0:
                return comp
        return None


def _band_solve(factor, rhs, name: str = "right-hand side") -> np.ndarray:
    """Solve with a banded Cholesky factor (cb, lower) by LAPACK dpbtrs.

    rhs is one right-hand side or one per column.  It is checked as
    scipy's cho_solve_banded checks it: its first axis must match the
    factor, and a non-finite entry raises ValueError, here naming rhs by
    name and the first node (row) that holds one.  The factor is not
    checked again: DirichletForm._factor returns one only from a finite
    matrix, and its entries are bounded by the square roots of the
    matrix's diagonal.
    """
    cb, lower = factor
    rhs = np.asarray(rhs, dtype=float)
    if rhs.ndim not in (1, 2) or rhs.shape[0] != cb.shape[-1]:
        raise ValueError(
            f"right-hand side of shape {rhs.shape} does not fit a factor "
            f"of {cb.shape[-1]} nodes")
    if not np.isfinite(rhs).all():
        node = _first_nonfinite(rhs)
        raise ValueError(f"{name} is not finite at node {node} ({rhs[node]})")
    x, info = _dpbtrs(cb, rhs, lower=lower)
    if info:
        raise ValueError(f"illegal value in argument {-info} of dpbtrs")
    return x


def _first_nonfinite(a: np.ndarray) -> int:
    """The first row of a that holds a non-finite entry."""
    return int(np.argwhere(~np.isfinite(a))[0, 0])


def build_form(space: StateSpace, W, k) -> DirichletForm:
    """Validate (W, k) against the space and assemble a DirichletForm.

    W may be dense or sparse; it must be symmetric with zero diagonal and
    nonnegative entries.  Violations raise FormError naming the entry.
    """
    n = space.n
    k = np.asarray(k, dtype=float)
    if k.shape != (n,):
        raise FormError(f"killing vector has shape {k.shape}, expected ({n},)")
    if np.any(k < 0) or not np.all(np.isfinite(k)):
        bad = int(np.argmin(k))
        raise FormError(f"negative killing weight k[{bad}] = {k[bad]}")

    Wm = sp.csr_matrix(W) if not sp.issparse(W) else W.tocsr()
    Wm = Wm.astype(float)
    if Wm.shape != (n, n):
        raise FormError(f"weight matrix has shape {Wm.shape}, expected ({n}, {n})")
    Wm.eliminate_zeros()
    diag = Wm.diagonal()
    if np.any(diag != 0.0):
        bad = int(np.argmax(diag != 0.0))
        raise FormError(f"nonzero diagonal weight w[{bad},{bad}] = {diag[bad]}")
    if np.any(Wm.data < 0) or not np.all(np.isfinite(Wm.data)):
        coo = Wm.tocoo()
        j = int(np.argmin(coo.data))
        raise FormError(
            f"negative jump weight w[{coo.row[j]},{coo.col[j]}] = {coo.data[j]}")
    asym = (Wm - Wm.T).tocoo()
    if asym.nnz and np.max(np.abs(asym.data)) > 0.0:
        j = int(np.argmax(np.abs(asym.data)))
        r, c = int(asym.row[j]), int(asym.col[j])
        raise FormError(
            f"asymmetric weights: w[{r},{c}] differs from w[{c},{r}] "
            f"by {asym.data[j]}")
    return DirichletForm(space, Wm, k)


def _require_transient(form: DirichletForm) -> None:
    """Raise GreenOperatorUndefined, naming the component, unless transient."""
    dead = form.killing_free_component()
    if dead is not None:
        raise GreenOperatorUndefined(
            f"0-order Green operator undefined: killing-free "
            f"component {dead}")


def perturb(form: DirichletForm, g) -> DirichletForm:
    """Add a zero-order term: the perturbed form has killing k + g*m.

    g must be strictly positive, which makes the result transient.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != (form.n,):
        raise FormError(f"perturbation has shape {g.shape}, expected ({form.n},)")
    if np.any(g <= 0) or not np.all(np.isfinite(g)):
        bad = int(np.argmin(g))
        raise FormError(f"perturbation must be strictly positive, g[{bad}] = {g[bad]}")
    return DirichletForm(form.space, form.W.copy(), form.k + g * form.m)


@dataclass(frozen=True)
class Problem:
    """A semilinear problem: form, driver (nonlinearity) and measure.

    The node equations read (Lu)(x) = m_x * driver(x, u_x) + mu({x}).
    """

    form: DirichletForm
    driver: object
    mu: SignedMeasure

    def __post_init__(self):
        if self.mu.n != self.form.n:
            raise FormError("problem components have inconsistent dimensions")
        n = getattr(self.driver, "n", self.form.n)
        if n != self.form.n:
            raise FormError("driver and form dimensions differ")
