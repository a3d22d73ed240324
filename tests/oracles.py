"""Reference implementations that the tests compare the library against.

None of these is called by a solver, a check or a command:

  * sample_path: one path at a time, on the counter-based substream of
    its path index, through draw_next_scalar, the scalar alias draw on the
    Chain's own tables; the independent per-path reference for the
    library's one path engine, markov._lockstep.  ChainPath holds its
    result.
  * mc_expectation: one path at a time through sample_path, one
    counter-based substream per path index, merged by pairwise summation;
    the slow reference for the lockstep engine.
  * additive_functional: A^mu along one sampled path.
  * extract_martingale: the per-path reference for bsde._checkpoint_values.
  * equilibrium_potential: e = G nu_B and the capacity of a node set.
  * CallableDriver: a driver given by an arbitrary vectorized rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from formlab.drivers import Driver
from formlab.forms import DirichletForm, FormError, SignedMeasure
from formlab.markov import (Chain, _check_horizon, _mean_se, _path_rng,
                            default_horizon_cap)


class SimulationError(RuntimeError):
    """Raised when a sampled functional cannot be trusted (non-finite, capped)."""


@dataclass(frozen=True)
class ChainPath:
    """One sampled trajectory: visited states with their holding times.

    ``absorbed`` distinguishes paths killed at their lifetime from paths cut
    at the horizon cap; the lifetime equals the sum of holding times exactly
    when absorbed.
    """

    start: int
    states: np.ndarray
    holds: np.ndarray
    absorbed: bool

    @property
    def zeta(self) -> float | None:
        if not self.absorbed:
            return None
        return float(np.sum(self.holds))

    def __len__(self) -> int:
        return self.states.size


def draw_next_scalar(chain: Chain, x: int, r1: float, r2: float) -> int:
    """The next outcome of state x (-1 for the cemetery), one at a time.

    Slot j = min(int(r1 * K_x), K_x - 1) of row x is kept when r2 <
    thresh[x, j] and replaced by alias[x, j] otherwise (Walker's alias
    method), read from the flat tables Chain.draw_next reads, in which
    row x starts at x * width.
    """
    K = int(chain._count_f[x])
    row = int(chain._row_start[x])
    j = row + min(int(r1 * K), K - 1)
    if r2 >= chain._flat_thresh[j]:
        j = row + int(chain._flat_alias[j])
    return int(chain._flat_out[j])


def sample_path(chain: Chain, x0: int, seed: int, horizon_cap: float,
                rng=None) -> ChainPath:
    """Sample one trajectory from x0 until killing or the horizon cap.

    Identical (x0, seed, horizon_cap) always produce the identical path.
    """
    if not (0 <= x0 < chain.n):
        raise FormError(f"start node {x0} out of range")
    _check_horizon(horizon_cap)
    if rng is None:
        rng = _path_rng(seed)
    expovariate = rng.standard_exponential
    uniform = rng.random
    lam_all = chain.lam
    states, holds = [], []
    x = int(x0)
    t = 0.0
    while True:
        lam = lam_all[x]
        hold = expovariate() / lam if lam > 0.0 else np.inf
        if t + hold >= horizon_cap:
            states.append(x)
            holds.append(horizon_cap - t)
            return ChainPath(x0, np.asarray(states), np.asarray(holds), False)
        states.append(x)
        holds.append(hold)
        t += hold
        out = draw_next_scalar(chain, x, uniform(), uniform())
        if out == -1:
            return ChainPath(x0, np.asarray(states), np.asarray(holds), True)
        x = out


def mc_expectation(chain: Chain, x0: int, functional, N: int, seed: int,
                   horizon_cap: float | None = None):
    """Monte Carlo mean and standard error of a path functional.

    One substream per path index; the reduction is numpy pairwise summation,
    so the estimate is independent of any evaluation order.  A non-finite
    functional value aborts with the offending path attached.
    """
    if N < 2:
        raise FormError(f"MC expectation needs N >= 2, got {N}")
    if horizon_cap is None:
        horizon_cap = default_horizon_cap(chain)
    values = np.empty(N)
    for i in range(N):
        path = sample_path(chain, x0, seed, horizon_cap,
                           rng=_path_rng(seed, i))
        v = float(functional(path))
        if not np.isfinite(v):
            raise SimulationError(
                f"functional returned {v} on path {i}: states="
                f"{path.states.tolist()} holds={path.holds.tolist()} "
                f"absorbed={path.absorbed}")
        values[i] = v
    return _mean_se(values)


@dataclass(frozen=True)
class AdditiveFunctional:
    """Pathwise integral of a measure density along a trajectory.

    ``lower_bound_only`` is set when the path was horizon-capped, in which
    case the value is only a lower-bound sample of the full integral.
    """

    value: float
    abs_value: float
    lower_bound_only: bool


def additive_functional(path: ChainPath, mu: SignedMeasure,
                        form: DirichletForm) -> AdditiveFunctional:
    """A^mu along the path: sum of holding(x) * density(x); exact quadrature."""
    if mu.n != form.n:
        raise FormError("measure and form dimensions differ")
    rho = mu.density(form.space)
    value = float(np.sum(path.holds * rho[path.states]))
    abs_value = float(np.sum(path.holds * np.abs(rho)[path.states]))
    return AdditiveFunctional(value, abs_value, not path.absorbed)


def extract_martingale(path: ChainPath, u, driver: Driver,
                       mu: SignedMeasure, form: DirichletForm):
    """Martingale increments along a sampled path, one path at a time.

    M_t = u(X_t) - u(X_0) + int_0^t [f(X_s, u(X_s)) + rho(X_s)] ds.
    Returns (times, M) sampled at the jump instants, with the post-lifetime
    value frozen.  It is the per-path reference for _checkpoint_values.
    """
    rho = mu.density(form.space)
    u = np.asarray(u, dtype=float)

    times = [0.0]
    mvals = [0.0]
    t = 0.0
    M = 0.0
    for j, (x, hold) in enumerate(zip(path.states, path.holds)):
        x = int(x)
        fx = float(driver.value_at(np.array([x]), np.array([u[x]]))[0])
        M += (fx + rho[x]) * hold
        t += hold
        last = j == len(path) - 1
        if last and path.absorbed:
            M -= u[x]
        elif not last:
            M += u[int(path.states[j + 1])] - u[x]
        times.append(t)
        mvals.append(M)
    return np.asarray(times), np.asarray(mvals)


def equilibrium_potential(form: DirichletForm, B) -> tuple[np.ndarray, float]:
    """Equilibrium potential of a node set B and its capacity.

    Returns (e, cap) with e = 1 on B, (Le)(x) = 0 off B and cap = E(e, e).
    e is the Green potential of the equilibrium measure nu carried by B,
    e = G nu, with nu = G_BB^-1 1 fixed by e = 1 on B, and cap = nu(B)
    (Fukushima, Oshima & Takeda).  It takes |B| Green solves.
    """
    B = np.asarray(sorted(set(int(b) for b in np.atleast_1d(B))), dtype=int)
    if B.size == 0:
        raise FormError("equilibrium potential needs a nonempty node set")
    if B.min() < 0 or B.max() >= form.n:
        raise FormError(f"node set {B.tolist()} out of range for n = {form.n}")
    unit = np.zeros((form.n, B.size))
    unit[B, np.arange(B.size)] = 1.0
    G_B = form.solve(unit)
    nu = sla.solve(G_B[B], np.ones(B.size), assume_a="pos")
    e = G_B @ nu
    e[B] = 1.0
    cap = form.energy(e)
    return e, cap


class CallableDriver(Driver):
    """f given by fn(idx, y), vectorized over integer nodes idx and values y,
    with the monotonicity and Lipschitz metadata the caller declares."""

    def __init__(self, n, fn, *, monotone, lipschitz=None):
        super().__init__(n, "callable", {"fn": fn},
                         monotone=monotone, lipschitz=lipschitz)

    def value_at(self, idx, y) -> np.ndarray:
        idx = np.asarray(idx, dtype=int)
        y = np.asarray(y, dtype=float)
        return np.asarray(self.params["fn"](idx, y), dtype=float)
