"""Continuous-time Markov chain attached to a finite Dirichlet form.

The chain jumps from x to y at rate w_xy / m_x and is killed (sent to the
cemetery) at rate k_x / m_x, so its generator is G = -L/m on functions.
States with zero total rate hold forever and are reported horizon-capped.

Two sampling layers:

  * sample_path: one path at a time, on the counter-based substream of its
    path index; formlab simulate draws its paths this way.
  * _lockstep: vectorized sampling of many paths advanced together in one
    loop; it yields one Step per iteration and keeps no sums.  The paths
    come in blocks, each with its own seeded stream, and each block draws
    exactly what it would draw if it ran alone, so a block's paths do not
    depend on the other blocks.  It holds only the paths still alive,
    dropping ended ones after every iteration.  Its callers add up what
    they need: _occupation, revuz_check, and the martingale residual
    check's checkpoint recorder in bsde (one block per start node).  The
    Monte Carlo solver hands _occupation one block, every start's paths on
    the one stream _path_rng(seed), so each iteration makes three
    Generator calls however many starts it runs; consecutive Philox draws
    are as independent as substream draws.  With a single start the
    engine walks the same path as sample_path on the same stream.

The engine's cost is a few vector passes per iteration over the alive
paths, so each pass it saves is saved on every path step.  Chain keeps
flat views of its (n, width) alias tables, each state's row offset
x * width, its outcome count as a float and its last slot, so a batch
draw is one 1-D gather per table; it records once whether some state has
zero rate, and only such a chain pays for the guarded holding-time divide.
A path that jumps was not cut, so its next clock is the end t + hold the
engine formed for the capped test, and an iteration that caps no path
(most of them) selects its jumping paths with no mask.  The consumers
index flat too: the occupation solver adds at idx * n + state, and the
checkpoint recorder keeps a next-checkpoint counter per path in place of
searching the checkpoints, and reads u0, u with u0[-1] = 0 appended for
the cemetery (outcome -1), so a killing updates M by the same gather and
scatter as a move.  None of this changes a draw or a rounding: the
outputs are bit for bit those of plain 2-D indexing, per-step searches
and separate updates.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass

import numpy as np

from .forms import MAX_DENSE_VALUES, DirichletForm, FormError, SignedMeasure


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


class Chain:
    """Jump rates, killing rates and alias tables for a DirichletForm."""

    def __init__(self, form: DirichletForm):
        self.form = form
        m = form.m
        self.lam = (form.degree + form.k) / m
        self.kappa = form.k / m
        # a state with no rate holds forever; _lockstep's guarded divide and
        # inf fill are needed only on chains that have one
        self.has_zero_rate = not bool(np.all(self.lam > 0.0))
        self._build_alias()

    @property
    def n(self) -> int:
        return self.form.n

    def _build_alias(self):
        """Walker alias tables over outcomes (neighbors..., cemetery = -1)."""
        W = self.form.W
        n = self.n
        counts = np.zeros(n, dtype=np.int64)
        outcome_rows, thresh_rows, alias_rows = [], [], []
        for x in range(n):
            nbrs = W.indices[W.indptr[x]:W.indptr[x + 1]]
            wts = W.data[W.indptr[x]:W.indptr[x + 1]].astype(float)
            outs = list(nbrs)
            probs = list(wts)
            if self.form.k[x] > 0:
                outs.append(-1)
                probs.append(float(self.form.k[x]))
            total = float(np.sum(probs))
            if total <= 0.0:
                outcome_rows.append(np.empty(0, dtype=np.int64))
                thresh_rows.append(np.empty(0))
                alias_rows.append(np.empty(0, dtype=np.int64))
                continue
            p = np.asarray(probs) / total
            K = p.size
            q = p * K
            alias = np.arange(K)
            small = [i for i in range(K) if q[i] < 1.0]
            large = [i for i in range(K) if q[i] >= 1.0]
            while small and large:
                s, l = small.pop(), large.pop()
                alias[s] = l
                q[l] = q[l] - (1.0 - q[s])
                (small if q[l] < 1.0 else large).append(l)
            counts[x] = K
            outcome_rows.append(np.asarray(outs, dtype=np.int64))
            thresh_rows.append(np.minimum(q, 1.0))
            alias_rows.append(alias.astype(np.int64))
        width = max(1, int(counts.max()) if n else 1)
        self.alias_count = counts
        self.alias_out = np.full((n, width), -2, dtype=np.int64)
        self.alias_thresh = np.zeros((n, width))
        self.alias_alias = np.zeros((n, width), dtype=np.int64)
        for x in range(n):
            K = counts[x]
            if K:
                self.alias_out[x, :K] = outcome_rows[x]
                self.alias_thresh[x, :K] = thresh_rows[x]
                self.alias_alias[x, :K] = alias_rows[x]
        # draw_next's flat views: row x of a table starts at x * width
        self._flat_out = self.alias_out.ravel()
        self._flat_thresh = self.alias_thresh.ravel()
        self._flat_alias = self.alias_alias.ravel()
        self._row_start = np.arange(n, dtype=np.int64) * width
        self._count_f = counts.astype(float)
        self._last_slot = np.maximum(counts - 1, 0)

    def draw_next(self, states, r1, r2):
        """Vectorized next-outcome draw; -1 means the cemetery.

        Slot j = min(int(r1 * K_x), K_x - 1) is kept when r2 < thresh[x, j]
        and replaced by alias[x, j] otherwise, as in draw_next_scalar.  The
        tables are read through flat views at x * width + slot, with K_x as
        a float and K_x - 1 precomputed, so each table costs one 1-D gather.
        """
        row = self._row_start[states]
        j = (r1 * self._count_f[states]).astype(np.int64)
        np.minimum(j, self._last_slot[states], out=j)
        j += row
        slot = self._flat_alias[j]
        slot += row
        np.copyto(slot, j, where=r2 < self._flat_thresh[j])
        return self._flat_out[slot]

    def draw_next_scalar(self, x: int, r1: float, r2: float) -> int:
        K = int(self.alias_count[x])
        j = min(int(r1 * K), K - 1)
        if r2 >= self.alias_thresh[x, j]:
            j = int(self.alias_alias[x, j])
        return int(self.alias_out[x, j])


def build_chain(form: DirichletForm) -> Chain:
    """Extract jump and killing rates; rates w_xy/m_x and k_x/m_x."""
    return Chain(form)


def default_horizon_cap(chain: Chain) -> float:
    """Horizon cap that keeps the capped-path fraction below 1e-4.

    On transient forms the lifetime tail decays at the spectral gap, so
    40 / gap caps essentially nothing; otherwise fall back to 50 over the
    smallest positive total rate.
    """
    gap = chain.form.spectral_gap()
    if gap > 1e-12:
        return 40.0 / gap
    positive = chain.lam[chain.lam > 0]
    if positive.size == 0:
        return 1.0
    return 50.0 / float(positive.min())


def _path_rng(seed: int, index: int | None = None):
    """Counter-based Philox stream for `seed`, or its substream `index`."""
    if not seed >= 0:
        raise FormError(f"seed must be a non-negative integer, got {seed}")
    if index is None:
        ss = np.random.SeedSequence(entropy=seed)
    else:
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return np.random.Generator(np.random.Philox(ss))


def _check_horizon(horizon: float):
    """A horizon must be > 0 (+inf allowed); NaN would never cap a path."""
    if not horizon > 0:
        raise FormError(f"horizon cap must be positive, got {horizon}")


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
        out = chain.draw_next_scalar(x, uniform(), uniform())
        if out == -1:
            return ChainPath(x0, np.asarray(states), np.asarray(holds), True)
        x = out


def _mean_se(samples) -> tuple[float, float]:
    """Sample mean and standard error of a 1-D float64 sample."""
    return (float(np.mean(samples)),
            float(np.std(samples, ddof=1) / np.sqrt(samples.size)))


@dataclass(frozen=True)
class Step:
    """One lockstep iteration over the paths still alive, indexed by ``idx``.

    Path idx[i] sits in state[i] from t_entry[i] for hold[i].  Paths marked
    ``capped`` reach the horizon and end, their hold cut there; the others
    jump at t_entry + hold, and ``outcome`` lists their next states in the
    order of idx[~capped], with -1 for the cemetery.
    """

    idx: np.ndarray
    state: np.ndarray
    t_entry: np.ndarray
    hold: np.ndarray
    capped: np.ndarray
    outcome: np.ndarray


def _lockstep(chain: Chain, blocks, horizon: float):
    """Simulate blocks of paths in lockstep up to `horizon`; yield each Step.

    `blocks` is a list of (starts, rng) pairs; block b's paths take the
    next len(starts) path indices.  The engine holds only the paths still
    alive: their indices idx, states and clocks, compacted by one boolean
    mask after every iteration.  The mask keeps their order, so idx stays
    sorted and the alive paths of each block are one contiguous slice of
    it.  Every iteration, each block with alive paths draws
    standard_exponential(its alive) from its own rng, then random(its
    jumps) twice when some jump: the calls it would make alone, so its
    paths do not depend on the other blocks.  Holds are exponentials over
    the states' rates; only a chain with a zero-rate state divides under a
    `where` and fills inf.  A path is capped when end = t + hold reaches
    the horizon; the others jump, all their outcomes drawn by one
    chain.draw_next call per iteration with jumps.  Most iterations cap no
    path, and then every path jumps with no mask; otherwise a block's
    share of the jumps is its share of the paths less its capped ones,
    found by a search over the capped positions.  A jumping path's hold is
    not cut, so its next clock is its end exactly.  An iteration's arrays
    are freed before the next one allocates.
    """
    _check_horizon(horizon)
    rngs = [rng for _, rng in blocks]
    starts = [np.asarray(s, dtype=np.int64) for s, _ in blocks]
    bounds = np.cumsum([0] + [s.size for s in starts])
    state = np.concatenate(starts)
    idx = np.arange(state.size)
    t = np.zeros(state.size)
    while idx.size:
        hold = np.empty(idx.size)
        cut = idx.searchsorted(bounds).tolist()
        for rng, a, z in zip(rngs, cut, cut[1:]):
            if a < z:
                rng.standard_exponential(out=hold[a:z])
        lam = chain.lam[state]
        if chain.has_zero_rate:
            positive = lam > 0.0
            np.divide(hold, lam, out=hold, where=positive)
            hold[~positive] = np.inf
            del positive
        else:
            hold /= lam
        del lam
        end = t + hold
        capped = end >= horizon
        at = np.flatnonzero(capped)
        jumps, moving = None, state
        if at.size:  # rare: most Steps cap no path
            jumps = ~capped
            moving = state[jumps]
            # jumps before position i: i less the capped paths before it
            cut = [a - b for a, b in zip(cut, at.searchsorted(cut).tolist())]
            np.subtract(horizon, t, out=hold, where=capped)
        outcome = np.empty(0, dtype=np.int64)
        if cut[-1]:
            r = np.empty((2, cut[-1]))
            for rng, a, z in zip(rngs, cut, cut[1:]):
                if a < z:
                    rng.random(out=r[0, a:z])
                    rng.random(out=r[1, a:z])
            outcome = chain.draw_next(moving, r[0], r[1])
            del r
        del moving
        yield Step(idx, state, t, hold, capped, outcome)
        # a path goes on when it jumped to a state, not to the cemetery; a
        # jumping path's hold was not cut, so its next clock is its end
        live = outcome != -1
        keep = live
        if jumps is not None:
            jumps[jumps] = live
            keep = jumps
        idx, state, t = idx[keep], outcome[live], end[keep]
        del hold, end, capped, jumps, outcome, live, keep


def _mapped_zeros(rows: int, cols: int) -> np.ndarray:
    """A zero (rows, cols) float array on its own anonymous memory mapping.

    For a large array that lives for one call.  Through malloc, glibc's
    dynamic mmap threshold puts the second and later such arrays on the
    heap, where small allocations can split the freed block so the next
    one grows the heap by its full size.  A mapping is zero-filled lazily
    and goes back to the OS when the array is freed.
    """
    buf = mmap.mmap(-1, max(1, rows * cols) * 8)
    return np.frombuffer(buf, dtype=float, count=rows * cols).reshape(
        rows, cols)


def _occupation(chain: Chain, blocks, horizon: float):
    """Time each path spends in each state, and the number of capped paths.

    Returns a (total paths, n) occupation matrix, its rows in block order,
    and an int.  Each Step adds its holds to the raveled matrix at
    idx * n + state; a path appears once per Step, so the indices of each
    update are distinct.
    """
    n = chain.n
    occ = _mapped_zeros(sum(np.size(s) for s, _ in blocks), n)
    flat = occ.reshape(-1)
    capped = 0
    for step in _lockstep(chain, blocks, horizon):
        at = step.idx * n
        at += step.state
        flat[at] += step.hold
        capped += step.idx.size - step.outcome.size
        del step  # free its arrays before the engine builds the next Step
    return occ, capped


@dataclass(frozen=True)
class RevuzReport:
    """Short-time occupation estimate against the pairing <f, mu>."""

    estimate: float
    se: float
    target: float
    bias_bound: float
    t: float
    n_paths: int

    @property
    def discrepancy(self) -> float:
        return abs(self.estimate - self.target)

    def passed(self, z: float = 3.0) -> bool:
        return self.discrepancy <= z * self.se + self.bias_bound


def revuz_check(chain: Chain, f, mu: SignedMeasure, t: float, N: int,
                seed: int) -> RevuzReport:
    """Estimate (1/t) E_m int_0^t f(X_s) dA^mu_s and compare with <f, mu>.

    Paths start from the reference measure normalized to a probability law
    and the estimate is rescaled by its total mass.  The bias bound is
    t * max(lambda) * sup|f| * |mu|(E).  N over MAX_DENSE_VALUES raises
    FormError before any path is drawn.
    """
    if t <= 0:
        raise FormError(f"time window must be positive, got {t}")
    if N < 2:
        raise FormError(f"revuz check needs N >= 2, got {N}")
    if N > MAX_DENSE_VALUES:
        raise FormError(f"revuz check needs N <= MAX_DENSE_VALUES = "
                        f"{MAX_DENSE_VALUES}, got {N}")
    f = np.asarray(f, dtype=float)
    form = chain.form
    rho = mu.density(form.space)
    mass = float(np.sum(form.m))
    start_rng = _path_rng(seed, 0)
    starts = start_rng.choice(chain.n, size=N, p=form.m / mass)
    rate = f * rho
    integral = np.zeros(N)
    for step in _lockstep(chain, [(starts, _path_rng(seed, 1))], t):
        integral[step.idx] += step.hold * rate[step.state]
    estimate, se = _mean_se(mass * integral / t)
    target = float(np.sum(f * mu.masses))
    max_lam = float(np.max(chain.lam)) if chain.n else 0.0
    bias = t * max_lam * float(np.max(np.abs(f))) * mu.total_variation
    return RevuzReport(estimate, se, target, bias, t, N)
