import hashlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm

import formlab as fl
from formlab.bsde import _checkpoint_values
from formlab.markov import _occupation, _path_rng
from oracles import SimulationError, additive_functional, mc_expectation
from randomized import (random_measure, random_shaped_form,
                        random_transient_form)


def single_node(m=1.0, k=1.0):
    space = fl.StateSpace(np.array([m]))
    return fl.build_form(space, np.zeros((1, 1)), np.array([k]))


def test_chain_rates_single_node():
    chain = fl.build_chain(single_node(m=1.0, k=1.0))
    assert chain.kappa[0] == 1.0
    assert chain.lam[0] == 1.0


def test_chain_rates_two_nodes():
    space = fl.StateSpace(np.array([1.0, 2.0]))
    form = fl.build_form(space, np.array([[0.0, 2.0], [2.0, 0.0]]), np.zeros(2))
    chain = fl.build_chain(form)
    np.testing.assert_allclose(chain.lam, [2.0, 1.0])
    np.testing.assert_allclose(chain.kappa, 0.0)


def test_isolated_node_absorbing_alive():
    space = fl.StateSpace(np.ones(1))
    form = fl.build_form(space, np.zeros((1, 1)), np.zeros(1))
    chain = fl.build_chain(form)
    assert chain.lam[0] == 0.0
    path = fl.sample_path(chain, 0, seed=0, horizon_cap=5.0)
    assert not path.absorbed
    assert path.zeta is None
    np.testing.assert_allclose(path.holds, [5.0])


def test_sample_path_deterministic():
    rng_form = np.random.default_rng(2)
    form = random_transient_form(rng_form, 6, 10)
    chain = fl.build_chain(form)
    p1 = fl.sample_path(chain, 1, seed=5, horizon_cap=100.0)
    p2 = fl.sample_path(chain, 1, seed=5, horizon_cap=100.0)
    assert np.array_equal(p1.states, p2.states)
    assert np.array_equal(p1.holds, p2.holds)
    assert p1.absorbed == p2.absorbed


def test_lifetime_sum_of_holds_when_absorbed():
    chain = fl.build_chain(single_node())
    path = fl.sample_path(chain, 0, seed=3, horizon_cap=1e6)
    assert path.absorbed
    assert path.zeta == pytest.approx(float(np.sum(path.holds)))


def test_mean_lifetime_exponential():
    # kappa = 2 gives E zeta = 0.5
    chain = fl.build_chain(single_node(k=2.0))
    mean, se = mc_expectation(chain, 0, lambda p: p.zeta, 100_000, seed=11)
    assert abs(mean - 0.5) <= 3 * se
    mean2, se2 = mc_expectation(chain, 0, lambda p: p.zeta, 100_000, seed=11)
    assert mean == mean2 and se == se2


def test_mc_expectation_constant_functional():
    chain = fl.build_chain(single_node())
    mean, se = mc_expectation(chain, 0, lambda p: 4.25, 100, seed=0)
    assert mean == 4.25 and se == 0.0


def test_mc_expectation_aborts_on_nonfinite():
    chain = fl.build_chain(single_node())
    with pytest.raises(SimulationError, match="states"):
        mc_expectation(chain, 0, lambda p: float("nan"), 10, seed=0)


def test_additive_functional_basics():
    form = single_node()
    chain = fl.build_chain(form)
    path = fl.sample_path(chain, 0, seed=1, horizon_cap=1e6)
    zero = additive_functional(path, fl.SignedMeasure(np.zeros(1)), form)
    assert zero.value == 0.0
    mu = fl.SignedMeasure(np.array([3.0]))
    af = additive_functional(path, mu, form)
    assert af.value == pytest.approx(3.0 * path.zeta)
    assert af.abs_value == af.value
    assert not af.lower_bound_only


def test_additive_functional_flags_capped():
    form = single_node(k=0.001)
    chain = fl.build_chain(form)
    path = fl.sample_path(chain, 0, seed=1, horizon_cap=0.01)
    af = additive_functional(path, fl.SignedMeasure(np.ones(1)), form)
    assert af.lower_bound_only


def test_additive_functional_concatenation():
    rng_form = np.random.default_rng(8)
    form = random_transient_form(rng_form, 6, 10)
    chain = fl.build_chain(form)
    mu = random_measure(np.random.default_rng(9), form.n)
    path = fl.sample_path(chain, 0, seed=21, horizon_cap=1e5)
    cut = max(1, len(path) // 2)
    prefix = fl.ChainPath(path.start, path.states[:cut], path.holds[:cut], False)
    suffix = fl.ChainPath(int(path.states[cut]) if cut < len(path) else 0,
                          path.states[cut:], path.holds[cut:], path.absorbed)
    total = additive_functional(path, mu, form).value
    split = additive_functional(prefix, mu, form).value \
        + additive_functional(suffix, mu, form).value
    assert total == pytest.approx(split, rel=1e-12)


def test_additive_functional_green_identity():
    # E_x A^mu up to the lifetime equals the Green potential at x
    rng = np.random.default_rng(31)
    form = random_transient_form(rng, 5, 5)
    chain = fl.build_chain(form)
    mu = random_measure(np.random.default_rng(32), form.n, nonneg=True)
    exact = form.solve(mu.masses)
    mean, se = mc_expectation(
        chain, 0, lambda p: additive_functional(p, mu, form).value,
        100_000, seed=13)
    assert abs(mean - exact[0]) <= 3 * se


def test_occupation_matches_green_column():
    rng = np.random.default_rng(41)
    form = random_transient_form(rng, 5, 5)
    chain = fl.build_chain(form)
    y = 2
    e_y = np.zeros(form.n)
    e_y[y] = 1.0
    exact = form.solve(form.m * e_y)
    mean, se = mc_expectation(
        chain, 0,
        lambda p: float(np.sum(p.holds[p.states == y])), 100_000, seed=14)
    assert abs(mean - exact[0]) <= 3 * se


def test_generator_consistency_small_time():
    # d/dt E_x[e_y(X_t)] at t=0 equals -(L e_y)/m entry-wise
    rng = np.random.default_rng(55)
    form = random_transient_form(rng, 5, 8)
    G = -(form.L.toarray() / form.m[:, None])
    t = 1e-7
    P = expm(t * G)
    approx = (P - np.eye(form.n)) / t
    np.testing.assert_allclose(approx, G, atol=1e-4 * np.max(np.abs(G)))


def test_lifetime_identity_batch():
    rng = np.random.default_rng(61)
    form = random_transient_form(rng, 6, 9)
    chain = fl.build_chain(form)
    cap = fl.default_horizon_cap(chain)
    exact = form.solve(form.m * np.ones(form.n))
    starts = np.full(60_000, 1, dtype=np.int64)
    occ, capped = _occupation(chain, [(starts, _path_rng(5))], cap)
    life = occ.sum(axis=1)
    mean = float(np.mean(life))
    se = float(np.std(life, ddof=1) / np.sqrt(life.size))
    assert capped / starts.size < 1e-4
    assert abs(mean - exact[1]) <= 3 * se


def test_batch_engine_matches_single_path_rates():
    # cross-validate the lockstep engine against per-path sampling
    rng = np.random.default_rng(71)
    form = random_transient_form(rng, 5, 5)
    chain = fl.build_chain(form)
    cap = fl.default_horizon_cap(chain)
    N = 40_000
    occ, _ = _occupation(chain, [(np.zeros(N, dtype=np.int64), _path_rng(1))],
                         cap)
    occ_batch = occ.mean(axis=0)
    vals = np.zeros(form.n)
    for i in range(6000):
        p = fl.sample_path(chain, 0, 0, cap, rng=_path_rng(123, i))
        np.add.at(vals, p.states, p.holds)
    occ_single = vals / 6000
    se = occ.std(axis=0, ddof=1) / np.sqrt(N)
    assert np.all(np.abs(occ_batch - occ_single) <= 5 * (se + occ_single / np.sqrt(6000) + 1e-4))


@given(kind=st.sampled_from(["path", "grid", "dense"]), n=st.integers(3, 12),
       sizes=st.lists(st.integers(1, 40), min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_blocks_run_as_if_alone(kind, n, sizes, seed):
    # each block draws from its own stream exactly what it would draw alone,
    # so one run over all blocks stacks the per-block runs bit for bit
    rng = np.random.default_rng(seed)
    form = random_shaped_form(rng, kind, n)
    chain = fl.build_chain(form)
    starts = [rng.integers(0, form.n, size=size) for size in sizes]

    def run(horizon):
        occ, capped = _occupation(
            chain, [(s, _path_rng(seed, b)) for b, s in enumerate(starts)],
            horizon)
        alone = [_occupation(chain, [(s, _path_rng(seed, b))], horizon)
                 for b, s in enumerate(starts)]
        assert np.array_equal(occ, np.vstack([o for o, _ in alone]))
        assert capped == sum(c for _, c in alone)
        return occ, capped

    occ, capped = run(np.inf)
    assert capped == 0
    # half the longest lifetime caps at least the longest path
    _, capped = run(0.5 * float(np.max(occ.sum(axis=1))))
    assert capped > 0


@pytest.mark.parametrize("cap", [0.0, -1.0, np.nan])
def test_engine_rejects_bad_horizon(cap):
    rng = np.random.default_rng(17)
    chain = fl.build_chain(random_transient_form(rng, 5, 8))
    with pytest.raises(fl.FormError, match="horizon cap must be positive"):
        fl.sample_path(chain, 0, 0, cap)
    # an infinite cap is allowed: a path of a transient chain is absorbed
    assert fl.sample_path(chain, 0, 0, np.inf).absorbed


# -- Revuz correspondence -----------------------------------------------------

def test_revuz_zero_measure_exact():
    rng = np.random.default_rng(81)
    form = random_transient_form(rng, 5, 8)
    chain = fl.build_chain(form)
    rep = fl.revuz_check(chain, np.ones(form.n),
                         fl.SignedMeasure(np.zeros(form.n)),
                         t=0.05, N=2000, seed=1)
    assert rep.estimate == 0.0
    assert rep.target == 0.0


def test_revuz_scalar_closed_form():
    # single node, kappa = 1, mass 2: (1/t) E int_0^t dA = 2 (1 - e^-t)/t
    form = single_node()
    chain = fl.build_chain(form)
    t = 0.35
    rep = fl.revuz_check(chain, np.ones(1), fl.SignedMeasure(np.array([2.0])),
                         t=t, N=200_000, seed=5)
    exact = 2.0 * (1.0 - np.exp(-t)) / t
    assert abs(rep.estimate - exact) <= 3 * rep.se
    assert rep.target == 2.0


def test_revuz_random_form_within_gate():
    rng = np.random.default_rng(91)
    form = random_transient_form(rng, 6, 6)
    chain = fl.build_chain(form)
    f = np.random.default_rng(92).uniform(-1, 1, size=form.n)
    mu = random_measure(np.random.default_rng(93), form.n)
    rep = fl.revuz_check(chain, f, mu, t=0.01, N=100_000, seed=6)
    assert rep.passed(3.0)
    rep2 = fl.revuz_check(chain, f, mu, t=0.01, N=100_000, seed=6)
    assert rep.estimate == rep2.estimate


def test_default_horizon_cap_scales():
    chain = fl.build_chain(single_node(k=2.0))
    assert fl.default_horizon_cap(chain) == pytest.approx(20.0)


def _engine_case(case):
    """Chain, measure and start nodes of one pinned engine case."""
    p = fl.build_catalog_problem(case.split("+")[0])
    form, mu = p.form, p.mu
    n = form.n
    starts = np.linspace(0, n - 1, 4).astype(np.int64)
    if case.endswith("+isolated"):  # one more node that neither jumps nor dies
        W = np.zeros((n + 1, n + 1))
        W[:n, :n] = form.W.toarray()
        form = fl.build_form(fl.StateSpace(np.append(form.m, 1.0)), W,
                             np.append(form.k, 0.0))
        mu = fl.SignedMeasure(np.append(mu.masses, 0.5))
        starts[-1] = n
    return fl.build_chain(form), mu, starts


# sha256 prefixes of the engine's raw outputs: every hold, jump and
# checkpoint value of these paths is pinned bit for bit
ENGINE_DIGESTS = {
    "lap1d-dirac": ("e885b03985e7ab08", 25, "9a3c91de577f9881",
                    "-0x1.52a4fe6602d9dp+0", "0x1.481c505ea9c32p-5"),
    "lap2d": ("ef2818373c46eeef", 27, "1e5ddd91a12dffc4",
              "0x1.7b0c24109f87dp-1", "0x1.0c9829ac0daf0p-4"),
    "frac-a10": ("c729c0fa1bd4482a", 23, "941e7a47ff7a5b45",
                 "0x1.a0a443075b1d2p-2", "0x1.a845c251aaa5fp-6"),
    "lap1d-dirac+isolated": ("2249681d53d57fbc", 2013, "5c528b57b5a91425",
                             "0x1.70de78e5b384cp-2", "0x1.f537286d8332ep-8"),
}


@pytest.mark.parametrize("case", ["lap1d-dirac", "lap2d", "frac-a10",
                                  "lap1d-dirac+isolated"])
def test_engine_outputs_pinned_bytes(case):
    chain, mu, starts = _engine_case(case)
    rng = np.random.default_rng(3)
    u = rng.normal(size=chain.n)
    c = rng.normal(size=chain.n)
    scale = fl.default_horizon_cap(chain) / 40.0
    cps = scale * np.array([0.0, 0.25, 0.5, 1.0, 2.0, 4.0])
    horizon = float(cps[-1]) * (1.0 + 1e-9)

    def blocks():
        return [(np.full(600, x, dtype=np.int64), _path_rng(9, r))
                for r, x in enumerate(starts)]

    occ, capped = _occupation(chain, blocks(), horizon)
    vals = _checkpoint_values(chain, blocks(), horizon, u, c, cps)
    rev = fl.revuz_check(chain, c, mu, t=scale, N=2400, seed=9)
    assert capped > 0  # the horizon cuts some paths
    got = (hashlib.sha256(occ.tobytes()).hexdigest()[:16], capped,
           hashlib.sha256(vals.tobytes()).hexdigest()[:16],
           rev.estimate.hex(), rev.se.hex())
    assert got == ENGINE_DIGESTS[case]


def test_draw_next_called_once_per_step_with_jumps(monkeypatch):
    # the per-layer benchmark counts lockstep iterations and jumps at
    # Chain.draw_next: one call per Step that has jumps, one state per jump
    chain, _, starts = _engine_case("lap2d")
    horizon = fl.default_horizon_cap(chain) / 40.0
    lockstep, draw = fl.markov._lockstep, fl.Chain.draw_next
    drawn, jumps = [], []

    def draw_next(self, states, r1, r2):
        drawn.append(states.size)
        return draw(self, states, r1, r2)

    def engine(*args):
        for step in lockstep(*args):
            assert step.outcome.size == np.count_nonzero(~step.capped)
            jumps.append(step.outcome.size)
            yield step

    monkeypatch.setattr(fl.Chain, "draw_next", draw_next)
    monkeypatch.setattr(fl.markov, "_lockstep", engine)
    monkeypatch.setattr(fl.bsde, "_lockstep", engine)

    def blocks():
        return [(np.full(300, x, dtype=np.int64), _path_rng(4, r))
                for r, x in enumerate(starts)]

    _, capped = _occupation(chain, blocks(), horizon)
    u = np.zeros(chain.n)
    cps = np.linspace(0.0, horizon / 2.0, 5)
    _checkpoint_values(chain, blocks(), horizon, u, u, cps)
    assert capped > 0 and 0 in jumps  # a Step of capped paths only
    assert drawn == [j for j in jumps if j]
    assert sum(drawn) == sum(jumps)
