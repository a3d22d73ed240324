import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import formlab as fl
from formlab.drivers import DriverError, require_monotone
from oracles import CallableDriver


def test_affine_eval_and_metadata():
    d = fl.Driver.affine(3, [1.0, 2.0, 3.0], -0.5)
    np.testing.assert_allclose(d.value(np.array([0.0, 2.0, -2.0])),
                               [1.0, 1.0, 4.0])
    assert d.monotone and d.lipschitz == 0.5
    assert d.constant_slope is not None


def test_affine_non_monotone_flagged():
    d = fl.Driver.affine(2, 0.0, [0.5, -1.0])
    assert not d.monotone


def test_power_eval_odd_symmetry():
    d = fl.Driver.power(2, 1.0, 2.0, 0.0)
    np.testing.assert_allclose(d.value(np.array([3.0, -3.0])), [-9.0, 9.0])
    assert d.monotone
    assert d.scalar(0, 3.0) == -9.0


def test_power_rejects_bad_parameters():
    with pytest.raises(DriverError):
        fl.Driver.power(2, -1.0, 2.0)
    with pytest.raises(DriverError):
        fl.Driver.power(2, 1.0, 0.0)


def test_power_slope_bound():
    d = fl.Driver.power(2, 2.0, 3.0)
    assert d.slope_bound(2.0) == pytest.approx(2.0 * 3.0 * 4.0)
    half = fl.Driver.power(2, 1.0, 0.5)
    assert half.slope_bound(1.0) is None


def test_tabulated_matches_table_and_interpolates():
    y = np.array([-1.0, 0.0, 1.0])
    V = np.array([[2.0, 1.0, 0.0], [3.0, 0.0, -3.0]])
    d = fl.Driver.tabulated(y, V)
    assert d.monotone
    np.testing.assert_allclose(d.value(np.array([0.0, 0.5])), [1.0, -1.5])
    # end-slope extrapolation keeps the Lipschitz constant
    assert d.scalar(1, 2.0) == pytest.approx(-6.0)


@given(y=st.floats(-3, 3), n=st.integers(1, 20))
def test_monotonicity_sampled(y, n):
    d = fl.Driver.power(1, 1.5, 3.0, 0.7)
    y2 = y + 0.5
    f1, f2 = d.scalar(0, y), d.scalar(0, y2)
    assert (f1 - f2) * (y - y2) <= 1e-12


# -- inf-convolution regularization ------------------------------------------

def test_yosida_identity_on_lipschitz_driver():
    # an already n-Lipschitz driver is reproduced exactly at grid points
    d = fl.Driver.affine(2, 0.3, -1.0)
    reg = fl.yosida_regularize(d, 4, {"R": 2.0, "delta": 0.01})
    z = reg.params["z"]
    idx = np.zeros(z.size, dtype=int)
    np.testing.assert_allclose(reg.value_at(idx, z), d.value_at(idx, z),
                               atol=1e-12)


def test_yosida_brute_force_oracle():
    # value at y=0 equals the brute-force minimum over a 10x finer grid
    d = fl.Driver.power(1, 1.0, 3.0, 0.0)   # f(y) = -y^3
    R, delta, level = 2.0, 0.02, 10
    reg = fl.yosida_regularize(d, level, {"R": R, "delta": delta})
    for y0 in (0.0, 0.6, -1.1):
        got = float(reg.value_at(np.array([0]), np.array([y0]))[0])
        zfine = np.linspace(-R, R, 10 * (2 * int(np.ceil(R / delta))) + 1)
        brute = float(np.min(level * np.abs(y0 - zfine) - zfine ** 3))
        assert brute - 1e-12 <= got <= brute + level * delta


def test_yosida_monotone_ladder():
    d = fl.Driver.power(1, 1.0, 3.0, 0.0)
    grid = {"R": 1.5, "delta": 1.5 / 512}
    f5 = fl.yosida_regularize(d, 5, grid)
    f10 = fl.yosida_regularize(d, 10, grid)
    z = f5.params["z"]
    idx = np.zeros(z.size, dtype=int)
    v5, v10, v = (f5.value_at(idx, z), f10.value_at(idx, z), d.value_at(idx, z))
    assert np.all(v5 <= v10 + 1e-12)
    assert np.all(v10 <= v + 1e-12)


def test_yosida_lipschitz_property():
    d = fl.Driver.power(1, 1.0, 3.0, 0.0)
    reg = fl.yosida_regularize(d, 7, {"R": 2.0, "delta": 0.005})
    ys = np.linspace(-1.8, 1.8, 400)
    idx = np.zeros(ys.size, dtype=int)
    vals = reg.value_at(idx, ys)
    ratios = np.abs(np.diff(vals)) / np.diff(ys)
    assert np.max(ratios) <= 7.0 + 1e-9
    assert reg.lipschitz == 7.0


class CountingCallable:
    """Vectorized f(x, y) = g(x) - c(x) tanh(y) - y^3 that counts its calls."""

    def __init__(self, g, c):
        self.g, self.c, self.calls = np.asarray(g), np.asarray(c), 0

    def __call__(self, idx, y):
        self.calls += 1
        return self.g[idx] - self.c[idx] * np.tanh(y) - y ** 3


@st.composite
def yosida_cases(draw):
    nodes = draw(st.integers(1, 4))
    coef = st.lists(st.floats(0.0, 2.0), min_size=nodes, max_size=nodes)
    kind = draw(st.sampled_from(["power", "tabulated", "callable"]))
    if kind == "power":
        base = fl.Driver.power(nodes, draw(coef),
                               draw(st.sampled_from([0.25, 0.5, 1.0, 1.5, 3.0])),
                               draw(coef))
    elif kind == "tabulated":
        knots = draw(st.integers(2, 6))
        drops = draw(st.lists(
            st.lists(st.floats(0.0, 3.0), min_size=knots, max_size=knots),
            min_size=nodes, max_size=nodes))
        base = fl.Driver.tabulated(np.linspace(-1.5, 1.5, knots),
                                   2.0 - np.cumsum(drops, axis=1))
    else:
        base = CallableDriver(
            nodes, CountingCallable(draw(coef), draw(coef)), monotone=True)
    level = draw(st.integers(1, 40))
    R = draw(st.floats(0.25, 4.0))
    grid = {"R": R, "delta": R / draw(st.integers(1, 300))}
    # offsets in units of R cover the inside, both ends and beyond them;
    # grid indices (mod G) land exactly on grid points
    offsets = draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=20))
    on_grid = draw(st.lists(st.integers(0, 10 ** 4), max_size=20))
    idx = draw(st.lists(st.integers(0, nodes - 1),
                        min_size=len(offsets) + len(on_grid),
                        max_size=len(offsets) + len(on_grid)))
    return base, level, grid, np.array(offsets) * R, on_grid, np.array(idx)


@given(case=yosida_cases())
def test_yosida_envelope_matches_brute_force(case):
    base, level, grid, ys_free, on_grid, idx = case
    reg = fl.yosida_regularize(base, level, grid)
    if base.family == "callable":
        assert base.params["fn"].calls == 1  # one table call, not one per z
    z = reg.params["z"]
    ys = np.concatenate([ys_free, z[np.asarray(on_grid, dtype=int) % z.size]])
    F = np.array([base.value_at(np.full(z.size, x), z) for x in range(base.n)])
    brute = np.min(F[idx] + level * np.abs(ys[:, None] - z[None, :]), axis=1)
    R = grid["R"]
    bound = 4 * np.finfo(float).eps * (level * np.maximum(np.abs(ys), R)
                                       + np.max(np.abs(F)))
    assert np.all(np.abs(reg.value_at(idx, ys) - brute) <= bound)


def test_yosida_rejects_bad_grid():
    d = fl.Driver.zero(1)
    with pytest.raises(DriverError):
        fl.yosida_regularize(d, 3, {"R": 0.0, "delta": 0.1})
    with pytest.raises(DriverError):
        fl.yosida_regularize(d, 3, {"R": 1.0, "delta": -0.1})


def test_require_monotone_names_first_increase():
    require_monotone(fl.Driver.power(2, 1.0, 0.5))
    with pytest.raises(DriverError, match="node 1 with slope 0.5$"):
        require_monotone(fl.Driver.affine(3, 0.0, [-1.0, 0.5, 2.0]))
    table = fl.Driver.tabulated([0.0, 1.0, 2.0], [[1.0, 0.0, -1.0],
                                                  [0.0, 0.0, 3.0]])
    reg = fl.yosida_regularize(table, 2, {"R": 1.0, "delta": 0.1})
    with pytest.raises(DriverError, match=r"node 1 with slope 3 on \[1, 2\]"):
        require_monotone(reg)
    rising = CallableDriver(1, lambda idx, y: y, monotone=False)
    with pytest.raises(DriverError, match="declared non-monotone"):
        require_monotone(rising)


# -- data truncation -----------------------------------------------------------

def test_truncate_identity_when_level_dominates():
    d = fl.Driver.power(3, 1.0, 2.0, [0.5, -0.25, 0.9])
    mu = fl.SignedMeasure(np.array([0.3, -0.8, 0.0]))
    d2, mu2 = fl.truncate_data(d, mu, 1)
    assert d2 is d
    assert mu2 is mu


def test_truncate_clamps_f0():
    d = fl.Driver.affine(2, [7.0, -9.0], -1.0)
    mu = fl.SignedMeasure(np.zeros(2))
    d3, _ = fl.truncate_data(d, mu, 3)
    np.testing.assert_allclose(d3.f0(), [3.0, -3.0])
    # away from zero the shift is constant: f'(y) = f(y) - f0 + T_n(f0)
    np.testing.assert_allclose(d3.value(np.array([2.0, 2.0])),
                               [7.0 - 2.0 - 4.0, -9.0 - 2.0 + 6.0])


def test_truncate_clamps_masses():
    d = fl.Driver.zero(2)
    mu = fl.SignedMeasure(np.array([-5.0, 1.5]))
    _, mu2 = fl.truncate_data(d, mu, 2)
    np.testing.assert_allclose(mu2.masses, [-2.0, 1.5])


def test_make_driver_descriptors():
    d = fl.make_driver({"family": "power", "c": 1.0, "p": 2.0, "g": 1.0}, 4)
    assert d.family == "power" and d.n == 4
    z = fl.make_driver({"family": "zero"}, 3)
    np.testing.assert_allclose(z.f0(), 0.0)
    with pytest.raises(DriverError):
        fl.make_driver({"family": "nope"}, 3)
    with pytest.raises(DriverError):
        fl.make_driver({"family": "power", "bogus": 1}, 3)


# -- whole-vector evaluation ---------------------------------------------------

def _fast_path_drivers():
    rng = np.random.default_rng(7)
    n = 6
    c, g = rng.uniform(0.0, 2.0, n), rng.uniform(-3.0, 3.0, n)
    drivers = {"affine": fl.Driver.affine(n, g, -c)}
    for p in (0.5, 1.0, 2.0, 3.0):
        drivers[f"power-{p}"] = fl.Driver.power(n, c, p, g)
    ys = np.linspace(-2.0, 2.0, 9)
    drivers["tabulated"] = fl.Driver.tabulated(
        ys, g[:, None] - c[:, None] * ys ** 3)
    drivers["yosida"] = fl.yosida_regularize(
        drivers["power-3.0"], 3, {"R": 2.0, "delta": 2.0 / 64})
    drivers["truncated"], _ = fl.truncate_data(
        drivers["power-2.0"], fl.SignedMeasure(np.zeros(n)), 1)
    assert drivers["truncated"].family == "truncated"
    return drivers, rng


@pytest.mark.parametrize("name", ["affine", "power-0.5", "power-1.0",
                                  "power-2.0", "power-3.0", "tabulated",
                                  "yosida", "truncated"])
def test_value_equals_value_at_every_node_bit_for_bit(name):
    # value(u) reads the per-node parameters whole; value_at on a fresh
    # arange gathers them; both give the same bits
    drivers, rng = _fast_path_drivers()
    drv = drivers[name]
    z = drivers["yosida"].params["z"]
    us = [rng.normal(scale=2.0, size=drv.n),
          z[rng.integers(0, z.size, drv.n)],            # on grid points
          np.array([-6.0, 6.0, -2.0, 2.0, -2.5, 7.0]),  # at and beyond +-R
          np.array([np.inf, -np.inf, 0.0, -0.0, np.inf, 1.0])]
    with np.errstate(invalid="ignore"):
        for u in us:
            fast = drv.value(u)
            slow = drv.value_at(np.arange(drv.n), u)
            assert fast.tobytes() == slow.tobytes(), (name, u)
