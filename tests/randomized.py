"""Randomized forms, drivers and measures for the verification suites.

Rates, masses and reference weights are drawn from moderate ranges
([0.5, 2] unless stated) so statistical gates keep comfortable margins.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from formlab.drivers import Driver
from formlab.forms import DirichletForm, SignedMeasure, StateSpace, build_form


def _random_tree_edges(rng, nodes):
    """Uniform-ish spanning tree: attach each node to an earlier one."""
    edges = []
    for i in range(1, len(nodes)):
        j = int(rng.integers(0, i))
        edges.append((nodes[i], nodes[j]))
    return edges


def random_form(rng, n_min=5, n_max=50, n_components=1,
                killing="all") -> DirichletForm:
    """Random weighted graph form.

    killing: "all" gives every component a killed node (transient form),
    "none" gives none, "mixed" decides per component by coin flip.
    """
    n = int(rng.integers(n_min, n_max + 1))
    perm = rng.permutation(n)
    cuts = sorted(rng.choice(np.arange(1, n), size=n_components - 1,
                             replace=False)) if n_components > 1 else []
    groups = np.split(perm, cuts)
    rows, cols, vals = [], [], []
    k = np.zeros(n)
    for group in groups:
        group = [int(g) for g in group]
        edges = _random_tree_edges(rng, group)
        extra = max(0, int(rng.integers(0, max(1, len(group) // 2))))
        for _ in range(extra):
            a, b = rng.choice(group, size=2, replace=False)
            if a != b:
                edges.append((int(a), int(b)))
        for a, b in edges:
            w = float(rng.uniform(0.5, 2.0))
            rows += [a, b]
            cols += [b, a]
            vals += [w, w]
        kill_here = {"all": True, "none": False,
                     "mixed": bool(rng.random() < 0.5)}[killing]
        if kill_here:
            count = max(1, len(group) // 5)
            chosen = rng.choice(group, size=count, replace=False)
            k[chosen] = rng.uniform(0.5, 2.0, size=count)
    W = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    W.sum_duplicates()
    m = rng.uniform(0.5, 2.0, size=n)
    space = StateSpace(m)
    return build_form(space, W, k)


def random_transient_form(rng, n_min=5, n_max=50) -> DirichletForm:
    return random_form(rng, n_min, n_max, n_components=1, killing="all")


def random_shaped_form(rng, kind, n) -> DirichletForm:
    """Transient form on a path, a grid (both bipartite) or a dense kernel."""
    if kind == "path":
        W = np.zeros((n, n))
        w = rng.uniform(0.5, 2.0, size=n - 1)
        W[np.arange(n - 1), np.arange(1, n)] = w
    elif kind == "grid":
        side = max(2, int(round(np.sqrt(n))))
        n = side * side
        W = np.zeros((n, n))
        for i in range(n):
            if (i + 1) % side:
                W[i, i + 1] = rng.uniform(0.5, 2.0)
            if i + side < n:
                W[i, i + side] = rng.uniform(0.5, 2.0)
    else:
        W = np.triu(rng.uniform(0.1, 1.0, size=(n, n)), 1)
    W = W + W.T
    k = np.zeros(n)
    killed = rng.choice(n, size=max(1, n // 6), replace=False)
    k[killed] = rng.uniform(0.05, 1.0, size=killed.size)
    return build_form(StateSpace(rng.uniform(0.5, 2.0, size=n)), W, k)


def random_monotone_driver(rng, n) -> Driver:
    """Random nonincreasing driver: g(x) - c(x) sign(y)|y|^p, c >= 0."""
    c = rng.uniform(0.0, 2.0, size=n)
    g = rng.uniform(-1.0, 1.0, size=n)
    p = float(rng.choice([1.0, 2.0, 3.0]))
    return Driver.power(n, c, p, g)


def random_measure(rng, n, nonneg=False, density=0.6) -> SignedMeasure:
    masses = rng.uniform(0.0 if nonneg else -1.0, 1.0, size=n)
    masses[rng.random(n) > density] = 0.0
    return SignedMeasure(masses)
