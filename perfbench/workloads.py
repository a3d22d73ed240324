"""The benchmark's workloads: seeded problem descriptors, timed operations, checks.

A workload is a list of operations.  One round runs each operation once; a
run repeats whole rounds, so every round does the same work and attempts the
same operations.  Each operation builds its problem from a descriptor and
calls one of formlab's public entry points, as a user's single call does.

The seed draws one mass factor in [0.95, 1.05] per descriptor, which moves
the solution without changing the kind or amount of work much.  Monte Carlo
solves and `formlab verify` run with the program's default stream seed.
Their answers are judged by statistical gates (3 max_se for the MC sup gap;
4 sigma over 48 martingale ratios and the Revuz gate in verify), and a gate
that trips on a fraction of a percent of streams must not decide whether a
run is correct.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import formlab as fl
import formlab.cli as cli

import reference as rf

POWER = {"family": "power", "c": 1.0, "p": 2.0, "g": 1.0}
GS_TOL = 1e-11
MC_PATHS = {"lap1d-24": 5000, "lap2d-12": 20000, "frac-64": 5000}


def _descriptors(seed):
    """Every descriptor a workload uses, with seeded atom masses."""
    rng = np.random.default_rng(seed)

    def mass(base):
        return base * float(rng.uniform(0.95, 1.05))

    def lap1d(n, driver=POWER):
        return {"family": "lap1d", "n": n, "driver": driver,
                "measure": [{"x": 0.5, "mass": mass(1.0)}]}

    return {
        "lap1d-48": lap1d(48),
        "lap1d-24": lap1d(24),
        "lap1d-128-zero": lap1d(128, {"family": "zero"}),
        "lap1d-16-sqrt": lap1d(16, {"family": "power", "c": 1.0, "p": 0.5,
                                    "g": 1.0}),
        "divform-32": {"family": "divform", "n": 32, "driver": POWER,
                       "coeff": {"kind": "affine", "c0": 1.0, "c1": 2.0},
                       "measure": [{"x": 0.3, "mass": mass(1.0)}]},
        "perturbed-g": {"family": "perturbed", "n": 16, "g": 1.0,
                        "driver": POWER,
                        "measure": [{"x": 0.25, "mass": mass(1.0)}]},
        "frac-a10": {"family": "frac", "n": 128, "alpha": 1.0,
                     "driver": POWER,
                     "measure": [{"x": 0.0, "mass": mass(0.5)}]},
        "frac-64": {"family": "frac", "n": 64, "alpha": 1.0, "driver": POWER,
                    "measure": [{"x": 0.0, "mass": mass(0.5)}]},
        "lap2d": {"family": "lap2d", "n": 16, "driver": POWER,
                  "measure": [{"x": [0.5, 0.5], "mass": mass(1.0)}]},
        "lap2d-12": {"family": "lap2d", "n": 12, "driver": POWER,
                     "measure": [{"x": [0.5, 0.5], "mass": mass(1.0)}]},
    }


# A monotone-looking descriptor with a non-monotone driver (b > 0).  It does
# not depend on the seed, so it fails the same way in every run.
HOSTILE = {"family": "lap1d", "n": 16, "driver": {"family": "affine", "b": 50.0},
           "measure": [{"x": 0.5, "mass": 1.0}]}

WORKLOADS = {
    "oracle": ["lap1d-48", "divform-32", "perturbed-g", "frac-a10",
               "lap1d-128-zero"],
    "ladder": ["lap2d", "lap1d-16-sqrt", "frac-a10", "hostile"],
    "mc": ["lap1d-24", "lap2d-12", "frac-64"],
    "verify": ["lap1d-24", "lap2d-12", "frac-64"],
}

# The ladder regularizes drivers with no usable Lipschitz bound (p < 1).
REGULARIZED = {"lap1d-16-sqrt"}


@dataclass
class Op:
    """One timed call; `keep` extracts what the checks need, outside the timing."""

    name: str
    call: Callable[[], object]
    keep: Callable[[object], dict]
    hostile: bool = False


@dataclass
class Workload:
    name: str
    descriptors: dict = field(default_factory=dict)
    ops: list = field(default_factory=list)


def _quiet_main(argv):
    """cli.main with its output captured; returns (exit code, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def build(name, seed, outdir):
    """Assemble the workload's problems once and return its operations."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; known: {sorted(WORKLOADS)}")
    os.makedirs(outdir, exist_ok=True)
    all_desc = _descriptors(seed)
    wl = Workload(name)
    for pid in WORKLOADS[name]:
        desc = HOSTILE if pid == "hostile" else all_desc[pid]
        fl.build_catalog_problem(desc)  # the set-up's assembly; operations redo it
        wl.descriptors[pid] = desc
        wl.ops.append(_make_op(name, pid, desc, outdir))
    return wl


def _make_op(workload, pid, desc, outdir):
    if workload == "oracle":
        def call():
            p = fl.build_catalog_problem(desc)
            return fl.solve_elliptic_gauss_seidel(p.form, p.driver, p.mu,
                                                  tol=GS_TOL)

        def keep(sol):
            return {"u": sol.u.copy(), "gs_sweeps": sol.diagnostics["sweeps"]}
        return Op(pid, call, keep)

    if workload == "ladder" and pid == "hostile":
        path = os.path.join(outdir, "hostile.json")
        _write_json(path, desc)
        argv = ["solve", "--problem", path, "--method", "ladder",
                "--out", os.path.join(outdir, "hostile")]

        def keep(result):
            code, message = result
            return {"exit": code, "message": message}
        return Op(pid, lambda: _quiet_main(argv), keep, hostile=True)

    if workload == "ladder":
        def call():
            p = fl.build_catalog_problem(desc)
            return fl.solve_elliptic_ladder(p.form, p.driver, p.mu)

        def keep(sol):
            trace = sol.diagnostics["ladder"]
            return {"u": sol.u.copy(), "achieved_tol": trace.achieved_tol,
                    "newton_iters": sum(lv.inner_iterations for lv in trace.levels)}
        return Op(pid, call, keep)

    if workload == "mc":
        def call():
            p = fl.build_catalog_problem(desc)
            return fl.solve_elliptic_mc(p.form, p.driver, p.mu,
                                        n_paths=MC_PATHS[pid])

        def keep(sol):
            return {"u": sol.u.copy(), "max_se": sol.diagnostics["max_se"],
                    "picard_iters": sol.diagnostics["picard_iters"]}
        return Op(pid, call, keep)

    path = os.path.join(outdir, f"{pid}.json")
    _write_json(path, desc)
    report_dir = os.path.join(outdir, "verify-" + pid)
    argv = ["verify", "--problem", path, "--method", "ladder", "--jobs", "1",
            "--out", report_dir]

    def keep(result):
        code, _ = result
        rows = rf.read_verify_csv(os.path.join(report_dir, "verify.csv"))
        return {"exit": code, "rows": rows, "problem": os.path.basename(path),
                "verify_rows": len(rows)}
    return Op(pid, lambda: _quiet_main(argv), keep)


def hostile_failed(kept):
    """The hostile call succeeds only by exiting 1 or 2 with a message."""
    return kept is None or kept["exit"] not in (1, 2) or not kept["message"].strip()


def check(wl, kept_by_op):
    """Check every answer of every round; returns failure messages.

    `kept_by_op` maps an operation name to the list of its kept records, one
    per round, with None where the call raised.
    """
    fails = []
    for op in wl.ops:
        records = [r for r in kept_by_op[op.name] if r is not None]
        if op.hostile or not records:
            continue
        desc = wl.descriptors[op.name]
        ref = rf.Reference(desc) if wl.name != "verify" else None
        for rnd, rec in enumerate(records):
            if wl.name == "oracle":
                msgs = rf.check_oracle(ref, rec["u"], GS_TOL)
            elif wl.name == "ladder":
                limit = rec["achieved_tol"] if op.name in REGULARIZED \
                    else rf.LIPSCHITZ_LADDER_GAP
                msgs = rf.check_ladder(ref, rec["u"], limit)
            elif wl.name == "mc":
                msgs = rf.check_mc(ref, rec["u"], rec["max_se"])
                msgs += rf.check_repeat(records[0]["u"], rec["u"])
            else:
                msgs = rf.check_verify(rec["exit"], rec["rows"], [rec["problem"]])
            fails += [f"{op.name} round {rnd + 1}: {m}" for m in msgs]
    return fails


WORK_COUNTS = ("gs_sweeps", "newton_iters", "picard_iters", "verify_rows")


def work_counts(kept_round):
    """Solver work of one round, summed from the diagnostics the solvers return."""
    totals = {}
    for rec in kept_round:
        for key in WORK_COUNTS:
            if rec is not None and key in rec:
                totals[key] = totals.get(key, 0) + int(rec[key])
    return totals
