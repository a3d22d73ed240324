"""Command-line interface.

Commands: solve, simulate, verify, bench, catalog.  Exit codes: 0 success,
1 check failure or solver failure, 2 usage/configuration error.  The default
output directory comes from the FORMLAB_OUT environment variable (falling
back to ./formlab-out).  Reports are byte-reproducible for identical
configurations, including fixed-seed stochastic runs.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import catalog as cat
from .bsde import SolverError, martingale_residual_check
from .convergence import StudyError, convergence_study
from .drivers import DriverError
from .elliptic import (METHODS, duality_check, green_bound_check,
                       l1_bound_check, solve, truncation_report,
                       weak_form_check, weak_form_defect)
from .forms import FormError, GreenOperatorUndefined
from .markov import build_chain, default_horizon_cap, revuz_check, sample_path
from .reports import Report, ladder_rows, path_trace_rows, vector_rows

USAGE_ERRORS = (cat.DescriptorError, DriverError, FormError, StudyError)


def _default_out():
    return os.environ.get("FORMLAB_OUT", "formlab-out")


def _positive(kind):
    """argparse type: a finite number of the given kind, greater than 0."""
    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            value = 0
        if not (value > 0 and np.isfinite(value)):
            raise argparse.ArgumentTypeError(
                f"must be a positive finite {kind.__name__}, got {text!r}")
        return value
    return parse


def _add_common(p):
    p.add_argument("--catalog", help="catalog problem id (see `formlab catalog`)")
    p.add_argument("--problem", help="path to a JSON problem descriptor")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=_positive(float), default=1e-11)
    p.add_argument("--paths", type=_positive(int), default=100_000,
                   help="MC path budget")


def _load(args):
    if bool(args.catalog) == bool(args.problem):
        raise cat.DescriptorError("exactly one of --catalog/--problem is required")
    if args.catalog:
        problem = cat.build_catalog_problem(args.catalog)
        pid = args.catalog
    else:
        problem = cat.load_problem(args.problem)
        pid = os.path.basename(args.problem)
    return pid, problem


def cmd_solve(args) -> int:
    pid, problem = _load(args)
    sol = solve(problem, args.method, tol=args.tol,
                n_paths=args.paths, seed=args.seed)
    out = args.out or _default_out()
    config = {"command": "solve", "problem": pid, "method": args.method,
              "seed": args.seed, "tol": args.tol, "paths": args.paths}
    rep = Report(name=f"solution-{pid}", header=("node", "x", "value"),
                 rows=vector_rows(problem.form.space, sol.u), config=config,
                 summary=f"{pid} solved by {args.method}; "
                         f"residual {sol.residual:.3e}")
    path = rep.write(out)
    if args.method == "ladder":
        trace = sol.diagnostics["ladder"]
        Report(name=f"ladder-{pid}",
               header=("level", "horizon", "sup_increment", "inner_iterations"),
               rows=ladder_rows(trace), config=config).write(out)
    if args.method == "mc":
        Report(name=f"solution-se-{pid}", header=("node", "x", "value"),
               rows=vector_rows(problem.form.space, sol.diagnostics["se"]),
               config=config).write(out)
    print(f"wrote {path}")
    return 0


def cmd_simulate(args) -> int:
    pid, problem = _load(args)
    chain = build_chain(problem.form)
    horizon = args.horizon or default_horizon_cap(chain)
    paths = [sample_path(chain, args.start, args.seed + i, horizon)
             for i in range(args.paths)]
    out = args.out or _default_out()
    config = {"command": "simulate", "problem": pid, "start": args.start,
              "paths": args.paths, "seed": args.seed, "horizon": horizon}
    absorbed = sum(1 for p in paths if p.absorbed)
    rep = Report(name=f"paths-{pid}",
                 header=("path", "step", "state", "holding"),
                 rows=path_trace_rows(paths) if args.trace else [],
                 config=config,
                 summary=f"{args.paths} paths from node {args.start}; "
                         f"{absorbed} absorbed")
    path = rep.write(out)
    print(f"wrote {path}")
    return 0


def _verify_rows(pid, problem, args):
    sol = solve(problem, args.method, tol=args.tol,
                n_paths=args.paths, seed=args.seed)
    form, driver, mu = problem.form, problem.driver, problem.mu
    # Monte Carlo solutions carry per-node noise; the deterministic gates
    # get statistical allowances sized from the reported standard errors.
    mc_noise = sol.diagnostics["se"] if args.method == "mc" else None
    det_gate = args.check_tol
    energy_allow = 0.0
    l1_allow = 0.0
    if mc_noise is not None:
        det_gate = max(det_gate, 8.0 * float(np.max(mc_noise)))
        energy_allow = 4.0 * float(
            np.sum((form.degree + form.k) * mc_noise ** 2))
        l1_allow = 4.0 * float(
            np.sum(form.m * np.abs(driver.deriv(sol.u)) * mc_noise))
    rows = []

    def add(check, lhs, bound, ok):
        rows.append((check, pid, float(lhs), float(bound),
                     float(bound - lhs), bool(ok)))

    wf = weak_form_check(form, sol, mu)
    if mc_noise is None:
        wf_gate = det_gate * 10
    else:
        row_scale = float(np.max(2 * form.degree + form.k
                                 + form.m * np.abs(driver.deriv(sol.u))))
        wf_gate = args.check_tol * 10 + 4.0 * float(np.max(mc_noise)) * row_scale
    add("weak-form", wf, wf_gate, wf <= wf_gate)
    if form.killing_free_component() is None:
        dual = duality_check(form, sol, mu, tol=det_gate)
        add("duality", dual.max_residual, det_gate, dual.passed)
        l1 = l1_bound_check(sol, driver, mu, form.m, tol=args.check_tol + l1_allow)
        add("l1-bound", l1.lhs, l1.rhs + l1.tol, l1.passed)
        sup = float(np.max(np.abs(sol.u)))
        ks = np.arange(0.0, 2.0 * sup + 0.25, 0.25)
        tr = truncation_report(form, sol, mu, ks,
                               tol=args.check_tol + energy_allow)
        worst_t = int(np.argmin(tr.trunc_slack))
        add("truncation-energy", tr.trunc_energy[worst_t],
            tr.trunc_bound[worst_t] + tr.tol, tr.trunc_passed)
        worst_v = int(np.argmin(tr.vanish_slack))
        add("vanishing-energy", tr.vanish_energy[worst_v],
            tr.vanish_bound[worst_v] + tr.tol, tr.vanish_passed)
        gb = green_bound_check(form, sol, mu, tol=args.check_tol + l1_allow)
        add("green-bound", gb.lhs, gb.rhs + gb.tol, gb.passed)

    chain = build_chain(form)
    f_test = np.ones(form.n)
    rv = revuz_check(chain, f_test, mu, t=args.revuz_t,
                     N=max(2, args.paths // 5), seed=args.seed)
    add("revuz", rv.discrepancy, 3.0 * rv.se + rv.bias_bound, rv.passed())

    starts = np.unique(np.linspace(0, form.n - 1,
                                   min(form.n, 8)).astype(int))
    # discount the solution's own algebraic defect before the z-ratio; the
    # per-node floor keeps 4-sigma tails meaningful for skewed increments
    drift = float(np.max(np.abs(weak_form_defect(form, sol.u, sol.f_u, mu))
                         / form.m))
    mart = martingale_residual_check(
        chain, sol.u, driver, mu,
        N=max(4000 * starts.size, args.paths // 5),
        seed=args.seed + 1, start_nodes=starts, drift_allowance=drift)
    add("martingale", mart.max_abs_z, 4.0, mart.passed(4.0))
    return rows


def cmd_verify(args) -> int:
    if args.catalog == "all":
        ids = cat.catalog_ids()
    elif args.catalog and "," in args.catalog:
        ids = args.catalog.split(",")
    else:
        ids = None
    if ids is None:
        pid, problem = _load(args)
        jobs = [(pid, problem)]
    else:
        jobs = [(pid, cat.build_catalog_problem(pid)) for pid in ids]

    def run_one(item):
        pid, problem = item
        return _verify_rows(pid, problem, args)

    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            chunks = list(pool.map(run_one, jobs))
    else:
        chunks = [run_one(item) for item in jobs]
    rows = [row for chunk in chunks for row in chunk]

    out = args.out or _default_out()
    config = {"command": "verify", "problems": [pid for pid, _ in jobs],
              "method": args.method, "seed": args.seed, "tol": args.tol,
              "check_tol": args.check_tol, "paths": args.paths,
              "revuz_t": args.revuz_t, "jobs": args.jobs}
    ok = all(row[5] for row in rows)
    rep = Report(name="verify", header=("check", "problem", "lhs", "bound",
                                        "slack", "pass"),
                 rows=rows, config=config, passed=ok,
                 summary=f"{sum(1 for r in rows if r[5])}/{len(rows)} checks passed")
    path = rep.write(out)
    for row in rows:
        status = "pass" if row[5] else "FAIL"
        print(f"{status}  {row[0]:<18} {row[1]:<14} lhs={row[2]:.3e} "
              f"bound={row[3]:.3e}")
    print(f"wrote {path}")
    return 0 if ok else 1


def cmd_bench(args) -> int:
    grids = [int(g) for g in args.grids.split(",")]
    report = convergence_study(args.family, grids, method=args.method_bench,
                               alpha=args.alpha)
    out = args.out or _default_out()
    config = {"command": "bench", "family": args.family, "grids": grids,
              "method": args.method_bench, "alpha": args.alpha}
    rows = [(r.n, r.h,
             "" if r.error is None else r.error,
             "" if r.order is None else r.order,
             "" if r.boundary_exponent is None else r.boundary_exponent)
            for r in report.rows]
    rep = Report(name=f"bench-{args.family}",
                 header=("n", "h", "error", "order", "boundary_exponent"),
                 rows=rows, config=config,
                 summary=f"{args.family} study over {grids}")
    path = rep.write(out)
    print(f"wrote {path}")
    return 0


def cmd_catalog(_args) -> int:
    for pid in cat.catalog_ids():
        desc = cat.CATALOG[pid]
        print(f"{pid:<14} family={desc['family']:<10} n={desc.get('n')}")
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="formlab",
        description="Solvers and verification suite for measure-data "
                    "semilinear equations on finite Dirichlet forms")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a problem and export the solution")
    _add_common(p)
    p.add_argument("--method", default="gauss-seidel", choices=METHODS)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("simulate", help="sample chain paths")
    _add_common(p)
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--horizon", type=_positive(float), default=None)
    p.add_argument("--trace", action="store_true",
                   help="dump per-step path trace rows")
    p.set_defaults(fn=cmd_simulate, paths=10)

    p = sub.add_parser("verify", help="run the estimate suite on problems")
    _add_common(p)
    p.add_argument("--method", default="gauss-seidel", choices=METHODS)
    p.add_argument("--check-tol", type=_positive(float), default=1e-9)
    p.add_argument("--revuz-t", type=_positive(float), default=0.01)
    p.add_argument("--jobs", type=_positive(int), default=1)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("bench", help="grid refinement study")
    p.add_argument("--family", required=True,
                   choices=["lap1d", "diag", "frac"])
    p.add_argument("--grids", default="64,128,256,512")
    p.add_argument("--method-bench", default="gauss-seidel",
                   choices=["gauss-seidel", "ladder"])
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("catalog", help="list catalog problem ids")
    p.set_defaults(fn=cmd_catalog)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, GreenOperatorUndefined) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
