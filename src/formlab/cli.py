"""Command-line interface: it parses arguments, calls the library and
formats its results as reports (verify runs elliptic.verify_solution).

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
from .bsde import SolverError
from .convergence import STUDY_METHODS, StudyError, convergence_study
from .drivers import DriverError
from .elliptic import METHODS, solve, verify_solution
from .forms import MAX_DENSE_VALUES, FormError, GreenOperatorUndefined
from .markov import _check_seed, _paths, build_chain, default_horizon_cap
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


def _grids(text):
    """argparse type: comma-separated positive ints, such as 64,128,256."""
    parse = _positive(int)
    return [parse(part) for part in text.split(",")]


def _add_common(p):
    p.add_argument("--catalog", help="catalog problem id (see `formlab catalog`)")
    p.add_argument("--problem", help="path to a JSON problem descriptor")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--paths", type=_positive(int), default=100_000,
                   help="MC path budget")


def _add_solver(p):
    p.add_argument("--tol", type=_positive(float), default=1e-11)
    p.add_argument("--method", default="gauss-seidel", choices=METHODS)


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
    n = problem.form.n
    if args.paths * n > MAX_DENSE_VALUES:
        raise FormError(
            f"--paths must be at most {MAX_DENSE_VALUES // n} on {n} nodes, "
            f"MAX_DENSE_VALUES = {MAX_DENSE_VALUES} values, got {args.paths}")
    if not 0 <= args.start < n:  # refused before the CSV is opened
        raise FormError(f"start node {args.start} out of range")
    _check_seed(args.seed)  # refused before the CSV is opened too
    chain = build_chain(problem.form)
    horizon = args.horizon or default_horizon_cap(chain)
    absorbed = 0

    def rows():
        """Take the sampled paths in index order, counting the absorbed
        ones; with --trace, yield each path's rows.  The steps of all
        paths together, summed in index order, are bounded by
        MAX_DENSE_VALUES."""
        nonlocal absorbed
        steps = 0
        for i, (length, killed, states, holds) in enumerate(_paths(
                chain, args.start, args.seed, horizon, args.paths,
                record=MAX_DENSE_VALUES if args.trace else 0)):
            steps += length
            if steps > MAX_DENSE_VALUES:
                raise SolverError(
                    f"--paths {args.paths}: path {i} brings the steps to "
                    f"{steps}, over the budget MAX_DENSE_VALUES = "
                    f"{MAX_DENSE_VALUES}")
            absorbed += killed
            yield from path_trace_rows(i, states, holds)

    out = args.out or _default_out()
    config = {"command": "simulate", "problem": pid, "start": args.start,
              "paths": args.paths, "seed": args.seed, "horizon": horizon}
    rep = Report(name=f"paths-{pid}",
                 header=("path", "step", "state", "holding"),
                 rows=rows(), config=config,
                 summary=lambda: f"{args.paths} paths from node "
                                 f"{args.start}; {absorbed} absorbed")
    path = rep.write(out)
    print(f"wrote {path}")
    return 0


def cmd_verify(args) -> int:
    if args.catalog == "all" or (args.catalog and "," in args.catalog):
        ids = (cat.catalog_ids() if args.catalog == "all"
               else args.catalog.split(","))
        jobs = [(pid, cat.build_catalog_problem(pid)) for pid in ids]
    else:
        jobs = [_load(args)]

    def run_one(item):
        pid, problem = item
        sol = solve(problem, args.method, tol=args.tol,
                    n_paths=args.paths, seed=args.seed)
        checks = verify_solution(problem, sol, check_tol=args.check_tol,
                                 revuz_t=args.revuz_t, paths=args.paths,
                                 seed=args.seed)
        return [(c.name, pid, c.lhs, c.bound, c.bound - c.lhs, c.passed)
                for c in checks]

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
    report = convergence_study(args.family, args.grids,
                               method=args.method_bench, alpha=args.alpha)
    out = args.out or _default_out()
    config = {"command": "bench", "family": args.family, "grids": args.grids,
              "method": args.method_bench, "alpha": args.alpha}
    rows = [(r.n, r.h,
             "" if r.error is None else r.error,
             "" if r.order is None else r.order,
             "" if r.boundary_exponent is None else r.boundary_exponent)
            for r in report.rows]
    rep = Report(name=f"bench-{args.family}",
                 header=("n", "h", "error", "order", "boundary_exponent"),
                 rows=rows, config=config,
                 summary=f"{args.family} study over {args.grids}")
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
    _add_solver(p)
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
    _add_solver(p)
    p.add_argument("--check-tol", type=_positive(float), default=1e-9)
    p.add_argument("--revuz-t", type=_positive(float), default=0.01)
    p.add_argument("--jobs", type=_positive(int), default=1)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("bench", help="grid refinement study")
    p.add_argument("--family", required=True,
                   choices=["lap1d", "diag", "frac"])
    p.add_argument("--grids", type=_grids, default="64,128,256,512")
    p.add_argument("--method-bench", default="gauss-seidel",
                   choices=STUDY_METHODS)
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
