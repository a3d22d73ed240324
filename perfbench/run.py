"""Benchmark of formlab's three solver routes and its check suite.

    python3 perfbench/run.py --workload oracle --seed 0 --seconds 20 --trace 0

Run from the repository root.  It imports formlab from `src/` of the same
checkout, runs whole rounds of the workload's operations for about
`--seconds` seconds (at least two rounds), checks every answer against
references computed apart from the program, and prints one JSON object as
its last line: `correct`, `attempted`, `failed` and `metrics`.  With
`--trace 0` the metrics are the end-to-end ones (setup_s, wall_s,
peak_rss_mb); with `--trace 1` they are the per-layer ones from a traced run.
See perfbench/README.md.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads: a plain single-threaded
# baseline that keeps the load within the machine's cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
DEFAULT_SEED = 0
SETUP_SAMPLES = 5
MIN_ROUNDS = 2
# A second round is skipped only when one round alone is this long, so that
# a run ends well within its time limit even on a much slower program.
MAX_ROUND_S = 60.0


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["oracle", "ladder", "mc", "verify"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--probe", action="store_true",
                    help="only import and assemble the workload, then exit "
                         "(one set-up sample, timed by the parent run)")
    return ap.parse_args(argv)


def import_program():
    """Import formlab from this checkout's src/, or exit 2 if it is not there."""
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)
    try:
        import formlab
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import formlab from {SRC}: {exc}")
    if not os.path.abspath(formlab.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: formlab resolved to {formlab.__file__}, "
                 f"not to the checkout's {SRC}")


def setup_sample(args):
    """Wall time of one fresh process that imports and assembles the workload."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def run_round(wl, workloads):
    """Run each operation once; returns (seconds, kept record or None, failed, cpu seconds)."""
    out = []
    for op in wl.ops:
        error = None
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # a failed operation is counted, not fatal
            result, error = None, exc
        dt = time.perf_counter() - t0
        cpu = time.process_time() - c0
        kept = None
        if error is None:
            try:
                kept = op.keep(result)
            except (OSError, ValueError, KeyError) as exc:
                error = exc
        failed = workloads.hostile_failed(kept) if op.hostile else error is not None
        if error is not None:
            print(f"# {op.name}: {type(error).__name__}: {error}", file=sys.stderr)
        out.append((dt, kept, failed, cpu))
    return out


def main(argv=None):
    args = parse_args(argv)
    import_program()
    import workloads
    from tracer import Tracer

    outdir = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    wl = workloads.build(args.workload, args.seed, outdir)
    if args.probe:
        return 0
    setup = [] if args.trace else [setup_sample(args) for _ in range(SETUP_SAMPLES)]

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    rounds = []
    start = time.perf_counter()
    try:
        while True:
            rounds.append(run_round(wl, workloads))
            elapsed = time.perf_counter() - start
            mean_round = elapsed / len(rounds)
            if len(rounds) >= MIN_ROUNDS or mean_round > MAX_ROUND_S:
                if elapsed + 0.5 * mean_round >= args.seconds:
                    break
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checked = list(rounds)
    if tracer and tracer.alloc_seen:
        # one more round, untimed, for the tracemalloc peaks
        memory = Tracer(alloc=True)
        memory.install()
        try:
            checked.append(run_round(wl, workloads))
        finally:
            memory.uninstall()
        tracer.peaks.update(memory.peaks)

    for i, rnd in enumerate(rounds, start=1):
        print(json.dumps({
            "round": i,
            "op_s": {op.name: r[0] for op, r in zip(wl.ops, rnd)},
            "op_cpu_s": {op.name: r[3] for op, r in zip(wl.ops, rnd)},
            "work_counts": workloads.work_counts([r[1] for r in rnd]),
            "failed": [op.name for op, r in zip(wl.ops, rnd) if r[2]]}))

    kept_by_op = {op.name: [rnd[i][1] for rnd in checked]
                  for i, op in enumerate(wl.ops)}
    try:
        fails = workloads.check(wl, kept_by_op)
    except ArithmeticError as exc:
        fails = [f"reference: {exc}"]
    for msg in fails:
        print(f"# check failed: {msg}", file=sys.stderr)

    round_s = [sum(r[0] for r in rnd) for rnd in rounds]
    if tracer:
        metrics = tracer.per_layer(len(rounds), statistics.median(round_s))
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"),
                     workload=args.workload, seed=args.seed, rounds=len(rounds),
                     round_s=round_s)
        if tracer.absent:
            print(json.dumps({"absent_boundaries": tracer.absent}))
    else:
        per_op = [statistics.median(rnd[i][0] for rnd in rounds)
                  for i in range(len(wl.ops))]
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": sum(per_op), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({
        "correct": not fails,
        "attempted": len(checked) * len(wl.ops),
        "failed": sum(r[2] for rnd in checked for r in rnd),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
