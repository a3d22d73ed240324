import hashlib
import json
import os
import time
import tracemalloc

import numpy as np
import pytest

import formlab as fl
from formlab import cli
from formlab.cli import main
from formlab.convergence import StudyError
from formlab.reports import Report, fmt, vector_rows


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_fmt_roundtrip():
    assert fmt(0.125) == "0.125"
    assert fmt(np.float64(0.1)) == "0.1"
    assert fmt(np.int64(3)) == "3"
    assert fmt("x") == "x"


def test_report_write_and_echo(tmp_path):
    rep = Report(name="r", header=("a", "b"), rows=[(1, 0.5), (2, 0.25)],
                 config={"seed": 1}, summary="two rows")
    path = rep.write(tmp_path)
    text = open(path).read()
    assert text == "a,b\n1,0.5\n2,0.25\n"
    meta = json.loads(open(tmp_path / "r.json").read())
    assert meta["schema"] == "formlab-report-v1"
    assert meta["config"] == {"seed": 1}


def test_vector_rows_with_coordinates():
    space = fl.StateSpace(np.array([1.0, 1.0]), labels=np.array([0.25, 0.75]))
    rows = vector_rows(space, np.array([1.5, -2.0]))
    assert rows == [(0, 0.25, 1.5), (1, 0.75, -2.0)]


# -- CLI ------------------------------------------------------------------------

def test_cli_catalog(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    for pid in ("lap1d-dirac", "diag-5.7", "frac-a10"):
        assert pid in out


def test_cli_solve_diag_inverse_abs(tmp_path, capsys):
    code = main(["solve", "--catalog", "diag-5.7", "--out", str(tmp_path)])
    assert code == 0
    lines = open(tmp_path / "solution-diag-5.7.csv").read().strip().splitlines()
    assert lines[0] == "node,x,value"
    for line in lines[1:]:
        _, x, value = line.split(",")
        assert float(value) * abs(float(x)) == pytest.approx(1.0, abs=1e-10)


def test_cli_usage_error_exit_2(tmp_path):
    desc = tmp_path / "bad.json"
    desc.write_text(json.dumps({"family": "frac", "n": 16, "alpha": 3.0}))
    assert main(["solve", "--problem", str(desc), "--out", str(tmp_path)]) == 2
    assert main(["solve", "--out", str(tmp_path)]) == 2


# (descriptor JSON text, or None for a path that is no file; what the error
# must name); every case exits 2 with that name and no traceback
HOSTILE_DESCRIPTORS = {
    "n-string": ('{"family": "lap1d", "n": "abc"}', ": n must be"),
    "n-infinity": ('{"family": "lap1d", "n": Infinity}', ": n must be"),
    "n-list": ('{"family": "lap1d", "n": [3]}', ": n must be"),
    "n-fraction": ('{"family": "lap1d", "n": 2.7}', ": n must be"),
    "n-bool": ('{"family": "lap1d", "n": true}', ": n must be"),
    "alpha-string": ('{"family": "frac", "n": 8, "alpha": "x"}',
                     ": alpha must be"),
    "g-string": ('{"family": "perturbed", "n": 8, "g": "x"}', ": g must be"),
    "driver-c-string": ('{"family": "lap1d", "n": 8, "driver": '
                        '{"family": "power", "c": "x"}}', ": c must be"),
    "atom-x-string": ('{"family": "lap1d", "n": 8, "measure": '
                      '[{"x": "a", "mass": 1.0}]}', ": atom x must be"),
    "atom-not-object": ('{"family": "lap1d", "n": 8, "measure": [3]}',
                        ": measure atom must be"),
    "atom-x-2d-on-1d": ('{"family": "lap1d", "n": 8, "measure": '
                        '[{"x": [0.5, 0.5], "mass": 1.0}]}', ": atom x [0.5"),
    "coeff-string": ('{"family": "lap1d", "n": 8, "coeff": "x"}',
                     ": coeff must be"),
    "interval-reversed": ('{"family": "diag", "n": 8, "interval": [1, 0]}',
                          ": interval must be"),
    "top-level-list": ('[{"family": "lap1d", "n": 8}]',
                       "must be a JSON object"),
    "frac-huge": ('{"family": "frac", "n": 100000}', "frac n = 100000"),
    "lap2d-huge": ('{"family": "lap2d", "n": 100000}', "lap2d n = 100000"),
    "lap1d-huge": ('{"family": "lap1d", "n": 1000000000}',
                   "lap1d n = 1000000000"),
    "missing-file": (None, "missing.json: cannot read"),
    "directory": (None, "adir: cannot read"),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_DESCRIPTORS))
def test_cli_hostile_descriptor_exits_2(tmp_path, capsys, case):
    text, name = HOSTILE_DESCRIPTORS[case]
    path = tmp_path / ("adir" if case == "directory" else "missing.json")
    if case == "directory":
        path.mkdir()
    elif text is not None:
        path = tmp_path / "p.json"
        path.write_text(text)
    tracemalloc.start()
    try:
        code = main(["solve", "--problem", str(path),
                     "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err, err
    # frac n = 10**5 would be an 80 GB kernel and lap2d n = 10**5 a Python
    # loop over 10**10 cells: both are refused before allocating
    assert peak < 2 ** 24


# a non-monotone driver (b > 0) that the descriptor loader accepts
HOSTILE = {"family": "lap1d", "n": 16, "driver": {"family": "affine", "b": 50.0},
           "measure": [{"x": 0.5, "mass": 1.0}]}


@pytest.mark.parametrize("method", [["gauss-seidel"], ["ladder"],
                                    ["mc", "--paths", "2000"]])
def test_cli_non_monotone_driver_fails_cleanly(tmp_path, capsys, method):
    desc = tmp_path / "hostile.json"
    desc.write_text(json.dumps(HOSTILE))
    start = time.perf_counter()
    code = main(["solve", "--problem", str(desc), "--method", *method,
                 "--out", str(tmp_path)])
    assert code == 2
    assert "node 0 with slope 50" in capsys.readouterr().err
    assert time.perf_counter() - start < 10.0


@pytest.mark.parametrize("argv", [
    ["solve", "--catalog", "lap1d-dirac", "--method", "mc", "--paths", "2000",
     "--seed", "-1"],
    ["verify", "--catalog", "lap1d-dirac", "--seed", "-2"],
    ["simulate", "--catalog", "lap1d-dirac", "--seed", "-1"],
])
def test_cli_negative_seed_exits_2(tmp_path, capsys, argv):
    assert main([*argv, "--out", str(tmp_path)]) == 2
    assert f"seed must be a non-negative integer, got {argv[-1]}" \
        in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, value", [
    ("simulate", "--horizon", "0"),
    ("simulate", "--paths", "-3"),
    ("verify", "--paths", "0"),
    ("verify", "--check-tol", "nan"),
    ("verify", "--revuz-t", "-0.5"),
    ("verify", "--jobs", "0"),
    ("solve", "--tol", "nan"),
    ("solve", "--tol", "-1"),
    ("solve", "--tol", "0"),
])
def test_cli_bad_numeric_flag_exits_2(tmp_path, capsys, command, flag, value):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as info:
        main([command, "--catalog", "perturbed-g", flag, value,
              "--out", str(tmp_path)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be a positive" in err
    assert f"got '{value}'" in err
    assert time.perf_counter() - start < 5.0


def test_cli_solve_reproducible_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["solve", "--catalog", "perturbed-g", "--method", "mc",
                     "--paths", "5000", "--seed", "3", "--out", str(out)]) == 0
    assert (a / "solution-perturbed-g.csv").read_bytes() \
        == (b / "solution-perturbed-g.csv").read_bytes()
    # pinned across commits: a change to these bytes must be deliberate
    assert _sha256(a / "solution-perturbed-g.csv") == \
        "da7111d49299f5d9b064475b05b388c33918ee1907a46761ec3751fb2a027ee3"


def test_cli_solve_ladder_writes_diagnostics(tmp_path):
    assert main(["solve", "--catalog", "perturbed-g", "--method", "ladder",
                 "--out", str(tmp_path)]) == 0
    lines = open(tmp_path / "ladder-perturbed-g.csv").read().strip().splitlines()
    assert lines[0] == "level,horizon,sup_increment,inner_iterations"
    assert len(lines) > 2


# sha256 of solution-<id>.csv, and for the ladder of ladder-<id>.csv, from
# `formlab solve --catalog <id> --method <method>` with default options;
# pinned across commits: a change to these bytes must be deliberate
SOLVE_DIGESTS = {
    ("diag-5.7", "gauss-seidel"): (
        "4f0968aa10ff298e9ae15bc858f9216e8457ee9aa6d698379a5288f366b7284b", None),
    ("diag-5.7", "ladder"): (
        "136afc8d9f2944ab0a12fb46940b2d73907d0b613f8ba2cb5a00745f5a0dfcf9",
        "8567b0eb09ad5b826563c7c12323486d7b8f173035286726cc7823ead9daebe5"),
    ("divform-b", "gauss-seidel"): (
        "d610e77107bdc91ce96deb97e21453aa54bb18ce92af37c84dc45155504b31db", None),
    ("divform-b", "ladder"): (
        "2641bb915036b04fd7aae06900775068e367a84a4dba23bedfacdb5ddd8c953e",
        "34f4d4ba165b8aaae94638ce90af7ecee19505c89853ae4cd57dea4236418e64"),
    ("frac-a10", "gauss-seidel"): (
        "167cee6d755d9e9c13c03c36583d95bc2e678d2256e4918c1bfe6a8670c9e737", None),
    ("frac-a10", "ladder"): (
        "95da4482eb2eda1eb1fee0a5ed586510b4561d6bd3e411b80d37ae0f19a1d05a",
        "11c7b8e20a3bb737730eece7a342fec276791784661017139ef4312dd7ac1f26"),
    ("lap1d-dirac", "gauss-seidel"): (
        "4f4267a0543438fce3715fcf7e511a49681b4bc7ec7e465b082b09b9bc921e38", None),
    ("lap1d-dirac", "ladder"): (
        "0cd2e94fe472c65aab41103919a26bcfaced3e2e48bd23d31b887264f8f17c23",
        "7e1281407f410519a96bcf2598be1018b6d8fc066893a5f6e720d536eb00df8e"),
    ("lap2d", "gauss-seidel"): (
        "95bfa1358e506014103f5842ab4fa92f502e3aec63e7e1c2d50ad9b0625338b8", None),
    ("lap2d", "ladder"): (
        "fccce2034f3c178911f0478d22a0a9370a1c92b4dc5a7df7bcc1a33b12699908",
        "373a9e98aeceb87a0420c3e303329e2df3af128e1e45e6515250675b4f3bb566"),
    ("perturbed-g", "gauss-seidel"): (
        "05d166ac9d6c62e591fbbf3a757a6fcefb91ee90cd7003a5fdd670b95269637d", None),
    ("perturbed-g", "ladder"): (
        "fc6a94992cfa72ea6195babc03b04ab406da717d76a190f0b17295a651f749f4",
        "71d82c52338f70843b8e3f3fe254ca18d1df77ccb5a23d65c94f44877b0f0a2c"),
}


@pytest.mark.parametrize("pid, method", sorted(SOLVE_DIGESTS))
def test_cli_solve_pinned_bytes(tmp_path, pid, method):
    solution, ladder = SOLVE_DIGESTS[pid, method]
    assert main(["solve", "--catalog", pid, "--method", method,
                 "--out", str(tmp_path)]) == 0
    assert _sha256(tmp_path / f"solution-{pid}.csv") == solution
    if ladder is not None:
        assert _sha256(tmp_path / f"ladder-{pid}.csv") == ladder


def test_cli_simulate_trace(tmp_path):
    assert main(["simulate", "--catalog", "perturbed-g", "--start", "2",
                 "--paths", "4", "--seed", "1", "--trace",
                 "--out", str(tmp_path)]) == 0
    lines = open(tmp_path / "paths-perturbed-g.csv").read().strip().splitlines()
    assert lines[0] == "path,step,state,holding"
    first = lines[1].split(",")
    assert first[0] == "0" and first[2] == "2"
    assert _sha256(tmp_path / "paths-perturbed-g.csv") == \
        "c411bed1108cfb756abb594e51f677947ebd185c9ce65257da6de45b52adfb7b"


def test_cli_simulate_memory_flat_in_paths(tmp_path):
    # without --trace no path outlives its count: ten times the paths
    # leave the traced peak where it was (it grew 7.5-fold with a list)
    peaks = []
    for paths in (50, 500):
        tracemalloc.start()
        try:
            assert main(["simulate", "--catalog", "perturbed-g",
                         "--paths", str(paths),
                         "--out", str(tmp_path / str(paths))]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0], peaks
    meta = json.loads((tmp_path / "500" / "paths-perturbed-g.json").read_text())
    assert meta["summary"].startswith("500 paths from node 0; ")


@pytest.mark.parametrize("start", ["-1", "16"])
def test_cli_simulate_bad_start_writes_nothing(tmp_path, capsys, start):
    assert main(["simulate", "--catalog", "perturbed-g", "--start", start,
                 "--trace", "--out", str(tmp_path)]) == 2
    assert f"start node {start} out of range" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def _simulated_paths(out, seed):
    assert main(["simulate", "--catalog", "perturbed-g", "--start", "2",
                 "--paths", "4", "--seed", str(seed), "--trace",
                 "--out", str(out)]) == 0
    paths = {}
    for line in (out / "paths-perturbed-g.csv").read_text().splitlines()[1:]:
        path, _, state, hold = line.split(",")
        paths.setdefault(int(path), []).append((int(state), float(hold)))
    meta = json.loads((out / "paths-perturbed-g.json").read_text())
    return [paths[i] for i in range(4)], meta["config"]["horizon"]


def test_cli_simulate_seeds_share_no_path(tmp_path):
    chain = fl.build_chain(fl.build_catalog_problem("perturbed-g").form)
    by_seed = {}
    for seed in (0, 1):
        paths, horizon = _simulated_paths(tmp_path / str(seed), seed)
        for i, path in enumerate(paths):
            ref = fl.sample_path(chain, 2, seed, horizon,
                                 rng=fl.markov._path_rng(seed, i))
            assert path == list(zip(ref.states.tolist(), ref.holds.tolist()))
        by_seed[seed] = paths
    assert not any(p in by_seed[1] for p in by_seed[0])


def test_cli_simulate_has_no_tol(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["simulate", "--catalog", "perturbed-g", "--tol", "1e-3",
              "--out", str(tmp_path)])
    assert info.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_cli_simulate_step_budget_exits_1(tmp_path, capsys, monkeypatch):
    # the paths are admitted (100 * 16 values) but their steps are not: the
    # run stops at the path that passes the budget, within bounded work
    monkeypatch.setattr(cli, "MAX_DENSE_VALUES", 1600)
    start = time.perf_counter()
    code = main(["simulate", "--catalog", "perturbed-g", "--paths", "100",
                 "--out", str(tmp_path)])
    assert code == 1
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert "--paths 100: path " in err and "MAX_DENSE_VALUES = 1600" in err
    assert "Traceback" not in err
    assert not (tmp_path / "paths-perturbed-g.json").exists()


@pytest.mark.parametrize("argv, name", [
    (["solve", "--method", "mc"], "n_paths"),
    (["verify", "--method", "ladder"], "N"),
    (["simulate"], "--paths"),
], ids=["solve-mc", "verify-ladder", "simulate"])
def test_cli_huge_path_budget_exits_2(tmp_path, capsys, monkeypatch, argv,
                                      name):
    # a path budget whose per-path arrays exceed MAX_DENSE_VALUES is refused
    # by name before those arrays exist: no path engine is ever entered
    def engine(*args, **kwargs):
        raise AssertionError("a path engine was entered")
    monkeypatch.setattr(fl.markov, "_lockstep", engine)
    monkeypatch.setattr(fl.bsde, "_lockstep", engine)
    monkeypatch.setattr(cli, "sample_path", engine)
    code = main([*argv, "--catalog", "lap2d", "--paths", "1000000000",
                 "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert f" {name} " in err and "MAX_DENSE_VALUES" in err, err
    assert "Traceback" not in err


def test_cli_verify_passes_and_writes(tmp_path):
    code = main(["verify", "--catalog", "perturbed-g", "--method", "ladder",
                 "--paths", "20000", "--seed", "5", "--out", str(tmp_path)])
    assert code == 0
    lines = open(tmp_path / "verify.csv").read().strip().splitlines()
    assert lines[0] == "check,problem,lhs,bound,slack,pass"
    checks = {line.split(",")[0] for line in lines[1:]}
    assert {"weak-form", "duality", "l1-bound", "truncation-energy",
            "vanishing-energy", "green-bound", "revuz",
            "martingale"} <= checks
    assert all(line.rsplit(",", 1)[1] == "True" for line in lines[1:])
    assert _sha256(tmp_path / "verify.csv") == \
        "09c8788214f4600252f90e400eb1c943b5795c1b948091d59b0a378c128c733a"


@pytest.mark.parametrize("argv, digest", [
    (["--catalog", "lap2d", "--method", "mc", "--paths", "20000",
      "--seed", "2"],
     "7075cbc44fe846a24a22578ac27ffd596f482d06257136493dd8003188710b8b"),
    (["--catalog", "frac-a10", "--method", "gauss-seidel", "--paths", "10000",
      "--seed", "1"],
     "aaa5f730ee09d81e2f17dc018bc7748f7bb35d699c7194a35203842fc4aed6ee"),
], ids=["lap2d-mc", "frac-a10-gauss-seidel"])
def test_cli_verify_pinned_bytes(tmp_path, argv, digest):
    # the Monte Carlo allowances and the Gauss-Seidel branch, pinned across
    # commits: a change to these bytes must be deliberate
    assert main(["verify", *argv, "--out", str(tmp_path)]) == 0
    assert _sha256(tmp_path / "verify.csv") == digest


def test_cli_verify_mc_green_bound_allows_error_of_u(tmp_path):
    # the zero driver gives l1-bound no allowance, but green-bound's lhs,
    # sum m|u|, still carries the Monte Carlo error of u
    assert main(["verify", "--catalog", "diag-5.7", "--method", "mc",
                 "--paths", "20000", "--out", str(tmp_path)]) == 0


def test_verify_solution_rows_match_cli_csv(tmp_path):
    assert main(["verify", "--catalog", "frac-a10", "--method", "gauss-seidel",
                 "--paths", "10000", "--seed", "1", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "verify.csv").read_text().splitlines()
    problem = fl.build_catalog_problem("frac-a10")
    checks = fl.verify_solution(problem, fl.solve(problem, "gauss-seidel"),
                                paths=10000, seed=1)
    assert len(checks) == len(lines) - 1
    for check, line in zip(checks, lines[1:]):
        row = (check.name, "frac-a10", check.lhs, check.bound,
               check.bound - check.lhs, check.passed)
        assert ",".join(fmt(v) for v in row) == line


def test_cli_verify_env_default_out(tmp_path, monkeypatch):
    monkeypatch.setenv("FORMLAB_OUT", str(tmp_path / "envout"))
    code = main(["verify", "--catalog", "diag-5.7", "--paths", "4000",
                 "--seed", "2"])
    assert code == 0
    assert (tmp_path / "envout" / "verify.csv").exists()


def test_cli_bench_diag(tmp_path):
    assert main(["bench", "--family", "diag", "--grids", "8,16,32",
                 "--out", str(tmp_path)]) == 0
    lines = open(tmp_path / "bench-diag.csv").read().strip().splitlines()
    assert lines[0] == "n,h,error,order,boundary_exponent"
    errors = [float(line.split(",")[2]) for line in lines[1:]]
    assert max(errors) <= 1e-12


@pytest.mark.parametrize("grids", ["64,x", "1e3,2e3,4e3", "8,16,0", "8,,32"])
def test_cli_bench_rejects_bad_grids(tmp_path, capsys, grids):
    with pytest.raises(SystemExit) as info:
        main(["bench", "--family", "diag", "--grids", grids,
              "--out", str(tmp_path)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "argument --grids" in err and "Traceback" not in err


def test_cli_verify_jobs_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        code = main(["verify", "--catalog", "diag-5.7,perturbed-g",
                     "--jobs", "2", "--paths", "3000", "--seed", "4",
                     "--tol", "1e-11", "--out", str(out)])
        assert code == 0
    assert (a / "verify.csv").read_bytes() == (b / "verify.csv").read_bytes()
    lines = open(a / "verify.csv").read().strip().splitlines()
    problems = {line.split(",")[1] for line in lines[1:]}
    assert problems == {"diag-5.7", "perturbed-g"}


# -- convergence studies -----------------------------------------------------------

def test_study_needs_three_grids():
    with pytest.raises(StudyError):
        fl.convergence_study("lap1d", [16, 32])
    with pytest.raises(StudyError):
        fl.convergence_study("lap1d", [32, 16, 64])


def test_study_lap1d_small_first_order():
    rep = fl.convergence_study("lap1d", [16, 32, 64], tol=1e-10)
    for row in rep.rows:
        assert row.error is not None
    for order in rep.orders:
        assert 0.6 <= order <= 1.4


def test_study_green_profile_oracle():
    x = np.array([0.1, 0.5, 0.9])
    np.testing.assert_allclose(fl.green_profile_1d(x, 0.5),
                               [0.05, 0.25, 0.05])


def test_study_frac_exponent_window():
    rep = fl.convergence_study("frac", [32, 64, 128], alpha=1.0)
    assert rep.exponents
    assert 0.35 <= rep.exponents[-1] <= 0.65


def test_boundary_fit_on_exact_profile():
    x = np.linspace(-1 + 1e-3, 1 - 1e-3, 400)
    u = (1 - x * x) ** 0.5
    slope = fl.boundary_exponent_fit(x, u)
    assert slope == pytest.approx(0.5, abs=1e-6)
