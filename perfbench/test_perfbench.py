"""Tests of the benchmark itself: its checks, its reference and its repeatability.

    python3 -m pytest perfbench -q        # from the repository root, about 4 minutes
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import formlab as fl  # noqa: E402

import reference as rf  # noqa: E402
import workloads as wk  # noqa: E402

SMALL = {"family": "lap1d", "n": 16, "driver": wk.POWER,
         "measure": [{"x": 0.5, "mass": 1.0}]}


@pytest.fixture(scope="module")
def small():
    ref = rf.Reference(SMALL)
    p = fl.build_catalog_problem(SMALL)
    sol = fl.solve_elliptic_gauss_seidel(p.form, p.driver, p.mu, tol=wk.GS_TOL)
    return ref, sol.u


@pytest.mark.parametrize("pid", sorted(wk._descriptors(0)))
def test_reference_assembly_matches_program(pid):
    desc = wk._descriptors(0)[pid]
    ref = rf.Reference(desc)
    p = fl.build_catalog_problem(desc)
    np.testing.assert_allclose(ref.L, p.form.L.toarray(), rtol=1e-14, atol=1e-12)
    np.testing.assert_array_equal(ref.mu, p.mu.masses)
    np.testing.assert_allclose(ref.m, p.form.m, rtol=1e-15)


def test_oracle_check_rejects_perturbed_answer(small):
    ref, u = small
    assert rf.check_oracle(ref, u, wk.GS_TOL) == []
    bad = u.copy()
    bad[5] += 1e-7
    fails = rf.check_oracle(ref, bad, wk.GS_TOL)
    assert any("defect" in f for f in fails) and any("gap" in f for f in fails)


def test_ladder_check_rejects_perturbed_answer(small):
    ref, _ = small
    assert rf.check_ladder(ref, ref.u + 5e-7, rf.LIPSCHITZ_LADDER_GAP) == []
    assert rf.check_ladder(ref, ref.u + 2e-6, rf.LIPSCHITZ_LADDER_GAP) != []
    assert rf.check_ladder(ref, ref.u + 1e-3, 1e-2) == []
    assert rf.check_ladder(ref, ref.u + 1e-3, 1e-4) != []


def test_mc_check_rejects_perturbed_answer(small):
    ref, _ = small
    assert rf.check_mc(ref, ref.u + 0.02, max_se=0.01) == []
    assert rf.check_mc(ref, ref.u + 0.04, max_se=0.01) != []
    assert rf.check_mc(ref, ref.u + np.nan, max_se=0.01) != []


def test_repeat_check_rejects_one_ulp(small):
    _, u = small
    assert rf.check_repeat(u, u.copy()) == []
    bad = u.copy()
    bad[3] = np.nextafter(bad[3], np.inf)
    assert rf.check_repeat(u, bad) != []


def _verify_rows(problem="p.json"):
    return [(check, problem, 0.5, 1.0, 0.5, True) for check in rf.VERIFY_CHECKS]


def test_verify_check_rejects_bad_reports():
    rows = _verify_rows()
    assert rf.check_verify(0, rows, ["p.json"]) == []
    assert rf.check_verify(1, rows, ["p.json"]) != []
    failing = rows[:-1] + [("martingale", "p.json", 5.0, 4.0, -1.0, False)]
    assert rf.check_verify(0, failing, ["p.json"]) != []
    disagreeing = rows[:-1] + [("martingale", "p.json", 5.0, 4.0, -1.0, True)]
    assert rf.check_verify(0, disagreeing, ["p.json"]) != []
    assert rf.check_verify(0, rows[1:], ["p.json"]) != []
    assert rf.check_verify(0, rows + rows[:1], ["p.json"]) != []
    assert rf.check_verify(0, rows + _verify_rows("q.json"), ["p.json"]) != []


def test_read_verify_csv_round_trip(tmp_path):
    path = tmp_path / "verify.csv"
    path.write_text("check,problem,lhs,bound,slack,pass\n"
                    "revuz,p.json,0.1,0.30000000000000004,0.2,True\n")
    assert rf.read_verify_csv(path) == [
        ("revuz", "p.json", 0.1, 0.30000000000000004, 0.2, True)]


def test_hostile_outcomes():
    assert wk.hostile_failed(None)
    assert wk.hostile_failed({"exit": 0, "message": ""})
    assert wk.hostile_failed({"exit": 1, "message": "  "})
    assert not wk.hostile_failed({"exit": 2, "message": "error: not monotone"})
    assert not wk.hostile_failed({"exit": 1, "message": "solver failure: step 3"})


def _run(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def _counts(proc):
    lines = [json.loads(line) for line in proc.stdout.splitlines()
             if line.startswith("{")]
    result = lines[-1]
    counts = {k: v["value"] for k, v in result["metrics"].items()
              if v["unit"] in ("count", "B", "paths/iter")}
    rounds = [(r["work_counts"], r["failed"]) for r in lines if "round" in r]
    return result, counts, rounds


@pytest.mark.parametrize("workload", sorted(wk.WORKLOADS))
def test_counts_repeat_for_one_seed(workload):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    first, again = _run(workload, 7, 1), _run(workload, 7, 1)
    assert first.returncode == 0, first.stderr
    res1, counts1, rounds1 = _counts(first)
    res2, counts2, rounds2 = _counts(again)
    assert res1["correct"] and res2["correct"]
    assert counts1 == counts2
    assert rounds1[0] == rounds2[0] and all(r == rounds1[0] for r in rounds1 + rounds2)
    assert set(res1["metrics"]) == {m["name"] for m in bench["per_layer"]}
    # only the hostile ladder call fails, once in every round
    rounds = res1["attempted"] // len(wk.WORKLOADS[workload])
    assert res1["failed"] == (rounds if workload == "ladder" else 0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("oracle", 0, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
