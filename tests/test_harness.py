"""Experiment harness: seed derivation, table/sweep bookkeeping, writers."""

import csv
import dataclasses
import json
import os

import numpy as np
import pytest

from stiefelsum import harness, sdp
from stiefelsum.generators import gen_cjd
from stiefelsum.harness import (
    bench_cell,
    rop_trial,
    run_cjd_sweep,
    run_rop_table,
    subspace_distance,
    sweep_trial,
    trial_seeds,
    write_csv,
    write_jsonl,
    write_tsv,
)


def test_trial_seeds_stable_and_distinct():
    a = trial_seeds(7, 5)
    assert a == trial_seeds(7, 5)
    assert len(a) == 5 and len(set(a)) == 5
    assert trial_seeds(8, 5) != a
    # composite masters may mix ints and strings
    b = trial_seeds((3, "hppca", 10), 4)
    assert b == trial_seeds((3, "hppca", 10), 4)
    assert b != trial_seeds((3, "hppca", 11), 4)
    assert all(isinstance(s, int) and s >= 0 for s in b)


def test_rop_table_diagonal_all_tight():
    rows, recs = run_rop_table("diagonal", {"d": [5], "k": [2]},
                               trials=3, seed=1)
    assert len(rows) == 1 and len(recs) == 3
    row = rows[0]
    assert row["fraction_tight"] == 1.0
    assert row["failures"] == 0 and row["trial_errors"] == 0
    assert row["family"] == "diagonal"
    assert all(r["status"] == "Optimal" for r in recs)
    assert all(r["rop_err"] <= 1e-5 for r in recs)
    # the relaxation's meta["ipm"] and meta["reason"]
    assert all(r["ipm"]["status"] == "optimal" for r in recs)
    assert all(r["ipm"]["schur_shift"] == 0.0 for r in recs)
    assert all(r["ipm"]["iterations"] > 0 for r in recs)
    assert all(r["reason"] == "" for r in recs)


def test_rop_table_worker_pool_matches_serial():
    # one pool runs the whole grid; rows and records keep the cell order
    kw = dict(trials=3, seed=1)
    grid = {"d": [4, 5], "k": [2, 3]}
    rows1, recs1 = run_rop_table("diagonal", grid, **kw)
    rows2, recs2 = run_rop_table("diagonal", grid, jobs=2, **kw)

    def strip(rs):
        return [{k: v for k, v in r.items() if k != "wall"} for r in rs]

    assert [(r["d"], r["k"]) for r in recs1] == [
        (d, k) for d in (4, 5) for k in (2, 3) for _ in range(3)]
    assert strip(recs1) == strip(recs2)
    assert strip(rows1) == strip(rows2)
    assert [(r["d"], r["k"]) for r in rows1] == [(4, 2), (4, 3), (5, 2),
                                                  (5, 3)]


def test_pool_workers_start_with_one_blas_thread(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    names = list(harness._WORKER_ENV)
    assert harness._run_trials(os.getenv, names, 2) == ["1"] * len(names)
    # the caller's environment is left as it was
    assert os.environ["OPENBLAS_NUM_THREADS"] == "4"
    assert "MKL_NUM_THREADS" not in os.environ


def test_trial_errors_are_isolated(monkeypatch):
    rec = rop_trial(("no-such-family", 4, 2, {}, 0))
    assert rec["status"] == "TrialError"
    assert rec["tight"] is False
    assert "error" in rec
    # an unknown family or parameter stops the table before any trial
    with pytest.raises(ValueError):
        run_rop_table("randpsd", {"d": [4], "k": [2], "sigma": 0.5}, 1)

    # anything but a numerical or input error is a bug and surfaces
    def broken(inst, cfg=None):
        raise TypeError("bug")

    monkeypatch.setattr(harness, "solve_sdp", broken)
    with pytest.raises(TypeError):
        rop_trial(("diagonal", 4, 2, {}, 0))


def test_failed_relaxation_record_names_its_gate(monkeypatch):
    real = sdp.solve_ipm

    def stalled(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs),
                                   status="numerical_failure")

    monkeypatch.setattr(sdp, "solve_ipm", stalled)
    rec = rop_trial(("diagonal", 5, 2, {}, 1))
    assert rec["status"] == "NumericalFailure" and harness.failed(rec)
    assert rec["reason"] == "solver did not converge"
    # the residuals at the stop are in the record too
    assert rec["ipm"]["status"] == "numerical_failure"
    assert max(rec["ipm"][key] for key in ("pinf", "dinf", "relgap")) <= 1e-8


def test_failed_relaxation_sweep_record_names_its_gate(monkeypatch):
    real = sdp.solve_ipm

    def stalled(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs),
                                   status="numerical_failure")

    monkeypatch.setattr(sdp, "solve_ipm", stalled)
    rec = harness.sweep_trial(("diagonal", 5, 2, {}, 1))
    assert rec["sdp_status"] == "NumericalFailure" and harness.failed(rec)
    assert rec["sdp_reason"] == "solver did not converge"
    assert rec["sdp_ipm"]["status"] == "numerical_failure"


# k > d, a size below 1, or a size that is not an integer
@pytest.mark.parametrize("d,k", [(3, 5), (0, 1), (4, 0), (4, 1.5), (True, 1)])
def test_impossible_cells_stop_before_any_trial(d, k, monkeypatch):
    ran = []
    monkeypatch.setattr(harness, "rop_trial", ran.append)
    monkeypatch.setattr(harness, "sweep_trial", ran.append)
    for run in (lambda: run_rop_table("randpsd", {"d": [6, d], "k": [k]}, 2),
                lambda: run_cjd_sweep([0.0], 2, [6, d], [k]),
                lambda: bench_cell(d, k, 2),
                lambda: harness.run_bench([6, d], [k], 2)):
        with pytest.raises(ValueError, match="positive integer|k <= d"):
            run()
    assert ran == []


# a sweep value that is not a positive integer n1 (hppca) or a finite
# sigma >= 0 (cjd, the rule gen_cjd applies too) is not truncated or
# clipped: the sweep stops before any trial runs
@pytest.mark.parametrize("family,value", [
    ("hppca", 40.5), ("hppca", 0), ("hppca", True), ("cjd", -0.1),
    ("cjd", float("nan")), ("cjd", float("inf"))])
def test_bad_sweep_values_stop_before_any_trial(family, value, monkeypatch):
    ran = []
    monkeypatch.setattr(harness, "sweep_trial", ran.append)
    good = 40 if family == "hppca" else 1e-3
    with pytest.raises(ValueError, match="positive integer|sigma must be"):
        run_cjd_sweep([good, value], 1, [6], [2], family=family)
    assert ran == []
    if family == "cjd":
        with pytest.raises(ValueError, match="sigma must be"):
            gen_cjd(6, 2, sigma=value)


def test_subspace_distance_cases():
    u = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 2)))[0]
    assert subspace_distance(u, u) == pytest.approx(0.0, abs=1e-12)
    assert subspace_distance(u, -u) == pytest.approx(0.0, abs=1e-12)
    flip = u * np.array([1.0, -1.0])
    assert subspace_distance(u, flip) == pytest.approx(0.0, abs=1e-12)
    e = np.eye(6)
    assert subspace_distance(e[:, :2], e[:, 2:4]) == pytest.approx(1.0)


def test_sweep_markers_on_commuting_family():
    _, recs = run_cjd_sweep([0.0], trials=2, d=[6], k=[2], seed=3)
    assert len(recs) == 2
    for r in recs:
        assert "classification" not in r
        assert r["certificate"] == "CertifiedGlobal"
        assert r["tight"]
        assert r["commuting_distance"] <= 1e-12
        assert abs(r["gap"]) <= 1e-6
        assert r["subspace_distance"] <= 1e-4
        assert {"sdp_wall", "stmm_wall", "stmm_iterations"} <= set(r)
        assert r["certificate_ipm"]["status"] == "feasible"
        assert r["sdp_ipm"]["status"] == "optimal"
        assert r["sdp_ipm"]["schur_shift"] == 0.0
        assert r["sdp_ipm"]["iterations"] > 0
        assert r["certificate_ipm"]["iterations"] >= 0
        assert r["sdp_reason"] == r["certificate_reason"] == ""
        assert 0 <= r["stmm_newton_steps"] <= r["stmm_iterations"]
        assert 0 <= r["stmm_accelerated_steps"] <= r["stmm_iterations"]
        assert (r["stmm_newton_steps"] + r["stmm_accelerated_steps"]
                <= r["stmm_iterations"])


def test_sweep_classifies_an_inconclusive_certificate():
    # a randpsd draw whose relaxation is not tight: StMM's point cannot be
    # certified, and the record says why
    rec = sweep_trial(("randpsd", 8, 4, {}, 10))
    assert rec["sdp_status"] == "Optimal" and not rec["tight"]
    assert rec["certificate"] == "Inconclusive"
    assert rec["certificate_reason"] == "least slack below -CERT_TOL * s"
    assert rec["classification"] == "SdpNotTight"
    assert not harness.failed(rec)


def test_sweep_cell_of_failed_trials_has_no_statistics(monkeypatch):
    # instances that cannot be built: both trials raise ValueError
    def unbuildable(*args):
        raise ValueError("cannot sample this draw")

    monkeypatch.setattr(harness, "_make_instance", unbuildable)
    rows, recs = run_cjd_sweep([40], 2, [6], [2], family="hppca")
    assert len(recs) == 2 and all("ValueError" in r["error"] for r in recs)
    (row,) = rows
    assert row["n_trials"] == 2 and row["trial_errors"] == 2
    for col in harness._CURVE:
        assert np.isnan(row[col])
    # a cell with no errors counts none
    monkeypatch.undo()
    rows, _ = run_cjd_sweep([0.0], 1, [6], [2], seed=3)
    assert rows[0]["trial_errors"] == 0
    assert rows[0]["fraction_tight"] == 1.0


def test_failed_is_the_one_failure_rule():
    for rec in ({"status": "Optimal", "tight": False},
                {"sdp_status": "Optimal", "certificate": "CertifiedGlobal"},
                {"sdp_status": "Optimal", "certificate": "Inconclusive",
                 "classification": "SdpNotTight"}):
        assert not harness.failed(rec)
    for rec in ({"status": "TrialError", "tight": False, "error": "x"},
                {"error": "x"},
                {"status": "NumericalFailure", "tight": False},
                {"sdp_status": "NumericalFailure",
                 "certificate": "CertifiedGlobal"},
                {"sdp_status": "Optimal", "certificate": "NumericalFailure"}):
        assert harness.failed(rec)


def test_bench_cell_fields():
    cell = bench_cell(6, 2, trials=2, seed=0)
    assert cell["d"] == 6 and cell["k"] == 2 and cell["trials"] == 2
    assert cell["sdp_median"] > 0.0 and cell["stmm_median"] > 0.0
    assert cell["ratio"] == pytest.approx(
        cell["sdp_median"] / cell["stmm_median"])
    assert len(cell["records"]) == 2
    assert all(r["sdp_status"] == "Optimal" for r in cell["records"])


def test_writers_roundtrip(tmp_path):
    rows = [{"a": 1, "b": np.float64(0.5)}, {"a": 2, "c": "x"}]
    p_csv = tmp_path / "t.csv"
    write_csv(p_csv, rows)
    with open(p_csv, newline="") as fh:
        got = list(csv.DictReader(fh))
    assert got[0]["a"] == "1" and got[1]["c"] == "x"
    assert set(got[0]) == {"a", "b", "c"}  # union of keys

    p_jsonl = tmp_path / "t.jsonl"
    write_jsonl(p_jsonl, [{"x": np.int64(3), "y": np.float64(1.5)}])
    rec = json.loads(p_jsonl.read_text().strip())
    assert rec == {"x": 3, "y": 1.5}

    p_tsv = tmp_path / "t.tsv"
    write_tsv(p_tsv, [{"a": 1, "b": 2}])
    lines = p_tsv.read_text().splitlines()
    assert lines[0] == "a\tb" and lines[1] == "1\t2"

    # empty inputs write nothing rather than a bare header
    write_csv(tmp_path / "empty.csv", [])
    write_tsv(tmp_path / "empty.tsv", [])
    assert not (tmp_path / "empty.csv").exists()
    assert not (tmp_path / "empty.tsv").exists()
