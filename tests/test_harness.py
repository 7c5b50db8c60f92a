"""Experiment harness: seed derivation, table/sweep bookkeeping, writers."""

import csv
import json

import numpy as np
import pytest

from stiefelsum import harness
from stiefelsum.harness import (
    bench_cell,
    rop_trial,
    run_cjd_sweep,
    run_rop_table,
    subspace_distance,
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


def test_rop_table_worker_pool_matches_serial():
    kw = dict(trials=3, seed=1)
    rows1, recs1 = run_rop_table("diagonal", {"d": [5], "k": [2]}, **kw)
    rows2, recs2 = run_rop_table("diagonal", {"d": [5], "k": [2]}, jobs=2,
                                 **kw)

    def strip(rs):
        return [{k: v for k, v in r.items() if k != "wall"} for r in rs]

    assert strip(recs1) == strip(recs2)
    assert rows1[0]["fraction_tight"] == rows2[0]["fraction_tight"]


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
