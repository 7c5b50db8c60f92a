"""Experiment orchestration: tightness tables, sweep records, benchmarks.

Each experiment runs its whole grid here, and every aggregate row is backed
by the per-trial records it was computed from, so fractions are auditable
after the fact. Trials derive their seeds from a master seed and run
independently; a worker pool parallelizes them when jobs > 1 (timing runs
stay serial so wall clocks mean something).

rop_trial solves the relaxation only; sweep_trial runs the whole pipeline
(relaxation, StMM, certificate) on one instance, and the sweeps and the
timing benchmark are both made of sweep trials. failed(rec) is the one rule
for a failed trial, behind failure counts and the CLI's exit codes.
"""

from __future__ import annotations

import csv
import json
import multiprocessing
import os
import time
import zlib
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .certificate import (
    STATUS_CERTIFIED,
    STATUS_INCONCLUSIVE,
    certify,
    classify_inconclusive,
)
from .core import check_size, max_commuting_distance
from .generators import family_builder, make_instance
from .sdp import (
    STATUS_NUMERICAL_FAILURE,
    extract_candidate,
    is_tight,
    solve_sdp,
)
from .stiefel import SolverConfig, random_stiefel, stmm_solve


def _entropy(x) -> int:
    # stable across runs, unlike hash()
    if isinstance(x, (int, np.integer)):
        return int(x) & 0xFFFFFFFFFFFFFFFF
    return zlib.crc32(repr(x).encode())


def trial_seeds(master_seed, count: int):
    if isinstance(master_seed, tuple):
        ent = [_entropy(x) for x in master_seed]
    else:
        ent = _entropy(master_seed)
    rng = np.random.default_rng(ent)
    return [int(s) for s in rng.integers(0, 2**63 - 1, size=count)]


# the names the benchmark's tracer times
_make_instance = make_instance
_is_tight = is_tight


def rop_trial(args) -> dict:
    """One table trial; module-level so process pools can ship it. The
    record carries the relaxation's meta["ipm"] and meta["reason"]."""
    family, d, k, params, seed = args
    rec = {"family": family, "d": d, "k": k, "seed": seed}
    rec.update({key: str(val) for key, val in params.items()})
    t0 = time.perf_counter()
    try:
        inst = _make_instance(family, d, k, params, seed)
        rep = solve_sdp(inst)
        rec.update(status=rep.status, value=rep.value, gap=rep.gap,
                   rop_err=rep.rop_err, tight=_is_tight(rep),
                   ipm=rep.meta["ipm"], reason=rep.meta["reason"])
    except (ValueError, ArithmeticError) as exc:  # other errors are bugs
        rec.update(status="TrialError", tight=False, error=repr(exc))
    rec["wall"] = time.perf_counter() - t0
    return rec


def failed(rec) -> bool:
    """The trial raised, or one of its solves (the relaxation or the
    certificate) ended NumericalFailure."""
    return "error" in rec or STATUS_NUMERICAL_FAILURE in (
        rec.get("status"), rec.get("sdp_status"), rec.get("certificate"))


def _check_grid(trials: int, cells):
    """Bad input before any trial runs: fewer than one trial, or a (d, k)
    cell that is not a pair of positive integers with k <= d."""
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    for d, k in cells:
        if check_size(k, "k") > check_size(d, "d"):
            raise ValueError(f"need k <= d, got d={d}, k={k}")


# BLAS thread counts of a pool's workers: one each, so that jobs workers
# share the cores instead of each starting a thread per core
_WORKER_ENV = dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")


def _run_trials(fn, arglist, jobs: int):
    """fn over arglist, in order: serially, or in jobs spawned worker
    processes when jobs > 1. A spawned worker reads the BLAS thread counts
    from its environment as it starts, so the pool runs with _WORKER_ENV
    set; a caller's script must then guard its entry point with
    if __name__ == "__main__"."""
    if jobs <= 1:
        return [fn(a) for a in arglist]
    saved = {key: os.environ.get(key) for key in _WORKER_ENV}
    os.environ.update(_WORKER_ENV)
    try:
        with ProcessPoolExecutor(
                max_workers=jobs,
                mp_context=multiprocessing.get_context("spawn")) as pool:
            return list(pool.map(fn, arglist))
    finally:
        for key, val in saved.items():
            if val is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = val


def run_rop_table(family: str, grid: dict, trials: int, seed=0,
                  jobs: int = 1):
    """Fraction of tight solves per (d, k) cell.

    grid: {"d": [...], "k": [...]} plus the family's parameters (see
    generators.FAMILIES). Returns (rows, records); failed trials are
    counted per cell and never count as tight."""
    params = {key: val for key, val in grid.items() if key not in ("d", "k")}
    family_builder(family, params)
    cells = [(d, k) for d in grid["d"] for k in grid["k"]]
    _check_grid(trials, cells)
    args = [(family, d, k, params, s) for d, k in cells
            for s in trial_seeds((seed, d, k), trials)]
    records = _run_trials(rop_trial, args, jobs)
    rows = []
    for i, (d, k) in enumerate(cells):
        recs = records[i * trials:(i + 1) * trials]
        row = {
            "family": family, "d": d, "k": k, "trials": trials,
            "fraction_tight": sum(r["tight"] for r in recs) / trials,
            "failures": sum(map(failed, recs)),
            "trial_errors": sum(1 for r in recs if "error" in r),
            "wall": sum(r["wall"] for r in recs),
        }
        row.update({key: str(val) for key, val in params.items()})
        rows.append(row)
    return rows, records


def subspace_distance(u1, u2) -> float:
    """(1/sqrt(k)) || |U1^T U2| - I ||_F; zero iff equal up to column signs."""
    g = np.abs(u1.T @ u2)
    k = g.shape[0]
    return float(np.linalg.norm(g - np.eye(k)) / np.sqrt(k))


def sweep_trial(args) -> dict:
    """One sweep trial: the relaxation, StMM from a random start (HPPCA
    settings for hppca), then the certificate, whose status is recorded; an
    Inconclusive one also gets classify_inconclusive's classification. The
    record carries both solves' meta["ipm"] (sdp_ipm, certificate_ipm) and
    meta["reason"] (sdp_reason, certificate_reason)."""
    family, d, k, params, seed = args
    cfg = SolverConfig.for_hppca() if family == "hppca" else SolverConfig()
    rec = {"family": family, "d": d, "k": k, "seed": seed}
    try:
        inst = _make_instance(family, d, k, params, seed)
        rec["commuting_distance"] = max_commuting_distance(inst)

        t0 = time.perf_counter()
        rep = solve_sdp(inst)
        rec["sdp_wall"] = time.perf_counter() - t0
        rec.update(sdp_status=rep.status, sdp_value=rep.value,
                   rop_err=rep.rop_err, tight=_is_tight(rep),
                   sdp_ipm=rep.meta["ipm"], sdp_reason=rep.meta["reason"])

        rng = np.random.default_rng(seed)
        t0 = time.perf_counter()
        trace = stmm_solve(inst, random_stiefel(d, k, rng), cfg)
        rec["stmm_wall"] = time.perf_counter() - t0
        rec.update(stmm_status=trace.status,
                   stmm_value=float(trace.objectives[-1]),
                   stmm_iterations=trace.iterations,
                   stmm_newton_steps=len(trace.newton_steps),
                   stmm_accelerated_steps=len(trace.accelerated_steps))
        rec["gap"] = rec["sdp_value"] - rec["stmm_value"]

        try:
            cand, _, _ = extract_candidate(rep.primal)
            rec["subspace_distance"] = subspace_distance(
                trace.final.cols, cand.cols)
        except ValueError:
            rec["subspace_distance"] = float("nan")

        t0 = time.perf_counter()
        cert = certify(inst, trace.final)
        rec["certify_wall"] = time.perf_counter() - t0
        rec.update(certificate=cert.status,
                   certificate_ipm=cert.meta.get("ipm"),
                   certificate_reason=cert.meta["reason"])
        if cert.status == STATUS_INCONCLUSIVE:
            rec["classification"] = classify_inconclusive(
                inst, trace.final, rep)
    except (ValueError, ArithmeticError) as exc:
        rec["error"] = repr(exc)
    return rec


# sweep curve column: (statistic over a cell's trials, per-trial value)
_CURVE = {
    "fraction_tight": (np.mean, lambda r: r["tight"]),
    "fraction_certified": (np.mean,
                           lambda r: r["certificate"] == STATUS_CERTIFIED),
    "median_gap": (np.median, lambda r: r["gap"]),
    "median_distance": (np.median, lambda r: r["subspace_distance"]),
    "median_commuting_distance": (np.median,
                                  lambda r: r["commuting_distance"]),
}


def run_cjd_sweep(sweep_values, trials: int, d, k, family: str = "cjd",
                  seed=0, jobs: int = 1):
    """Sweep trials over noise level (cjd: sigma = value) or sample size
    (hppca: group sizes [value, 4 value]) on every (d, k, value) cell; each
    (d, k) reuses the per-value seeds. Returns (rows, records): one curve
    row per cell, its statistics over the trials that did not raise (NaN
    when all of them raised) and trial_errors, the count that did."""
    _check_grid(trials, [(dd, kk) for dd in d for kk in k])
    cells = [(dd, kk, val) for dd in d for kk in k for val in sweep_values]
    args = [(family, dd, kk, {"n": [int(val), 4 * int(val)]}
             if family == "hppca" else {"sigma": float(val)}, s)
            for dd, kk, val in cells
            for s in trial_seeds((seed, str(val)), trials)]
    records = _run_trials(sweep_trial, args, jobs)
    rows = []
    for i, (dd, kk, val) in enumerate(cells):
        recs = records[i * trials:(i + 1) * trials]
        for rec in recs:
            rec["sweep_value"] = val
        ok = [r for r in recs if "error" not in r]
        row = {"d": dd, "k": kk, "sweep_value": val, "n_trials": len(recs),
               "trial_errors": len(recs) - len(ok)}
        for col, (stat, key) in _CURVE.items():
            row[col] = stat([key(r) for r in ok]) if ok else float("nan")
        rows.append(row)
    return rows, records


def bench_cell(d: int, k: int, trials: int, seed=0) -> dict:
    """Median/std wall time of the relaxation solve against StMM (HPPCA
    settings) plus the certificate, over hppca sweep trials. Always serial:
    timings under a pool are meaningless. Errored trials stay in the records
    and out of the medians."""
    _check_grid(trials, [(d, k)])
    records = [sweep_trial(("hppca", d, k, {}, s))
               for s in trial_seeds((seed, d, k), trials)]
    ok = [r for r in records if "error" not in r]
    sdp_times = [r["sdp_wall"] for r in ok]
    stmm_times = [r["stmm_wall"] + r["certify_wall"] for r in ok]
    return {
        "d": d, "k": k, "trials": trials,
        "sdp_median": float(np.median(sdp_times)),
        "sdp_std": float(np.std(sdp_times)),
        "stmm_median": float(np.median(stmm_times)),
        "stmm_std": float(np.std(stmm_times)),
        "ratio": float(np.median(sdp_times) / np.median(stmm_times)),
        "records": records,
    }


def run_bench(d_list, k_list, trials: int, seed=0):
    cells = [(d, k) for k in k_list for d in d_list]
    _check_grid(trials, cells)
    return [bench_cell(d, k, trials, seed=seed) for d, k in cells]


def write_csv(path, rows):
    rows = list(rows)
    if not rows:
        return
    fieldnames = []
    for r in rows:
        fieldnames.extend(f for f in r if f not in fieldnames)
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=fieldnames)
        w.writeheader()
        w.writerows(rows)


def write_jsonl(path, records):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, default=_json_default) + "\n")


def write_tsv(path, rows):
    """Plain columns for plotting tools."""
    rows = list(rows)
    if not rows:
        return
    fieldnames = list(rows[0].keys())
    with open(path, "w") as fh:
        fh.write("\t".join(fieldnames) + "\n")
        for r in rows:
            fh.write("\t".join(str(r.get(f, "")) for f in fieldnames) + "\n")


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return str(obj)
