"""Experiment orchestration: tightness tables, sweep records, benchmarks.

Every aggregate row is backed by the per-trial records it was computed
from, so fractions are auditable after the fact. Trials derive their
seeds from a master seed and run independently; a worker pool parallelizes
them when jobs > 1 (timing runs stay serial so wall clocks mean something).
"""

from __future__ import annotations

import csv
import json
import time
import zlib
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .certificate import STATUS_CERTIFIED, CertificateNumericalError, certify
from .core import max_commuting_distance, normalize_instance
from .generators import gen_cjd, gen_random_diagonal, gen_random_psd
from .hppca import build_instance, make_model, sample
from .sdp import STATUS_OPTIMAL, extract_candidate, is_tight, solve_sdp
from .stiefel import SolverConfig, objective, random_stiefel, stmm_solve

MARKER_CERTIFIED = "certified"
MARKER_NOT_TIGHT = "not-tight"
MARKER_TIGHT_SUBOPTIMAL = "tight-suboptimal"


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


def _make_instance(family: str, d: int, k: int, params: dict, seed: int):
    if family == "hppca":
        lam = np.linspace(1.0, 4.0, k)
        model = make_model(d, k, lam, params.get("v", [1.0, 4.0]),
                           params.get("n", [100, 400]), seed=seed)
        return normalize_instance(build_instance(model, sample(model)))
    if family == "randpsd":
        return gen_random_psd(d, k, rank=params.get("rank"), seed=seed)
    if family == "cjd":
        return gen_cjd(d, k, params.get("r", min(3, d)),
                       params.get("sigma", 1e-3), seed=seed)
    if family == "diagonal":
        return gen_random_diagonal(d, k, seed=seed)
    raise ValueError(f"unknown family: {family}")


def rop_trial(args) -> dict:
    """One table trial; module-level so process pools can ship it."""
    family, d, k, params, seed, cfg = args
    rec = {"family": family, "d": d, "k": k, "seed": seed}
    rec.update({key: str(val) for key, val in params.items()})
    t0 = time.perf_counter()
    try:
        inst = _make_instance(family, d, k, params, seed)
        rep = solve_sdp(inst, cfg)
        rec.update(status=rep.status, value=rep.value, gap=rep.gap,
                   rop_err=rep.rop_err, tight=is_tight(rep),
                   iterations=rep.iterations)
    except Exception as exc:  # isolate trial failures
        rec.update(status="TrialError", tight=False, error=repr(exc))
    rec["wall"] = time.perf_counter() - t0
    return rec


def _run_trials(fn, arglist, jobs: int):
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, arglist))
    return [fn(a) for a in arglist]


def run_rop_table(family: str, grid: dict, trials: int, seed=0,
                  jobs: int = 1, cfg: SolverConfig | None = None):
    """Fraction of tight solves per (d, k) cell.

    grid: {"d": [...], "k": [...]} plus family parameters (n, v, rank,
    r, sigma). Returns (rows, records); failures are counted per cell
    and never count as tight."""
    params = {key: val for key, val in grid.items() if key not in ("d", "k")}
    rows, records = [], []
    for d in grid["d"]:
        for k in grid["k"]:
            seeds = trial_seeds((seed, d, k), trials)
            args = [(family, d, k, params, s, cfg) for s in seeds]
            recs = _run_trials(rop_trial, args, jobs)
            row = {
                "family": family, "d": d, "k": k, "trials": trials,
                "fraction_tight": sum(r["tight"] for r in recs) / trials,
                "failures": sum(1 for r in recs
                                if r["status"] != STATUS_OPTIMAL),
                "trial_errors": sum(1 for r in recs if "error" in r),
                "wall": sum(r["wall"] for r in recs),
            }
            row.update({key: str(val) for key, val in params.items()})
            rows.append(row)
            records.extend(recs)
    return rows, records


def subspace_distance(u1, u2) -> float:
    """(1/sqrt(k)) || |U1^T U2| - I ||_F; zero iff equal up to column signs."""
    g = np.abs(u1.T @ u2)
    k = g.shape[0]
    return float(np.linalg.norm(g - np.eye(k)) / np.sqrt(k))


def sweep_trial(args) -> dict:
    """One sweep trial: SDP arm, StMM arm, certificate, marker class."""
    family, d, k, sweep_value, params, seed, cfg = args
    cfg = cfg or (SolverConfig.for_hppca() if family == "hppca"
                  else SolverConfig())
    rec = {"family": family, "d": d, "k": k, "sweep_value": sweep_value,
           "seed": seed}
    try:
        if family == "hppca":
            n1 = int(sweep_value)
            inst = _make_instance(family, d, k,
                                  dict(params, n=[n1, 4 * n1]), seed)
        else:
            inst = _make_instance(family, d, k,
                                  dict(params, sigma=float(sweep_value)),
                                  seed)
        rec["commuting_distance"] = max_commuting_distance(inst)

        t0 = time.perf_counter()
        rep = solve_sdp(inst, cfg)
        rec["sdp_wall"] = time.perf_counter() - t0
        tight = is_tight(rep)
        rec.update(sdp_status=rep.status, sdp_value=rep.value,
                   rop_err=rep.rop_err, tight=tight)

        rng = np.random.default_rng(seed)
        t0 = time.perf_counter()
        trace = stmm_solve(inst, random_stiefel(d, k, rng), cfg)
        rec["stmm_wall"] = time.perf_counter() - t0
        rec.update(stmm_status=trace.status,
                   stmm_value=objective(inst, trace.final),
                   stmm_iterations=trace.iterations)
        rec["gap"] = rec["sdp_value"] - rec["stmm_value"]

        try:
            cand, _, _ = extract_candidate(rep.primal)
            rec["subspace_distance"] = subspace_distance(
                trace.final.cols, cand.cols)
        except Exception:
            rec["subspace_distance"] = float("nan")

        try:
            cert = certify(inst, trace.final)
            rec["certificate"] = cert.status
            certified = cert.status == STATUS_CERTIFIED
        except CertificateNumericalError as exc:
            rec["certificate"] = "NumericalFailure"
            rec["certificate_error"] = repr(exc)
            certified = False

        if not tight:
            rec["marker"] = MARKER_NOT_TIGHT
        elif certified:
            rec["marker"] = MARKER_CERTIFIED
        else:
            rec["marker"] = MARKER_TIGHT_SUBOPTIMAL
    except Exception as exc:
        rec.update(marker="error", error=repr(exc))
    return rec


def run_cjd_sweep(sweep_values, trials: int, d: int = 10, k: int = 3,
                  family: str = "cjd", params: dict | None = None, seed=0,
                  jobs: int = 1, cfg: SolverConfig | None = None):
    """Per-trial sweep records over noise level (cjd) or sample size (hppca).

    Markers: certified / not-tight / tight-suboptimal, mutually exclusive
    and exhaustive over non-errored trials."""
    params = params or {}
    args = []
    for val in sweep_values:
        for s in trial_seeds((seed, str(val)), trials):
            args.append((family, d, k, val, params, s, cfg))
    return _run_trials(sweep_trial, args, jobs)


def bench_cell(d: int, k: int, trials: int, seed=0,
               cfg: SolverConfig | None = None) -> dict:
    """Median/std wall time of the full SDP vs StMM + certificate on the
    same instances. Always serial: timings under a pool are meaningless."""
    cfg = cfg or SolverConfig()
    sdp_times, stmm_times, records = [], [], []
    for s in trial_seeds((seed, d, k), trials):
        inst = _make_instance("hppca", d, k, {}, s)
        t0 = time.perf_counter()
        rep = solve_sdp(inst, cfg)
        t_sdp = time.perf_counter() - t0

        rng = np.random.default_rng(s)
        t0 = time.perf_counter()
        trace = stmm_solve(inst, random_stiefel(d, k, rng), cfg)
        try:
            cert_status = certify(inst, trace.final).status
        except CertificateNumericalError:
            cert_status = "NumericalFailure"
        t_stmm = time.perf_counter() - t0

        sdp_times.append(t_sdp)
        stmm_times.append(t_stmm)
        records.append({
            "d": d, "k": k, "seed": s, "sdp_wall": t_sdp,
            "stmm_certify_wall": t_stmm, "sdp_status": rep.status,
            "stmm_status": trace.status, "certificate": cert_status,
        })
    return {
        "d": d, "k": k, "trials": trials,
        "sdp_median": float(np.median(sdp_times)),
        "sdp_std": float(np.std(sdp_times)),
        "stmm_median": float(np.median(stmm_times)),
        "stmm_std": float(np.std(stmm_times)),
        "ratio": float(np.median(sdp_times) / np.median(stmm_times)),
        "records": records,
    }


def run_bench(d_list, k_list, trials: int, seed=0,
              cfg: SolverConfig | None = None):
    rows = []
    for k in k_list:
        for d in d_list:
            rows.append(bench_cell(d, k, trials, seed=seed, cfg=cfg))
    return rows


def write_csv(path, rows, fieldnames=None):
    rows = list(rows)
    if not rows:
        return
    if fieldnames is None:
        fieldnames = []
        for r in rows:
            fieldnames.extend(f for f in r if f not in fieldnames)
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=fieldnames, extrasaction="ignore")
        w.writeheader()
        w.writerows(rows)


def write_jsonl(path, records):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, default=_json_default) + "\n")


def write_tsv(path, rows, fieldnames=None):
    """Plain columns for plotting tools."""
    rows = list(rows)
    if not rows:
        return
    if fieldnames is None:
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
