"""Command-line front end.

Subcommands: gen, solve-sdp, solve-stmm, certify, rop-table, cjd-sweep,
diag-sweep, bench, each with only the options it reads. gen and rop-table
build instances with generators.make_instance from a --params JSON object.
Experiment commands write CSV aggregates plus JSONL per-trial records under
--out-dir. Exit codes: 0 ok; 1 bad input, usage errors included; 2 a
numerical failure, unless --tolerate-failures is given.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .certificate import (
    STATUS_CERTIFIED,
    certify,
    classify_inconclusive,
)
from .core import load_instance, save_instance
from .diagonal import tightness_sweep
from .generators import FAMILIES, make_instance, rank_two_pair
from .harness import (
    run_bench,
    run_cjd_sweep,
    run_rop_table,
    write_csv,
    write_jsonl,
    write_tsv,
)
from .sdp import (
    STATUS_NUMERICAL_FAILURE,
    STATUS_OPTIMAL,
    extract_candidate,
    solve_sdp,
)
from .stiefel import SolverConfig, random_stiefel, stmm_solve


def _ints(text):
    return [int(x) for x in text.split(",") if x]


def _floats(text):
    return [float(x) for x in text.split(",") if x]


def _out_dir(args) -> Path:
    p = Path(args.out_dir)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _fail(args, seen_failure: bool) -> int:
    return 2 if (seen_failure and not args.tolerate_failures) else 0


def _write_json(path, doc):
    text = json.dumps(doc, indent=1, default=str)
    if path is None:
        print(text)
    else:
        Path(path).write_text(text)


def _json_object(text) -> dict:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("not a JSON object")
    return doc


def _cmd_gen(args) -> int:
    if args.family not in FAMILIES:  # the fixture: X blocks, no instance
        blocks = [x.reshape(-1).tolist() for x in rank_two_pair()]
        Path(args.out).write_text(json.dumps({"d": 4, "blocks": blocks}))
        print(f"wrote {args.out}")
        return 0
    d, k = int(args.params.pop("d")), int(args.params.pop("k"))
    inst = make_instance(args.family, d, k, args.params, seed=args.seed)
    if "known_optimum" in inst.meta:
        print(f"known optimum: {inst.meta['known_optimum']}")
    save_instance(inst, args.out)
    print(f"wrote {args.out} (d={inst.d}, k={inst.k})")
    return 0


def _report_doc(rep) -> dict:
    return {
        "status": rep.status,
        "value": rep.value,
        "primal_objective": rep.primal.objective,
        "dual_objective": rep.dual.objective,
        "gap": rep.gap,
        "rop_err": rep.rop_err,
        "kkt": asdict(rep.kkt_residuals),
        "iterations": rep.iterations,
        "wall_time": rep.wall_time,
    }


def _cmd_solve_sdp(args) -> int:
    inst = load_instance(args.instance)
    rep = solve_sdp(inst)
    _write_json(args.out, _report_doc(rep))
    if args.save_primal:
        np.savez(args.save_primal,
                 **{f"x{i}": x for i, x in enumerate(rep.primal.x_blocks)})
    return _fail(args, rep.status != STATUS_OPTIMAL)


def _cmd_solve_stmm(args) -> int:
    inst = load_instance(args.instance)
    cfg = SolverConfig(max_iters=args.max_iters, grad_tol=args.grad_tol)
    u0 = random_stiefel(inst.d, inst.k, np.random.default_rng(args.seed))
    trace = stmm_solve(inst, u0, cfg)
    if args.trace:
        with open(args.trace, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["iter", "objective", "grad_norm"])
            for i, (o, g) in enumerate(zip(trace.objectives,
                                           trace.grad_norms)):
                w.writerow([i, repr(float(o)), repr(float(g))])
    _write_json(args.out, {
        "status": trace.status,
        "objective": float(trace.objectives[-1]),
        "iterations": trace.iterations,
        "grad_norm": float(trace.grad_norms[-1]),
        "d": inst.d,
        "k": inst.k,
        "u": trace.final.cols.ravel().tolist(),
    })
    return 0


def _load_point(path, d, k):
    doc = json.loads(Path(path).read_text())
    return np.asarray(doc["u"], dtype=float).reshape(d, k)


def _cmd_certify(args) -> int:
    inst = load_instance(args.instance)
    sdp_report = None
    if args.point:
        u = _load_point(args.point, inst.d, inst.k)
    else:
        # no candidate given: take the relaxation's, polished to stationarity
        sdp_report = solve_sdp(inst)
        if sdp_report.status != STATUS_OPTIMAL:
            _write_json(args.out, {"status": STATUS_NUMERICAL_FAILURE,
                                   "reason": "relaxation solve failed"})
            return _fail(args, True)
        cand, _, _ = extract_candidate(sdp_report.primal)
        u = stmm_solve(inst, cand).final
    res = certify(inst, u)
    if res.status == STATUS_NUMERICAL_FAILURE:
        _write_json(args.out, {"status": res.status,
                               "reason": res.meta["gate"]})
        return _fail(args, True)
    doc = {
        "status": res.status,
        "t_star": res.t_star,
        "min_eig_slacks": [float(x) for x in res.min_eig_slacks],
        "nu_witness": None if res.nu_witness is None
        else [float(x) for x in res.nu_witness],
        "precondition_weak": res.precondition_weak,
    }
    if res.status != STATUS_CERTIFIED:
        doc["classification"] = classify_inconclusive(inst, u, sdp_report)
    _write_json(args.out, doc)
    return 0


def _apply_fast(args):
    if args.fast:
        args.trials = min(args.trials, 10)
        args.d = [d for d in args.d if d <= 30] or [min(30, min(args.d))]


def _cmd_rop_table(args) -> int:
    _apply_fast(args)
    if "d" in args.params or "k" in args.params:
        raise ValueError("set d and k with --d and --k, not in --params")
    grid = dict(args.params, d=args.d, k=args.k)
    rows, records = run_rop_table(args.family, grid, args.trials,
                                  seed=args.seed, jobs=args.jobs)
    out = _out_dir(args)
    write_csv(out / "rop_table.csv", rows)
    write_jsonl(out / "rop_records.jsonl", records)
    for r in rows:
        print(f"d={r['d']} k={r['k']}: tight {r['fraction_tight']:.2f} "
              f"({r['failures']} failures)")
    return _fail(args, any(r["failures"] > 0 for r in rows))


def _cmd_cjd_sweep(args) -> int:
    _apply_fast(args)
    if args.n1:
        family, values = "hppca", _ints(args.n1)
    else:
        family, values = "cjd", _floats(args.sigmas)
    records, curve = [], []
    for d in args.d:
        for k in args.k:
            cell = run_cjd_sweep(values, args.trials, d=d, k=k, family=family,
                                 seed=args.seed, jobs=args.jobs)
            records.extend(cell)
            for val in values:
                recs = [r for r in cell if r["sweep_value"] == val]
                ok = [r for r in recs if "error" not in r]
                row = {
                    "d": d, "k": k, "sweep_value": val, "n_trials": len(recs),
                    "fraction_tight": np.mean(
                        [r["tight"] for r in ok]) if ok else 0,
                    "fraction_certified": np.mean(
                        [r["certificate"] == STATUS_CERTIFIED for r in ok])
                    if ok else 0,
                    "median_gap": np.median([r["gap"] for r in ok]) if ok else 0,
                    "median_distance": np.median(
                        [r["subspace_distance"] for r in ok]) if ok else 0,
                    "median_commuting_distance": np.median(
                        [r["commuting_distance"] for r in ok]) if ok else 0,
                }
                curve.append(row)
                print(f"d={d} k={k} value {val}: tight "
                      f"{row['fraction_tight']:.2f} "
                      f"certified {row['fraction_certified']:.2f}")
    out = _out_dir(args)
    write_jsonl(out / "sweep_records.jsonl", records)
    write_tsv(out / "sweep_curve.tsv", curve)
    return _fail(args, any("error" in r for r in records))


def _cmd_diag_sweep(args) -> int:
    center = load_instance(args.center)
    rows = []
    for scale in _floats(args.scales):
        frac = tightness_sweep(center, scale, args.trials, seed=args.seed)
        rows.append({"scale": scale, "fraction_tight": frac,
                     "trials": args.trials})
        print(f"scale {scale}: tight {frac:.2f}")
    write_csv(args.out, rows)
    return 0


def _cmd_bench(args) -> int:
    _apply_fast(args)
    rows = run_bench(args.d, args.k, args.trials, seed=args.seed)
    out = _out_dir(args)
    records = []
    for r in rows:
        records.extend(r.pop("records"))
        print(f"d={r['d']} k={r['k']}: sdp {r['sdp_median']:.3f}s "
              f"stmm+cert {r['stmm_median']:.3f}s ratio {r['ratio']:.1f}")
    write_csv(out / "bench.csv", rows)
    write_jsonl(out / "bench_records.jsonl", records)
    return _fail(args, any("error" in r
                           or r["sdp_status"] == STATUS_NUMERICAL_FAILURE
                           for r in records))


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # bad input exits 1; 2 is a numerical failure
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# options shared by several subcommands; each subcommand names its own
_SHARED = {
    "--seed": dict(type=int, default=0),
    "--tolerate-failures": dict(action="store_true"),
    "--out-dir": dict(default="."),
    "--fast": dict(action="store_true", help="at most 10 trials, d <= 30"),
    "--jobs": dict(type=int, default=1),
}


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="stiefelsum",
        description="Sums of quadratic forms over the Stiefel manifold: "
                    "relaxation, first-order solver, global certificate.")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, fn, *shared):
        s = sub.add_parser(name)
        for flag in shared:
            s.add_argument(flag, **_SHARED[flag])
        s.set_defaults(fn=fn)
        return s

    s = command("gen", _cmd_gen, "--seed")
    s.add_argument("--family", choices=(*FAMILIES, "fixture"), required=True)
    s.add_argument("--params", type=_json_object, default="{}",
                   help="JSON object: d, k and the family's parameters")
    s.add_argument("--out", required=True)

    s = command("solve-sdp", _cmd_solve_sdp, "--tolerate-failures")
    s.add_argument("--instance", required=True)
    s.add_argument("--out", default=None)
    s.add_argument("--save-primal", default=None)

    s = command("solve-stmm", _cmd_solve_stmm, "--seed")
    s.add_argument("--instance", required=True)
    s.add_argument("--max-iters", type=int, default=SolverConfig.max_iters)
    s.add_argument("--grad-tol", type=float, default=SolverConfig.grad_tol)
    s.add_argument("--trace", default=None, help="iterate CSV path")
    s.add_argument("--out", default=None)

    s = command("certify", _cmd_certify, "--tolerate-failures")
    s.add_argument("--instance", required=True)
    s.add_argument("--point", default=None,
                   help="candidate JSON (as written by solve-stmm)")
    s.add_argument("--out", default=None)

    experiment = ("--seed", "--tolerate-failures", "--out-dir", "--fast")
    s = command("rop-table", _cmd_rop_table, *experiment, "--jobs")
    s.add_argument("--family", choices=tuple(FAMILIES), default="hppca")
    s.add_argument("--params", type=_json_object, default="{}",
                   help="JSON object of the family's parameters")
    s.add_argument("--d", type=_ints, default=[10])
    s.add_argument("--k", type=_ints, default=[3])
    s.add_argument("--trials", type=int, default=50)

    s = command("cjd-sweep", _cmd_cjd_sweep, *experiment, "--jobs")
    s.add_argument("--sigmas", default="1e-4,1e-3,1e-2,1e-1")
    s.add_argument("--n1", default=None,
                   help="sample-size sweep instead of sigma sweep")
    s.add_argument("--d", type=_ints, default=[10])
    s.add_argument("--k", type=_ints, default=[3])
    s.add_argument("--trials", type=int, default=25)

    s = command("diag-sweep", _cmd_diag_sweep, "--seed")
    s.add_argument("--center", required=True)
    s.add_argument("--scales", default="1e-4,1e-2,1e-1,1")
    s.add_argument("--trials", type=int, default=50)
    s.add_argument("--out", default="diag_sweep.csv")

    s = command("bench", _cmd_bench, *experiment)
    s.add_argument("--d", type=_ints, default=[20, 40, 60])
    s.add_argument("--k", type=_ints, default=[3])
    s.add_argument("--trials", type=int, default=10)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
