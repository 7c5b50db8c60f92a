"""Command-line front end.

Subcommands: gen, solve-sdp, solve-stmm, certify, rop-table, cjd-sweep,
diag-sweep, bench, each with only the options it reads. gen and rop-table
build instances with generators.make_instance from a --params JSON object.
The experiment commands rop-table, cjd-sweep and bench take their rows and
records from harness, print the rows, and write the table (CSV, or TSV for
the sweep curve) plus JSONL per-trial records under --out-dir. Exit codes:
0 ok; 1 bad input, usage errors included; 2 a numerical failure (for the
experiments, any trial that harness.failed), unless --tolerate-failures is
given. diag-sweep counts a failed solve as not tight and never exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .certificate import STATUS_CERTIFIED, certify, classify_inconclusive
from .core import check_size, load_instance, save_instance
from .diagonal import tightness_sweep
from .generators import FAMILIES, make_instance, rank_two_pair
from .harness import (
    _json_default,
    failed,
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


def _fail(args, seen_failure: bool) -> int:
    return 2 if (seen_failure and not args.tolerate_failures) else 0


def _write_experiment(args, table, rows, jsonl, records) -> int:
    """Write an experiment's table and JSONL records under --out-dir and
    return its exit code."""
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (write_tsv if table.endswith(".tsv") else write_csv)(out / table, rows)
    write_jsonl(out / jsonl, records)
    return _fail(args, any(map(failed, records)))


def _write_json(path, doc):
    text = json.dumps(doc, indent=1, default=_json_default)
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
    d = check_size(args.params.pop("d"), "malformed --params: d")
    k = check_size(args.params.pop("k"), "malformed --params: k")
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
        "meta": rep.meta,
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
        write_csv(args.trace, (
            {"iter": i, "objective": repr(float(o)),
             "grad_norm": repr(float(g))}
            for i, (o, g) in enumerate(zip(trace.objectives,
                                           trace.grad_norms))))
    _write_json(args.out, {
        "status": trace.status,
        "objective": float(trace.objectives[-1]),
        "iterations": trace.iterations,
        "newton_steps": len(trace.newton_steps),
        "accelerated_steps": len(trace.accelerated_steps),
        "grad_norm": float(trace.grad_norms[-1]),
        "d": inst.d,
        "k": inst.k,
        "u": trace.final.cols.ravel(),
    })
    return 0


def _load_point(path, d, k):
    doc = json.loads(Path(path).read_text())
    try:
        return np.asarray(doc["u"], dtype=float).reshape(d, k)
    except TypeError as exc:  # a JSON value of the wrong type
        raise ValueError(f"malformed point {path}: {exc}") from exc


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
                                   "reason": "relaxation solve failed",
                                   "meta": sdp_report.meta})
            return _fail(args, True)
        cand, _, _ = extract_candidate(sdp_report.primal)
        u = stmm_solve(inst, cand).final
    res = certify(inst, u)
    if res.status == STATUS_NUMERICAL_FAILURE:
        _write_json(args.out, {"status": res.status,
                               "reason": res.meta["reason"], "meta": res.meta})
        return _fail(args, True)
    doc = {
        "status": res.status,
        "t_star": res.t_star,
        "min_eig_slacks": res.min_eig_slacks,
        "nu_witness": res.nu_witness,
        "precondition_weak": res.precondition_weak,
        "meta": res.meta,
    }
    if res.status != STATUS_CERTIFIED:
        doc["classification"] = classify_inconclusive(inst, u, sdp_report)
    _write_json(args.out, doc)
    return 0


def _cmd_rop_table(args) -> int:
    if "d" in args.params or "k" in args.params:
        raise ValueError("set d and k with --d and --k, not in --params")
    grid = dict(args.params, d=args.d, k=args.k)
    rows, records = run_rop_table(args.family, grid, args.trials,
                                  seed=args.seed, jobs=args.jobs)
    for r in rows:
        print(f"d={r['d']} k={r['k']}: tight {r['fraction_tight']:.2f} "
              f"({r['failures']} failures)")
    return _write_experiment(args, "rop_table.csv", rows,
                             "rop_records.jsonl", records)


def _cmd_cjd_sweep(args) -> int:
    if args.n1:
        family, values = "hppca", _ints(args.n1)
    else:
        family, values = "cjd", _floats(args.sigmas)
    rows, records = run_cjd_sweep(values, args.trials, args.d, args.k,
                                  family=family, seed=args.seed,
                                  jobs=args.jobs)
    for r in rows:
        print(f"d={r['d']} k={r['k']} value {r['sweep_value']}: tight "
              f"{r['fraction_tight']:.2f} "
              f"certified {r['fraction_certified']:.2f}")
    return _write_experiment(args, "sweep_curve.tsv", rows,
                             "sweep_records.jsonl", records)


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
    rows = run_bench(args.d, args.k, args.trials, seed=args.seed)
    records = []
    for r in rows:
        records.extend(r.pop("records"))
        print(f"d={r['d']} k={r['k']}: sdp {r['sdp_median']:.3f}s "
              f"stmm+cert {r['stmm_median']:.3f}s ratio {r['ratio']:.1f}")
    return _write_experiment(args, "bench.csv", rows,
                             "bench_records.jsonl", records)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # bad input exits 1; 2 is a numerical failure
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# options shared by several subcommands; each subcommand names its own
_SHARED = {
    "--seed": dict(type=int, default=0),
    "--tolerate-failures": dict(action="store_true"),
    "--out-dir": dict(default="."),
    "--jobs": dict(type=int, default=1),
}


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="stiefelsum",
        description="Sums of quadratic forms over the Stiefel manifold: "
                    "relaxation, manifold ascent solver, global certificate.")
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

    experiment = ("--seed", "--tolerate-failures", "--out-dir")
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
