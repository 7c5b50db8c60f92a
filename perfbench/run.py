"""Benchmark of stiefelsum's solve paths: one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout; the package is imported from its src/ directory.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones; with --trace 1 the per-layer ones, from rounds that
alternate with untraced rounds so the tracing overhead can be reported.
Lines before it give the raw and calibrated time of every operation.
See README.md for the workloads, metrics and calibration.
"""

from __future__ import annotations

import os

# One BLAS thread: on a 2-core host two threads double CPU time and save a
# few percent of wall time at most at these sizes (README.md). Set before
# numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 60

PER_LAYER_TIMES = (
    "ipm.fantope_schur_s", "ipm.schur_factor_s", "ipm.step_length_s",
    "ipm.dense_schur_s", "ipm.solve_self_s", "sdp.kkt_check_s",
    "sdp.extract_s", "stiefel.stmm_s", "stiefel.procrustes_s",
    "certificate.certify_s", "core.rop_error_s", "harness.tight_check_s",
)


def import_program():
    """Import stiefelsum from this checkout's src/, nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import stiefelsum

    origin = Path(stiefelsum.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise ImportError(f"stiefelsum imported from {origin}, not {ROOT / 'src'}")


def set_up(name: str, seed: int):
    """Everything before timing: the workload's inputs and one warm-up
    operation (its first)."""
    import workloads

    ops = workloads.WORKLOADS[name](seed).ops()
    _, run, check = ops[0]
    failure, problems = check(run())
    if failure or problems:
        raise RuntimeError(f"warm-up operation failed: {failure or problems}")
    return ops


def measure_setup(cal, name: str, seed: int) -> float:
    """Median calibrated wall time of fresh processes that import the
    program, build the inputs and run the warm-up operation."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        _, raw, factor = cal.time(
            lambda: subprocess.run(cmd, check=True, timeout=PROBE_TIMEOUT_S,
                                   stdout=subprocess.DEVNULL),
            sample=False)
        times.append(raw * factor)
    return statistics.median(times)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.problems = []

    def round(self, ops, cal, tracer=None):
        """One pass over the operations; returns [(label, raw_s, cal_s)]."""
        timings = []
        for label, run, check in ops:
            self.attempted += 1
            try:
                out, raw, factor = cal.time(run)
            except Exception as exc:  # count it, keep measuring the rest
                traceback.print_exc()
                self.failed += 1
                self.failures.append(f"{label}: {exc!r}")
                if tracer is not None:
                    tracer.pending.clear()
                continue
            if tracer is not None:
                tracer.commit(factor)
            failure, problems = check(out)
            if failure:
                self.failed += 1
                self.failures.append(f"{label}: {failure}")
            self.problems += [f"{label}: {p}" for p in problems]
            timings.append((label, raw, raw * factor))
        return timings


def per_layer(tracer, n, setup_gen_s, run_untraced, run_traced, cal):
    """Per-layer metrics per traced round (instance generation: per round
    plus the one set-up), with the traced rounds' extra run time."""
    totals, counts = tracer.totals, tracer.counts

    def ratio(hits, calls):
        return counts[hits] / counts[calls] if counts[calls] else 0.0

    values = {m: (totals[m] / n, "s") for m in PER_LAYER_TIMES}
    values.update({
        "ipm.schur_regularized": (counts["ipm.schur_regularized"] / n, "count"),
        "ipm.iterations": (counts["ipm.iterations"] / n, "count"),
        "stiefel.stmm_iterations": (counts["stiefel.stmm_iterations"] / n, "count"),
        "stiefel.stationary_ratio": (
            ratio("stiefel.stationary", "stiefel.stmm_s.calls"), "ratio"),
        "certificate.certified_ratio": (
            ratio("certificate.certified", "certificate.certify_s.calls"), "ratio"),
        "harness.instance_gen_s": (
            totals["harness.instance_gen_s"] / n + setup_gen_s, "s"),
        "calib.ref_s": (float(np.median(cal.ref_samples)), "s"),
        "trace.overhead_s": (run_traced - run_untraced, "s"),
    })
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up once and exit (used to time set-up)")
    args = ap.parse_args(argv)

    import_program()
    sys.path.insert(0, str(HERE))
    import calib
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    if args.setup_probe:
        set_up(args.workload, args.seed)
        return 0

    cal = calib.Calibrator()
    setup_s = None if args.trace else measure_setup(cal, args.workload, args.seed)

    ops = set_up(args.workload, args.seed)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(cal)
        # the HPPCA workloads build their inputs once, in set-up
        _, raw, factor = cal.time(
            lambda: workloads.WORKLOADS[args.workload](args.seed), sample=False)
        setup_gen_s = raw * factor

    tally = Tally()
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        cycle0 = time.perf_counter()
        untraced.append(tally.round(ops, cal))
        if tracer is not None:
            tracer.install()
            try:
                traced.append(tally.round(ops, cal, tracer))
            finally:
                tracer.uninstall()
        now = time.perf_counter()
        if now - start + (now - cycle0) > args.seconds:
            break

    run_totals = [sum(t[2] for t in r) for r in untraced]
    per_op = {}
    for label, raw, cal_s in (t for r in untraced for t in r):
        per_op.setdefault(label, []).append((raw, cal_s))
    for label, times in per_op.items():
        print(f"op {label}: n={len(times)} "
              f"raw_s={statistics.median(t[0] for t in times):.4f} "
              f"calibrated_s={statistics.median(t[1] for t in times):.4f}")
    print(f"rounds={len(untraced)} "
          f"run_raw_s={statistics.median(sum(t[1] for t in r) for r in untraced):.4f} "
          f"run_s={statistics.median(run_totals):.4f} "
          f"ref_s={float(np.median(cal.ref_samples)):.6f}")
    for line in tally.failures + tally.problems:
        print("FAIL " + line)

    if tracer is None:
        values = {
            "setup_s": (setup_s, "s"),
            "run_s": (statistics.median(run_totals), "s"),
            "op_p50_s": (statistics.median(
                statistics.median(t[1] for t in times) for times in per_op.values()), "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        if tracer.missing:
            print("trace hooks not found: " + ", ".join(tracer.missing))
        values = per_layer(
            tracer, len(traced), setup_gen_s, statistics.median(run_totals),
            statistics.median(sum(t[2] for t in r) for r in traced), cal)

    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    OUT_DIR.mkdir(exist_ok=True)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "untraced_rounds": untraced, "traced_rounds": traced,
              "ref_samples": cal.ref_samples.tolist(), "failures": tally.failures,
              "problems": tally.problems, "metrics": metrics}
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1))

    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
