"""Values with one setting in use are module constants, not parameters."""

import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import stiefelsum
from stiefelsum import (
    certificate,
    cli,
    core,
    diagonal,
    harness,
    ipm,
    sdp,
    stiefel,
)

SIGNATURES = {
    core.spectral_norms: ["stack"],
    core.shift_and_scale: ["mats"],
    core.polar_factor: ["m"],
    core.procrustes_project: ["m"],
    core.top_eigenpairs: ["x_blocks"],
    core.check_rop_orthogonality: ["x_blocks", "orth_tol"],
    sdp.solve_sdp: ["c", "cfg"],
    sdp.extract_candidate: ["primal"],
    sdp.dual_rank_profile: ["dual"],
    ipm.FantopeOps: ["mats", "d"],
    ipm.solve_ipm: ["ops", "tol", "max_iters", "step_frac"],
    certificate.certify: ["c", "u_bar"],
    diagonal.joint_diagonalize: ["c"],
    diagonal.goldman_tucker_dual: ["diag_values", "primal"],
    diagonal.tightness_sweep: ["center", "perturbation_scale", "trials",
                               "seed"],
    harness.run_rop_table: ["family", "grid", "trials", "seed", "jobs"],
    harness.run_cjd_sweep: ["sweep_values", "trials", "d", "k", "family",
                            "seed", "jobs"],
    harness.bench_cell: ["d", "k", "trials", "seed"],
    harness.run_bench: ["d_list", "k_list", "trials", "seed"],
    harness.write_csv: ["path", "rows"],
    harness.write_tsv: ["path", "rows"],
    stiefel.SolverConfig.for_hppca: [],
}

FIELDS = {
    core.StiefelPoint: ["cols"],
    core.ProblemInstance: ["mats", "meta"],
    stiefel.SolverConfig: ["max_iters", "grad_tol", "sdp_tol", "sdp_max_iters",
                           "step_frac"],
    certificate.CertificateResult: ["status", "nu_witness", "min_eig_slacks",
                                    "t_star", "precondition_weak",
                                    "kkt_residuals", "meta"],
}

DELETED = [
    (core, "skew"), (core, "VEC_ORTH_TOL"),
    (core.ProblemInstance, "is_normalized"), (ipm, "_chol"),
    (sdp, "STATUS_INFEASIBLE"), (certificate, "CertificateProblem"),
    (certificate, "certificate_flops_estimate"),
    (certificate, "CertificateNumericalError"), (harness, "MARKER_CERTIFIED"),
    (harness, "MARKER_NOT_TIGHT"), (harness, "MARKER_TIGHT_SUBOPTIMAL"),
    (core, "InstanceMetrics"), (core, "instance_metrics"),
    (sdp, "_polar_any"), (sdp.KktResiduals, "scaled_max"),
    (cli, "_apply_fast"), (ipm, "sym_kron"), (sdp, "gate_unit"),
    (ipm, "stack_blocks"), (ipm, "unstack"), (core, "eigh_desc"),
    (core, "spectral_norm"), (core.ProblemInstance, "spectral_norms"),
    (sdp, "_normalize_for_solve"), (ipm, "eye_stacks"),
    (sdp, "_fantope_start"), (ipm, "dpotrs"), (certificate, "dpotrs"),
    (ipm, "dsymv"),
]


def test_fixed_values_are_constants_not_parameters():
    got = {fn: list(inspect.signature(fn).parameters) for fn in SIGNATURES}
    assert got == SIGNATURES
    got = {cls: [f.name for f in dataclasses.fields(cls)] for cls in FIELDS}
    assert got == FIELDS
    assert [name for owner, name in DELETED if hasattr(owner, name)] == []
    assert (core.ORTH_TOL, core.ROP_TOL, core.TIE_GAP) == (1e-10, 1e-5, 1e-8)
    assert (sdp.RANK_TOL, certificate.CERT_TOL, diagonal.JD_TOL) == (
        1e-7, 1e-7, 1e-8)
    assert stiefel.NEWTON_SWITCH == 1e-4
    assert (certificate.MARGIN_TOL, certificate.VALUE_MARGIN) == (1e-9, 1e-5)


def test_import_leaves_scipy_optimize_unloaded():
    # only the assignment fast path needs it, and it is slow to import
    src = str(Path(stiefelsum.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, stiefelsum; "
            "assert 'scipy.optimize' not in sys.modules, 'imported'")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
