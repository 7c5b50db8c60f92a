"""Values with one setting in use are module constants, not parameters."""

import dataclasses
import inspect

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
    core.polar_factor: ["m"],
    core.procrustes_project: ["m"],
    core.top_eigenpairs: ["x_blocks"],
    core.check_rop_orthogonality: ["x_blocks", "orth_tol"],
    sdp.solve_sdp: ["c", "cfg"],
    sdp.extract_candidate: ["primal"],
    sdp.dual_rank_profile: ["dual"],
    ipm.FantopeOps: ["mats", "d"],
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
