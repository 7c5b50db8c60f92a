"""Semidefinite relaxation of the orthonormal quadratic-sum problem.

The relaxation replaces each u_i u_i' by a PSD block X_i with unit trace and
couples the blocks through sum_i X_i <= I. Its dual carries (Y, Z_i, nu_i)
with Y = M_i + Z_i - nu_i I blockwise. This module solves both, checks the
five KKT residuals, extracts orthonormal candidates from the primal blocks,
and decides whether a solve is tight.

Sign convention: the solver minimizes the negated objective; reports expose
the minimization optimum p* and the maximized value -p*.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ROP_TOL,
    SOLVER_ORTH_TOL,
    ProblemInstance,
    StiefelPoint,
    orthogonal_rank_one,
    rop_error,
    shift_and_scale,
    spectral_norms,
    sym,
    top_eigenpairs,
)
from .ipm import FantopeOps, least_eigenvalues, smat, solve_ipm
from .stiefel import SolverConfig

STATUS_OPTIMAL = "Optimal"
STATUS_NUMERICAL_FAILURE = "NumericalFailure"

GAP_TOL = 1e-7
KKT_TOL = 1e-6
RANK_TOL = 1e-7


@dataclass(frozen=True)
class SdpPrimalSolution:
    """Primal blocks X_i and the minimization optimum p*."""

    x_blocks: tuple
    objective: float

    @property
    def value(self) -> float:
        # the maximized quadratic-sum value
        return -self.objective


@dataclass(frozen=True)
class SdpDualSolution:
    y: np.ndarray
    z_blocks: tuple
    nu: np.ndarray
    objective: float


@dataclass(frozen=True)
class KktResiduals:
    """The five stationarity residuals, all reported as nonnegative reals.

    primal: block PSD-ness, unit traces, and the sum bound.
    dual_eq: Y - M_i - Z_i + nu_i I blockwise, plus PSD-ness of Y.
    slack_comp: <I - sum X_i, Y>.
    block_comp: max_i <Z_i, X_i>.
    dual_cone: PSD-ness of the Z_i.
    """

    primal: float
    dual_eq: float
    slack_comp: float
    block_comp: float
    dual_cone: float

    @property
    def max_residual(self) -> float:
        # np.max, unlike max(), propagates a NaN in any position
        return float(np.max([self.primal, self.dual_eq, self.slack_comp,
                             self.block_comp, self.dual_cone]))


@dataclass(frozen=True)
class SolveReport:
    status: str
    primal: SdpPrimalSolution
    dual: SdpDualSolution
    gap: float
    kkt_residuals: KktResiduals
    iterations: int
    wall_time: float
    rop_err: float
    meta: dict = field(default_factory=dict)

    @property
    def value(self) -> float:
        return self.primal.value


def _blocks_of(primal):
    if isinstance(primal, SolveReport):
        return list(primal.primal.x_blocks)
    if isinstance(primal, SdpPrimalSolution):
        return list(primal.x_blocks)
    return [np.asarray(b, dtype=float) for b in primal]


def check_kkt(c: ProblemInstance, primal, dual: SdpDualSolution) -> KktResiduals:
    """Residuals of the five optimality conditions for a primal/dual pair.

    The M_i and the dual are divided by s = c.gate_unit first, so the four
    dual-side residuals are in units of s and cannot overflow."""
    x = np.array(_blocks_of(primal))
    s = c.gate_unit
    mats = c.mats / s
    y, z, nu = dual.y / s, np.array(dual.z_blocks) / s, dual.nu / s
    eye = np.eye(c.d)
    xsum = x.sum(axis=0)

    # each check reads one end of a spectrum; lambda_max(A) = -lambda_min(-A)
    res_primal = max(
        0.0,
        -float(least_eigenvalues(sym(x)).min()),
        float(np.abs(np.trace(x, axis1=1, axis2=2) - 1.0).max()),
        -float(least_eigenvalues(-sym(xsum)[None])[0]) - 1.0)
    res_dual_eq = max(
        0.0,
        -float(least_eigenvalues(sym(y)[None])[0]),
        float(np.linalg.norm(y - mats - z + nu[:, None, None] * eye,
                             axis=(1, 2)).max()))
    res_slack = abs(float(np.sum((eye - xsum) * y)))
    res_block = float(np.abs(np.sum(z * x, axis=(1, 2))).max())
    res_cone = max(0.0, -float(least_eigenvalues(sym(z)).min()))
    return KktResiduals(res_primal, res_dual_eq, res_slack, res_block, res_cone)


def _recover_coupling_dual(ops, res, scale):
    """Input-unit (Y, Z_i, nu) from the solver's internal variables."""
    k, z = ops.k, res.z
    if ops.has_slack:
        y_mat = sym(z[-1]) * scale
        nu = -res.y[:k] * scale
    else:
        # sum X_i = I exactly: shift the equality multiplier into the cone
        y_raw = -smat(res.y[k:], ops.d)
        c = max(0.0, -float(np.linalg.eigvalsh(sym(y_raw))[0]))
        y_mat = sym(y_raw + c * np.eye(ops.d)) * scale
        nu = (-res.y[:k] - c) * scale
    return y_mat, tuple(sym(z[:k]) * scale), nu


def _status_from(res, gap, kkt_max, p, dd):
    # written as "not x <= tol" so that NaN fails every gate
    reasons = []
    if res.status != "optimal":
        reasons.append("solver did not converge")
    if not gap <= GAP_TOL * (1.0 + abs(p) + abs(dd)):
        reasons.append("duality gap above tolerance")
    if not kkt_max <= KKT_TOL:
        reasons.append("KKT residual above tolerance")
    if reasons:
        return STATUS_NUMERICAL_FAILURE, "; ".join(reasons)
    return STATUS_OPTIMAL, ""


def solve_sdp(c: ProblemInstance, cfg: SolverConfig | None = None) -> SolveReport:
    """Solve the relaxation and self-verify the reported optimality.

    Inputs need not be normalized or PSD: core.shift_and_scale's uniform
    eigenvalue shift and global scale are applied internally and mapped
    back, and recorded as meta["psd_shift"] and meta["scale"].
    meta["ipm"] is the IPM run's IpmResult.summary(): its stop status,
    the exit that ended it (stop_reason), iterations, final residuals,
    the largest diagonal shift its Schur factorization needed
    (schur_shift, 0.0 for none), the iterations whose Schur complement was
    factored in float32 (single_iterations) and the refinement steps over
    every Schur solve (refine_steps). A report is never
    labeled Optimal unless the duality gap and all five KKT residuals
    (check_kkt's, relative to c.gate_unit) pass GAP_TOL and KKT_TOL;
    meta["reason"] names the gates that failed ("" for none).
    """
    cfg = cfg or SolverConfig()
    t0 = time.perf_counter()
    mats_s, shift, scale = shift_and_scale(c.mats)
    ops = FantopeOps(mats_s, c.d)
    res = solve_ipm(ops, tol=cfg.sdp_tol, max_iters=cfg.sdp_max_iters,
                    step_frac=cfg.step_frac)

    x_blocks = tuple(sym(res.x[:c.k]))
    y_mat, z_blocks, nu = _recover_coupling_dual(ops, res, scale)
    nu = nu - shift

    p = -sum(float(np.sum(m * x)) for m, x in zip(c.mats, x_blocks))
    dd = -(float(np.trace(y_mat)) + float(np.sum(nu)))
    gap = abs(p - dd)

    dual = SdpDualSolution(y=y_mat, z_blocks=z_blocks,
                           nu=np.asarray(nu, dtype=float), objective=dd)
    kkt = check_kkt(c, x_blocks, dual)
    status, reason = _status_from(res, gap, kkt.max_residual, p, dd)

    return SolveReport(
        status=status,
        primal=SdpPrimalSolution(x_blocks=x_blocks, objective=p),
        dual=dual,
        gap=gap,
        kkt_residuals=kkt,
        iterations=res.iterations,
        wall_time=time.perf_counter() - t0,
        rop_err=rop_error(x_blocks),
        meta={
            "psd_shift": shift,
            "scale": scale,
            "ipm": res.summary(),
            "reason": reason,
        },
    )


def is_tight(report: SolveReport) -> bool:
    """The one definition of a tight relaxation solve.

    The solve must be Optimal, its blocks rank-one within ROP_TOL, and their
    top eigenvectors orthogonal with a projection for their sum (checked at
    core.SOLVER_ORTH_TOL). A NaN rank-one error is never tight; the
    report's rop_err is the rank-one check, so only the orthogonality is
    computed here, from one batched eigendecomposition of the blocks."""
    if report.status != STATUS_OPTIMAL or not report.rop_err <= ROP_TOL:
        return False
    return orthogonal_rank_one(np.array(report.primal.x_blocks),
                               SOLVER_ORTH_TOL)


def extract_candidate(primal):
    """Orthonormal candidate from the top eigenvector of each block.

    Returns (point, rop_err, tie_flags). Ties in a block's top eigenvalue
    are flagged, never fatal; the candidate is always produced: it is the
    polar factor of the stacked eigenvectors, taken even when they lose
    rank."""
    blocks = _blocks_of(primal)
    vecs, ties = top_eigenpairs(blocks)
    u, _, vt = np.linalg.svd(vecs, full_matrices=False)
    return StiefelPoint(u @ vt), rop_error(blocks), ties


def dual_rank_profile(dual: SdpDualSolution) -> np.ndarray:
    """Numerical rank of each Z_i: eigenvalues above RANK_TOL * ||Z_i||."""
    z = sym(np.array(dual.z_blocks))
    nrm = spectral_norms(z)
    # an all-zero Z_i has no eigenvalue above 0 = RANK_TOL * 0: rank 0
    return np.sum(np.linalg.eigvalsh(z) > RANK_TOL * nrm[:, None], axis=1)
