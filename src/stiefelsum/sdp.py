"""Semidefinite relaxation of the orthonormal quadratic-sum problem.

The relaxation replaces each u_i u_i' by a PSD block X_i with unit trace and
couples the blocks through sum_i X_i <= I. Its dual carries (Y, Z_i, nu_i)
with Y = M_i + Z_i - nu_i I blockwise. This module solves both, checks the
five KKT residuals, extracts orthonormal candidates from the primal blocks,
and decides whether a solve is tight.

Sign convention: reports are in the maximization's sign, as the paper
states the relaxation and its dual. The primal value is sum_i <M_i, X_i>
and the dual value tr Y + sum_i nu_i, which bounds every Stiefel objective
from above. Only the interior-point solver (ipm) minimizes the negated
objective, and solve_sdp maps its output back in one place.
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
from .ipm import FantopeOps, least_eigenvalues, solve_ipm
from .stiefel import SolverConfig

STATUS_OPTIMAL = "Optimal"
STATUS_NUMERICAL_FAILURE = "NumericalFailure"

GAP_TOL = 1e-7
KKT_TOL = 1e-6
RANK_TOL = 1e-7


@dataclass(frozen=True)
class SdpPrimalSolution:
    """The primal blocks X_i as one (k, d, d) stack, and its value
    sum_i <M_i, X_i>."""

    x_blocks: np.ndarray
    value: float


@dataclass(frozen=True)
class SdpDualSolution:
    """The dual (Y, Z_i, nu_i), with the Z_i as one (k, d, d) stack."""

    y: np.ndarray
    z_blocks: np.ndarray
    nu: np.ndarray

    @property
    def value(self) -> float:
        """tr Y + sum_i nu_i, the dual objective."""
        return float(np.trace(self.y)) + float(np.sum(self.nu))


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
    """A relaxation solve: its primal and dual, in the maximization's
    sign, gap = |primal value - dual value|, and the checks behind status.
    """

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


def _blocks_of(primal) -> np.ndarray:
    """The (k, d, d) block stack of a report, a primal or a sequence of
    blocks."""
    if isinstance(primal, SolveReport):
        primal = primal.primal
    if isinstance(primal, SdpPrimalSolution):
        return primal.x_blocks
    return np.asarray(primal, dtype=float)


def _nonnegative_max(*values) -> float:
    """max(0.0, *values), but NaN when any value is NaN: np.max, unlike
    max(), propagates a NaN in any position. Adding 0.0 makes a zero
    maximum +0.0, as max(0.0, ...) gives."""
    return float(np.max((0.0,) + values)) + 0.0


def check_kkt(c, primal, dual: SdpDualSolution) -> KktResiduals:
    """Residuals of the five optimality conditions for a primal/dual pair.

    The dual is read in the units of the instance's view (M_i + c I) / s
    (core.ProblemInstance.view), so the four dual-side residuals are in
    units of s = c.gate_unit, and no finite M_i overflows them. c is the
    instance, whose dual, a report's, is read against c.view as Y / s,
    Z_i / s and (nu_i + c) / s; or a view stack itself, whose dual is
    already in its units (solve_sdp's and certify's, which can exceed the
    double range in the units of the M_i)."""
    x = _blocks_of(primal)
    view, y, z, nu = c, dual.y, dual.z_blocks, dual.nu
    if isinstance(c, ProblemInstance):
        s = c.gate_unit
        view, y, z, nu = c.view, y / s, z / s, nu / s + c.psd_shift / s
    eye = np.eye(view.shape[1])
    xsum = x.sum(axis=0)

    # each check reads one end of a spectrum; lambda_max(A) = -lambda_min(-A)
    res_primal = _nonnegative_max(
        -float(least_eigenvalues(sym(x)).min()),
        float(np.abs(np.trace(x, axis1=1, axis2=2) - 1.0).max()),
        -float(least_eigenvalues(-sym(xsum)[None])[0]) - 1.0)
    res_dual_eq = _nonnegative_max(
        -float(least_eigenvalues(sym(y)[None])[0]),
        float(np.linalg.norm(y - view - z + nu[:, None, None] * eye,
                             axis=(1, 2)).max()))
    res_slack = abs(float(np.sum((eye - xsum) * y)))
    res_block = float(np.abs(np.sum(z * x, axis=(1, 2))).max())
    res_cone = _nonnegative_max(-float(least_eigenvalues(sym(z)).min()))
    return KktResiduals(res_primal, res_dual_eq, res_slack, res_block, res_cone)


def _status_from(res, gap, kkt_max, p, dd, mapped=()):
    # written as "not x <= tol" so that NaN fails every gate; gap, p and dd
    # are the view's, whose norm is 1, so every tolerance is a bare number;
    # mapped are the report's value and gap in the units of the M_i, which
    # must be finite
    reasons = []
    if res.status != "optimal":
        reasons.append("solver did not converge")
    if not gap <= GAP_TOL * (1.0 + abs(p) + abs(dd)):
        reasons.append("duality gap above tolerance")
    if not kkt_max <= KKT_TOL:
        reasons.append("KKT residual above tolerance")
    if not np.all(np.isfinite(mapped)):
        reasons.append("value beyond the double range")
    if reasons:
        return STATUS_NUMERICAL_FAILURE, "; ".join(reasons)
    return STATUS_OPTIMAL, ""


def solve_sdp(c: ProblemInstance, cfg: SolverConfig | None = None) -> SolveReport:
    """Solve the relaxation and self-verify the reported optimality.

    Inputs need not be normalized or PSD: the relaxation is solved and
    judged on the instance's view V_i = (M_i + c I) / s
    (core.ProblemInstance.view), as stmm_solve and certify are, and its
    dual is mapped back to the units of the M_i once, as Y = s Y_V,
    Z_i = s Z_V,i and nu_i = s (nu_V,i - c / s); meta["psd_shift"] and
    meta["scale"] record c and s. At k = d, where the coupling forces
    X_k = I - sum_{i<k} X_i, the IPM solves the relaxation of the view's
    reduced blocks V_i - V_k, i < k, with X_k as its slack, normalized by
    the same rule (core.shift_and_scale). A view is the same for every
    a M_i + b I with a > 0, so no verdict depends on a or b, and a
    power-of-two multiple of the M_i changes no bit of X and scales the
    dual exactly.
    meta["ipm"] is the IPM run's IpmResult.summary(): its stop status,
    the exit that ended it (stop_reason), iterations, final residuals,
    the largest diagonal shift its Schur factorization needed
    (schur_shift, 0.0 for none), the iterations whose Schur complement was
    factored in float32 (single_iterations), the refinement steps over
    every Schur solve (refine_steps) and the extra corrector directions
    solved on the iterations' factors (corrector_solves). A report is never
    labeled Optimal unless, on the view, the duality gap
    (gap <= GAP_TOL (1 + |p| + |dd|)) and all five KKT residuals
    (check_kkt's) pass GAP_TOL and KKT_TOL, and its primal and dual values
    are finite in the units of the M_i; meta["reason"] names the gates
    that failed ("" for none). An instance whose spectral norm overflows
    raises ValueError (gate_unit) first.
    """
    cfg = cfg or SolverConfig()
    t0 = time.perf_counter()
    view, s = c.view, c.gate_unit  # bad input raises here, first
    # at k = d the coupling forces X_k = I - sum_{i<k} X_i: the relaxation
    # of the view's blocks V_i - V_k, i < k, whose slack is X_k
    mats, shift, scale = (shift_and_scale(view[:-1] - view[-1])
                          if c.k == c.d else (view, 0.0, 1.0))
    ops = FantopeOps(mats, c.d)
    res = solve_ipm(ops, max_iters=cfg.sdp_max_iters)

    # back to the maximization's sign on the view: the IPM minimized the
    # negated objective, so the nu_i are its negated trace multipliers; at
    # k = d, X_k and Z_k are the slack and its dual Y'
    x_blocks = sym(res.x[:c.k])
    z_blocks = sym(res.z[:c.k]) * scale
    y_mat = sym(res.z[-1]) * scale
    nu = -res.y[:ops.k] * scale - shift
    if ops.k < c.k:
        # nu_k = lambda_min(Y' + V_k), Y = Y' + V_k - nu_k I and nu_i + nu_k
        # for i < k: every dual equation holds, and Y is PSD
        nu_k = float(least_eigenvalues((y_mat + view[-1])[None])[0])
        y_mat = y_mat + view[-1] - nu_k * np.eye(c.d)
        nu = np.append(nu + nu_k, nu_k)
    dual = SdpDualSolution(y=y_mat, z_blocks=z_blocks, nu=nu)  # on the view
    kkt = check_kkt(view, x_blocks, dual)
    p_view, d_view = float(np.sum(view * x_blocks)), dual.value

    # beyond the double range is inf, and inf - inf is NaN
    with np.errstate(over="ignore", invalid="ignore"):
        p = sum(float(np.sum(m * x)) for m, x in zip(c.mats, x_blocks))
        dual = SdpDualSolution(y=s * y_mat, z_blocks=s * z_blocks,
                               nu=s * (nu - c.psd_shift / s))
        gap = abs(p - dual.value)
    status, reason = _status_from(res, abs(p_view - d_view), kkt.max_residual,
                                  p_view, d_view, (p, gap))

    return SolveReport(
        status=status,
        primal=SdpPrimalSolution(x_blocks=x_blocks, value=p),
        dual=dual,
        gap=gap,
        kkt_residuals=kkt,
        iterations=res.iterations,
        wall_time=time.perf_counter() - t0,
        rop_err=rop_error(x_blocks),
        meta={
            "psd_shift": c.psd_shift,
            "scale": s,
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
    return orthogonal_rank_one(report.primal.x_blocks, SOLVER_ORTH_TOL)


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
    z = sym(dual.z_blocks)
    nrm = spectral_norms(z)
    # an all-zero Z_i has no eigenvalue above 0 = RANK_TOL * 0: rank 0
    return np.sum(np.linalg.eigvalsh(z) > RANK_TOL * nrm[:, None], axis=1)
