"""Dual certificate of global optimality for stationary points.

Given a stationary U with multiplier matrix L = sum_i U' M_i U E_i, the
point is a global maximizer whenever some nu >= 0 makes every matrix

    U (L - D_nu) U' + nu_i I - M_i   (one per block)   and   L - D_nu

positive semidefinite. Feasibility is decided by maximizing the least
eigenvalue margin t over (nu, t) with a small interior-point solve; a
certified result is re-verified by building the induced primal/dual pair
and checking all optimality residuals, so a CertifiedGlobal verdict is
never returned unverified, and a stalled feasibility solve is the status
NumericalFailure, as in sdp.solve_sdp. Infeasibility of the system is NOT
a proof of suboptimality; that asymmetry is deliberate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import ProblemInstance, StiefelPoint, sym
from .ipm import DenseOps, solve_ipm
from .sdp import (
    KKT_TOL,
    STATUS_NUMERICAL_FAILURE,
    STATUS_OPTIMAL,
    KktResiduals,
    SdpDualSolution,
    check_kkt,
    gate_unit,
    is_tight,
)
from .stiefel import lambda_matrix, objective, riemannian_gradient

STATUS_CERTIFIED = "CertifiedGlobal"
STATUS_INCONCLUSIVE = "Inconclusive"

CLASS_NOT_TIGHT = "SdpNotTight"
CLASS_SUBOPTIMAL = "SuboptimalStationary"
CLASS_UNKNOWN = "Unknown"

CERT_TOL = 1e-7

# stationarity gate; StMM's stationary points (grad_tol 1e-10) pass it
_PRECONDITION_TOL = 1e-6


@dataclass(frozen=True)
class CertificateResult:
    status: str
    nu_witness: np.ndarray | None
    min_eig_slacks: np.ndarray
    t_star: float
    precondition_weak: bool
    kkt_residuals: KktResiduals | None
    meta: dict = field(default_factory=dict)


def _lmi_slacks(c: ProblemInstance, u: np.ndarray, lam_s: np.ndarray,
                nu: np.ndarray) -> np.ndarray:
    """Least eigenvalue of each certificate matrix at the given nu."""
    core_mat = u @ (lam_s - np.diag(nu)) @ u.T
    eye = np.eye(c.d)
    out = [float(np.linalg.eigvalsh(sym(core_mat + nu[i] * eye - c.mats[i]))[0])
           for i in range(c.k)]
    out.append(float(np.linalg.eigvalsh(sym(lam_s - np.diag(nu)))[0]))
    return np.asarray(out)


def _feasibility_ops(c: ProblemInstance, u: np.ndarray, lam_s: np.ndarray,
                     scale: float) -> DenseOps:
    """Margin program: maximize t s.t. each LMI >= t I, nu >= 0.

    Encoded so the internal dual vector is (nu_1..nu_k, t): k blocks of
    size d, one of size k, and k scalar blocks carrying nu_i >= 0."""
    d, k = c.d, c.k
    eye = np.eye(d)
    sizes = [d] * k + [k] + [1] * k
    core_mat = u @ lam_s @ u.T
    cmats = [(core_mat - c.mats[j]) / scale for j in range(k)]
    cmats.append(lam_s / scale)
    cmats.extend(np.zeros((1, 1)) for _ in range(k))

    outer = [np.outer(u[:, p], u[:, p]) for p in range(k)]
    amats = []
    for p in range(k):
        row = [outer[p] - (eye if j == p else 0.0) for j in range(k)]
        ek = np.zeros((k, k))
        ek[p, p] = 1.0
        row.append(ek)
        row.extend(np.array([[-1.0]]) if i == p else None for i in range(k))
        amats.append(row)
    trow = [eye] * k + [np.eye(k)] + [None] * k
    amats.append(trow)

    b = np.zeros(k + 1)
    b[k] = 1.0
    return DenseOps(sizes, amats, b, cmats)


def _feasibility_start(ops: DenseOps, k: int):
    """Dual-feasible warm start: nu = 1, t below every block's least eig."""
    y0 = np.ones(k + 1)
    slack = [ops.C[j] - a for j, a in enumerate(ops.apply_AT(np.append(np.ones(k), 0.0)))]
    t0 = min(float(np.linalg.eigvalsh(sym(s))[0]) for s in slack[:k + 1]) - 1.0
    y0[k] = t0
    aty = ops.apply_AT(y0)
    z0 = [sym(ops.C[j] - aty[j]) for j in range(len(ops.block_sizes))]
    rho = 1.0 / sum(ops.block_sizes)
    x0 = [rho * np.eye(n) for n in ops.block_sizes]
    return x0, y0, z0


def certify(c: ProblemInstance, u_bar: StiefelPoint) -> CertificateResult:
    """Decide the certificate system at a (near-)stationary point.

    The verdict is computed from freshly evaluated eigenvalue slacks at the
    recovered witness, which must clear -CERT_TOL, and a CertifiedGlobal
    result additionally passes the induced primal/dual optimality check
    within KKT_TOL. Both gates are relative to sdp.gate_unit(c). Weak
    stationarity of u_bar does not abort the computation; it only flags
    the result. A stalled feasibility solve is reported, not raised: status
    NumericalFailure, no witness, NaN t_star and slacks, the stall in
    meta["gate"].
    """
    if not isinstance(u_bar, StiefelPoint):
        u_bar = StiefelPoint(np.asarray(u_bar, dtype=float))
    u = u_bar.cols
    if u.shape != (c.d, c.k):
        raise ValueError("candidate shape does not match the instance")
    lam = lambda_matrix(c, u_bar)
    lam_s = sym(lam.matrix)
    rg = float(np.linalg.norm(riemannian_gradient(c, u)))
    weak = lam.symmetry_residual > _PRECONDITION_TOL or rg > _PRECONDITION_TOL
    meta = {"grad_norm": rg, "symmetry_residual": lam.symmetry_residual}

    def verdict(slacks, t_star, status=STATUS_INCONCLUSIVE, nu=None, kkt=None,
                gate=None):
        if gate is not None:
            meta["gate"] = gate
        return CertificateResult(
            status=status, nu_witness=nu, min_eig_slacks=slacks, t_star=t_star,
            precondition_weak=weak, kkt_residuals=kkt, meta=meta)

    # necessary condition: L - D_nu >= 0 with nu >= 0 forces L >= 0
    lam_min = float(np.linalg.eigvalsh(lam_s)[0])
    if lam_min < -_PRECONDITION_TOL:
        return verdict(_lmi_slacks(c, u, lam_s, np.zeros(c.k)), lam_min,
                       gate="multiplier matrix indefinite")

    s = gate_unit(c)
    scale = max(s, float(np.linalg.norm(lam_s, 2)))
    ops = _feasibility_ops(c, u, lam_s, scale)
    x0, y0, z0 = _feasibility_start(ops, c.k)
    res = solve_ipm(ops, x0, y0, z0, tol=1e-9, max_iters=100)
    if res.status != "optimal":  # no verdict: nothing here reads as certified
        stall = "feasibility solve stalled (pinf=%.2e dinf=%.2e gap=%.2e)" % (
            res.pinf, res.dinf, res.relgap)
        return verdict(np.full(c.k + 1, np.nan), float("nan"),
                       STATUS_NUMERICAL_FAILURE, gate=stall)

    nu = np.clip(res.y[:c.k] * scale, 0.0, None)
    t_star = float(res.y[c.k]) * scale
    slacks = _lmi_slacks(c, u, lam_s, nu)
    meta["ipm_iterations"] = res.iterations

    # NaN fails too
    if not (slacks.min() >= -CERT_TOL * s and t_star >= -CERT_TOL * s):
        return verdict(slacks, t_star)

    # rebuild the induced optimal pair and verify before claiming anything
    y_mat = sym(u @ (lam_s - np.diag(nu)) @ u.T)
    z_blocks = tuple(sym(y_mat + nu[i] * np.eye(c.d) - c.mats[i])
                     for i in range(c.k))
    x_blocks = [np.outer(u[:, i], u[:, i]) for i in range(c.k)]
    dual = SdpDualSolution(y=y_mat, z_blocks=z_blocks, nu=nu,
                           objective=-(float(np.trace(y_mat)) + float(np.sum(nu))))
    kkt = check_kkt(c, x_blocks, dual)
    if not kkt.max_residual <= KKT_TOL:  # NaN fails too
        return verdict(slacks, t_star, kkt=kkt,
                       gate="constructed pair failed verification")
    return verdict(slacks, t_star, STATUS_CERTIFIED, nu=nu, kkt=kkt)


def classify_inconclusive(c: ProblemInstance, u_bar: StiefelPoint,
                          sdp_report=None) -> str:
    """Attribute an inconclusive certificate when an Optimal relaxation
    solve exists.

    A solve that fails sdp.is_tight explains it directly; a tight
    relaxation whose value strictly exceeds the candidate's objective means
    the candidate is a suboptimal stationary point; anything else,
    including a missing or non-Optimal solve, stays Unknown."""
    if sdp_report is None or sdp_report.status != STATUS_OPTIMAL:
        return CLASS_UNKNOWN
    if not is_tight(sdp_report):
        return CLASS_NOT_TIGHT
    if objective(c, u_bar) < sdp_report.value - 1e-5:
        return CLASS_SUBOPTIMAL
    return CLASS_UNKNOWN

