"""Dual certificate of global optimality for stationary points.

Given a stationary U with multiplier matrix L = sum_i U' M_i U E_i, the
point is a global maximizer whenever some nu >= 0 makes every matrix

    U (L - D_nu) U' + nu_i I - M_i   (one per block)   and   L - D_nu

positive semidefinite. Feasibility is decided by a small interior-point
solve of the margin program (maximize t with every matrix >= t I) that
stops at the first iterate whose nu clears the verdict's slack gate; a
point that never clears it runs to the margin's optimum. A certified result
is re-verified by building the induced primal/dual pair and checking all
optimality residuals, so a CertifiedGlobal verdict is never returned
unverified, and a stalled feasibility solve is the status NumericalFailure,
as in sdp.solve_sdp. Infeasibility of the system is NOT a proof of
suboptimality; that asymmetry is deliberate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import ProblemInstance, StiefelPoint, sym
from .ipm import DenseOps, eye_stacks, least_eigenvalues, solve_ipm
from .sdp import (
    KKT_TOL,
    STATUS_NUMERICAL_FAILURE,
    STATUS_OPTIMAL,
    KktResiduals,
    SdpDualSolution,
    check_kkt,
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
    """t_star is min(min_eig_slacks), the least slack at the returned nu
    (the multiplier matrix's least eigenvalue when that gate fails first)."""

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
    blocks = core_mat + nu[:, None, None] * np.eye(c.d) - c.mats
    return np.append(least_eigenvalues(sym(blocks)),
                     least_eigenvalues(sym(lam_s - np.diag(nu))[None]))


def _complete_basis(u: np.ndarray) -> np.ndarray:
    """Q = [U, W] with W an orthonormal basis of U's orthogonal complement."""
    q = np.linalg.qr(u, mode="complete")[0]
    q[:, :u.shape[1]] = u
    return q


def _feasibility_ops(c: ProblemInstance, u: np.ndarray, lam_s: np.ndarray,
                     scale: float) -> DenseOps:
    """Margin program: maximize t s.t. each LMI >= t I, nu >= 0.

    The dual vector is (nu_1..nu_k, t) over three stacks: k blocks of size
    d, one of size k, and k scalar blocks carrying nu_i >= 0. The d-blocks
    are written in the basis Q = _complete_basis(u), where Q'U = [I; 0] and
    so block j's coefficient of nu_p is diag(e_p - [p = j] 1): every
    constraint matrix is diagonal."""
    d, k = c.d, c.k
    q = _complete_basis(u)
    core = np.zeros((d, d))
    core[:k, :k] = lam_s
    cmats = [sym(core - q.T @ c.mats @ q) / scale, lam_s[None] / scale,
             np.zeros((k, 1, 1))]
    base = np.eye(d, k + 1)  # columns e_1..e_k, then t's all-ones column
    base[:, k] = 1.0
    unit = np.eye(k, k + 1)[:, None]  # unit[j] = e_j' as a 1 x (k + 1) row
    diags = [base - unit, base[None, :k], -unit]
    return DenseOps(diags, np.append(np.zeros(k), 1.0), cmats)


def _feasibility_start(ops: DenseOps, k: int):
    """Dual-feasible warm start: nu = 1, t below every block's least eig."""
    y0 = np.append(np.ones(k), 0.0)
    slack = [cj - a for cj, a in zip(ops.C, ops.apply_AT(y0))]
    # the least eigenvalue over the LMI blocks: the d-stack and the k-block
    y0[k] = min(float(least_eigenvalues(sym(s)).min())
                for s in slack[:2]) - 1.0
    z0 = [sym(cj - a) for cj, a in zip(ops.C, ops.apply_AT(y0))]
    rho = 1.0 / sum(cj.shape[0] * cj.shape[1] for cj in ops.C)
    return [rho * e for e in eye_stacks(ops)], y0, z0


def certify(c: ProblemInstance, u_bar: StiefelPoint) -> CertificateResult:
    """Decide the certificate system at a (near-)stationary point.

    The verdict is computed from freshly evaluated eigenvalue slacks at the
    recovered witness, which must clear -CERT_TOL, and a CertifiedGlobal
    result additionally passes the induced primal/dual optimality check
    within KKT_TOL. Both gates are relative to c.gate_unit, which the
    instance computes once. Weak stationarity of u_bar does not abort the
    computation; it only flags the result. A stalled feasibility solve is
    reported, not raised: status NumericalFailure, no witness, NaN t_star
    and slacks, the stall in meta["gate"]. meta["schur_shift"] is the largest
    diagonal shift the feasibility IPM's Schur factorization needed, and
    meta["ipm_stop"] its status: "feasible" when it stopped on the gate.
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

    s = c.gate_unit
    scale = max(s, float(np.linalg.norm(lam_s, 2)))
    ops = _feasibility_ops(c, u, lam_s, scale)
    x0, y0, z0 = _feasibility_start(ops, c.k)

    def witness(y):
        return np.clip(y[:c.k] * scale, 0.0, None)

    tried = {}  # the slacks at the last iterate the gate was tried on

    def clears(y):  # the verdict's slack gate, tried at every iterate
        tried["slacks"] = _lmi_slacks(c, u, lam_s, witness(y))
        return tried["slacks"].min() >= -CERT_TOL * s

    res = solve_ipm(ops, x0, y0, z0, tol=1e-9, max_iters=100, stop=clears)
    meta.update(schur_shift=res.schur_shift, ipm_iterations=res.iterations,
                ipm_stop=res.status)
    # a stall has no verdict: nothing here reads as certified
    if res.status not in ("optimal", "feasible"):
        stall = "feasibility solve stalled (pinf=%.2e dinf=%.2e gap=%.2e)" % (
            res.pinf, res.dinf, res.relgap)
        return verdict(np.full(c.k + 1, np.nan), float("nan"),
                       STATUS_NUMERICAL_FAILURE, gate=stall)

    nu = witness(res.y)
    # a "feasible" stop returns the y its last gate call was made at
    slacks = (tried["slacks"] if res.status == "feasible"
              else _lmi_slacks(c, u, lam_s, nu))
    t_star = float(slacks.min())
    if not t_star >= -CERT_TOL * s:  # NaN fails too
        return verdict(slacks, t_star)

    # rebuild the induced optimal pair and verify before claiming anything
    y_mat = sym(u @ (lam_s - np.diag(nu)) @ u.T)
    z_blocks = tuple(sym(y_mat + nu[:, None, None] * np.eye(c.d) - c.mats))
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
    relaxation whose value strictly exceeds the objective of a stationary
    candidate (Riemannian gradient within _PRECONDITION_TOL) means a
    suboptimal stationary point; anything else, including a missing or
    non-Optimal solve or an unconverged candidate, stays Unknown."""
    if sdp_report is None or sdp_report.status != STATUS_OPTIMAL:
        return CLASS_UNKNOWN
    if not is_tight(sdp_report):
        return CLASS_NOT_TIGHT
    rg = float(np.linalg.norm(riemannian_gradient(c, u_bar)))
    if not rg <= _PRECONDITION_TOL:  # NaN is not stationary either
        return CLASS_UNKNOWN
    if objective(c, u_bar) < sdp_report.value - 1e-5:
        return CLASS_SUBOPTIMAL
    return CLASS_UNKNOWN
