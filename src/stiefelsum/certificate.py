"""Dual certificate of global optimality for stationary points.

Given a stationary U with multiplier matrix L = sum_i U' M_i U E_i, the
point is a global maximizer whenever some nu >= 0 makes every matrix

    U (L - D_nu) U' + nu_j I - M_j   (one per block)   and   L - D_nu

positive semidefinite. In the basis [U, W V_j], with W an orthonormal basis
of U's complement and W' M_j W = V_j Theta_j V_j', block j is an arrowhead
matrix: a dense k x k corner, the diagonal tail nu_j I - Theta_j and a
constant border. Its row and column j vanish at a stationary point, and
dropping them (the deflation) leaves a principal submatrix, whose least
eigenvalue is at least the full block's. After this one O(k d^3)
reduction, the deflated margin program (maximize t with every deflated
block and L - D_nu at least t I) has the k + 1 unknowns z = (nu, t); a
log-barrier path-following solve, O(k^3 d) per Newton step, stops at the
first nu that clears the verdict's full-block slack gate, or once a bound
proves that no nu can.

The program, its slack gate and the dual pair a nu induces all live in
the instance's view (M_i + c I) / s, c = c.psd_shift and s = c.gate_unit
(core.ProblemInstance.view). There L is (L + c I) / s, a program nu' is
(nu + c) / s, every block is the full block over s, and each gate
compares with a bare tolerance. The witness nu = s (nu' - c / s), the
slacks and t_star are mapped back to the units of the M_i once, where the
result is written; the pair is verified where it was built, since in the
units of the M_i it can exceed the double range. Adding a I to every
M_i moves L and the witness by a and changes no program, so no verdict.
Its nu' >= 0 cuts no certificate, since every block V_j of the view is
PSD: for k < d the tail of block j forces nu'_j >= lambda_max(W' V_j W)
>= 0, and for k = d each Z_j >= 0 gives Y >= V_j - nu'_j I >= -nu'_j I,
so the dual's lineality (Y + a I, nu' - a 1), a = min(0, min_j nu'_j),
moves any certificate into nu' >= 0.

The slack gate evaluates the dual pair that nu induces (_induced_pair),
and a certified result re-verifies that same pair, with X_i = u_i u_i',
against all optimality residuals, so neither a CertifiedGlobal verdict nor
a wrong reduction goes unverified. A failed margin solve, or a gate that
raises LinAlgError, is the status NumericalFailure, as in sdp.solve_sdp.
Infeasibility of the system is NOT a proof of suboptimality; that
asymmetry is deliberate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import ProblemInstance, StiefelPoint, sym
from .ipm import _factor_schur, _solve_factor, least_eigenvalues
from .sdp import (
    KKT_TOL,
    STATUS_NUMERICAL_FAILURE,
    STATUS_OPTIMAL,
    KktResiduals,
    SdpDualSolution,
    check_kkt,
    is_tight,
)
from .stiefel import _cols, _evaluate

STATUS_CERTIFIED = "CertifiedGlobal"
STATUS_INCONCLUSIVE = "Inconclusive"

CLASS_NOT_TIGHT = "SdpNotTight"
CLASS_SUBOPTIMAL = "SuboptimalStationary"
CLASS_UNKNOWN = "Unknown"

CERT_TOL = 1e-7
# the margin solve's stop tolerance on its optimality gap, for a point that
# never clears the gate
MARGIN_TOL = 1e-9
# how far, on the view, a stationary candidate's objective must fall below
# a tight relaxation's value to be called suboptimal
VALUE_MARGIN = 1e-5

# stationarity gate on the view; StMM's stationary points
# (grad_tol 1e-10) pass it
_PRECONDITION_TOL = 1e-6

# Newton steps of the margin solve; the count grows with the barrier
# parameter k (d + 1): the benchmark's solves take 20-30, HPPCA (400, 5)
# 56-97 and HPPCA (200, 20) 237-315
_MAX_NEWTON = 2000


@dataclass(frozen=True)
class CertificateResult:
    """t_star is min(min_eig_slacks), the least slack at the returned nu
    (lambda_min(L + psd_shift I) when the multiplier gate fails first)."""

    status: str
    nu_witness: np.ndarray | None
    min_eig_slacks: np.ndarray
    t_star: float
    precondition_weak: bool
    kkt_residuals: KktResiduals | None
    meta: dict = field(default_factory=dict)


def _induced_pair(mats: np.ndarray, u: np.ndarray, lam: np.ndarray,
                  nu: np.ndarray):
    """The dual pair that nu induces for the (k, d, d) stack mats and the
    multiplier matrix lam, Y = U (lam - D_nu) U' and Z_j = Y + nu_j I -
    M_j, and its slacks: the least eigenvalue of each Z_j, then that of
    lam - D_nu. Returns (SdpDualSolution, slacks)."""
    core_mat = u @ (lam - np.diag(nu)) @ u.T
    z_blocks = sym(core_mat + nu[:, None, None] * np.eye(u.shape[0]) - mats)
    slacks = np.append(least_eigenvalues(z_blocks),
                       least_eigenvalues(sym(lam - np.diag(nu))[None]))
    return SdpDualSolution(y=sym(core_mat), z_blocks=z_blocks, nu=nu), slacks


def _complete_basis(u: np.ndarray) -> np.ndarray:
    """Q = [U, W] with W an orthonormal basis of U's orthogonal complement."""
    q = np.linalg.qr(u, mode="complete")[0]
    q[:, :u.shape[1]] = u
    return q


@dataclass(frozen=True)
class _Arrowheads:
    """A stack of m LMIs in z = (nu, t), each the arrowhead matrix

        [[corner + diag(ccoef @ z),  border                       ],
         [border',                   diag(tcoef @ z - theta)      ]]

    of a dense n x n corner and a diagonal p x p tail."""

    corner: np.ndarray  # (m, n, n)
    ccoef: np.ndarray  # (m, n, k + 1)
    border: np.ndarray  # (m, n, p)
    theta: np.ndarray  # (m, p)
    tcoef: np.ndarray  # (m, k + 1)


def _reduce(mats: np.ndarray, u: np.ndarray, lam: np.ndarray) -> _Arrowheads:
    """The deflated margin program's LMIs for the (k, d, d) stack mats
    and the multiplier matrix lam at u, as one stack: the k blocks, then
    L - D_nu, for L = lam. With W' M_j W = V_j diag(theta_j) V_j', block j
    in the basis [U, W V_j] is

        [[L - U' M_j U + nu_j I - D_nu,  -U' M_j W V_j          ],
         [(-U' M_j W V_j)',              nu_j I - diag(theta_j)  ]]

    and it is deflated by replacing its row and column j with those of the
    identity, whose determinant factor is 1 and which no coordinate of z
    moves; L - D_nu gets a tail of ones that no coordinate moves either.
    One eigendecomposition of size d - k per block; O(k d^3) in all."""
    d, k = u.shape
    p = d - k
    w = _complete_basis(u)[:, k:]
    mw = mats @ w
    theta, v = np.linalg.eigh(sym(w.T @ mw))
    e = np.eye(k + 1)  # e[:k] are the nu coordinates, e[k] is t
    j = np.arange(k)
    corner = np.append(lam - u.T @ mats @ u, lam[None], axis=0)
    ccoef = np.append(e[:k, None] - e[:k] - e[k], (-e[:k] - e[k])[None],
                      axis=0)
    border = np.append(-(u.T @ mw) @ v, np.zeros((1, k, p)), axis=0)
    corner[j, j], corner[j, :, j] = 0.0, 0.0
    corner[j, j, j] = 1.0
    ccoef[j, j] = 0.0
    border[j, j] = 0.0
    return _Arrowheads(corner, ccoef, border,
                       np.append(theta, -np.ones((1, p)), axis=0),
                       np.append(e[:k] - e[k], np.zeros((1, k + 1)), axis=0))


def _barrier(a: _Arrowheads, z: np.ndarray, derivatives: bool = False):
    """F(z) = -sum log nu_i - sum log det over the arrowheads, or None when
    z is not interior (or F is not finite); with derivatives,
    (F, gradient, Hessian).

    Each log det is that of the tail plus that of the corner's Schur
    complement S = corner - border D^-1 border'. The derivatives read the
    inverse's corner S^-1, its border and the sum and Frobenius norm of its
    tail D^-1 + D^-1 border' S^-1 border D^-1, each in O(n^2 p)."""
    nu = z[:-1]
    gaps = (a.tcoef @ z)[:, None] - a.theta
    if not (np.all(nu > 0.0) and np.all(gaps > 0.0)):  # NaN fails too
        return None
    i = np.arange(a.corner.shape[1])
    s = a.corner.copy()
    s[:, i, i] += a.ccoef @ z
    bd = a.border / gaps[:, None, :]
    s -= bd @ a.border.swapaxes(1, 2)
    try:
        low = np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        return None
    value = -float(np.log(nu).sum() + np.log(gaps).sum()
                   + 2.0 * np.log(np.diagonal(low, axis1=1, axis2=2)).sum())
    if not np.isfinite(value):
        return None
    if not derivatives:
        return value
    p = np.linalg.inv(s)
    r = p @ bd
    w = np.sum(bd * r, axis=1)
    inv = 1.0 / gaps
    tail_sum = np.sum(inv + w, axis=1)
    tail_sq = (np.sum(inv * (inv + 2.0 * w), axis=1)
               + np.sum((bd @ bd.swapaxes(1, 2)) * (r @ r.swapaxes(1, 2)),
                        axis=(1, 2)))
    ct = a.ccoef.swapaxes(1, 2)
    grad = -((ct @ np.diagonal(p, axis1=1, axis2=2)[..., None]).sum(0)[:, 0]
             + tail_sum @ a.tcoef)
    cross = (ct @ np.sum(r * r, axis=2)[..., None])[..., 0].T @ a.tcoef
    hess = ((ct @ (p * p) @ a.ccoef).sum(0) + cross + cross.T
            + (a.tcoef.T * tail_sq) @ a.tcoef)
    grad[:-1] -= 1.0 / nu
    hess[:-1, :-1] += np.diag(nu ** -2.0)
    return value, grad, hess


@dataclass(frozen=True)
class _MarginRun:
    status: str  # "feasible", "infeasible", "optimal" or "numerical_failure"
    z: np.ndarray  # (nu', t'), the program's (see the module docstring)
    iterations: int  # Newton steps
    mu: float  # the last barrier parameter
    shift: float  # largest diagonal shift of a unit-diagonal Newton system

    def summary(self, s: float) -> dict:
        """The run as reports and records describe it; "margin" is the
        deflated margin t = s t' at the returned nu, in the units of the
        M_i."""
        return {"status": self.status, "iterations": self.iterations,
                "mu": self.mu, "margin": float(self.z[-1]) * s,
                "shift": self.shift}


def _margin_solve(lmis: _Arrowheads, floor: float, clears) -> _MarginRun:
    """Maximize t over z = (nu, t) by path following on the barrier
    -t / mu + F(z), from mu = 1 / vartheta, halving mu whenever the Newton
    decrement lam is below 0.5 (a centred iterate), with Armijo
    backtracking on that barrier; vartheta = k (d - 1) + 2 k is F's
    barrier parameter.

    clears(z) is tried at every iterate with t >= 0 and at every centred
    one with t >= floor: "feasible" once it holds. At a centred iterate
    the optimum t* is at most t + gap, gap = mu (vartheta + (lam +
    sqrt(vartheta)) lam / (1 - lam)) (Nesterov 2004, Thm 4.2.7), which ends
    the solve "infeasible" once t + gap < floor (never on a shifted Newton
    system, whose lam is not exact) and "optimal" once gap <= MARGIN_TOL.
    A line-search stall, a non-finite value or the step cap is
    "numerical_failure"."""
    k, p = lmis.border.shape[1:]
    vartheta = float(k * (k + p + 1))
    z = np.append(np.ones(k), -3.0)  # interior: every block >= I
    mu = 1.0 / vartheta
    ev = _barrier(lmis, z, derivatives=True)
    steps, tried_at, shift = 0, -1, 0.0

    def run(status):
        return _MarginRun(status, z, steps, mu, shift)

    if ev is None:
        return run("numerical_failure")
    f, g, h = ev
    while True:
        grad = g.copy()
        grad[k] -= 1.0 / mu
        try:  # h scaled to a unit diagonal, shifted only if it must be
            dsc = 1.0 / np.sqrt(np.diag(h))
            hf, reg = _factor_schur(lambda: h * np.outer(dsc, dsc))
        except (np.linalg.LinAlgError, ValueError):
            return run("numerical_failure")
        shift = max(shift, float(reg))
        dz = -dsc * _solve_factor(hf, dsc * grad)
        lam = float(np.sqrt(max(-grad @ dz, 0.0)))
        if not np.isfinite(lam):
            return run("numerical_failure")
        t, centred = z[k], lam < 0.5
        if tried_at < steps and (t >= 0.0 or (centred and t >= floor)):
            tried_at = steps  # once per iterate
            if clears(z):
                return run("feasible")
        if centred:
            gap = mu * (vartheta + (lam + np.sqrt(vartheta)) * lam
                        / (1.0 - lam))
            if reg == 0.0 and t + gap < floor:
                return run("infeasible")
            if gap <= MARGIN_TOL:
                return run("optimal")
            mu *= 0.5
            continue
        if steps == _MAX_NEWTON:
            return run("numerical_failure")
        alpha, slope = 1.0, float(grad @ dz)
        while True:
            trial = z + alpha * dz
            value = _barrier(lmis, trial)
            if (value is not None and value - f - alpha * dz[k] / mu
                    <= 1e-4 * alpha * slope):
                break
            alpha *= 0.5
            if alpha < 1e-12:
                return run("numerical_failure")
        z = trial
        f, g, h = _barrier(lmis, z, derivatives=True)
        steps += 1


def certify(c: ProblemInstance, u_bar: StiefelPoint) -> CertificateResult:
    """Decide the certificate system at a (near-)stationary point.

    The point is read on the instance's view (see the module docstring),
    and so are every gate, the stationarity flag and the multiplier gate:
    the verdict is computed from freshly evaluated eigenvalue slacks at the
    program's witness, which must clear -CERT_TOL, and a CertifiedGlobal
    result additionally passes the induced primal/dual optimality check
    within KKT_TOL (check_kkt, on the view). The slacks, t_star, the
    witness and meta's grad_norm and symmetry_residual are reported in
    the units of the M_i, as inf beyond the double range. Weak
    stationarity of u_bar does not abort the computation; it only flags
    the result. A failed margin solve, or a gate evaluation that raises
    LinAlgError (as on a gate matrix that is not finite), is reported,
    not raised: status NumericalFailure, no witness, NaN t_star and
    slacks, and meta["reason"] names the cause. Otherwise meta["reason"]
    names the gate that decided against certification ("" for a
    certified point).
    meta["ipm"] is the margin solve's _MarginRun.summary(); its status is
    "feasible" when the slack gate cleared, "infeasible" when the bound
    stop fired and "optimal" when the solve ran to MARGIN_TOL, and it is
    absent when the multiplier gate decided before any solve.
    """
    if not isinstance(u_bar, StiefelPoint):
        u_bar = StiefelPoint(np.asarray(u_bar, dtype=float))
    u = u_bar.cols
    if u.shape != (c.d, c.k):
        raise ValueError("candidate shape does not match the instance")
    g, _, rg = _evaluate(c.view, u)
    lam = 0.5 * (u.T @ g)  # the program's multiplier matrix (L + c I) / s
    asym = float(np.linalg.norm(lam - lam.T))
    lam_s = sym(lam)
    rg = float(np.linalg.norm(rg))
    weak = asym > _PRECONDITION_TOL or rg > _PRECONDITION_TOL
    s, shift = c.gate_unit, c.psd_shift  # for what the result reports only
    meta = {"grad_norm": s * rg, "symmetry_residual": s * asym}

    def verdict(reason, slacks, t_star, status=STATUS_INCONCLUSIVE, nu=None,
                kkt=None):
        meta["reason"] = reason
        with np.errstate(over="ignore"):  # beyond the double range is inf
            slacks, t_star = s * slacks, s * t_star
            nu = None if nu is None else s * (nu - shift / s)
        return CertificateResult(
            status=status, nu_witness=nu, min_eig_slacks=slacks, t_star=t_star,
            precondition_weak=weak, kkt_residuals=kkt, meta=meta)

    def failure(reason):  # a failed solve has no verdict
        return verdict(reason, np.full(c.k + 1, np.nan), float("nan"),
                       STATUS_NUMERICAL_FAILURE)

    try:
        # necessary condition: lam_s - D_nu' >= 0 with nu' >= 0 forces
        # lam_s >= 0; slacks and t_star are the program's at nu' = 0
        lam_min = float(np.linalg.eigvalsh(lam_s)[0])
        if lam_min < -_PRECONDITION_TOL:
            slacks = _induced_pair(c.view, u, lam_s, np.zeros(c.k))[1]
            return verdict("multiplier matrix indefinite", slacks, lam_min)

        tried = {}  # the pair and slacks of the last iterate the gate saw

        def clears(z):  # the verdict's slack gate
            tried["pair"] = _induced_pair(c.view, u, lam_s, z[:c.k])
            return tried["pair"][1].min() >= -CERT_TOL

        res = _margin_solve(_reduce(c.view, u, lam_s), -CERT_TOL, clears)
        meta["ipm"] = res.summary(s)
        if res.status == "numerical_failure":
            return failure("feasibility solve stalled")

        # a "feasible" stop returns the z its last gate call was made at
        dual, slacks = (tried["pair"] if res.status == "feasible" else
                        _induced_pair(c.view, u, lam_s, res.z[:c.k]))
        t_star = float(slacks.min())
        if not t_star >= -CERT_TOL:  # NaN fails too
            return verdict("least slack below -CERT_TOL", slacks, t_star)
        # verify the induced pair against X_i = u_i u_i' before claiming
        kkt = check_kkt(c.view, u.T[:, :, None] * u.T[:, None, :], dual)
    except np.linalg.LinAlgError as exc:  # as on a gate matrix not finite
        return failure(f"gate evaluation failed: {exc}")
    if not kkt.max_residual <= KKT_TOL:  # NaN fails too
        return verdict("constructed pair failed verification", slacks,
                       t_star, kkt=kkt)
    return verdict("", slacks, t_star, STATUS_CERTIFIED, nu=dual.nu, kkt=kkt)


def classify_inconclusive(c: ProblemInstance, u_bar: StiefelPoint,
                          sdp_report=None) -> str:
    """Attribute an inconclusive certificate when an Optimal relaxation
    solve exists.

    A solve that fails sdp.is_tight explains it directly; a tight
    relaxation whose value exceeds the objective of a stationary candidate
    (Riemannian gradient within _PRECONDITION_TOL) by more than
    VALUE_MARGIN means a suboptimal stationary point; anything else,
    including a missing or non-Optimal solve or an unconverged candidate,
    stays Unknown. The candidate is read on the instance's view, and the
    relaxation's value is mapped into it once, as (value + k c) / s."""
    if sdp_report is None or sdp_report.status != STATUS_OPTIMAL:
        return CLASS_UNKNOWN
    if not is_tight(sdp_report):
        return CLASS_NOT_TIGHT
    _, f, rg = _evaluate(c.view, _cols(u_bar))
    if not np.linalg.norm(rg) <= _PRECONDITION_TOL:  # NaN fails too
        return CLASS_UNKNOWN
    s = c.gate_unit
    value = sdp_report.value / s + c.k * (c.psd_shift / s)  # on the view
    return CLASS_SUBOPTIMAL if f < value - VALUE_MARGIN else CLASS_UNKNOWN
