"""Jointly-diagonalizable fast path.

When the blocks commute, a common eigenbasis turns the relaxation into an
assignment problem over coordinates: pick one coordinate per block,
injectively, maximizing the sum of picked eigenvalues. This module detects
that structure, solves the assignment, reproduces the strict-complementarity
dual whose blocks all have rank d-1, and sweeps perturbation radii around a
diagonal center to map where the relaxation stays tight.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .core import (
    ProblemInstance,
    StiefelPoint,
    max_commuting_distance,
    shift_and_scale,
    sym,
)
from .sdp import SdpDualSolution, is_tight, solve_sdp

TIE_TOL = 1e-9
GT_EPS = 1e-6
# commuting-distance threshold for a joint diagonalization
JD_TOL = 1e-8


class TieError(ValueError):
    """The optimal assignment is not unique within tolerance."""


@dataclass(frozen=True)
class JointDiagonalization:
    basis: StiefelPoint  # common eigenbasis, d x d
    diag_values: np.ndarray  # k x d eigenvalues in the shared basis
    off_diag_residual: float


@dataclass(frozen=True)
class AssignmentSolution:
    assignment: tuple  # block i -> coordinate assignment[i]
    value: float
    dual: tuple  # (y: d, nu: k, z: k x d), all entrywise feasible
    ties: bool


def joint_diagonalize(c: ProblemInstance):
    """Common eigenbasis of the tuple, or None when it does not commute.

    The basis is the eigenbasis of a random strictly-convex combination;
    coefficients are redrawn while the rotated blocks keep significant
    off-diagonal mass, and the best basis found is returned.
    """
    k = c.k
    if max_commuting_distance(c) > JD_TOL:
        return None

    # a degenerate combination spectrum can mean an unlucky draw (redraw
    # helps) or coordinates agreeing in every block (harmless: the blocks
    # act as scalars there); the off-diagonal residual arbitrates both
    rng = np.random.default_rng(0)
    best = None
    for _ in range(5):
        alpha = rng.uniform(0.5, 1.5, size=k)
        combo = sym(sum(a * m for a, m in zip(alpha, c.mats)))
        _, q = np.linalg.eigh(combo)
        rotated = q.T @ c.mats @ q
        resid = max(
            float(np.linalg.norm(r - np.diag(np.diag(r)))) for r in rotated
        )
        cand = JointDiagonalization(
            basis=StiefelPoint(q),
            diag_values=rotated.diagonal(axis1=1, axis2=2).copy(),
            off_diag_residual=resid,
        )
        if best is None or resid < best.off_diag_residual:
            best = cand
        if resid <= 10.0 * JD_TOL:
            break
    return best


def _margin_duals(m: np.ndarray, cols: np.ndarray, eps: float):
    """LP duals with a maximized uniform slack margin s in [0, eps].

    Strict complementarity asks every non-assigned z entry and every
    used-column y entry to be positive; the optimal s is positive exactly
    when the assignment is unique, and zero under ties."""
    from scipy.optimize import linprog  # slow to import; only LPs need it

    k, d = m.shape
    used = set(int(j) for j in cols)
    nv = k + d + 1  # nu, y, s
    cobj = np.zeros(nv)
    cobj[-1] = -1.0

    a_eq = np.zeros((k, nv))
    b_eq = np.zeros(k)
    for i in range(k):
        a_eq[i, i] = 1.0
        a_eq[i, k + cols[i]] = 1.0
        b_eq[i] = m[i, cols[i]]

    rows = []
    rhs = []
    for i in range(k):
        for j in range(d):
            if j == cols[i]:
                continue
            r = np.zeros(nv)
            r[i] = -1.0
            r[k + j] = -1.0
            r[-1] = 1.0
            rows.append(r)
            rhs.append(-m[i, j])
    for j in used:
        r = np.zeros(nv)
        r[k + j] = -1.0
        r[-1] = 1.0
        rows.append(r)
        rhs.append(0.0)

    bounds = [(None, None)] * k
    bounds += [(0.0, None) if j in used else (0.0, 0.0) for j in range(d)]
    bounds.append((0.0, eps))
    res = linprog(cobj, A_ub=np.vstack(rows), b_ub=np.asarray(rhs),
                  A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError("margin LP failed: %s" % res.message)

    y = res.x[k:k + d].copy()
    y[[j for j in range(d) if j not in used]] = 0.0
    y = np.maximum(y, 0.0)
    # re-derive nu from the assigned equalities so they hold in floats
    nu = np.array([m[i, cols[i]] - y[cols[i]] for i in range(k)])
    z = nu[:, None] + y[None, :] - m
    for i in range(k):
        z[i, cols[i]] = 0.0
    return y, nu, z, float(res.x[-1])


def solve_assignment(diag_values: np.ndarray) -> AssignmentSolution:
    """Maximize the sum of one picked entry per row, columns injective."""
    from scipy.optimize import linear_sum_assignment  # as in _margin_duals

    m = np.asarray(diag_values, dtype=float)
    if m.ndim != 2 or m.shape[0] > m.shape[1]:
        raise ValueError("need a k x d array with k <= d")
    _, cols = linear_sum_assignment(m, maximize=True)
    value = float(m[np.arange(m.shape[0]), cols].sum())
    y, nu, z, s = _margin_duals(m, cols, GT_EPS)
    return AssignmentSolution(
        assignment=tuple(int(j) for j in cols),
        value=value,
        dual=(y, nu, z),
        ties=s <= TIE_TOL,
    )


def enumerate_assignments(diag_values: np.ndarray):
    """Brute-force oracle over all injective assignments (small d only)."""
    m = np.asarray(diag_values, dtype=float)
    k, d = m.shape
    if d > 10:
        raise ValueError("enumeration oracle limited to d <= 10")
    best_val = -np.inf
    best = None
    for perm in permutations(range(d), k):
        v = float(sum(m[i, perm[i]] for i in range(k)))
        if v > best_val:
            best_val = v
            best = perm
    return best_val, tuple(best)


def goldman_tucker_dual(diag_values: np.ndarray,
                        primal: AssignmentSolution | None = None
                        ) -> SdpDualSolution:
    """Strictly complementary dual in the diagonal basis.

    Every off-assignment z entry carries at least the LP margin, so each
    Z_i = diag(nu_i + y - m_i) has exactly one zero eigenvalue (rank d-1)
    and pairs exactly with the rank-one primal X_i. Requires a unique
    optimal assignment."""
    m = np.asarray(diag_values, dtype=float)
    if primal is None:
        primal = solve_assignment(m)
    if primal.ties:
        raise TieError("optimal assignment is not unique within %g" % TIE_TOL)
    y, nu, z = primal.dual
    y_mat = np.diag(y)
    z_blocks = tuple(np.diag(z[i]) for i in range(m.shape[0]))
    return SdpDualSolution(
        y=y_mat,
        z_blocks=z_blocks,
        nu=np.asarray(nu, dtype=float),
        objective=-(float(np.sum(y)) + float(np.sum(nu))),
    )


def perturb_instance(c: ProblemInstance, scale: float,
                     rng: np.random.Generator) -> ProblemInstance:
    """Add independent symmetric noise of exact spectral norm `scale` to
    each block, then restore PSD-ness and renormalize by
    core.shift_and_scale, recorded in meta as in core.normalize_instance."""
    e = sym(rng.standard_normal(c.mats.shape))
    nrm = np.linalg.norm(e, 2, axis=(1, 2))
    # a zero scale or a zero draw leaves its block as it is
    weight = np.divide(scale if scale > 0.0 else 0.0, nrm,
                       out=np.zeros_like(nrm), where=nrm > 0.0)
    mats, shift, norm = shift_and_scale(c.mats + e * weight[:, None, None])
    return ProblemInstance(mats=mats, meta={
        "perturbation_scale": scale, "normalization_scale": norm,
        "psd_shift": shift / norm})


def tightness_sweep(center: ProblemInstance, perturbation_scale: float,
                    trials: int, seed: int) -> float:
    """Fraction of perturbed instances whose relaxation stays tight
    (sdp.is_tight). Solver failures count against tightness, never toward it."""
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    jd = joint_diagonalize(center)
    if jd is None:
        raise ValueError("center is not jointly diagonalizable")
    if solve_assignment(jd.diag_values).ties:
        raise ValueError("center has a tied optimal assignment")

    rng = np.random.default_rng(seed)
    tight = 0
    for _ in range(trials):
        inst = perturb_instance(center, perturbation_scale, rng)
        tight += is_tight(solve_sdp(inst))
    return tight / trials
