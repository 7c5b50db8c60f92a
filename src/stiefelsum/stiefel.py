"""Ascent solver on the Stiefel manifold.

The objective F(U) = sum_i u_i' M_i u_i is convex in U, so its linear
minorizer at the current iterate is exact to first order; maximizing that
minorizer over the manifold is an orthogonal Procrustes problem whose
solution is the polar factor of the Euclidean gradient. Iterating this step
gives a monotone ascent method with O(dk^2 + k^3) per-iteration cost. The
MM map U -> polar(G(U)) converges only linearly, so stmm_solve speeds it up
twice: every step also tries an Anderson extrapolation of the map (Walker
and Ni 2011), kept only when it climbs at least as far as the MM step
(the monotone safeguard of Henderson and Varadhan 2019); and near a
stationary point it polishes with guarded Riemannian Newton steps (Absil,
Mahony and Sepulchre 2008), each a dense solve of size dk + k(k+1)/2. The
MM and Anderson steps work on bare arrays (core.polar_factor); the only
points built and validated as StiefelPoints are the returned final one and
each Newton retraction.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, LinAlgWarning, solve

from .core import (
    ProblemInstance,
    StiefelPoint,
    polar_factor,
    procrustes_project,
    sym,
)

STATUS_STATIONARY = "Stationary"
STATUS_MAX_ITERS = "MaxIters"

# Newton is tried once the Riemannian gradient norm is at most
# NEWTON_SWITCH * c.gate_unit; 1e-2 let a step leave the basin of the MM
# limit. A rejected step holds Newton off for _NEWTON_WAIT MM steps.
NEWTON_SWITCH = 1e-4
_NEWTON_WAIT = 50

# Anderson extrapolation of the MM map mixes the last _ANDERSON_DEPTH + 1
# pairs (U_j, polar(G_j) - U_j), so _ANDERSON_DEPTH differences.
_ANDERSON_DEPTH = 3


@dataclass(frozen=True)
class SolverConfig:
    """Shared knobs for the manifold solver and the relaxation backend.

    max_iters/grad_tol drive the ascent iteration; grad_tol is in units of
    the instance's gate unit s (core.ProblemInstance.gate_unit). The sdp_*
    fields and step_frac configure the interior-point backend. The gates
    that label a report Optimal are fixed constants in the sdp module, not
    knobs.
    """

    max_iters: int = 2000
    grad_tol: float = 1e-10
    sdp_tol: float = 1e-8
    sdp_max_iters: int = 100
    step_frac: float = 0.98

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError(f"need max_iters >= 0, got {self.max_iters}")

    @classmethod
    def for_hppca(cls) -> "SolverConfig":
        # heteroscedastic-PCA runs converge slower: 10000 iterations
        return cls(max_iters=10000)


@dataclass(frozen=True)
class IterateTrace:
    objectives: np.ndarray
    grad_norms: np.ndarray
    final: StiefelPoint
    status: str
    degenerate_steps: tuple = ()
    newton_steps: tuple = ()
    accelerated_steps: tuple = ()

    @property
    def iterations(self) -> int:
        return len(self.objectives) - 1


@dataclass(frozen=True)
class LambdaMatrix:
    """Multiplier matrix of the orthonormality constraints.

    Column i is U' M_i u_i; symmetric at stationary points and PSD at local
    maxima."""

    matrix: np.ndarray
    symmetry_residual: float


def _cols(u) -> np.ndarray:
    return u.cols if isinstance(u, StiefelPoint) else np.asarray(u, dtype=float)


def _block_products(mats: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Column i is M_i u_i, for mats the (k, d, d) stack of the M_i."""
    return np.matmul(mats, cols.T[:, :, None])[:, :, 0].T


def _evaluate(mats: np.ndarray, u: np.ndarray):
    """Euclidean gradient G, objective (read off it as <U, G>/2) and
    Riemannian gradient (I - UU')G + U skew(U'G) = G - U sym(U'G) at u."""
    g = 2.0 * _block_products(mats, u)
    return g, 0.5 * float(np.sum(u * g)), g - u @ sym(u.T @ g)


def objective(c: ProblemInstance, u) -> float:
    return _evaluate(c.mats, _cols(u))[1]


def euclidean_gradient(c: ProblemInstance, u) -> np.ndarray:
    return _evaluate(c.mats, _cols(u))[0]


def riemannian_gradient(c: ProblemInstance, u) -> np.ndarray:
    return _evaluate(c.mats, _cols(u))[2]


def lambda_matrix(c: ProblemInstance, u) -> LambdaMatrix:
    cols = _cols(u)
    lam = cols.T @ _block_products(c.mats, cols)
    return LambdaMatrix(matrix=lam,
                        symmetry_residual=float(np.linalg.norm(lam - lam.T)))


def random_stiefel(d: int, k: int, rng: np.random.Generator) -> StiefelPoint:
    """Haar-ish random point: QR of a Gaussian with positive R diagonal."""
    if k > d:
        raise ValueError(f"need k <= d, got d={d}, k={k}")
    q, r = np.linalg.qr(rng.standard_normal((d, k)))
    q = q * np.sign(np.where(np.diag(r) == 0.0, 1.0, np.diag(r)))
    return StiefelPoint(q)


def _newton_point(mats: np.ndarray, u: np.ndarray, g: np.ndarray,
                  rg: np.ndarray):
    """Polar retraction of a Riemannian Newton step, or None if it fails.

    The tangent step eta solves the saddle system

        [H, N; N', 0] [vec(eta); mu] = [-vec(rgrad); 0]

    with H = blockdiag(2 M_i) - sym(U'G) (x) I_d, the Euclidean Hessian
    shifted by the curvature term, and N spanning the normal space
    {U A : A symmetric}; vec stacks the columns of eta. Dividing M_i, G
    and rgrad by one scalar leaves eta unchanged, so stmm_solve passes
    them in units of s, which keeps H of the order of N. A singular,
    ill-conditioned or non-finite system gives None.
    """
    d, k = u.shape
    n = d * k
    a, b = np.triu_indices(k)
    m = len(a)
    # basis U (E_ab + E_ba), a <= b, of the normal space: column b holds
    # u_a and column a holds u_b (one and the same column when a = b)
    normal = np.zeros((k, d, m))
    normal[b, :, np.arange(m)] = u[:, a].T
    normal[a, :, np.arange(m)] = u[:, b].T
    kkt = np.zeros((n + m, n + m))
    kkt[:n, :n] = -np.kron(sym(u.T @ g), np.eye(d))
    for i in range(k):
        kkt[i * d:(i + 1) * d, i * d:(i + 1) * d] += 2.0 * mats[i]
    kkt[:n, n:] = normal.reshape(n, m)
    kkt[n:, :n] = kkt[:n, n:].T
    rhs = np.zeros(n + m)
    rhs[:n] = -rg.T.ravel()
    try:
        with warnings.catch_warnings():
            # an ill-conditioned system gives no usable step either
            warnings.simplefilter("error", LinAlgWarning)
            sol = solve(kkt, rhs, overwrite_a=True, assume_a="sym")
        return procrustes_project(u + sol[:n].reshape(k, d).T).cols
    except (LinAlgError, LinAlgWarning, ValueError):
        return None


def _anderson_point(mats: np.ndarray, history, shape):
    """Retracted Anderson extrapolation of the MM map, with its gradient,
    objective and Riemannian gradient, or None if it fails.

    history holds (X_j, R_j) pairs, oldest first: raveled iterates and
    their MM residuals polar(G_j) - X_j. With dX and dR the column
    differences of the two histories, gamma = lstsq(dR, r) and the
    extrapolation is X + r - (dX + dR) gamma for the last pair (X, r);
    only Frobenius inner products enter. A failed least-squares solve or
    polar factor gives None.
    """
    xs, rs = (np.stack(h, axis=1) for h in zip(*history))
    dx, dr = np.diff(xs, axis=1), np.diff(rs, axis=1)
    try:
        gamma = np.linalg.lstsq(dr, rs[:, -1], rcond=None)[0]
        u = polar_factor(
            (xs[:, -1] + rs[:, -1] - (dx + dr) @ gamma).reshape(shape))
    except (LinAlgError, ValueError):
        return None
    return (u, *_evaluate(mats, u))


def stmm_solve(c: ProblemInstance, u0: StiefelPoint,
               cfg: SolverConfig | None = None) -> IterateTrace:
    """Monotone ascent by repeated polar projection of the gradient,
    Anderson-accelerated, with a guarded Riemannian Newton polish.

    Each MM step also tries an Anderson extrapolation (see _anderson_point)
    from the last _ANDERSON_DEPTH + 1 iterates. It is kept only if its
    objective is at least the MM step's; otherwise the MM step is taken
    and the history drops to its last pair. Once the Riemannian gradient
    norm is at most NEWTON_SWITCH * c.gate_unit, a Newton step (see
    _newton_point) is tried in place of the MM step and kept only if the
    objective does not fall and the gradient norm does; otherwise the MM
    step is taken, and Newton waits _NEWTON_WAIT MM steps. A Newton step
    clears the Anderson history.

    Every step, MM, Anderson or Newton, counts against cfg.max_iters and
    appends one objective and gradient norm; the indices of the Anderson
    and Newton steps are recorded in accelerated_steps and newton_steps.
    Stops when the Riemannian gradient norm drops below cfg.grad_tol * s,
    s = c.gate_unit, or at cfg.max_iters, so that scaling the M_i changes
    no step. A rank-deficient gradient is perturbed by 1e-12 U and the step
    index recorded in degenerate_steps.
    """
    cfg = cfg or SolverConfig()
    s = c.gate_unit
    switch, stop = NEWTON_SWITCH * s, cfg.grad_tol * s
    mats_s = c.mats / s  # the Newton system in units of s
    u = _cols(u0)
    g, f, rg = _evaluate(c.mats, u)
    objs = []
    gnorms = []
    degenerate = []
    newton = []
    accelerated = []
    history = deque(maxlen=_ANDERSON_DEPTH + 1)
    wait = 0
    status = STATUS_MAX_ITERS

    for t in range(cfg.max_iters + 1):
        objs.append(f)
        gnorms.append(float(np.linalg.norm(rg)))
        if gnorms[-1] <= stop:
            status = STATUS_STATIONARY
            break
        if t == cfg.max_iters:
            break
        if wait:
            wait -= 1
        elif gnorms[-1] <= switch:
            cand = _newton_point(mats_s, u, g / s, rg / s)
            if cand is not None:
                g_new, f_new, rg_new = _evaluate(c.mats, cand)
                if f_new >= f and np.linalg.norm(rg_new) < gnorms[-1]:
                    newton.append(t)
                    history.clear()
                    u, g, f, rg = cand, g_new, f_new, rg_new
                    continue
            wait = _NEWTON_WAIT
        try:
            u_mm = polar_factor(g)
        except ValueError:
            degenerate.append(t)
            u_mm = polar_factor(g + 1e-12 * u)
        history.append((u.ravel(), (u_mm - u).ravel()))
        mm = (u_mm, *_evaluate(c.mats, u_mm))
        aa = (_anderson_point(c.mats, history, u.shape)
              if len(history) > 1 else None)
        if aa is not None and aa[2] >= mm[2]:
            accelerated.append(t)
            u, g, f, rg = aa
        else:
            while len(history) > 1:
                history.popleft()
            u, g, f, rg = mm

    return IterateTrace(
        objectives=np.asarray(objs),
        grad_norms=np.asarray(gnorms),
        final=StiefelPoint(u),
        status=status,
        degenerate_steps=tuple(degenerate),
        newton_steps=tuple(newton),
        accelerated_steps=tuple(accelerated),
    )
