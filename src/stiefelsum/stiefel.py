"""Ascent solver on the Stiefel manifold.

The objective F(U) = sum_i u_i' M_i u_i is convex in U, so its linear
minorizer at the current iterate is exact to first order; maximizing that
minorizer over the manifold is an orthogonal Procrustes problem whose
solution is the polar factor of the Euclidean gradient. Iterating this step
gives a monotone ascent method with O(dk^2 + k^3) per-iteration cost, but
only linear convergence; near a stationary point stmm_solve therefore
polishes with guarded Riemannian Newton steps (Absil, Mahony and
Sepulchre 2008), each a dense solve of size dk + k(k+1)/2.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, LinAlgWarning, solve

from .core import ProblemInstance, StiefelPoint, procrustes_project, sym

STATUS_STATIONARY = "Stationary"
STATUS_MAX_ITERS = "MaxIters"

# Newton is tried once the Riemannian gradient norm is at most
# NEWTON_SWITCH * c.gate_unit; 1e-2 let a step leave the basin of the MM
# limit. A rejected step holds Newton off for _NEWTON_WAIT MM steps.
NEWTON_SWITCH = 1e-4
_NEWTON_WAIT = 50


@dataclass(frozen=True)
class SolverConfig:
    """Shared knobs for the manifold solver and the relaxation backend.

    max_iters/grad_tol drive the ascent iteration; the sdp_* fields and
    step_frac configure the interior-point backend. The gates that label a
    report Optimal are fixed constants in the sdp module, not knobs.
    """

    max_iters: int = 2000
    grad_tol: float = 1e-10
    sdp_tol: float = 1e-8
    sdp_max_iters: int = 100
    step_frac: float = 0.98

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


def objective(c: ProblemInstance, u) -> float:
    cols = _cols(u)
    return float(np.sum(cols * _block_products(c.mats, cols)))


def euclidean_gradient(c: ProblemInstance, u) -> np.ndarray:
    return 2.0 * _block_products(c.mats, _cols(u))


def riemannian_gradient(c: ProblemInstance, u) -> np.ndarray:
    """Tangent-space gradient (I - UU')G + U skew(U'G) for G = euclidean."""
    cols = _cols(u)
    g = euclidean_gradient(c, cols)
    utg = cols.T @ g
    return g - cols @ sym(utg)


def lambda_matrix(c: ProblemInstance, u) -> LambdaMatrix:
    cols = _cols(u)
    lam = cols.T @ _block_products(c.mats, cols)
    return LambdaMatrix(matrix=lam,
                        symmetry_residual=float(np.linalg.norm(lam - lam.T)))


def random_stiefel(d: int, k: int, rng: np.random.Generator) -> StiefelPoint:
    """Haar-ish random point: QR of a Gaussian with positive R diagonal."""
    q, r = np.linalg.qr(rng.standard_normal((d, k)))
    q = q * np.sign(np.where(np.diag(r) == 0.0, 1.0, np.diag(r)))
    return StiefelPoint(q)


def _evaluate(mats: np.ndarray, u: np.ndarray):
    """Euclidean gradient, objective (read off it as <U, G>/2) and
    Riemannian gradient at u."""
    g = 2.0 * _block_products(mats, u)
    return g, 0.5 * float(np.sum(u * g)), g - u @ sym(u.T @ g)


def _newton_point(mats: np.ndarray, u: np.ndarray, g: np.ndarray,
                  rg: np.ndarray):
    """Polar retraction of a Riemannian Newton step, or None if it fails.

    The tangent step eta solves the saddle system

        [H, N; N', 0] [vec(eta); mu] = [-vec(rgrad); 0]

    with H = blockdiag(2 M_i) - sym(U'G) (x) I_d, the Euclidean Hessian
    shifted by the curvature term, and N spanning the normal space
    {U A : A symmetric}; vec stacks the columns of eta. A singular,
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


def stmm_solve(c: ProblemInstance, u0: StiefelPoint,
               cfg: SolverConfig | None = None) -> IterateTrace:
    """Monotone ascent by repeated polar projection of the gradient, with a
    guarded Riemannian Newton polish.

    Once the Riemannian gradient norm is at most NEWTON_SWITCH *
    c.gate_unit, a Newton step (see _newton_point) is tried in place of the
    MM step and kept only if the objective does not fall and the gradient
    norm does; otherwise the MM step is taken, and Newton waits
    _NEWTON_WAIT MM steps. Every step, Newton or MM, counts against
    cfg.max_iters and appends one objective and gradient norm; Newton step
    indices are recorded in newton_steps. Stops when the Riemannian
    gradient norm drops below cfg.grad_tol or at cfg.max_iters. A
    rank-deficient gradient is perturbed by 1e-12 U and the step index
    recorded in degenerate_steps.
    """
    cfg = cfg or SolverConfig()
    switch = NEWTON_SWITCH * c.gate_unit
    u = _cols(u0)
    g, f, rg = _evaluate(c.mats, u)
    objs = []
    gnorms = []
    degenerate = []
    newton = []
    wait = 0
    status = STATUS_MAX_ITERS

    for t in range(cfg.max_iters + 1):
        objs.append(f)
        gnorms.append(float(np.linalg.norm(rg)))
        if gnorms[-1] <= cfg.grad_tol:
            status = STATUS_STATIONARY
            break
        if t == cfg.max_iters:
            break
        if wait:
            wait -= 1
        elif gnorms[-1] <= switch:
            cand = _newton_point(c.mats, u, g, rg)
            if cand is not None:
                g_new, f_new, rg_new = _evaluate(c.mats, cand)
                if f_new >= f and np.linalg.norm(rg_new) < gnorms[-1]:
                    newton.append(t)
                    u, g, f, rg = cand, g_new, f_new, rg_new
                    continue
            wait = _NEWTON_WAIT
        try:
            u = procrustes_project(g).cols
        except ValueError:
            degenerate.append(t)
            u = procrustes_project(g + 1e-12 * u).cols
        g, f, rg = _evaluate(c.mats, u)

    return IterateTrace(
        objectives=np.asarray(objs),
        grad_norms=np.asarray(gnorms),
        final=StiefelPoint(u),
        status=status,
        degenerate_steps=tuple(degenerate),
        newton_steps=tuple(newton),
    )
