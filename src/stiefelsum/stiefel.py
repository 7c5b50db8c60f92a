"""First-order solver on the Stiefel manifold.

The objective F(U) = sum_i u_i' M_i u_i is convex in U, so its linear
minorizer at the current iterate is exact to first order; maximizing that
minorizer over the manifold is an orthogonal Procrustes problem whose
solution is the polar factor of the Euclidean gradient. Iterating this step
gives a monotone ascent method with O(dk^2 + k^3) per-iteration cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import ProblemInstance, StiefelPoint, procrustes_project, sym

STATUS_STATIONARY = "Stationary"
STATUS_MAX_ITERS = "MaxIters"


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


def objective(c: ProblemInstance, u) -> float:
    cols = _cols(u)
    return float(sum(cols[:, i] @ (c.mats[i] @ cols[:, i]) for i in range(c.k)))


def euclidean_gradient(c: ProblemInstance, u) -> np.ndarray:
    cols = _cols(u)
    return 2.0 * np.column_stack([c.mats[i] @ cols[:, i] for i in range(c.k)])


def riemannian_gradient(c: ProblemInstance, u) -> np.ndarray:
    """Tangent-space gradient (I - UU')G + U skew(U'G) for G = euclidean."""
    cols = _cols(u)
    g = euclidean_gradient(c, cols)
    utg = cols.T @ g
    return g - cols @ sym(utg)


def lambda_matrix(c: ProblemInstance, u) -> LambdaMatrix:
    cols = _cols(u)
    lam = np.column_stack([cols.T @ (c.mats[i] @ cols[:, i]) for i in range(c.k)])
    return LambdaMatrix(matrix=lam,
                        symmetry_residual=float(np.linalg.norm(lam - lam.T)))


def random_stiefel(d: int, k: int, rng: np.random.Generator) -> StiefelPoint:
    """Haar-ish random point: QR of a Gaussian with positive R diagonal."""
    q, r = np.linalg.qr(rng.standard_normal((d, k)))
    q = q * np.sign(np.where(np.diag(r) == 0.0, 1.0, np.diag(r)))
    return StiefelPoint(q)


def stmm_solve(c: ProblemInstance, u0: StiefelPoint,
               cfg: SolverConfig | None = None) -> IterateTrace:
    """Monotone ascent by repeated polar projection of the gradient.

    Stops when the Riemannian gradient norm drops below cfg.grad_tol or at
    cfg.max_iters. A rank-deficient gradient is perturbed by 1e-12 U and the
    step index recorded in degenerate_steps.
    """
    cfg = cfg or SolverConfig()
    u = _cols(u0).copy()
    objs = []
    gnorms = []
    degenerate = []
    status = STATUS_MAX_ITERS

    for t in range(cfg.max_iters + 1):
        g = euclidean_gradient(c, u)
        rg = g - u @ sym(u.T @ g)
        objs.append(objective(c, u))
        gnorms.append(float(np.linalg.norm(rg)))
        if gnorms[-1] <= cfg.grad_tol:
            status = STATUS_STATIONARY
            break
        if t == cfg.max_iters:
            break
        try:
            u = procrustes_project(g).cols
        except ValueError:
            degenerate.append(t)
            u = procrustes_project(g + 1e-12 * u).cols

    return IterateTrace(
        objectives=np.asarray(objs),
        grad_norms=np.asarray(gnorms),
        final=StiefelPoint(u),
        status=status,
        degenerate_steps=tuple(degenerate),
    )
