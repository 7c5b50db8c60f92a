"""Ascent solver on the Stiefel manifold.

The objective F(U) = sum_i u_i' M_i u_i is convex in U once every M_i is
PSD, so its linear minorizer at the current iterate is exact to first
order and below F everywhere; maximizing that minorizer over the manifold
is an orthogonal Procrustes problem whose solution is the polar factor of
the Euclidean gradient. Iterating this step gives a monotone ascent method
with O(dk^2 + k^3) per-iteration cost. For indefinite M_i the minorizer
is not one, so stmm_solve steps on the instance's view (M_i + c I) / s,
c = c.psd_shift and s = c.gate_unit = max_i ||M_i + c I||_2
(core.shift_and_scale, the one normalization, which the relaxation reads
too): on St(k, d) that maps F to (F + k c) / s and moves no maximizer,
and every step and gate is then the same for every positive multiple of
the M_i, however small or large: up to rounding, and bit for bit for a
power of two. The MM map U -> polar(G(U)) converges only linearly, so
stmm_solve speeds it up twice: every step also tries an Anderson
extrapolation of the map (Walker and Ni 2011), kept only when it climbs
at least as far as the MM step (the monotone safeguard of Henderson and
Varadhan 2019); and near a stationary point it polishes
with guarded Riemannian Newton steps (Absil, Mahony and Sepulchre 2008),
each a dense solve of size dk + k(k+1)/2. The MM and Anderson steps work
on bare arrays (core.polar_factor); the only points built and validated
as StiefelPoints are the returned final one and each Newton retraction.
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

# Newton is tried once the Riemannian gradient norm on the view is at
# most NEWTON_SWITCH; 1e-2 let a step leave the basin of the MM
# limit. A rejected step holds Newton off for _NEWTON_WAIT MM steps.
NEWTON_SWITCH = 1e-4
_NEWTON_WAIT = 50

# Anderson extrapolation of the MM map mixes the last _ANDERSON_DEPTH + 1
# pairs (U_j, polar(G_j) - U_j), so _ANDERSON_DEPTH differences.
_ANDERSON_DEPTH = 3


@dataclass(frozen=True)
class SolverConfig:
    """Shared knobs for the manifold solver and the relaxation backend.

    max_iters/grad_tol drive the ascent iteration; grad_tol bounds the
    Riemannian gradient norm on the instance's view, so it is in units of
    the gate unit s = max_i ||M_i + c I||_2 (core.ProblemInstance.gate_unit)
    at every magnitude, below unit norm too.
    sdp_max_iters caps the interior-point iterations. The IPM's stop
    tolerance and step fraction, and the gates that label a report
    Optimal, are fixed constants in the ipm and sdp modules, not knobs.
    """

    max_iters: int = 2000
    grad_tol: float = 1e-10
    sdp_max_iters: int = 100

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


def _cols(u) -> np.ndarray:
    return u.cols if isinstance(u, StiefelPoint) else np.asarray(u, dtype=float)


def _block_products(mats: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Column i is M_i u_i, for mats the (k, d, d) stack of the M_i."""
    return np.matmul(mats, cols.T[:, :, None])[:, :, 0].T


def _evaluate(mats: np.ndarray, u: np.ndarray):
    """Euclidean gradient G, objective (read off it as <U, G>/2) and
    Riemannian gradient (I - UU')G + U skew(U'G) = G - U sym(U'G) at u.
    U'G / 2 is the multiplier matrix of the orthonormality constraints,
    whose column i is U' M_i u_i: symmetric at stationary points and PSD
    at local maxima."""
    g = 2.0 * _block_products(mats, u)
    return g, 0.5 * float(np.sum(u * g)), g - u @ sym(u.T @ g)


def objective(c: ProblemInstance, u) -> float:
    return _evaluate(c.mats, _cols(u))[1]


def riemannian_gradient(c: ProblemInstance, u) -> np.ndarray:
    return _evaluate(c.mats, _cols(u))[2]


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
    {U A : A symmetric}; vec stacks the columns of eta. stmm_solve passes
    the view and its G and rgrad as they are: the view's norm is at most
    2, which keeps H of the order of N. A singular, ill-conditioned or
    non-finite system gives None.
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
    norm is at most NEWTON_SWITCH, a Newton step (see _newton_point) is
    tried in place of the MM step and kept only if the objective does not
    fall and the gradient norm does; otherwise the MM step is taken, and
    Newton waits _NEWTON_WAIT MM steps. A Newton step clears the Anderson
    history. Stops when the Riemannian gradient norm drops below
    cfg.grad_tol, or at cfg.max_iters. A rank-deficient gradient is
    perturbed by 1e-12 U and the step index recorded in degenerate_steps.

    Every step and gate reads the view (M_i + c I) / s alone
    (core.ProblemInstance.view), where F is convex and the MM step never
    descends, whatever the symmetric M_i, and which a power-of-two
    multiple of the M_i leaves bit for bit. Every step, MM, Anderson or
    Newton, counts against cfg.max_iters and appends one objective and
    gradient norm; the indices of the Anderson and Newton steps are
    recorded in accelerated_steps and newton_steps. The trace is written
    back to the units of the M_i once, at the end: the objective of the
    M_i themselves, s (f - k c / s) for the view's f, and the gradient
    norm s ||rgrad||, the Riemannian gradient not seeing the shift. An
    objective beyond the double range is reported as inf.
    """
    cfg = cfg or SolverConfig()
    u = _cols(u0)
    g, f, rg = _evaluate(c.view, u)
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
        if gnorms[-1] <= cfg.grad_tol:
            status = STATUS_STATIONARY
            break
        if t == cfg.max_iters:
            break
        if wait:
            wait -= 1
        elif gnorms[-1] <= NEWTON_SWITCH:
            cand = _newton_point(c.view, u, g, rg)
            if cand is not None:
                g_new, f_new, rg_new = _evaluate(c.view, cand)
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
        mm = (u_mm, *_evaluate(c.view, u_mm))
        aa = (_anderson_point(c.view, history, u.shape)
              if len(history) > 1 else None)
        if aa is not None and aa[2] >= mm[2]:
            accelerated.append(t)
            u, g, f, rg = aa
        else:
            while len(history) > 1:
                history.popleft()
            u, g, f, rg = mm

    s = c.gate_unit
    with np.errstate(over="ignore"):  # F beyond the double range is inf
        return IterateTrace(
            objectives=s * (np.asarray(objs) - c.k * (c.psd_shift / s)),
            grad_norms=s * np.asarray(gnorms),
            final=StiefelPoint(u),
            status=status,
            degenerate_steps=tuple(degenerate),
            newton_steps=tuple(newton),
            accelerated_steps=tuple(accelerated),
        )
