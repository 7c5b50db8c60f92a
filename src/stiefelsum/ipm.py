"""Primal-dual interior-point core for the block semidefinite programs used
throughout the package.

Standard form over a product of PSD cones:

    min <C, X>  s.t.  A(X) = b,  X_j PSD for every block j,

solved together with its dual  max b'y  s.t.  A*(y) + Z = C,  Z_j PSD.
The search direction is the HKM direction assembled with symmetric Kronecker
products, stepped with a Mehrotra predictor-corrector.

Two constraint-operator flavors feed the shared iteration:

* FantopeOps: k trace-one blocks coupled through sum_i X_i + S = I, the
  structure of the relaxation. The Schur complement is assembled blockwise.
* DenseOps: a handful of explicit constraint matrices per block, used for
  the small feasibility programs (the optimality certificate).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from .core import sym


# ---------------------------------------------------------------------------
# svec coordinates: symmetric matrices as vectors of length n(n+1)/2 with
# off-diagonal entries scaled by sqrt(2), so that <svec(A), svec(B)> = <A, B>.

@lru_cache(maxsize=None)
def svec_indices(n: int):
    i, j = np.triu_indices(n)
    w = np.where(i == j, 1.0, np.sqrt(2.0))
    for a in (i, j, w):
        a.setflags(write=False)
    return i, j, w


def svec(x: np.ndarray) -> np.ndarray:
    n = x.shape[0]
    i, j, w = svec_indices(n)
    return w * x[i, j]


def smat(v: np.ndarray, n: int) -> np.ndarray:
    i, j, w = svec_indices(n)
    t = v / w
    x = np.zeros((n, n))
    x[i, j] = t
    x[j, i] = t
    return x


def sym_kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix of V -> 0.5 (A V B + B V A) in svec coordinates.

    Both arguments must be symmetric (the callers pass PSD iterates)."""
    n = a.shape[0]
    i, j, _ = svec_indices(n)
    ii = np.ix_(i, i)
    jj = np.ix_(j, j)
    ij = np.ix_(i, j)
    aij = a[ij]
    bij = b[ij]
    m = 0.5 * (a[ii] * b[jj] + aij * bij.T + b[ii] * a[jj] + bij * aij.T)
    d = np.where(i == j, 1.0 / np.sqrt(2.0), 1.0)
    return m * np.outer(d, d)


# ---------------------------------------------------------------------------
# Constraint operators

class FantopeOps:
    """Constraints of the block relaxation.

    Variable blocks X_1..X_k of size d, plus one slack block S of size d
    when include_slack, with

        tr(X_i) = 1              (k rows)
        sum_i X_i [+ S] = I      (d(d+1)/2 rows in svec coordinates)

    With the slack the coupling reads sum_i X_i <= I; without it (used when
    k = d, where the slack is forced to zero and would kill strict
    feasibility) the coupling is an equality. Cost blocks are -mats[i] (the
    relaxation minimizes the negated objective) and zero on the slack.
    """

    def __init__(self, mats, d: int, include_slack: bool = True):
        mats = [np.asarray(m, dtype=float) for m in mats]
        if any(m.shape != (d, d) for m in mats):
            raise ValueError("variable blocks must have size d")
        self.k = len(mats)
        self.d = d
        self.has_slack = include_slack
        self.sd = d * (d + 1) // 2
        self.off = self.k
        self.m = self.off + self.sd
        self.block_sizes = [d] * self.k
        self.C = [-m for m in mats]
        if include_slack:
            self.block_sizes.append(d)
            self.C.append(np.zeros((d, d)))
        b = np.ones(self.m)
        b[self.off:] = svec(np.eye(d))
        self.b = b

    def apply_A(self, blocks):
        d, k = self.d, self.k
        out = np.empty(self.m)
        coup = blocks[-1].copy() if self.has_slack else np.zeros((d, d))
        for i in range(k):
            out[i] = np.trace(blocks[i])
            coup += blocks[i]
        out[self.off:] = svec(coup)
        return out

    def apply_AT(self, y):
        d, k = self.d, self.k
        yc = smat(y[self.off:], d)
        eye = np.eye(d)
        blocks = [yc + y[i] * eye for i in range(k)]
        if self.has_slack:
            blocks.append(yc)
        return blocks

    def schur(self, zinv, x):
        off = self.off
        h = np.zeros((self.m, self.m))
        if self.has_slack:
            hcc = sym_kron(zinv[-1], x[-1])
        else:
            hcc = np.zeros((self.sd, self.sd))
        for i in range(self.k):
            p, q = zinv[i], x[i]
            pq = p @ q
            h[i, i] = np.trace(pq)
            row = svec(sym(pq))
            h[i, off:] = row
            h[off:, i] = row
            hcc += sym_kron(p, q)
        h[off:, off:] = hcc
        return h


class DenseOps:
    """Explicit constraint matrices: amats[p][j] is constraint p's symmetric
    coefficient on block j (None for no coupling). Meant for problems with a
    handful of constraints; the Schur complement is m x m dense."""

    def __init__(self, block_sizes, amats, b, cmats):
        self.block_sizes = list(block_sizes)
        self.m = len(b)
        self.b = np.asarray(b, dtype=float)
        self.C = [np.asarray(c, dtype=float) for c in cmats]
        self.amats = [
            [None if a is None else np.asarray(a, dtype=float) for a in row]
            for row in amats
        ]

    def apply_A(self, blocks):
        out = np.zeros(self.m)
        for p in range(self.m):
            for j, a in enumerate(self.amats[p]):
                if a is not None:
                    out[p] += float(np.sum(a * blocks[j]))
        return out

    def apply_AT(self, y):
        blocks = [np.zeros((n, n)) for n in self.block_sizes]
        for p in range(self.m):
            if y[p] == 0.0:
                continue
            for j, a in enumerate(self.amats[p]):
                if a is not None:
                    blocks[j] += y[p] * a
        return blocks

    def schur(self, zinv, x):
        h = np.zeros((self.m, self.m))
        for j in range(len(self.block_sizes)):
            cols = [p for p in range(self.m) if self.amats[p][j] is not None]
            for q in cols:
                t = sym(zinv[j] @ self.amats[q][j] @ x[j])
                for p in cols:
                    h[p, q] += float(np.sum(self.amats[p][j] * t))
        # symmetrize away accumulation roundoff
        return 0.5 * (h + h.T)


# ---------------------------------------------------------------------------
# Shared predictor-corrector iteration

@dataclass
class IpmResult:
    status: str  # "optimal" or "numerical_failure"
    x_blocks: list
    y: np.ndarray
    z_blocks: list
    pobj: float
    dobj: float
    iterations: int
    pinf: float
    dinf: float
    relgap: float
    mu: float


def _chol(a):
    return np.linalg.cholesky(a)


def _max_step(x, dx):
    """Largest alpha with x + alpha dx PSD; inf when dx keeps the cone."""
    try:
        l = _chol(x)
    except np.linalg.LinAlgError:
        n = x.shape[0]
        l = _chol(x + (1e-14 * np.trace(x) / n + 1e-300) * np.eye(n))
    s = solve_triangular(l, dx, lower=True)
    s = solve_triangular(l, s.T, lower=True)
    lmin = float(np.linalg.eigvalsh(sym(s))[0])
    if lmin >= -1e-14:
        return np.inf
    return -1.0 / lmin


def _factor_schur(h):
    reg = 0.0
    base = max(np.max(np.diag(h)), 1.0)
    for _ in range(4):
        try:
            return cho_factor(h + reg * np.eye(h.shape[0]), lower=True), reg
        except np.linalg.LinAlgError:
            reg = base * 1e-12 if reg == 0.0 else reg * 1e4
    raise np.linalg.LinAlgError("Schur complement not positive definite")


def solve_ipm(
    ops,
    x0=None,
    y0=None,
    z0=None,
    tol: float = 1e-8,
    max_iters: int = 100,
    step_frac: float = 0.98,
) -> IpmResult:
    nb = len(ops.block_sizes)
    x = [np.eye(n) if x0 is None else np.array(x0[j], dtype=float)
         for j, n in enumerate(ops.block_sizes)]
    z = [np.eye(n) if z0 is None else np.array(z0[j], dtype=float)
         for j, n in enumerate(ops.block_sizes)]
    y = np.zeros(ops.m) if y0 is None else np.array(y0, dtype=float)
    ntot = sum(ops.block_sizes)
    bnorm = 1.0 + np.linalg.norm(ops.b)
    cnorm = 1.0 + max(np.linalg.norm(c) for c in ops.C)

    best = np.inf
    best_iter = 0
    status = "numerical_failure"
    it = 0
    pinf = dinf = relgap = mu = np.nan
    pobj = dobj = np.nan

    for it in range(max_iters + 1):
        pobj = sum(float(np.sum(c * xj)) for c, xj in zip(ops.C, x))
        dobj = float(ops.b @ y)
        rp = ops.b - ops.apply_A(x)
        aty = ops.apply_AT(y)
        rd = [ops.C[j] - aty[j] - z[j] for j in range(nb)]
        mu = sum(float(np.sum(xj * zj)) for xj, zj in zip(x, z)) / ntot
        pinf = float(np.linalg.norm(rp)) / bnorm
        # np.max, unlike max(), propagates a NaN in any position
        dinf = float(np.max([np.linalg.norm(r) for r in rd])) / cnorm
        relgap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        metric = float(np.max([pinf, dinf, relgap]))

        if not np.isfinite(metric) or not np.isfinite(mu):
            break  # diverged (e.g. infeasible problem)
        if metric <= tol:
            status = "optimal"
            break
        if metric < 0.9 * best:
            best, best_iter = metric, it
        elif it - best_iter > 25:
            break
        if it == max_iters:
            break

        try:
            zinv = []
            for zj in z:
                l = _chol(zj)
                li = solve_triangular(l, np.eye(zj.shape[0]), lower=True)
                zinv.append(li.T @ li)
            h = ops.schur(zinv, x)
            hf, _ = _factor_schur(h)

            def solve_h(rhs):
                dy = cho_solve(hf, rhs)
                dy += cho_solve(hf, rhs - h @ dy)
                return dy

            t1 = [sym(zinv[j] @ rd[j] @ x[j]) for j in range(nb)]

            # predictor (affine scaling, tau = 0)
            rhs = rp + ops.apply_A([x[j] + t1[j] for j in range(nb)])
            dy_a = solve_h(rhs)
            atdy = ops.apply_AT(dy_a)
            dz_a = [rd[j] - atdy[j] for j in range(nb)]
            dx_a = [
                sym(-x[j] - t1[j] + sym(zinv[j] @ atdy[j] @ x[j]))
                for j in range(nb)
            ]
            ap = min(1.0, min(_max_step(x[j], dx_a[j]) for j in range(nb)))
            ad = min(1.0, min(_max_step(z[j], dz_a[j]) for j in range(nb)))
            mu_aff = sum(
                float(np.sum((x[j] + ap * dx_a[j]) * (z[j] + ad * dz_a[j])))
                for j in range(nb)
            ) / ntot
            sigma = min(1.0, max(mu_aff / mu, 0.0)) ** 3
            tau = sigma * mu

            # corrector
            corr = [sym(zinv[j] @ dz_a[j] @ dx_a[j]) for j in range(nb)]
            rhs = (
                rp
                + ops.apply_A([x[j] + t1[j] + corr[j] for j in range(nb)])
                - tau * ops.apply_A(zinv)
            )
            dy = solve_h(rhs)
            atdy = ops.apply_AT(dy)
            dz = [rd[j] - atdy[j] for j in range(nb)]
            dx = [
                sym(tau * zinv[j] - x[j] - t1[j]
                    + sym(zinv[j] @ atdy[j] @ x[j]) - corr[j])
                for j in range(nb)
            ]
            ap = min(1.0, step_frac * min(_max_step(x[j], dx[j])
                                          for j in range(nb)))
            ad = min(1.0, step_frac * min(_max_step(z[j], dz[j])
                                          for j in range(nb)))
        except (np.linalg.LinAlgError, ValueError):
            break  # factorization lost or iterates overflowed
        if ap < 1e-8 and ad < 1e-8:
            break
        for j in range(nb):
            x[j] = sym(x[j] + ap * dx[j])
            z[j] = sym(z[j] + ad * dz[j])
        y = y + ad * dy

    return IpmResult(
        status=status,
        x_blocks=x,
        y=y,
        z_blocks=z,
        pobj=pobj,
        dobj=dobj,
        iterations=it,
        pinf=pinf,
        dinf=dinf,
        relgap=relgap,
        mu=mu,
    )
