"""Primal-dual interior-point core for the block semidefinite programs used
throughout the package.

Standard form over a product of PSD cones:

    min <C, X>  s.t.  A(X) = b,  X_j PSD for every block j,

solved together with its dual  max b'y  s.t.  A*(y) + Z = C,  Z_j PSD.
The search direction is the HKM direction, stepped with a Mehrotra
predictor-corrector.

Two constraint-operator flavors feed the shared iteration:

* FantopeOps: k trace-one blocks coupled through sum_i X_i + S = I, the
  structure of the relaxation. The Schur complement is assembled blockwise.
* DenseOps: a handful of constraints whose matrices are all diagonal, the
  structure of the optimality certificate in the [U, U_perp] basis. The
  Schur complement is one elementwise product per block.
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


# svec rows of the coupling block per stacked matmul: bounds the (rows, d, d)
# scratch to about 1 MB at d = 60, so no d^4 array is ever formed
_COUPLING_CHUNK = 32


@lru_cache(maxsize=None)
def _coupling_indices(d: int):
    """The svec coordinates (i, j), the flat positions of (i, j) and (j, i)
    in a d x d matrix, and the svec weights halved."""
    i, j, w = svec_indices(d)
    ij, ji, v = i * d + j, j * d + i, 0.5 * w
    for a in (ij, ji, v):
        a.setflags(write=False)
    return i, j, ij, ji, v


def coupling_block(p, q, out):
    """Write into out the matrix of V -> sum_a 0.5 (P_a V Q_a + Q_a V P_a)
    in svec coordinates; every P_a, Q_a is symmetric d x d.

    Row (i, j) holds v_ij v_kl (R[k, l] + R[l, k]) over the columns (k, l),
    where R = sum_a P_a[i]' Q_a[j] + Q_a[i]' P_a[j] is one stacked product
    and v the halved svec weights."""
    d = p[0].shape[0]
    i, j, ij, ji, v = _coupling_indices(d)
    left = np.stack([*p, *q], axis=2)  # left[i] = [P_a[i]; Q_a[i]]'
    right = np.stack([*q, *p], axis=1)  # right[j] = [Q_a[j]; P_a[j]]
    for r0 in range(0, len(i), _COUPLING_CHUNK):
        rows = slice(r0, r0 + _COUPLING_CHUNK)
        r = np.matmul(left[i[rows]], right[j[rows]]).reshape(-1, d * d)
        s = np.take(r, ij, axis=1)
        s += np.take(r, ji, axis=1)
        np.multiply(s, v[rows, None] * v, out=out[rows])


# ---------------------------------------------------------------------------
# Constraint operators

class FantopeOps:
    """Constraints of the block relaxation.

    Variable blocks X_1..X_k of size d, plus one slack block S of size d
    when k < d, with

        tr(X_i) = 1              (k rows)
        sum_i X_i [+ S] = I      (d(d+1)/2 rows in svec coordinates)

    With the slack the coupling reads sum_i X_i <= I; without it (used when
    k = d, where the slack is forced to zero and would kill strict
    feasibility) the coupling is an equality. Cost blocks are -mats[i] (the
    relaxation minimizes the negated objective) and zero on the slack.
    """

    def __init__(self, mats, d: int):
        mats = [np.asarray(m, dtype=float) for m in mats]
        if any(m.shape != (d, d) for m in mats):
            raise ValueError("variable blocks must have size d")
        self.k = len(mats)
        self.d = d
        self.has_slack = self.k < d
        self.sd = d * (d + 1) // 2
        self.off = self.k
        self.m = self.off + self.sd
        self.block_sizes = [d] * self.k
        self.C = [-m for m in mats]
        if self.has_slack:
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
        h = np.empty((self.m, self.m))
        h[:off, :off] = 0.0
        for i in range(self.k):
            pq = zinv[i] @ x[i]
            h[i, i] = np.trace(pq)
            row = svec(sym(pq))
            h[i, off:] = row
            h[off:, i] = row
        coupling_block(zinv, x, h[off:, off:])
        return h


class DenseOps:
    """Diagonal constraint data: column p of diags[j] is the diagonal of
    constraint p's coefficient on block j (a zero column for no coupling).
    Meant for problems with a handful of constraints; the Schur complement
    sum_j A_j' (Z_j^-1 o X_j) A_j is m x m dense."""

    def __init__(self, diags, b, cmats):
        self.diags = [np.asarray(a, dtype=float) for a in diags]
        self.block_sizes = [a.shape[0] for a in self.diags]
        self.b = np.asarray(b, dtype=float)
        self.m = len(self.b)
        self.C = [np.asarray(c, dtype=float) for c in cmats]

    def apply_A(self, blocks):
        return sum(a.T @ np.diagonal(x) for a, x in zip(self.diags, blocks))

    def apply_AT(self, y):
        return [np.diag(a @ y) for a in self.diags]

    def schur(self, zinv, x):
        h = sum(a.T @ (zi * xj) @ a for a, zi, xj in zip(self.diags, zinv, x))
        return 0.5 * (h + h.T)  # symmetrize away accumulation roundoff


# ---------------------------------------------------------------------------
# Shared predictor-corrector iteration

@dataclass
class IpmResult:
    status: str  # "optimal", "feasible" (stop held) or "numerical_failure"
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
    schur_shift: float  # largest diagonal shift _factor_schur applied


def _inverse_factor(a):
    """L^-1 for a's Cholesky factor L, so a^-1 = L^-T L^-1; a must be PD."""
    return solve_triangular(np.linalg.cholesky(a), np.eye(len(a)), lower=True)


def _max_step(li, da):
    """Largest alpha with a + alpha da PSD, where li = _inverse_factor(a);
    inf when da keeps the cone."""
    lmin = float(np.linalg.eigvalsh(sym(li @ da @ li.T))[0])
    if lmin >= -1e-14:
        return np.inf
    return -1.0 / lmin


def _factor_schur(h):
    """Cholesky factor of h and the diagonal shift it needed (0.0 when none).

    A non-finite h raises LinAlgError here, once, which is why the factor
    and its solves skip scipy's own finiteness checks."""
    if not np.isfinite(h).all():
        raise np.linalg.LinAlgError("Schur complement not finite")
    reg = 0.0
    base = max(np.max(np.diag(h)), 1.0)
    for _ in range(4):
        try:
            hr = h if reg == 0.0 else h + reg * np.eye(h.shape[0])
            return cho_factor(hr, lower=True, check_finite=False), reg
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
    stop=None,  # predicate on y: ends the solve at "feasible" once it holds
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
    schur_shift = 0.0

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
        if stop is not None and stop(y):
            status = "feasible"
            break
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
            lx = [_inverse_factor(xj) for xj in x]
            lz = [_inverse_factor(zj) for zj in z]
            zinv = [li.T @ li for li in lz]
            h = ops.schur(zinv, x)
            hf, reg = _factor_schur(h)
            schur_shift = max(schur_shift, reg)

            def solve_h(rhs):
                dy = cho_solve(hf, rhs, check_finite=False)
                # ValueError once dy overflows (or rhs was not finite)
                resid = np.asarray_chkfinite(rhs - h @ dy)
                dy += cho_solve(hf, resid, check_finite=False)
                return dy

            t1 = [sym(zinv[j] @ rd[j] @ x[j]) for j in range(nb)]
            a_zinv = ops.apply_A(zinv)

            def direction(tau, corr):
                """HKM direction for the centering target tau and the
                Mehrotra second-order term corr."""
                rhs = (rp
                       + ops.apply_A([x[j] + t1[j] + corr[j] for j in range(nb)])
                       - tau * a_zinv)
                dy = solve_h(rhs)
                atdy = ops.apply_AT(dy)
                dz = [rd[j] - atdy[j] for j in range(nb)]
                dx = [
                    sym(tau * zinv[j] - x[j] - t1[j]
                        + sym(zinv[j] @ atdy[j] @ x[j]) - corr[j])
                    for j in range(nb)
                ]
                return dx, dy, dz

            # predictor (affine scaling)
            dx_a, _, dz_a = direction(0.0, [0.0] * nb)
            ap = min(1.0, min(_max_step(lx[j], dx_a[j]) for j in range(nb)))
            ad = min(1.0, min(_max_step(lz[j], dz_a[j]) for j in range(nb)))
            mu_aff = sum(
                float(np.sum((x[j] + ap * dx_a[j]) * (z[j] + ad * dz_a[j])))
                for j in range(nb)
            ) / ntot
            sigma = min(1.0, max(mu_aff / mu, 0.0)) ** 3
            tau = sigma * mu

            # corrector
            corr = [sym(zinv[j] @ dz_a[j] @ dx_a[j]) for j in range(nb)]
            dx, dy, dz = direction(tau, corr)
            ap = min(1.0, step_frac * min(_max_step(lx[j], dx[j])
                                          for j in range(nb)))
            ad = min(1.0, step_frac * min(_max_step(lz[j], dz[j])
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
        schur_shift=schur_shift,
    )
