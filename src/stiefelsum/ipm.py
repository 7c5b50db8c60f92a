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

Blocks are held as stacks: a group of blocks of equal size is one
(count, n, n) array, so the iteration's per-block work (factors, products,
step lengths, residuals) is one batched call per stack. An operator's cost
ops.C, a list of stacks, fixes the layout: its operators, and solve_ipm's
starts and results, are lists of stacks of the same shapes. The relaxation
is one stack; the certificate three.

A step length needs only the least eigenvalue of the scaled direction
(Toh 2002), so least_eigenvalues computes that one eigenvalue per matrix
rather than the spectrum; the certificate's slack gate uses it too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dlamch, dsyevx, dtrtri

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
    """svec of a matrix, or one row per matrix of a stack."""
    i, j, w = svec_indices(x.shape[-1])
    return w * x[..., i, j]


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
    in svec coordinates; p and q are (nb, d, d) stacks of symmetric P_a, Q_a.

    Row (i, j) holds v_ij v_kl (R[k, l] + R[l, k]) over the columns (k, l),
    where R = sum_a P_a[i]' Q_a[j] + Q_a[i]' P_a[j] is one stacked product
    and v the halved svec weights."""
    d = p.shape[1]
    i, j, ij, ji, v = _coupling_indices(d)
    # left[i] = [P_a[i]; Q_a[i]]', right[j] = [Q_a[j]; P_a[j]]; contiguous,
    # so that each chunk gathers whole rows
    left = np.concatenate([p, q]).transpose(1, 2, 0).copy()
    right = np.concatenate([q, p]).transpose(1, 0, 2).copy()
    for r0 in range(0, len(i), _COUPLING_CHUNK):
        rows = slice(r0, r0 + _COUPLING_CHUNK)
        r = np.matmul(left[i[rows]], right[j[rows]]).reshape(-1, d * d)
        s = np.take(r, ij, axis=1)
        s += np.take(r, ji, axis=1)
        np.multiply(s, v[rows, None] * v, out=out[rows])


# dsyevx's absolute eigenvalue tolerance: 2 * underflow threshold, the
# value LAPACK recommends for full accuracy
_EIG_ABSTOL = 2.0 * dlamch("S")


def least_eigenvalues(a):
    """Least eigenvalue of each matrix of the (count, n, n) stack a, whose
    lower triangles are read, as eigvalsh reads them. One LAPACK dsyevx call
    per matrix computes only that eigenvalue; a 1 x 1 matrix is its own. A
    call that fails (as on a NaN) raises LinAlgError, as does a non-finite
    1 x 1 matrix."""
    a = np.asarray(a, dtype=float)
    if a.shape[-1] == 1:
        if not np.isfinite(a).all():
            raise np.linalg.LinAlgError("matrix not finite")
        return a[:, 0, 0].copy()
    out = np.empty(len(a))
    for i, m in enumerate(a):
        w, _, _, _, info = dsyevx(m, compute_v=0, range="I", iu=1,
                                  abstol=_EIG_ABSTOL, lower=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"dsyevx failed: info = {info}")
        out[i] = w[0]
    return out


def eye_stacks(ops):
    """Identity blocks in the layout of ops.C."""
    return [np.zeros_like(c) + np.eye(c.shape[-1]) for c in ops.C]


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
    relaxation minimizes the negated objective) and zero on the slack. mats
    is the (k, d, d) stack of the M_i; every block is in the one stack C[0].
    """

    def __init__(self, mats, d: int):
        mats = np.asarray(mats, dtype=float)
        if mats.shape[1:] != (d, d):
            raise ValueError("variable blocks must have size d")
        self.k = len(mats)
        self.d = d
        self.has_slack = self.k < d
        self.sd = d * (d + 1) // 2
        self.off = self.k
        self.m = self.off + self.sd
        cost = np.zeros((self.k + self.has_slack, d, d))
        cost[:self.k] = np.negative(mats)
        self.C = [cost]
        b = np.ones(self.m)
        b[self.off:] = svec(np.eye(d))
        self.b = b

    def apply_A(self, stacks):
        x, = stacks
        return np.concatenate([np.trace(x[:self.k], axis1=1, axis2=2),
                               svec(x.sum(axis=0))])

    def apply_AT(self, y):
        k, i = self.k, np.arange(self.d)
        out = np.repeat(smat(y[self.off:], self.d)[None], len(self.C[0]),
                        axis=0)
        out[:k, i, i] += y[:k, None]
        return [out]

    def schur(self, zinv, x):
        (zinv,), (x,) = zinv, x
        k, i = self.k, np.arange(self.k)
        h = np.empty((self.m, self.m))
        h[:k, :k] = 0.0
        pq = zinv[:k] @ x[:k]
        h[i, i] = np.trace(pq, axis1=1, axis2=2)
        h[:k, k:] = svec(sym(pq))
        h[k:, :k] = h[:k, k:].T
        coupling_block(zinv, x, h[k:, k:])
        return h


class DenseOps:
    """Diagonal constraint data: column p of diags[s][j] is the diagonal of
    constraint p's coefficient on block j of stack s (a zero column for no
    coupling), so diags[s] is (count, n, m) for the (count, n, n) cost
    stack cmats[s]. Meant for problems with a handful of constraints; the
    Schur complement sum_j A_j' (Z_j^-1 o X_j) A_j is m x m dense."""

    def __init__(self, diags, b, cmats):
        self.diags = [np.asarray(a, dtype=float) for a in diags]
        self.b = np.asarray(b, dtype=float)
        self.m = len(self.b)
        self.C = [np.asarray(c, dtype=float) for c in cmats]

    def apply_A(self, stacks):
        return sum(a.reshape(-1, self.m).T
                   @ np.diagonal(x, axis1=1, axis2=2).ravel()
                   for a, x in zip(self.diags, stacks))

    def apply_AT(self, y):
        return [(a @ y)[:, :, None] * np.eye(a.shape[1]) for a in self.diags]

    def schur(self, zinv, x):
        m = self.m
        h = sum(a.reshape(-1, m).T @ ((zi * xj) @ a).reshape(-1, m)
                for a, zi, xj in zip(self.diags, zinv, x))
        return 0.5 * (h + h.T)  # symmetrize away accumulation roundoff


# ---------------------------------------------------------------------------
# Shared predictor-corrector iteration

@dataclass
class IpmResult:
    status: str  # "optimal", "feasible" (stop held) or "numerical_failure"
    x: list  # stacks, shaped as ops.C
    y: np.ndarray
    z: list
    pobj: float
    dobj: float
    iterations: int
    pinf: float
    dinf: float
    relgap: float
    mu: float
    schur_shift: float  # largest diagonal shift _factor_schur applied


def _inverse_factor(a):
    """L^-1 for the Cholesky factor L of each matrix of the stack a, so
    a^-1 = L^-T L^-1; every matrix must be PD. LAPACK's triangular inverse
    runs once per matrix: it has no batched form in numpy or scipy 1.10."""
    return np.array([dtrtri(f, lower=1)[0] for f in np.linalg.cholesky(a)])


def _max_step(li, da):
    """Largest alpha with a + alpha da PSD for every matrix of the stack a,
    where li = _inverse_factor(a); inf when da keeps the cone."""
    lmin = float(np.min(least_eigenvalues(sym(li @ da @ li.swapaxes(1, 2)))))
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
    """x0 and z0 are lists of stacks shaped as ops.C (identities when
    omitted); the result's x and z are too."""
    eyes = eye_stacks(ops)
    x = eyes if x0 is None else [np.asarray(s, dtype=float) for s in x0]
    z = eyes if z0 is None else [np.asarray(s, dtype=float) for s in z0]
    y = np.zeros(ops.m) if y0 is None else np.array(y0, dtype=float)
    ntot = sum(c.shape[0] * c.shape[1] for c in ops.C)
    bnorm = 1.0 + np.linalg.norm(ops.b)
    cnorm = 1.0 + max(np.linalg.norm(c, axis=(1, 2)).max() for c in ops.C)

    best = np.inf
    best_iter = 0
    status = "numerical_failure"
    it = 0
    pinf = dinf = relgap = mu = np.nan
    pobj = dobj = np.nan
    schur_shift = 0.0

    for it in range(max_iters + 1):
        pobj = sum(float(np.sum(c * xs)) for c, xs in zip(ops.C, x))
        dobj = float(ops.b @ y)
        rp = ops.b - ops.apply_A(x)
        rd = [c - a - zs for c, a, zs in zip(ops.C, ops.apply_AT(y), z)]
        mu = sum(float(np.sum(xs * zs)) for xs, zs in zip(x, z)) / ntot
        pinf = float(np.linalg.norm(rp)) / bnorm
        # np.max, unlike max(), propagates a NaN in any position
        dinf = float(np.max(np.concatenate(
            [np.linalg.norm(r, axis=(1, 2)) for r in rd]))) / cnorm
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
            lx = [_inverse_factor(xs) for xs in x]
            lz = [_inverse_factor(zs) for zs in z]
            zinv = [li.swapaxes(1, 2) @ li for li in lz]
            h = ops.schur(zinv, x)
            hf, reg = _factor_schur(h)
            schur_shift = max(schur_shift, reg)

            def solve_h(rhs):
                dy = cho_solve(hf, rhs, check_finite=False)
                # ValueError once dy overflows (or rhs was not finite)
                resid = np.asarray_chkfinite(rhs - h @ dy)
                dy += cho_solve(hf, resid, check_finite=False)
                return dy

            t1 = [sym(zi @ r @ xs) for zi, r, xs in zip(zinv, rd, x)]
            a_zinv = ops.apply_A(zinv)

            def direction(tau, corr):
                """HKM direction for the centering target tau and the
                Mehrotra second-order term corr."""
                rhs = (rp
                       + ops.apply_A([xs + t + c
                                      for xs, t, c in zip(x, t1, corr)])
                       - tau * a_zinv)
                dy = solve_h(rhs)
                atdy = ops.apply_AT(dy)
                dz = [r - a for r, a in zip(rd, atdy)]
                dx = [sym(tau * zi - xs - t + sym(zi @ a @ xs) - c)
                      for zi, xs, t, a, c in zip(zinv, x, t1, atdy, corr)]
                return dx, dy, dz

            # predictor (affine scaling)
            dx_a, _, dz_a = direction(0.0, [0.0] * len(x))
            ap = min(1.0, min(map(_max_step, lx, dx_a)))
            ad = min(1.0, min(map(_max_step, lz, dz_a)))
            mu_aff = sum(
                float(np.sum((xs + ap * dxs) * (zs + ad * dzs)))
                for xs, dxs, zs, dzs in zip(x, dx_a, z, dz_a)
            ) / ntot
            sigma = min(1.0, max(mu_aff / mu, 0.0)) ** 3
            tau = sigma * mu

            # corrector
            corr = [sym(zi @ dzs @ dxs)
                    for zi, dzs, dxs in zip(zinv, dz_a, dx_a)]
            dx, dy, dz = direction(tau, corr)
            ap = min(1.0, step_frac * min(map(_max_step, lx, dx)))
            ad = min(1.0, step_frac * min(map(_max_step, lz, dz)))
        except (np.linalg.LinAlgError, ValueError):
            break  # factorization lost or iterates overflowed
        if ap < 1e-8 and ad < 1e-8:
            break
        x = [sym(xs + ap * dxs) for xs, dxs in zip(x, dx)]
        z = [sym(zs + ad * dzs) for zs, dzs in zip(z, dz)]
        y = y + ad * dy

    return IpmResult(
        status=status,
        x=x,
        y=y,
        z=z,
        pobj=pobj,
        dobj=dobj,
        iterations=it,
        pinf=pinf,
        dinf=dinf,
        relgap=relgap,
        mu=mu,
        schur_shift=schur_shift,
    )
