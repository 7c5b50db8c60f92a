"""Primal-dual interior-point method for the block semidefinite relaxation.

Standard form over a product of PSD cones:

    min <C, X>  s.t.  A(X) = b,  X_j PSD for every block j,

solved together with its dual  max b'y  s.t.  A*(y) + Z = C,  Z_j PSD.
The search direction is the HKM direction, stepped with a Mehrotra
predictor-corrector. The constraint operator is FantopeOps: k trace-one
blocks coupled through sum_i X_i + S = I, the structure of the relaxation,
whose Schur complement is assembled blockwise.

Every block of the relaxation has size d, so the blocks are held as one
(nb, d, d) stack, the layout of the cost ops.C: the iteration's per-block
work (factors, products, step lengths, residuals) is one batched call.
solve_ipm starts at FantopeOps.start() and returns X and Z as stacks of
the same shape.

Each solve holds one m x m array: FantopeOps.schur assembles the lower
triangle of the Schur complement H into one Fortran-ordered buffer and
mirrors it above the diagonal, and _factor_schur factors it there with
LAPACK dpotrf, as CSDP (Borchers 1999) and SDPT3 (Toh, Todd & Tutuncu
1999) do. The factor overwrites only the lower triangle, so the strict
upper one still holds H: each Schur solve is a dpotrs on the factor,
refined once against H through dsymv on the upper triangle.

A step length needs only the least eigenvalue of the scaled direction
(Toh 2002), so least_eigenvalues computes that one eigenvalue per matrix
rather than the spectrum; the certificate's slack gate and sdp.check_kkt
use it too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg.blas import dsymv
from scipy.linalg.lapack import dlamch, dpotrf, dpotrs, dsyevx, dtrtri

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
# where a chunk's diagonal block keeps its own entries: on and below the
# diagonal
_CHUNK_LOWER = np.tri(_COUPLING_CHUNK, dtype=bool)
_CHUNK_LOWER.setflags(write=False)


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
    and v the halved svec weights. Only the columns up to the diagonal are
    gathered; each chunk of rows is written again, transposed, above it, so
    out is exactly symmetric."""
    d = p.shape[1]
    i, j, ij, ji, v = _coupling_indices(d)
    # left[i] = [P_a[i]; Q_a[i]]', right[j] = [Q_a[j]; P_a[j]]; contiguous,
    # so that each chunk gathers whole rows
    left = np.concatenate([p, q]).transpose(1, 2, 0).copy()
    right = np.concatenate([q, p]).transpose(1, 0, 2).copy()
    for r0 in range(0, len(i), _COUPLING_CHUNK):
        r1 = min(r0 + _COUPLING_CHUNK, len(i))
        rows = slice(r0, r1)
        r = np.matmul(left[i[rows]], right[j[rows]]).reshape(-1, d * d)
        s = np.take(r, ij[:r1], axis=1)
        s += np.take(r, ji[:r1], axis=1)
        s *= v[rows, None] * v[:r1]
        blk = s[:, r0:]  # the chunk's diagonal block: mirror its lower half
        blk[...] = np.where(_CHUNK_LOWER[:r1 - r0, :r1 - r0], blk, blk.T)
        out[rows, :r1] = s
        out[:r0, rows] = s[:, :r0].T


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
    is the (k, d, d) stack of the M_i; the cost C is the (nb, d, d) stack
    of every block, nb = k + [k < d], with the slack last. The rows of y
    are the k trace rows, then the svec rows of the coupling.

    schur assembles the Schur complement into one Fortran-ordered (m, m)
    buffer, allocated on the first call and reused by every later one, so a
    solve holds one m x m array, which _factor_schur factors in place.
    """

    def __init__(self, mats, d: int):
        mats = np.asarray(mats, dtype=float)
        if mats.shape[1:] != (d, d):
            raise ValueError("variable blocks must have size d")
        self.k = len(mats)
        self.d = d
        self.has_slack = self.k < d
        self.sd = d * (d + 1) // 2
        self.m = self.k + self.sd
        self.C = np.zeros((self.k + self.has_slack, d, d))
        self.C[:self.k] = np.negative(mats)
        b = np.ones(self.m)
        b[self.k:] = svec(np.eye(d))
        self.b = b
        self._h = None

    def start(self):
        """The interior start (X, y, Z): X_i = I/d, S = (1 - k/d) I, so X
        is primal feasible; y = -1 on the trace rows and -svec(I) on the
        coupling rows; Z = I."""
        d, k = self.d, self.k
        eye = np.eye(d)
        x = np.repeat(eye[None] / d, len(self.C), axis=0)
        if self.has_slack:
            x[k] = (1.0 - k / d) * eye
        y = np.zeros(self.m)
        y[:k] = -1.0
        y[k:] = svec(-eye)
        return x, y, np.zeros_like(self.C) + eye

    def apply_A(self, x):
        return np.concatenate([np.trace(x[:self.k], axis1=1, axis2=2),
                               svec(x.sum(axis=0))])

    def apply_AT(self, y):
        k, i = self.k, np.arange(self.d)
        out = np.repeat(smat(y[k:], self.d)[None], len(self.C), axis=0)
        out[:k, i, i] += y[:k, None]
        return out

    def schur(self, zinv, x):
        """The exactly symmetric Schur complement A (Z^-1 . X) A*, written
        into this operator's one buffer."""
        if self._h is None:
            self._h = np.empty((self.m, self.m), order="F")
        k, i, h = self.k, np.arange(self.k), self._h
        h[:k, :k] = 0.0
        pq = zinv[:k] @ x[:k]
        h[i, i] = np.trace(pq, axis1=1, axis2=2)
        h[:k, k:] = svec(sym(pq))
        h[k:, :k] = h[:k, k:].T
        coupling_block(zinv, x, h[k:, k:])
        return h


# ---------------------------------------------------------------------------
# Predictor-corrector iteration

@dataclass
class IpmResult:
    status: str  # "optimal" or "numerical_failure"
    x: np.ndarray  # (nb, d, d) stack, shaped as ops.C
    y: np.ndarray
    z: np.ndarray  # shaped as x
    pobj: float
    dobj: float
    iterations: int
    pinf: float
    dinf: float
    relgap: float
    mu: float
    schur_shift: float  # largest diagonal shift _factor_schur applied

    def summary(self) -> dict:
        """The run as reports and records describe it: how it stopped,
        after how many iterations, with which final residuals and Schur
        shift."""
        return {"status": self.status, "iterations": self.iterations,
                "pinf": self.pinf, "dinf": self.dinf, "relgap": self.relgap,
                "schur_shift": self.schur_shift}


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
    """Cholesky factor of the symmetric h and the diagonal shift it needed
    (0.0 when none).

    The factor is one (m, m) Fortran-ordered array: its lower triangle is
    L, with L L' = h + shift I, and its strict upper triangle is h's, as
    dpotrs and dsymv(lower=0) read them. A Fortran-ordered h is factored in
    place; any other h is copied first and left unchanged. A failed attempt
    rebuilds the lower triangle from the upper one, and the diagonal from a
    saved copy, before the next shift. A non-finite h raises LinAlgError
    here, once, which is why the factor and its solves skip any finiteness
    check of their own."""
    if not np.isfinite(h).all():
        raise np.linalg.LinAlgError("Schur complement not finite")
    h = np.asfortranarray(h, dtype=np.float64)
    diag = h.diagonal().copy()
    reg = 0.0
    base = max(np.max(diag), 1.0)
    for _ in range(4):
        c, info = dpotrf(h, lower=1, clean=0, overwrite_a=1)
        if info == 0:
            return c, reg
        for col in range(len(diag) - 1):
            h[col + 1:, col] = h[col, col + 1:]
        reg = base * 1e-12 if reg == 0.0 else reg * 1e4
        np.fill_diagonal(h, diag + reg)
    raise np.linalg.LinAlgError("Schur complement not positive definite")


def solve_ipm(
    ops: FantopeOps,
    tol: float = 1e-8,
    max_iters: int = 100,
    step_frac: float = 0.98,
) -> IpmResult:
    """Run the iteration from ops.start() until the residuals and the
    relative gap are below tol, or it stalls, diverges or hits max_iters."""
    x, y, z = ops.start()
    ntot = ops.C.shape[0] * ops.C.shape[1]
    bnorm = 1.0 + np.linalg.norm(ops.b)
    cnorm = 1.0 + np.linalg.norm(ops.C, axis=(1, 2)).max()

    best = np.inf
    best_iter = 0
    status = "numerical_failure"
    it = 0
    pinf = dinf = relgap = mu = np.nan
    pobj = dobj = np.nan
    schur_shift = 0.0

    for it in range(max_iters + 1):
        pobj = float(np.sum(ops.C * x))
        dobj = float(ops.b @ y)
        rp = ops.b - ops.apply_A(x)
        rd = ops.C - ops.apply_AT(y) - z
        mu = float(np.sum(x * z)) / ntot
        pinf = float(np.linalg.norm(rp)) / bnorm
        # np.max, unlike max(), propagates a NaN in any position
        dinf = float(np.max(np.linalg.norm(rd, axis=(1, 2)))) / cnorm
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
            lx = _inverse_factor(x)
            lz = _inverse_factor(z)
            zinv = lz.swapaxes(1, 2) @ lz
            h = ops.schur(zinv, x)
            hdiag = h.diagonal().copy()
            hf, reg = _factor_schur(h)
            schur_shift = max(schur_shift, reg)
            # dsymv reads h's upper triangle and the factor's diagonal
            dfix = hdiag - hf.diagonal()

            def solve_h(rhs):
                """h^-1 rhs, refined once against the unshifted h."""
                dy = dpotrs(hf, rhs, lower=1)[0]
                resid = dsymv(-1.0, hf, dy, beta=1.0, y=rhs) - dfix * dy
                # ValueError once dy overflows (or rhs was not finite)
                dy += dpotrs(hf, np.asarray_chkfinite(resid), lower=1)[0]
                return dy

            t1 = sym(zinv @ rd @ x)
            a_zinv = ops.apply_A(zinv)

            def direction(tau, corr):
                """HKM direction for the centering target tau and the
                Mehrotra second-order term corr."""
                rhs = rp + ops.apply_A(x + t1 + corr) - tau * a_zinv
                dy = solve_h(rhs)
                atdy = ops.apply_AT(dy)
                dz = rd - atdy
                dx = sym(tau * zinv - x - t1 + sym(zinv @ atdy @ x) - corr)
                return dx, dy, dz

            # predictor (affine scaling)
            dx_a, _, dz_a = direction(0.0, 0.0)
            ap = min(1.0, _max_step(lx, dx_a))
            ad = min(1.0, _max_step(lz, dz_a))
            mu_aff = float(np.sum((x + ap * dx_a) * (z + ad * dz_a))) / ntot
            sigma = min(1.0, max(mu_aff / mu, 0.0)) ** 3
            tau = sigma * mu

            # corrector
            dx, dy, dz = direction(tau, sym(zinv @ dz_a @ dx_a))
            ap = min(1.0, step_frac * _max_step(lx, dx))
            ad = min(1.0, step_frac * _max_step(lz, dz))
        except (np.linalg.LinAlgError, ValueError):
            break  # factorization lost or iterates overflowed
        if ap < 1e-8 and ad < 1e-8:
            break
        x = sym(x + ap * dx)
        z = sym(z + ad * dz)
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
