"""Primal-dual interior-point method for the block semidefinite relaxation.

Standard form over a product of PSD cones:

    min <C, X>  s.t.  A(X) = b,  X_j PSD for every block j,

solved together with its dual  max b'y  s.t.  A*(y) + Z = C,  Z_j PSD.
The search direction is the HKM direction, stepped with a Mehrotra
predictor-corrector and one step length for X, y and Z (see below). The
constraint operator is FantopeOps: k < d trace-one blocks coupled through
sum_i X_i + S = I, the structure of the relaxation, whose Schur
complement is assembled blockwise. It has one formulation, whose
constraints have full row rank; the square case k = d is the same one on
k - 1 blocks (sdp.solve_sdp).

Every block of the relaxation has size d, so the blocks are held as one
(nb, d, d) stack, the layout of the cost ops.C: the iteration's per-block
work (factors, products, step lengths, residuals) is one batched call.
solve_ipm starts at FantopeOps.start() and returns X and Z as stacks of
the same shape.

Each solve holds one m x m array: FantopeOps.schur assembles the lower
triangle of the Schur complement H into one Fortran-ordered buffer, and
_factor_schur factors it there with LAPACK dpotrf, as CSDP (Borchers 1999)
and SDPT3 (Toh, Todd & Tutuncu 1999) do. Nothing reads the strict upper
triangle: the factor, its solves and a shifted retry, which assembles H
again, all work on the lower one. Each Schur solve (_solve_factor) is two
level-2 triangular solves (BLAS dtrsv, or strsv on a float32 factor),
which for one right-hand side cost less than LAPACK dpotrs. Every solve is
refined in float64 against the exact matrix-free product
FantopeOps.schur_product, H v = A(sym(Z^-1 A*(v) X)), which costs a few
small matrix products.

Mixed precision (Buttari et al. 2007; Carson & Higham 2018): from
m = _SINGLE_MIN_M on, an iteration first assembles H in float32 into the
first half of the same buffer and factors it with spotrf, about half
dpotrf's time; each solve on that factor is refined until its residual is
below _SINGLE_RTOL relative. While H is well conditioned (the early
iterations) that takes a few steps. A float32 factor that fails, or a
solve that misses _SINGLE_RTOL within _SINGLE_MAX_STEPS, hands that
iteration and every later one to float64; a solve that needed
_SINGLE_SLOW_STEPS = 3 or more hands over every later one, because the
float32 attempt after such a solve mostly fails (spotrf finds H
indefinite, or a solve misses) and wastes its factor. A float64 solve is
refined once. IpmResult.summary() reports the iterations factored in
float32 (single_iterations) and the refinement steps over every solve
(refine_steps).

One step length (Zhang 1998; Potra & Sheng 1998): X, y and Z all move by
alpha = min(1, STEP_FRAC alpha_X, STEP_FRAC alpha_Z), where alpha_X and
alpha_Z are the longest steps that keep X and Z in the cone (_max_step).
The start is primal feasible but not dual feasible, and a common step
shrinks both residuals and the complementarity by the same factor
1 - alpha. Separate step lengths let the primal side lag: at HPPCA
(60, 3) they took primal steps of 0.08-0.54 in iterations 2-8 and 17
iterations in all, against 11 with the common step, and on small draws
they could collapse one step short of STOP_TOL. The predictor keeps each
side's own affine step for Mehrotra's mu_aff and sigma: a common
predictor step cost 2 more iterations at HPPCA (20, 3) and (60, 3).

Repeated correctors (Carpenter, Lustig, Mulvey & Shanno 1993; Gondzio
1996): a solve on the factor costs a small part of factoring it, so from
m = _CORRECTOR_MIN_M on, an iteration repeats the Mehrotra correction on
its one factor. Each extra corrector keeps the centering target tau and
takes its second-order term sym(Z^-1 dZ dX) from the latest direction; it
is kept only while it lengthens the step length by the factor
_CORRECTOR_GAIN, at most _MAX_CORRECTORS times per iteration, and none is
tried once the step is full. Its solves follow the float32 and float64
rules above. On HPPCA and random draws at d = 50-70, k = 3, the extra
solves cut the iterations by 10-20 %, float64 ones the most; the gate sits
past the measured break-even near m = 1,100 (d = 47 at k = 3), below which
the extra solves and step lengths cost about what the saved iterations
do. IpmResult.summary() reports them as corrector_solves.

A step length needs only the least eigenvalue of the scaled direction
B = L^-1 dA L^-T over all blocks (Toh 2002), and least_eigenvalues
computes that one eigenvalue of a matrix rather than its spectrum (the
certificate's slack gate and sdp.check_kkt use it too). _max_step first
computes it for the block g with the least diagonal entry of B, an upper
bound on a block's least eigenvalue, so g likely binds; alpha =
-1/lambda_g. Every other block j is then cleared by one dpotrf of
I + (1 + _CLEAR_MARGIN) alpha B_j: if that succeeds, B_j's least
eigenvalue lies above lambda_g by the relative margin _CLEAR_MARGIN =
1e-8, so it cannot be the least. Only the blocks that fail get their own
eigenvalue, and the step is -1 over the least of these and lambda_g.
That is exactly the float that taking every block's eigenvalue gives: the
blocks that could hold the least one get the same dsyevx call on the same
matrix, and a block within the margin of lambda_g (a near-tie) fails the
test and gets one too. It would differ only if roundoff in a cleared
block's eigenvalue or factor exceeded _CLEAR_MARGIN |lambda_g|. A
direction that keeps the cone at block g, 1 x 1 blocks and a non-finite B
take every block's eigenvalue, as before.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg.blas import dtrsv, strsv
from scipy.linalg.lapack import dlamch, dpotrf, dsyevx, dtrtri, spotrf

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


@lru_cache(maxsize=None)
def _smat_positions(n: int):
    """The svec coordinate of each entry of an n x n matrix."""
    i, j, _ = svec_indices(n)
    pos = np.empty((n, n), dtype=np.intp)
    pos[i, j] = pos[j, i] = np.arange(len(i))
    pos.setflags(write=False)
    return pos


def smat(v: np.ndarray, n: int) -> np.ndarray:
    """The symmetric matrix of svec coordinates v, by one gather."""
    return (v / svec_indices(n)[2])[_smat_positions(n)]


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
    """Write into the lower triangle of out the symmetric matrix of
    V -> sum_a 0.5 (P_a V Q_a + Q_a V P_a) in svec coordinates; p and q are
    (nb, d, d) stacks of symmetric P_a, Q_a.

    Row (i, j) holds v_ij v_kl (R[k, l] + R[l, k]) over the columns (k, l),
    where R = sum_a P_a[i]' Q_a[j] + Q_a[i]' P_a[j] is one stacked product
    and v the halved svec weights. Each chunk of rows gathers only the
    columns up to its last row's diagonal: above the diagonal it writes
    only into its own diagonal block, whose upper half nothing reads."""
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
        out[rows, :r1] = s


# dsyevx's absolute eigenvalue tolerance: 2 * underflow threshold, the
# value LAPACK recommends for full accuracy
_EIG_ABSTOL = 2.0 * dlamch("S")


def least_eigenvalues(a):
    """Least eigenvalue of each matrix of the (count, n, n) stack a, whose
    lower triangles are read, as eigvalsh reads them. One LAPACK dsyevx call
    per matrix computes only that eigenvalue; a 1 x 1 matrix is its own.
    A stack with a NaN or an inf anywhere raises LinAlgError before any
    call: dsyevx can report success on one (on a NaN diagonal entry of a
    matrix with a repeated diagonal), so its info is no gate. A call that
    fails raises LinAlgError too."""
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise np.linalg.LinAlgError("matrix not finite")
    if a.shape[-1] == 1:
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

    Variable blocks X_1..X_k of size d, k < d, plus one slack block S of
    size d, with

        tr(X_i) = 1              (k rows)
        sum_i X_i + S = I        (d(d+1)/2 rows in svec coordinates)

    so the coupling reads sum_i X_i <= I. k >= d raises ValueError: at
    k = d the coupling forces X_k = I - sum_{i<k} X_i, so sdp.solve_sdp
    solves that case as this relaxation of its first k - 1 blocks, with
    X_k as the slack. Cost blocks are -mats[i] (the relaxation minimizes
    the negated objective) and zero on the slack. mats is the (k, d, d)
    stack of the M_i, k = 0 included; the cost C is the (k + 1, d, d) stack
    of every block, slack last. The rows of y are the k trace rows, then
    the svec rows of the coupling.

    schur assembles the lower triangle of the Schur complement into one
    Fortran-ordered (m, m) buffer, allocated on the first call and reused
    by every later one, so a solve holds one m x m array, which
    _factor_schur factors in place; a float32 H is a view of the buffer's
    first half. Its strict upper triangle is never read, and may hold
    stale bytes of either precision. schur_product applies the same
    operator without forming it.
    """

    def __init__(self, mats, d: int):
        mats = np.asarray(mats, dtype=float)
        if mats.shape[1:] != (d, d) or len(mats) >= d:
            raise ValueError(f"need k < d blocks of size d, got {mats.shape}")
        self.k = len(mats)
        self.d = d
        self.sd = d * (d + 1) // 2
        self.m = self.k + self.sd
        self.C = np.zeros((self.k + 1, d, d))
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
        x[k] = (1.0 - k / d) * eye
        y = np.zeros(self.m)
        y[:k] = -1.0
        y[k:] = svec(-eye)
        return x, y, np.zeros_like(self.C) + eye

    def apply_A(self, x):
        k, d = self.k, self.d
        traces = x[:k].reshape(k, d * d)[:, ::d + 1].sum(axis=1)  # diagonals
        return np.concatenate([traces, svec(x.sum(axis=0))])

    def apply_AT(self, y):
        k, d = self.k, self.d
        out = np.repeat(smat(y[k:], d)[None], len(self.C), axis=0)
        out.reshape(len(out), d * d)[:k, ::d + 1] += y[:k, None]  # diagonals
        return out

    def schur(self, zinv, x, single=False):
        """The lower triangle of the Schur complement A (Z^-1 . X) A*,
        written into this operator's one buffer: in float64, or, when
        single, in float32 into a Fortran-ordered view of the buffer's
        first half."""
        m = self.m
        if self._h is None:
            self._h = np.empty((m, m), order="F")
        h = self._h
        if single:
            h = h.reshape(-1, order="F").view(np.float32)[:m * m]
            h = h.reshape((m, m), order="F")
        k, i = self.k, np.arange(self.k)
        h[:k, :k] = 0.0
        pq = zinv[:k] @ x[:k]
        h[i, i] = np.trace(pq, axis1=1, axis2=2)
        h[k:, :k] = svec(sym(pq)).T
        coupling_block(zinv, x, h[k:, k:])
        return h

    def schur_product(self, zinv, x, v):
        """H v for H = schur(zinv, x), without forming H: A(sym(Z^-1 A*(v)
        X)), exact to float64 roundoff."""
        return self.apply_A(sym(zinv @ self.apply_AT(v) @ x))


# ---------------------------------------------------------------------------
# Predictor-corrector iteration

@dataclass
class IpmResult:
    """A solve_ipm run. status is "optimal" or "numerical_failure";
    stop_reason names the exit that ended it, one value per exit:

    - "converged": the residuals and the relative gap are below STOP_TOL
      (the only "optimal" exit);
    - "non_finite": the stop metric or mu is NaN or infinite;
    - "stalled": the metric did not fall below 0.9 times its best for
      more than 25 iterations;
    - "max_iters": the iteration cap was reached;
    - "factorization_lost": a factor or an eigenvalue failed (LinAlgError:
      a block lost definiteness, or the Schur complement was not finite or
      not positive definite after every shift);
    - "overflow": a Schur solve's residual was not finite (ValueError);
    - "step_collapse": the common step length fell below 1e-8.

    single_iterations counts the iterations whose directions came from a
    float32 Schur factor, and refine_steps the refinement steps over every
    Schur solve: one per float64 solve, and as many as each float32 solve
    needed (those of an iteration handed to float64 included).
    corrector_solves counts the extra corrector directions solved on an
    iteration's factor, kept or discarded (0 below _CORRECTOR_MIN_M).
    """

    status: str
    stop_reason: str
    x: np.ndarray  # (nb, d, d) stack, shaped as ops.C
    y: np.ndarray
    z: np.ndarray  # shaped as x
    pobj: float
    dobj: float
    iterations: int
    pinf: float
    dinf: float
    relgap: float
    schur_shift: float  # largest diagonal shift _factor_schur applied
    single_iterations: int
    refine_steps: int
    corrector_solves: int

    def summary(self) -> dict:
        """The run as reports and records describe it: how and why it
        stopped, after how many iterations, with which final residuals,
        Schur shift, float32 iterations, refinement steps and extra
        corrector solves."""
        return {"status": self.status, "stop_reason": self.stop_reason,
                "iterations": self.iterations,
                "pinf": self.pinf, "dinf": self.dinf, "relgap": self.relgap,
                "schur_shift": self.schur_shift,
                "single_iterations": self.single_iterations,
                "refine_steps": self.refine_steps,
                "corrector_solves": self.corrector_solves}


def _inverse_factor(a):
    """L^-1 for the Cholesky factor L of each matrix of the stack a, so
    a^-1 = L^-T L^-1; every matrix must be PD. LAPACK's triangular inverse
    runs once per matrix: it has no batched form in numpy or scipy 1.10."""
    return np.array([dtrtri(f, lower=1)[0] for f in np.linalg.cholesky(a)])


# a block clears the step -1/lambda_g when I + (1 + _CLEAR_MARGIN) alpha B_j
# is PD: its least eigenvalue is then above lambda_g by this relative margin
_CLEAR_MARGIN = 1e-8


def _max_step(li, da):
    """Largest alpha with a + alpha da PSD for every matrix of the stack a,
    where li = _inverse_factor(a); inf when da keeps the cone.

    -1 over the least eigenvalue of B = li da li', from the block of B's
    least diagonal entry and the blocks that fail its Cholesky test (see
    the module docstring). Every block's eigenvalue is taken when that
    block's direction keeps the cone, on 1 x 1 blocks and on a non-finite
    B, where dpotrf may report success but least_eigenvalues raises
    LinAlgError."""
    b = sym(li @ da @ li.swapaxes(1, 2))
    n = b.shape[1]
    if n > 1 and np.isfinite(b).all():
        g = int(np.argmin(b.diagonal(axis1=1, axis2=2).min(axis=1)))
        lmin = float(least_eigenvalues(b[g:g + 1])[0])
        if lmin < -1e-14:
            # each shifted[j] is symmetric and C-ordered, so shifted[j].T is
            # the same matrix as a Fortran-ordered view dpotrf takes as is
            shifted = b * ((1.0 + _CLEAR_MARGIN) * (-1.0 / lmin))
            shifted.reshape(len(b), n * n)[:, ::n + 1] += 1.0
            fail = [j for j in range(len(b)) if j != g and dpotrf(
                shifted[j].T, lower=1, clean=0, overwrite_a=1)[1] != 0]
            if fail:
                lmin = min(lmin, float(np.min(least_eigenvalues(b[fail]))))
            return -1.0 / lmin
    lmin = float(np.min(least_eigenvalues(b)))
    if lmin >= -1e-14:
        return np.inf
    return -1.0 / lmin


# solve_ipm stops once the residuals and the relative gap are below
# STOP_TOL; each step goes STEP_FRAC of the way to the cone's boundary
STOP_TOL = 1e-8
STEP_FRAC = 0.98


# Schur size from which an iteration first tries a float32 factor: below
# it the extra refinement steps cost more than spotrf saves over dpotrf
_SINGLE_MIN_M = 500
# a solve on a float32 factor is refined until its residual is below
# _SINGLE_RTOL times its right-hand side's, within _SINGLE_MAX_STEPS steps
_SINGLE_RTOL = 1e-13
_SINGLE_MAX_STEPS = 10
# a solve that needed this many steps hands every later iteration to float64
_SINGLE_SLOW_STEPS = 3


# Schur size from which an iteration repeats the Mehrotra correction on its
# factor (d >= 49 at k = 3): below about m = 1,100 the extra solves and step
# lengths cost what the saved iterations do, and the d = 40 solves slow down
_CORRECTOR_MIN_M = 1200
# at most this many extra correctors per iteration, each kept only when it
# lengthens the common step length by the factor _CORRECTOR_GAIN
_MAX_CORRECTORS = 2
_CORRECTOR_GAIN = 1.01


class _SingleMiss(Exception):
    """A float32 Schur factor failed, or a solve on it missed _SINGLE_RTOL."""


def _factor_schur(build):
    """Cholesky factor of the symmetric H that build() writes and returns,
    and the diagonal shift it needed (0.0 when none). Only H's lower
    triangle is read.

    A float64 H is factored in place with LAPACK dpotrf when it is
    Fortran-ordered (any other H is copied first): the factor's lower
    triangle is L, with L L' = H + shift I, which _solve_factor reads. A
    failed attempt calls build() again for a fresh H, whose diagonal is
    shifted before the next one. A non-finite lower entry of H reaches L's
    diagonal (LAPACK may still report success), so a factor with a
    non-finite diagonal raises LinAlgError, which is why the solves skip
    any finiteness check of their own.

    A float32 H (solve_ipm's view of its buffer) is factored in place with
    LAPACK spotrf, once and unshifted. When it is not positive definite or
    its factor not finite the factor is None, not an error: the caller
    hands the iteration to float64."""
    h = build()
    if h.dtype == np.float32:
        c, info = spotrf(h, lower=1, clean=0, overwrite_a=1)
        ok = info == 0 and np.isfinite(c.diagonal()).all()
        return (c if ok else None), 0.0
    reg = 0.0
    base = max(np.max(h.diagonal()), 1.0)
    for _ in range(4):
        c, info = dpotrf(h, lower=1, clean=0, overwrite_a=1)
        if not np.isfinite(c.diagonal()).all():
            raise np.linalg.LinAlgError("Schur complement not finite")
        if info == 0:
            return c, reg
        reg = base * 1e-12 if reg == 0.0 else reg * 1e4
        h = build()
        np.fill_diagonal(h, h.diagonal() + reg)
    raise np.linalg.LinAlgError("Schur complement not positive definite")


def _solve_factor(f, b):
    """(L L')^-1 b for the lower triangle L of a _factor_schur factor f, by
    two BLAS triangular solves in f's precision; f's strict upper triangle
    is never read, and b is left unchanged. A float32 f solves b scaled to
    unit max norm, so that neither the cast nor the solve leaves float32's
    range, and returns float64. A non-finite b gives a non-finite
    result."""
    if f.dtype == np.float32:
        s = np.max(np.abs(b)) or 1.0
        x = strsv(f, b / s, lower=1)
        x = strsv(f, x, lower=1, trans=1, overwrite_x=1)
        return s * x.astype(np.float64)
    x = dtrsv(f, b, lower=1)
    return dtrsv(f, x, lower=1, trans=1, overwrite_x=1)


def solve_ipm(ops: FantopeOps, max_iters: int = 100) -> IpmResult:
    """Run the iteration from ops.start() until the residuals and the
    relative gap are below STOP_TOL, or it stalls, diverges or hits
    max_iters."""
    x, y, z = ops.start()
    ntot = ops.C.shape[0] * ops.C.shape[1]
    bnorm = 1.0 + np.linalg.norm(ops.b)
    cnorm = 1.0 + np.linalg.norm(ops.C, axis=(1, 2)).max()

    best = np.inf
    best_iter = 0
    status = "numerical_failure"
    stop_reason = "max_iters"
    it = 0
    pinf = dinf = relgap = np.nan
    pobj = dobj = np.nan
    schur_shift = 0.0
    single = ops.m >= _SINGLE_MIN_M
    single_iterations = refine_steps = corrector_solves = 0
    correctors = _MAX_CORRECTORS if ops.m >= _CORRECTOR_MIN_M else 0

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
            stop_reason = "non_finite"  # diverged (e.g. infeasible problem)
            break
        if metric <= STOP_TOL:
            status, stop_reason = "optimal", "converged"
            break
        if metric < 0.9 * best:
            best, best_iter = metric, it
        elif it - best_iter > 25:
            stop_reason = "stalled"
            break
        if it == max_iters:
            break

        try:
            lx = _inverse_factor(x)
            lz = _inverse_factor(z)
            zinv = lz.swapaxes(1, 2) @ lz
            t1 = sym(zinv @ rd @ x)
            a_zinv = ops.apply_A(zinv)

            def residual(rhs, dy):
                # ValueError once dy overflows (or rhs was not finite)
                return np.asarray_chkfinite(
                    rhs - ops.schur_product(zinv, x, dy))

            def solve_h(hf, rhs):
                """h^-1 rhs from the factor hf, refined in float64 against
                the exact product: once for a float64 hf; for a float32
                one, until the residual is below _SINGLE_RTOL relative."""
                nonlocal refine_steps, single
                dy = _solve_factor(hf, rhs)
                if hf.dtype == np.float64:
                    refine_steps += 1
                    return dy + _solve_factor(hf, residual(rhs, dy))
                bound = _SINGLE_RTOL * np.linalg.norm(rhs)
                resid = residual(rhs, dy)
                for steps in range(_SINGLE_MAX_STEPS + 1):
                    if np.linalg.norm(resid) <= bound:
                        if steps >= _SINGLE_SLOW_STEPS:
                            single = False  # for every later iteration
                        return dy
                    if steps == _SINGLE_MAX_STEPS:
                        raise _SingleMiss
                    refine_steps += 1
                    dy += _solve_factor(hf, resid)
                    resid = residual(rhs, dy)

            def newton_step(float32):
                """(dx, dy, dz, alpha) of the last corrector kept, with its
                common step length alpha, from one Schur factor: a float32
                one when float32 is set."""
                nonlocal schur_shift, corrector_solves
                hf, reg = _factor_schur(lambda: ops.schur(zinv, x, float32))
                if hf is None:
                    raise _SingleMiss
                schur_shift = max(schur_shift, reg)

                def direction(tau, corr):
                    """HKM direction for the centering target tau and the
                    Mehrotra second-order term corr."""
                    rhs = rp + ops.apply_A(x + t1 + corr) - tau * a_zinv
                    dy = solve_h(hf, rhs)
                    atdy = ops.apply_AT(dy)
                    dz = rd - atdy
                    dx = sym(tau * zinv - x - t1 + sym(zinv @ atdy @ x)
                             - corr)
                    return dx, dy, dz

                # predictor (affine scaling): each side's own step, for
                # Mehrotra's mu_aff and sigma
                dx_a, _, dz_a = direction(0.0, 0.0)
                ap = min(1.0, _max_step(lx, dx_a))
                ad = min(1.0, _max_step(lz, dz_a))
                mu_aff = float(np.sum((x + ap * dx_a) * (z + ad * dz_a)))
                mu_aff /= ntot
                sigma = min(1.0, max(mu_aff / mu, 0.0)) ** 3
                tau = sigma * mu

                def step(dx, dz):
                    """The common step length of X, y and Z."""
                    return min(1.0, STEP_FRAC * _max_step(lx, dx),
                               STEP_FRAC * _max_step(lz, dz))

                # corrector
                dx, dy, dz = direction(tau, sym(zinv @ dz_a @ dx_a))
                alpha = step(dx, dz)
                # repeated correctors on the same factor
                for _ in range(correctors):
                    if alpha >= 1.0:
                        break
                    cand = direction(tau, sym(zinv @ dz @ dx))
                    cand_alpha = step(cand[0], cand[2])
                    corrector_solves += 1
                    if cand_alpha < _CORRECTOR_GAIN * alpha:
                        break
                    (dx, dy, dz), alpha = cand, cand_alpha
                return dx, dy, dz, alpha

            found = None
            if single:
                try:
                    found = newton_step(True)
                    single_iterations += 1
                except _SingleMiss:
                    single = False
            dx, dy, dz, alpha = found or newton_step(False)
        except np.linalg.LinAlgError:
            stop_reason = "factorization_lost"
            break
        except ValueError:
            stop_reason = "overflow"
            break
        if alpha < 1e-8:
            stop_reason = "step_collapse"
            break
        x = sym(x + alpha * dx)
        z = sym(z + alpha * dz)
        y = y + alpha * dy

    return IpmResult(
        status=status,
        stop_reason=stop_reason,
        x=x,
        y=y,
        z=z,
        pobj=pobj,
        dobj=dobj,
        iterations=it,
        pinf=pinf,
        dinf=dinf,
        relgap=relgap,
        schur_shift=schur_shift,
        single_iterations=single_iterations,
        refine_steps=refine_steps,
        corrector_solves=corrector_solves,
    )
