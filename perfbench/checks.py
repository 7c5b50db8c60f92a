"""Independent output checks.

Everything here is computed with numpy calls made by the benchmark
itself; nothing calls back into stiefelsum. Each check returns a
list of problems, empty when the output passes.

Objective: f(U) = sum_i u_i' M_i u_i over orthonormal U (d x k).
Relaxation: max sum_i <M_i, X_i> s.t. X_i PSD, tr X_i = 1, sum_i X_i <= I.
Dual: min tr(Y) + sum_i nu_i s.t. Y PSD, Y + nu_i I - M_i PSD.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

FEAS_TOL = 1e-6  # PSD, trace and orthonormality residuals
GAP_TOL = 1e-6  # relative primal-dual gap and value agreement
ROP_TOL = 1e-5  # rank-one projection error for "tight"
ORTH_TOL = 1e-4  # eigenvector orthogonality for "tight"


def sym(a):
    return 0.5 * (a + a.T)


def min_eig(a) -> float:
    return float(np.linalg.eigvalsh(sym(np.asarray(a, dtype=float)))[0])


def max_eig(a) -> float:
    return float(np.linalg.eigvalsh(sym(np.asarray(a, dtype=float)))[-1])


def objective(mats, u) -> float:
    u = np.asarray(u, dtype=float)
    return float(sum(u[:, i] @ m @ u[:, i] for i, m in enumerate(mats)))


def orthonormality_error(u) -> float:
    u = np.asarray(u, dtype=float)
    return float(np.linalg.norm(u.T @ u - np.eye(u.shape[1])))


def extract(blocks) -> np.ndarray:
    """Polar factor of the stacked top eigenvectors of the blocks."""
    vecs = np.column_stack([np.linalg.eigh(sym(x))[1][:, -1] for x in blocks])
    w, _, vt = np.linalg.svd(vecs, full_matrices=False)
    return w @ vt


def rop_error(blocks) -> float:
    """Mean squared distance of each block's spectrum from (1, 0, ..., 0)."""
    total = 0.0
    for x in blocks:
        vals = np.linalg.eigvalsh(sym(x))[::-1].copy()
        vals[0] -= 1.0
        total += float(vals @ vals)
    return total / len(blocks)


def is_tight(blocks) -> bool:
    """Rank-one blocks with orthogonal top eigenvectors summing to a
    projection: the relaxation's optimum is attained on the manifold."""
    if rop_error(blocks) > ROP_TOL:
        return False
    vecs = np.column_stack([np.linalg.eigh(sym(x))[1][:, -1] for x in blocks])
    gram = vecs.T @ vecs
    if np.max(np.abs(gram - np.diag(np.diag(gram)))) > ORTH_TOL:
        return False
    vals = np.linalg.eigvalsh(sym(sum(blocks)))
    return bool(np.all(np.minimum(np.abs(vals), np.abs(vals - 1.0)) <= ORTH_TOL))


def best_assignment(diag_values) -> float:
    """max over injective i -> j of sum_i m[i, j], by enumeration."""
    m = np.asarray(diag_values, dtype=float)
    k, d = m.shape
    rows = np.arange(k)
    return max(float(m[rows, list(p)].sum()) for p in permutations(range(d), k))


def check_sdp(mats, blocks, value, y, nu, u_extracted=None, u_planted=None):
    """Primal and dual feasibility plus the weak-duality sandwich

        f(extracted U) <= value <= tr(Y) + sum nu <= sum_i lambda_max(M_i)

    with the gap closed to GAP_TOL, and f(planted U) <= value."""
    problems = []
    d = mats[0].shape[0]
    eye = np.eye(d)
    slack = GAP_TOL * (1.0 + abs(value))
    for i, x in enumerate(blocks):
        if min_eig(x) < -FEAS_TOL:
            problems.append(f"X_{i} not PSD: min eig {min_eig(x):.3e}")
        if abs(np.trace(x) - 1.0) > FEAS_TOL:
            problems.append(f"tr X_{i} = {np.trace(x):.12f}")
    if max_eig(sum(blocks)) > 1.0 + FEAS_TOL:
        problems.append(f"sum X_i exceeds I: max eig {max_eig(sum(blocks)):.3e}")
    primal = float(sum(np.sum(m * x) for m, x in zip(mats, blocks)))
    if abs(primal - value) > slack:
        problems.append(f"value {value!r} != sum <M_i, X_i> = {primal!r}")
    if min_eig(y) < -FEAS_TOL:
        problems.append(f"Y not PSD: min eig {min_eig(y):.3e}")
    for i, m in enumerate(mats):
        e = min_eig(y + nu[i] * eye - m)
        if e < -FEAS_TOL:
            problems.append(f"Y + nu_{i} I - M_{i} not PSD: min eig {e:.3e}")
    dual = float(np.trace(y) + np.sum(nu))
    upper = sum(max_eig(m) for m in mats)
    if value > dual + slack:
        problems.append(f"value {value!r} above dual bound {dual!r}")
    if dual - value > slack:
        problems.append(f"duality gap {dual - value:.3e} above tolerance")
    if dual > upper + slack:
        problems.append(f"dual bound {dual!r} above sum of top eigenvalues {upper!r}")
    for name, u in (("extracted", u_extracted), ("planted", u_planted)):
        if u is None:
            continue
        if orthonormality_error(u) > FEAS_TOL:
            problems.append(f"{name} U not orthonormal")
        f = objective(mats, u)
        if f > value + slack:
            problems.append(f"f({name} U) = {f!r} above the relaxation value {value!r}")
    return problems


def check_certificate(mats, u, nu, u_planted=None):
    """Rebuild Y = U (L - D_nu) U' from the witness and check that it
    certifies U: nu >= 0, L - D_nu PSD, Y + nu_i I - M_i PSD for every i,
    and f(U) = tr(Y) + sum nu. A certified U is a global maximizer, so it
    must also reach f(planted U)."""
    problems = []
    u = np.asarray(u, dtype=float)
    nu = np.asarray(nu, dtype=float)
    d, k = u.shape
    eye = np.eye(d)
    if orthonormality_error(u) > FEAS_TOL:
        problems.append("U not orthonormal")
    lam = sym(u.T @ np.column_stack([m @ u[:, i] for i, m in enumerate(mats)]))
    if np.min(nu) < -FEAS_TOL:
        problems.append(f"negative multiplier: min nu {np.min(nu):.3e}")
    core = lam - np.diag(nu)
    if min_eig(core) < -FEAS_TOL:
        problems.append(f"L - D_nu not PSD: min eig {min_eig(core):.3e}")
    y = u @ core @ u.T
    for i, m in enumerate(mats):
        e = min_eig(y + nu[i] * eye - m)
        if e < -FEAS_TOL:
            problems.append(f"Y + nu_{i} I - M_{i} not PSD: min eig {e:.3e}")
    f = objective(mats, u)
    bound = float(np.trace(y) + np.sum(nu))
    if abs(f - bound) > GAP_TOL * (1.0 + abs(f)):
        problems.append(f"f(U) = {f!r} != tr(Y) + sum nu = {bound!r}")
    if u_planted is not None:
        fp = objective(mats, u_planted)
        if f < fp - GAP_TOL * (1.0 + abs(f)):
            problems.append(f"certified f(U) = {f!r} below f(planted U) = {fp!r}")
    return problems


def check_table_solve(mats, blocks, value):
    """Every relaxation solve: the point extracted from its blocks cannot
    beat the relaxation value."""
    f = objective(mats, extract(blocks))
    if f > value + GAP_TOL * (1.0 + abs(value)):
        return [f"f(extracted U) = {f!r} above the relaxation value {value!r}"]
    return []


def check_diagonal_value(mats, value):
    """Diagonal instances: the relaxation value is the best assignment."""
    best = best_assignment(np.array([np.diag(m) for m in mats]))
    if abs(best - value) > GAP_TOL * (1.0 + abs(best)):
        return [f"value {value!r} != best assignment {best!r}"]
    return []
