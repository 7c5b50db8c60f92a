"""Symmetric-matrix and Stiefel-point primitives shared by every other module.

Matrices are plain numpy arrays kept exactly symmetric by construction
(symmetrized via (A + A') / 2 when wrapped in a container type). Dense
storage throughout; the intended scale is d up to a few hundred.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Default tolerances. The rank-one threshold and the eigenvector
# orthogonality tolerance are the experiment-facing knobs; orth_tol guards
# the StiefelPoint invariant.
ORTH_TOL = 1e-10
ROP_TOL = 1e-5
VEC_ORTH_TOL = 1e-6
# solver blocks carry O(sqrt(rop)) eigenvector noise, so the exact-block
# orthogonality default is too strict when adjudicating 1e-8 solves
SOLVER_ORTH_TOL = 1e-4


class RopPreconditionError(ValueError):
    """Raised when an orthogonality check is requested for blocks that are
    not rank-one to begin with (the check would be meaningless)."""


def sym(a):
    return 0.5 * (a + a.T)


def skew(a):
    return 0.5 * (a - a.T)


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value, computed by a full dense decomposition.

    Symmetric inputs go through eigh (deterministic and exact at this
    scale); anything else falls back to singular values. Commutators are
    skew-symmetric, so the general branch matters.
    """
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return 0.0
    if a.shape[0] == a.shape[1] and np.array_equal(a, a.T):
        return float(np.max(np.abs(np.linalg.eigvalsh(a))))
    return float(np.linalg.svd(a, compute_uv=False)[0])


def eigh_desc(a):
    """Eigendecomposition with eigenvalues sorted descending."""
    vals, vecs = np.linalg.eigh(sym(np.asarray(a, dtype=float)))
    order = np.argsort(vals)[::-1]
    return vals[order], vecs[:, order]


def _readonly(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class StiefelPoint:
    """A d x k matrix with orthonormal columns."""

    cols: np.ndarray
    orth_tol: float = ORTH_TOL

    def __post_init__(self):
        cols = np.atleast_2d(np.asarray(self.cols, dtype=float))
        d, k = cols.shape
        if k > d:
            raise ValueError(f"need k <= d, got d={d}, k={k}")
        err = np.linalg.norm(cols.T @ cols - np.eye(k))
        if not err <= self.orth_tol:  # NaN fails too
            raise ValueError(f"columns not orthonormal: ||U'U - I||_F = {err:.3e}")
        object.__setattr__(self, "cols", _readonly(cols))

    @property
    def d(self) -> int:
        return self.cols.shape[0]

    @property
    def k(self) -> int:
        return self.cols.shape[1]


@dataclass(frozen=True)
class ProblemInstance:
    """The tuple (M_1, ..., M_k) of d x d symmetric matrices of the objective
    sum_i u_i' M_i u_i, plus any uniform shift applied to make inputs PSD.
    """

    mats: tuple
    psd_shift: float = 0.0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        mats = tuple(_readonly(sym(np.asarray(m, dtype=float))) for m in self.mats)
        if not mats:
            raise ValueError("instance needs at least one matrix")
        d = mats[0].shape[0]
        for m in mats:
            if m.shape != (d, d):
                raise ValueError("all matrices must share one square dimension")
            if not np.all(np.isfinite(m)):
                raise ValueError("matrices must have finite entries")
        if len(mats) > d:
            raise ValueError(f"need k <= d, got d={d}, k={len(mats)}")
        object.__setattr__(self, "mats", mats)

    @property
    def d(self) -> int:
        return self.mats[0].shape[0]

    @property
    def k(self) -> int:
        return len(self.mats)

    def spectral_norms(self):
        return np.array([spectral_norm(m) for m in self.mats])

    def is_normalized(self, tol: float = 1e-12) -> bool:
        return abs(self.spectral_norms().max() - 1.0) <= tol


@dataclass(frozen=True)
class InstanceMetrics:
    max_commuting_distance: float
    pairwise_commutators: np.ndarray  # k x k, entry (i, j) = ||[M_i, M_j]||_2
    spectral_norms: np.ndarray


def commuting_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Spectral norm of the commutator AB - BA; zero iff A and B commute."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return spectral_norm(a @ b - b @ a)


def instance_metrics(c: ProblemInstance) -> InstanceMetrics:
    k = c.k
    pair = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            pair[i, j] = pair[j, i] = commuting_distance(c.mats[i], c.mats[j])
    return InstanceMetrics(
        max_commuting_distance=float(pair.max()) if k > 1 else 0.0,
        pairwise_commutators=_readonly(pair),
        spectral_norms=_readonly(c.spectral_norms()),
    )


def max_commuting_distance(c: ProblemInstance) -> float:
    return instance_metrics(c).max_commuting_distance


def instance_distance(c: ProblemInstance, cbar: ProblemInstance) -> float:
    """max_i ||M_i - Mbar_i||_2 between two tuples of matching shape."""
    if (c.d, c.k) != (cbar.d, cbar.k):
        raise ValueError(f"shape mismatch: ({c.d},{c.k}) vs ({cbar.d},{cbar.k})")
    return max(spectral_norm(m - mb) for m, mb in zip(c.mats, cbar.mats))


def normalize_instance(c: ProblemInstance) -> ProblemInstance:
    """Scale so that max_i ||M_i||_2 = 1. The maximizer set is unchanged."""
    scale = float(c.spectral_norms().max())
    if scale <= 0.0:
        raise ValueError("cannot normalize an all-zero instance")
    meta = dict(c.meta)
    meta["normalization_scale"] = scale * meta.get("normalization_scale", 1.0)
    return ProblemInstance(
        mats=tuple(m / scale for m in c.mats),
        psd_shift=c.psd_shift / scale,
        meta=meta,
    )


def procrustes_project(m: np.ndarray, orth_tol: float = ORTH_TOL) -> StiefelPoint:
    """Closest point on St(k, d) in Frobenius norm: the polar factor of m.

    Requires full column rank; the polar factor is not unique otherwise.
    """
    m = np.asarray(m, dtype=float)
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    if s[0] <= 0.0 or s[-1] <= 1e-13 * s[0]:
        raise ValueError("rank-deficient input: polar factor not unique")
    return StiefelPoint(u @ vt, orth_tol=orth_tol)


def rop_error(x_blocks) -> float:
    """Mean squared distance of each block's descending spectrum from e_1.

    Zero iff every block is exactly a rank-one trace-one projector. Used
    with the ROP_TOL threshold to declare the rank-one property.
    """
    x_blocks = list(x_blocks)
    total = 0.0
    for x in x_blocks:
        vals = np.linalg.eigvalsh(sym(np.asarray(x, dtype=float)))[::-1]
        e1 = np.zeros_like(vals)
        e1[0] = 1.0
        total += float(np.sum((vals - e1) ** 2))
    return total / len(x_blocks)


def top_eigenpairs(x_blocks, tie_gap: float = 1e-8):
    """Leading eigenvector of each block plus a per-block tie flag.

    A block whose top two eigenvalues are closer than tie_gap has no
    well-defined leading eigenvector; the flag reports that instead of
    breaking the tie arbitrarily.
    """
    vecs, ties = [], []
    for x in x_blocks:
        vals, v = eigh_desc(x)
        vecs.append(v[:, 0])
        ties.append(bool(len(vals) > 1 and vals[0] - vals[1] < tie_gap))
    return np.column_stack(vecs), ties


def check_rop_orthogonality(
    x_blocks,
    rop_tol: float = ROP_TOL,
    orth_tol: float = VEC_ORTH_TOL,
) -> bool:
    """For near-rank-one blocks: are the top eigenvectors mutually orthogonal
    and is the block sum a projection (eigenvalues in {0, 1})?

    Raises RopPreconditionError when the blocks are not rank-one within
    rop_tol, since the question only makes sense under that premise.
    """
    x_blocks = [sym(np.asarray(x, dtype=float)) for x in x_blocks]
    err = rop_error(x_blocks)
    if not err <= rop_tol:
        raise RopPreconditionError(
            f"blocks are not rank-one: rop_error={err:.3e} > {rop_tol:.1e}"
        )
    u, _ = top_eigenpairs(x_blocks)
    gram = u.T @ u
    off = gram - np.diag(np.diag(gram))
    if np.max(np.abs(off)) > orth_tol:
        return False
    total = np.sum(x_blocks, axis=0)
    vals = np.linalg.eigvalsh(total)
    return bool(np.all(np.minimum(np.abs(vals), np.abs(vals - 1.0)) <= orth_tol))


# ---------------------------------------------------------------------------
# Instance file format: a single JSON document
#   { "d": int, "k": int, "mats": [[row-major floats] x k], "meta": object }

def save_instance(c: ProblemInstance, path) -> None:
    doc = {
        "d": c.d,
        "k": c.k,
        "mats": [m.reshape(-1).tolist() for m in c.mats],
        "meta": dict(c.meta, psd_shift=c.psd_shift),
    }
    Path(path).write_text(json.dumps(doc))


def load_instance(path) -> ProblemInstance:
    doc = json.loads(Path(path).read_text())
    d, k = int(doc["d"]), int(doc["k"])
    if len(doc["mats"]) != k:
        raise ValueError(f"expected {k} matrices, found {len(doc['mats'])}")
    mats = []
    for flat in doc["mats"]:
        m = np.asarray(flat, dtype=float).reshape(d, d)
        asym = np.max(np.abs(m - m.T)) if d else 0.0
        if asym > 1e-12:
            raise ValueError(f"matrix not symmetric: max |A - A'| = {asym:.3e}")
        mats.append(m)
    meta = dict(doc.get("meta") or {})
    psd_shift = float(meta.pop("psd_shift", 0.0))
    return ProblemInstance(mats=tuple(mats), psd_shift=psd_shift, meta=meta)
