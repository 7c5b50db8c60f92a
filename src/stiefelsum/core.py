"""Symmetric-matrix and Stiefel-point primitives shared by every other module.

Matrices are plain numpy arrays kept exactly symmetric by construction
(symmetrized via A / 2 + A' / 2 when wrapped in a container type). Dense
storage throughout; the intended scale is d up to a few hundred.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy.linalg.lapack import dgesdd

# Fixed tolerances. ORTH_TOL guards the StiefelPoint invariant, ROP_TOL is
# the rank-one threshold, and TIE_GAP separates a block's top two
# eigenvalues.
ORTH_TOL = 1e-10
ROP_TOL = 1e-5
TIE_GAP = 1e-8
# solver blocks carry O(sqrt(rop)) eigenvector noise, so the eigenvector
# orthogonality check of a 1e-8 solve uses this looser tolerance
SOLVER_ORTH_TOL = 1e-4


class RopPreconditionError(ValueError):
    """Raised when an orthogonality check is requested for blocks that are
    not rank-one to begin with (the check would be meaningless)."""


def sym(a):
    """Symmetric part of a matrix, or of every matrix in a stack."""
    return 0.5 * (a + a.swapaxes(-1, -2))


def spectral_norms(stack) -> np.ndarray:
    """||M||_2 of each symmetric matrix of the (count, n, n) stack: its
    largest |eigenvalue|, from the lower triangle, as eigvalsh reads it."""
    return np.abs(np.linalg.eigvalsh(stack)).max(axis=-1)


def _shift_for(vals) -> float:
    """The uniform PSD shift of a stack whose ascending spectra are the rows
    of vals: -lambda_min when it is below -1e-12, else 0.0."""
    minlam = float(vals[:, 0].min(initial=0.0))
    return -minlam if minlam < -1e-12 else 0.0


def shift_and_scale(mats):
    """Uniform PSD shift plus a global spectral-norm scale of the (k, d, d)
    stack mats.

    Returns (scaled mats, shift, scale); the shift preserves commutators and
    only translates the objective, the scale conditions the solver. The
    empty stack (k = 0) gets no shift and scale 1.
    """
    vals = np.linalg.eigvalsh(mats)
    shift = _shift_for(vals)
    if shift > 0.0:
        mats = mats + shift * np.eye(mats.shape[1])
        vals = np.linalg.eigvalsh(mats)
    scale = float(np.abs(vals).max(initial=0.0))
    if scale <= 1e-300:
        scale = 1.0
    if abs(scale - 1.0) > 1e-12:
        mats = mats / scale
    return mats, shift, scale


def _readonly(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class StiefelPoint:
    """A d x k matrix with orthonormal columns. Points compare by identity,
    as do instances: an array field has no single truth value."""

    cols: np.ndarray

    def __post_init__(self):
        cols = np.atleast_2d(np.asarray(self.cols, dtype=float))
        d, k = cols.shape
        if k > d:
            raise ValueError(f"need k <= d, got d={d}, k={k}")
        err = np.linalg.norm(cols.T @ cols - np.eye(k))
        if not err <= ORTH_TOL:  # NaN fails too
            raise ValueError(f"columns not orthonormal: ||U'U - I||_F = {err:.3e}")
        object.__setattr__(self, "cols", _readonly(cols))


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """The M_1, ..., M_k of the objective sum_i u_i' M_i u_i, held as one
    read-only, symmetrized (k, d, d) array. meta["psd_shift"], when present,
    is the uniform shift a generator already added to make the M_i PSD;
    the psd_shift property is the one these M_i still need.

    The M_i are read-only, so their spectra are decomposed once, on first
    use, and that one batched eigvalsh gives both gate_unit and psd_shift,
    and from them the one stack StMM, certify and check_kkt read, view.
    Entries may be any finite doubles, up to the largest.
    """

    mats: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        mats = [np.asarray(m, dtype=float) for m in self.mats]
        if not mats:
            raise ValueError("instance needs at least one matrix")
        d = mats[0].shape[0]
        if any(m.shape != (d, d) for m in mats):
            raise ValueError("all matrices must share one square dimension")
        mats = np.array(mats)  # halved first, so that no sum overflows
        mats = 0.5 * mats + 0.5 * mats.swapaxes(1, 2)
        if not np.all(np.isfinite(mats)):
            raise ValueError("matrices must have finite entries")
        if len(mats) > d:
            raise ValueError(f"need k <= d, got d={d}, k={len(mats)}")
        mats.setflags(write=False)
        object.__setattr__(self, "mats", mats)

    @property
    def d(self) -> int:
        return self.mats.shape[1]

    @property
    def k(self) -> int:
        return self.mats.shape[0]

    @cached_property
    def _spectra(self) -> np.ndarray:
        """The ascending eigenvalues of each M_i, one row per block."""
        return np.linalg.eigvalsh(self.mats)

    @cached_property
    def gate_unit(self) -> float:
        """s = max(1, max_i ||M_i||_2), the unit of every verdict gate that
        carries the units of the M_i; it is 1 for normalized inputs. Finite
        entries can still have a spectral norm that overflows: such an
        instance has no unit and is bad input (ValueError)."""
        s = float(np.abs(self._spectra).max())
        if not np.isfinite(s):
            raise ValueError("spectral norm overflows: instance has no unit")
        return max(1.0, s)

    @cached_property
    def psd_shift(self) -> float:
        """The uniform shift c >= 0 that makes every M_i + c I PSD, by
        shift_and_scale's rule: -min_i lambda_min(M_i) when that is below
        -1e-12, else 0.0. The M_i + c I have the maximizers of the M_i,
        and on St(k, d) their objective is F + k c."""
        return _shift_for(self._spectra)

    @cached_property
    def view(self) -> np.ndarray:
        """The read-only stack (M_i + c I) / s = M_i / s + (c / s) I, with
        s = gate_unit and c = psd_shift: PSD, of spectral norm at most 2,
        and, up to rounding, the same for every positive multiple of the
        M_i. StMM, certify and check_kkt evaluate only this stack, so each
        tolerance they compare with is a bare number, and each maps its
        results back to the units of the M_i once, where it writes them
        (an objective f of the view is s (f - k c / s)). No finite entry
        overflows here, and those three build no M_i + c I or M_i / s of
        their own."""
        s = self.gate_unit
        return _readonly(self.mats / s + self.psd_shift / s * np.eye(self.d))


def commuting_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Spectral norm of the commutator AB - BA; zero iff A and B commute."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    # skew-symmetric, so the 2-norm by SVD rather than spectral_norms
    return float(np.linalg.norm(a @ b - b @ a, 2))


def max_commuting_distance(c: ProblemInstance) -> float:
    """Largest commuting distance over pairs of blocks; 0 when k = 1."""
    return max((commuting_distance(c.mats[i], c.mats[j])
                for i in range(c.k) for j in range(i + 1, c.k)), default=0.0)


def instance_distance(c: ProblemInstance, cbar: ProblemInstance) -> float:
    """max_i ||M_i - Mbar_i||_2 between two tuples of matching shape."""
    if (c.d, c.k) != (cbar.d, cbar.k):
        raise ValueError(f"shape mismatch: ({c.d},{c.k}) vs ({cbar.d},{cbar.k})")
    return float(spectral_norms(c.mats - cbar.mats).max())


def normalize_instance(c: ProblemInstance) -> ProblemInstance:
    """Scale so that max_i ||M_i||_2 = 1. The maximizer set is unchanged.
    meta records the scale and the PSD shift in the new units (0.0 when
    none was applied)."""
    scale = float(spectral_norms(c.mats).max())
    if scale <= 0.0:
        raise ValueError("cannot normalize an all-zero instance")
    meta = dict(c.meta)
    meta["normalization_scale"] = scale * meta.get("normalization_scale", 1.0)
    meta["psd_shift"] = meta.get("psd_shift", 0.0) / scale
    return ProblemInstance(mats=c.mats / scale, meta=meta)


def polar_factor(m) -> np.ndarray:
    """U V' for the thin SVD m = U S V', as a bare array.

    One call of LAPACK's dgesdd, the routine np.linalg.svd runs, so the
    factor is the one np.linalg.svd gives. A failed call (as on a NaN)
    raises LinAlgError; m must have full column rank, as the polar factor
    is not unique otherwise.
    """
    u, s, vt, info = dgesdd(m, full_matrices=0)
    if info != 0:
        raise np.linalg.LinAlgError(f"dgesdd failed: info = {info}")
    if s[0] <= 0.0 or s[-1] <= 1e-13 * s[0]:
        raise ValueError("rank-deficient input: polar factor not unique")
    return u @ vt


def procrustes_project(m: np.ndarray) -> StiefelPoint:
    """Closest point on St(k, d) in Frobenius norm: the polar factor of m."""
    return StiefelPoint(polar_factor(m))


def rop_error(x_blocks) -> float:
    """Mean squared distance of each block's descending spectrum from e_1.

    Zero iff every block is exactly a rank-one trace-one projector. Used
    with the ROP_TOL threshold to declare the rank-one property.
    """
    vals = np.linalg.eigvalsh(sym(np.asarray(x_blocks, dtype=float)))[:, ::-1]
    vals[:, 0] -= 1.0
    # the per-block sums are added in block order, as a loop would add them
    return sum(np.sum(vals ** 2, axis=1).tolist()) / len(vals)


def top_eigenpairs(x_blocks):
    """Leading eigenvector of each block plus a per-block tie flag.

    A block whose top two eigenvalues are closer than TIE_GAP has no
    well-defined leading eigenvector; the flag reports that instead of
    breaking the tie arbitrarily.
    """
    vals, vecs = np.linalg.eigh(sym(np.asarray(x_blocks, dtype=float)))
    ties = [bool(len(v) > 1 and v[-1] - v[-2] < TIE_GAP) for v in vals]
    return np.ascontiguousarray(vecs[:, :, -1].T), ties


def orthogonal_rank_one(x, orth_tol: float) -> bool:
    """For a stack x of near-rank-one blocks: are the top eigenvectors
    mutually orthogonal and is the block sum a projection (eigenvalues in
    {0, 1})? The caller establishes the rank-one premise."""
    u, _ = top_eigenpairs(x)
    gram = u.T @ u
    off = gram - np.diag(np.diag(gram))
    if np.max(np.abs(off)) > orth_tol:
        return False
    vals = np.linalg.eigvalsh(x.sum(axis=0))
    return bool(np.all(np.minimum(np.abs(vals), np.abs(vals - 1.0)) <= orth_tol))


def check_rop_orthogonality(x_blocks, orth_tol: float = SOLVER_ORTH_TOL) -> bool:
    """orthogonal_rank_one for blocks that must first be rank-one.

    Raises RopPreconditionError when the blocks are not rank-one within
    ROP_TOL, since the question only makes sense under that premise.
    """
    x = sym(np.asarray(x_blocks, dtype=float))
    err = rop_error(x)
    if not err <= ROP_TOL:
        raise RopPreconditionError(
            f"blocks are not rank-one: rop_error={err:.3e} > {ROP_TOL:.1e}"
        )
    return orthogonal_rank_one(x, orth_tol)


# ---------------------------------------------------------------------------
# Instance file format: a single JSON document
#   { "d": int, "k": int, "mats": [[row-major floats] x k], "meta": object }

def check_size(n, what: str) -> int:
    """n, if it is a positive integer; ValueError naming what otherwise. A
    bool, float or string is not one, so no size is truncated or cast: the
    one rule for a size read from JSON or from an experiment grid."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"{what} must be a positive integer, got {n!r}")
    return int(n)


def save_instance(c: ProblemInstance, path) -> None:
    doc = {
        "d": c.d,
        "k": c.k,
        "mats": c.mats.reshape(c.k, -1).tolist(),
        "meta": c.meta,
    }
    Path(path).write_text(json.dumps(doc))


def load_instance(path) -> ProblemInstance:
    """The instance save_instance wrote to path. A file that is not such a
    document is bad input: ValueError (or KeyError for a missing field), as
    is a matrix whose max |A - A'| exceeds 1e-12 times the largest |entry|
    of the stack."""
    doc = json.loads(Path(path).read_text())
    try:
        d = check_size(doc["d"], f"malformed instance {path}: d")
        k = check_size(doc["k"], f"malformed instance {path}: k")
        if len(doc["mats"]) != k:
            raise ValueError(
                f"expected {k} matrices, found {len(doc['mats'])}")
        mats = np.asarray(doc["mats"], dtype=float).reshape(k, d, d)
        meta = dict(doc.get("meta") or {})
    except TypeError as exc:  # a JSON value of the wrong type
        raise ValueError(f"malformed instance {path}: {exc}") from exc
    # relative to the largest entry, so that rescaling a file changes
    # nothing; an all-zero stack passes
    asym = np.max(np.abs(mats - mats.swapaxes(1, 2)), initial=0.0)
    if asym > 1e-12 * np.max(np.abs(mats), initial=0.0):
        raise ValueError(f"matrix not symmetric: max |A - A'| = {asym:.3e}")
    return ProblemInstance(mats=mats, meta=meta)
