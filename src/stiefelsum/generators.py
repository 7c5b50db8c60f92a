"""Synthetic instance families used across the experiment suite.

FAMILIES maps each family name to its builder, and make_instance is the
one way the CLI and the harness build an instance of a family:
  hppca    - heteroscedastic PPCA blocks from one planted draw
  randpsd  - independent Gaussian factor PSD blocks
  cjd      - nested diagonally-dominant blocks whose commuting distance is
             dialed by a noise level sigma
  diagonal - diagonal blocks with uniform entries
  nested   - sums of outer products over nested spans, with a known optimal
             value, reaching large commuting distance at will
rank_two_pair (gen's fixture) returns relaxation blocks, not an instance.
"""

from __future__ import annotations

import inspect

import numpy as np

from .core import ProblemInstance, normalize_instance
from .hppca import build_instance, make_model, sample, save_model


def gen_hppca(d: int, k: int, n=(100, 400), v=(1.0, 4.0), lambdas=None,
              model_out=None, seed=0) -> ProblemInstance:
    """Normalized HPPCA blocks from one sample of a planted model with group
    sizes n and noise variances v; model_out is a path to save it to."""
    lambdas = np.linspace(1.0, 4.0, k) if lambdas is None else lambdas
    model = make_model(d, k, lambdas, v, n, seed=seed)
    if model_out:
        save_model(model, model_out)
    return normalize_instance(build_instance(model, sample(model)))


def gen_random_psd(d: int, k: int, rank=None, seed=0) -> ProblemInstance:
    """k independent Wishart-style blocks A A^T, A Gaussian d x rank."""
    rank = k if rank is None else int(rank)
    if rank < 1:
        raise ValueError("rank must be positive")
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(k):
        a = rng.standard_normal((d, min(rank, d)))
        mats.append(a @ a.T)
    inst = ProblemInstance(mats=tuple(mats), meta={
        "family": "randpsd", "rank": min(rank, d), "seed": seed,
    })
    return normalize_instance(inst)


def gen_random_diagonal(d: int, k: int, seed=0) -> ProblemInstance:
    """Diagonal blocks with uniform entries; ties have probability zero."""
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0.0, 1.0, size=(k, d))
    inst = ProblemInstance(mats=tuple(np.diag(v) for v in vals),
                           meta={"family": "diagonal", "seed": seed})
    return normalize_instance(inst)


def gen_separated_diagonal(d: int, k: int, peak: float = 1.0,
                           base: float = 0.1, seed=0) -> ProblemInstance:
    """Diagonal center whose block i peaks at coordinate i.

    The assignment optimum i -> i wins every alternative by at least
    peak - base, so the optimum is unique with a wide margin."""
    if k > d:
        raise ValueError("need k <= d")
    if not 0.0 <= base < peak:
        raise ValueError("need 0 <= base < peak")
    rng = np.random.default_rng(seed)
    vals = base * rng.uniform(0.25, 0.75, size=(k, d))
    for i in range(k):
        vals[i, i] = peak
    inst = ProblemInstance(mats=tuple(np.diag(v) for v in vals),
                           meta={"family": "diagonal-separated", "seed": seed})
    return normalize_instance(inst)


def check_sigma(sigma) -> float:
    """sigma, if it is a finite noise level >= 0; ValueError otherwise. The
    one rule for a cjd noise level, which gen_cjd and the sweep apply."""
    if not 0.0 <= sigma < np.inf:  # NaN fails too
        raise ValueError(f"sigma must be finite and >= 0, got {sigma!r}")
    return float(sigma)


def gen_cjd(d: int, k: int, r=None, sigma: float = 1e-3, seed=0,
            reverse_nesting: bool = False) -> ProblemInstance:
    """Nested chain M_1 >= ... >= M_k >= 0 of diagonally dominant blocks.

    Each level adds a fresh diagonal with r (default min(3, d)) uniform
    entries plus a noise term S S^T / (10 d), S Gaussian d x 10d with
    variance sigma (see check_sigma), so sigma sweeps the tuple's
    commuting distance. reverse_nesting builds the chain in ascending
    order (M_k >= ... >= M_1)."""
    r = min(3, d) if r is None else r
    check_sigma(sigma)
    if r > d:
        raise ValueError("need r <= d")
    rng = np.random.default_rng(seed)

    def increment():
        diag = np.zeros(d)
        idx = rng.choice(d, size=r, replace=False)
        diag[idx] = rng.uniform(0.0, 1.0, size=r)
        out = np.diag(diag)
        if sigma > 0.0:
            s = rng.standard_normal((d, 10 * d)) * np.sqrt(sigma)
            out = out + s @ s.T / (10.0 * d)
        return out

    mats = [increment()]
    for _ in range(k - 1):
        mats.append(mats[-1] + increment())
    if not reverse_nesting:
        mats.reverse()  # largest block first
    inst = ProblemInstance(mats=tuple(mats), meta={
        "family": "cjd", "r": r, "sigma": sigma, "seed": seed,
    })
    return normalize_instance(inst)


def gen_nested(d: int, k: int, coeffs, seed=0):
    """Blocks M_i = sum_{j >= i} v_j v_j^T over nested spans.

    v_j are the columns of Q C for a random d x k orthonormal frame Q and
    the given upper-triangular k x k coefficient matrix C. The optimal
    value equals trace(M_1) = ||C||_F^2 exactly, attained by the ordered
    orthonormalization of the v_j, while off-diagonal coefficients push
    the commuting distance up to the same order as the norms. Output is
    deliberately left unnormalized so the known value is preserved.

    Returns (instance, known_optimum); the instance's meta records
    known_optimum too, and a psd_shift of 0.0, as normalized families do."""
    c = np.asarray(coeffs, dtype=float)
    if c.shape != (k, k):
        raise ValueError("coefficient matrix must be k x k")
    if np.any(np.abs(np.tril(c, -1)) > 0.0):
        raise ValueError("coefficient matrix must be upper triangular")
    if np.any(np.abs(np.diag(c)) < 1e-12):
        raise ValueError("zero diagonal coefficient: vectors dependent")
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, k)))
    v = q @ c  # column j is v_j
    mats = []
    running = np.zeros((d, d))
    for j in range(k - 1, -1, -1):
        running = running + np.outer(v[:, j], v[:, j])
        mats.append(running.copy())
    mats.reverse()
    opt = float(np.sum(c * c))
    inst = ProblemInstance(mats=tuple(mats), meta={
        "family": "nested", "seed": seed, "known_optimum": opt,
        "psd_shift": 0.0,
    })
    return inst, opt


def _nested_instance(d: int, k: int, coeffs, seed=0) -> ProblemInstance:
    return gen_nested(d, k, coeffs, seed=seed)[0]


FAMILIES = {"hppca": gen_hppca, "randpsd": gen_random_psd, "cjd": gen_cjd,
            "diagonal": gen_random_diagonal, "nested": _nested_instance}


def family_builder(family: str, params: dict):
    """The family's builder, after checking that params name only its own
    parameters (not d, k or seed); ValueError otherwise."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family: {family}")
    try:
        inspect.signature(FAMILIES[family]).bind(0, 0, seed=0, **params)
    except TypeError as exc:
        raise ValueError(f"family {family}: {exc}") from None
    return FAMILIES[family]


def make_instance(family: str, d: int, k: int, params: dict,
                  seed=0) -> ProblemInstance:
    """An instance of the family; params are its builder's parameters."""
    return family_builder(family, params)(d, k, seed=seed, **params)


def rank_two_pair():
    """The rank-two feasible pair that no convex combination of Stiefel
    outer products reproduces: both traces are 1, the sum has full rank 4
    and top eigenvalue exactly 1."""
    x1 = 0.5 * np.diag([1.0, 1.0, 0.0, 0.0])
    x2 = np.array([
        [3.0, 1.0, 3.0, 1.0],
        [1.0, 3.0, 1.0, 3.0],
        [3.0, 1.0, 3.0, 1.0],
        [1.0, 3.0, 1.0, 3.0],
    ]) / 12.0
    return x1, x2
