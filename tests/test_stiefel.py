"""Manifold solver tests. Gradient formulas are checked against hand
values and central finite differences, the ascent against monotonicity."""

import numpy as np
import pytest

from stiefelsum.core import ProblemInstance, StiefelPoint, sym
from stiefelsum.generators import gen_random_psd, gen_separated_diagonal
from stiefelsum.stiefel import (
    SolverConfig,
    euclidean_gradient,
    lambda_matrix,
    objective,
    random_stiefel,
    riemannian_gradient,
    stmm_solve,
)


def test_gradient_hand_values():
    c = ProblemInstance((np.diag([3.0, 1.0]),))
    e1 = np.array([[1.0], [0.0]])
    assert objective(c, e1) == pytest.approx(3.0)
    assert euclidean_gradient(c, e1) == pytest.approx(np.array([[6.0], [0.0]]))
    # e1 is stationary: tangent projection kills the gradient
    assert np.linalg.norm(riemannian_gradient(c, e1)) <= 1e-15

    u = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
    assert objective(c, u) == pytest.approx(2.0)
    rg = riemannian_gradient(c, u)
    assert rg[:, 0] == pytest.approx(np.array([np.sqrt(2.0), -np.sqrt(2.0)]))


def _tangent(u, a):
    return a - u.cols @ sym(u.cols.T @ a)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(6):
        d, k = int(rng.integers(3, 8)), int(rng.integers(1, 4))
        c = gen_random_psd(d, k, seed=int(rng.integers(1 << 30)))
        u = random_stiefel(d, k, rng)
        xi = _tangent(u, rng.standard_normal((d, k)))
        h = 1e-6
        fd = (objective(c, u.cols + h * xi) - objective(c, u.cols - h * xi)) / (2 * h)
        an = float(np.sum(riemannian_gradient(c, u) * xi))
        assert fd == pytest.approx(an, abs=1e-5 * max(1.0, abs(an)))


def test_riemannian_gradient_is_tangent():
    rng = np.random.default_rng(5)
    for _ in range(10):
        d, k = int(rng.integers(2, 9)), int(rng.integers(1, 5))
        k = min(k, d)
        c = gen_random_psd(d, k, seed=int(rng.integers(1 << 30)))
        u = random_stiefel(d, k, rng)
        rg = riemannian_gradient(c, u)
        assert np.linalg.norm(sym(u.cols.T @ rg)) <= 1e-12


def test_lambda_matrix_symmetric_only_at_stationarity():
    c = gen_separated_diagonal(6, 3, seed=2)
    rng = np.random.default_rng(2)
    u0 = random_stiefel(6, 3, rng)
    assert lambda_matrix(c, u0).symmetry_residual > 1e-3
    trace = stmm_solve(c, u0)
    assert trace.status == "Stationary"
    assert lambda_matrix(c, trace.final).symmetry_residual <= 1e-8


def test_random_stiefel_deterministic_and_orthonormal():
    a = random_stiefel(7, 3, np.random.default_rng(42))
    b = random_stiefel(7, 3, np.random.default_rng(42))
    assert np.array_equal(a.cols, b.cols)
    assert a.cols.shape == (7, 3)
    assert np.linalg.norm(a.cols.T @ a.cols - np.eye(3)) <= 1e-12
    c = random_stiefel(7, 3, np.random.default_rng(43))
    assert not np.allclose(a.cols, c.cols)


def test_ascent_is_monotone():
    rng = np.random.default_rng(17)
    for _ in range(5):
        c = gen_random_psd(8, 3, seed=int(rng.integers(1 << 30)))
        trace = stmm_solve(c, random_stiefel(8, 3, rng))
        diffs = np.diff(trace.objectives)
        assert diffs.min() >= -1e-12
        assert trace.grad_norms[-1] <= 1e-10 or trace.status == "MaxIters"


def test_max_iters_status():
    c = gen_random_psd(6, 2, seed=1)
    u0 = random_stiefel(6, 2, np.random.default_rng(1))
    trace = stmm_solve(c, u0, SolverConfig(max_iters=2, grad_tol=0.0))
    assert trace.status == "MaxIters"
    assert trace.iterations == 2
    assert len(trace.grad_norms) == 3


def test_degenerate_gradient_is_perturbed_not_fatal():
    # both blocks pull toward e1 only: the gradient stack has rank 1
    e = np.eye(3)
    m = np.outer(e[:, 0], e[:, 0])
    c = ProblemInstance((m, m))
    u0 = StiefelPoint(np.column_stack([(e[:, 0] + e[:, 1]) / np.sqrt(2.0),
                                       e[:, 2]]))
    trace = stmm_solve(c, u0, SolverConfig(max_iters=50))
    assert trace.degenerate_steps
    f = trace.final.cols
    assert np.linalg.norm(f.T @ f - np.eye(2)) <= 1e-10
    assert trace.objectives[-1] >= trace.objectives[0] - 1e-12


def test_k1_ascent_finds_top_eigenvector():
    rng = np.random.default_rng(23)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    m = sym(q @ np.diag([5.0, 2.0, 1.5, 1.0, 0.5, 0.1]) @ q.T)
    c = ProblemInstance((m,))
    best = -np.inf
    for s in range(8):
        trace = stmm_solve(c, random_stiefel(6, 1, np.random.default_rng(s)))
        best = max(best, float(trace.objectives[-1]))
    assert best == pytest.approx(5.0, abs=1e-8)


def test_config_factories():
    assert SolverConfig.for_hppca().max_iters == 10000
