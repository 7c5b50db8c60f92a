"""Manifold solver tests. Gradient formulas are checked against hand
values and central finite differences, the ascent against monotonicity."""

import numpy as np
import pytest

from stiefelsum import stiefel
from stiefelsum.core import ProblemInstance, StiefelPoint, sym
from stiefelsum.generators import (
    gen_hppca,
    gen_random_psd,
    gen_separated_diagonal,
)
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
        # the batched M_i u_i against a per-column loop
        loop = np.column_stack([m @ u.cols[:, i] for i, m in enumerate(c.mats)])
        assert euclidean_gradient(c, u) == pytest.approx(2.0 * loop, abs=1e-12)
        assert lambda_matrix(c, u).matrix == pytest.approx(u.cols.T @ loop,
                                                           abs=1e-12)
        assert objective(c, u) == pytest.approx(float(np.sum(u.cols * loop)),
                                                abs=1e-12)


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


def test_mm_steps_build_no_points(monkeypatch):
    c = gen_hppca(20, 5, seed=4)
    u0 = random_stiefel(20, 5, np.random.default_rng(4))
    built = []
    init = StiefelPoint.__post_init__

    def counting(self):
        built.append(self)
        init(self)

    monkeypatch.setattr(StiefelPoint, "__post_init__", counting)
    trace = stmm_solve(c, u0, SolverConfig(max_iters=100))
    # 100 MM steps and no Newton attempt: the only point is the final one
    assert trace.iterations == 100
    assert trace.grad_norms.min() > stiefel.NEWTON_SWITCH * c.gate_unit
    assert len(built) == 1 and built[0] is trace.final


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_gradient_raises_on_the_first_step():
    # the first gradient's singular values, 5.7e307 and 1.6, fail the rank
    # check on the MM step and on its perturbed retry: the run ends there,
    # before any iterate overflows to NaN
    c = ProblemInstance((6e307 * np.ones((3, 3)), np.eye(3)))
    u0 = random_stiefel(3, 2, np.random.default_rng(0))
    with pytest.raises(ValueError, match="rank-deficient"):
        stmm_solve(c, u0)


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


def _plain_mm(c, u, grad_tol=1e-10, max_iters=20000):
    """Reference: MM ascent alone, each step the polar factor of the
    Euclidean gradient, with the gradient built column by column."""
    for _ in range(max_iters):
        g = 2.0 * np.column_stack([m @ u[:, i] for i, m in enumerate(c.mats)])
        if np.linalg.norm(g - u @ sym(u.T @ g)) <= grad_tol:
            return u
        w, _, vt = np.linalg.svd(g, full_matrices=False)
        u = w @ vt
    raise AssertionError("reference MM did not converge")


@pytest.mark.parametrize("d,k", [(20, 5), (40, 5)])
def test_newton_polish_matches_plain_mm(d, k):
    for seed in range(3):
        c = gen_hppca(d, k, seed=seed)
        u0 = random_stiefel(d, k, np.random.default_rng(seed + 100))
        trace = stmm_solve(c, u0, SolverConfig.for_hppca())
        assert trace.status == "Stationary"
        assert trace.newton_steps
        assert np.abs(trace.final.cols - _plain_mm(c, u0.cols)).max() <= 1e-7
        assert float(np.diff(trace.objectives).min()) >= -1e-12
        if d == 40:  # plain MM takes 2 988-7 711 steps on these draws
            assert trace.iterations < 4000


def test_newton_from_the_first_step_stays_monotone(monkeypatch):
    # far from a stationary point Newton may head for a saddle (this HPPCA
    # run gets within gradient norm 1e-8 of one, and MM climbs off it);
    # the guard keeps the ascent monotone and the run still ends Stationary
    monkeypatch.setattr(stiefel, "NEWTON_SWITCH", np.inf)
    rng = np.random.default_rng(29)
    cases = [gen_random_psd(8, 3, seed=s) for s in (1, 2, 3)]
    cases.append(gen_hppca(20, 5, seed=4))
    first = []
    for c in cases:
        trace = stmm_solve(c, random_stiefel(c.d, c.k, rng),
                           SolverConfig.for_hppca())
        assert trace.status == "Stationary"
        assert float(np.diff(trace.objectives).min()) >= -1e-12
        assert len(trace.grad_norms) == trace.iterations + 1
        first.append(trace.newton_steps[:1] == (0,))
    assert any(first)
