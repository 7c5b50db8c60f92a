"""Manifold solver tests. Gradient formulas are checked against hand
values and central finite differences, the ascent against monotonicity."""

import numpy as np
import pytest

from stiefelsum import stiefel
from stiefelsum.core import ProblemInstance, StiefelPoint, polar_factor, sym
from stiefelsum.generators import (
    gen_cjd,
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
    # more columns than rows fails loudly, as StiefelPoint does, rather
    # than returning a d x d point
    with pytest.raises(ValueError, match="need k <= d"):
        random_stiefel(3, 5, np.random.default_rng(42))


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
    # 100 MM or Anderson steps and no Newton attempt: the only point is
    # the final one
    assert trace.iterations == 100
    assert trace.grad_norms.min() > stiefel.NEWTON_SWITCH * c.gate_unit
    assert len(built) == 1 and built[0] is trace.final


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_gradient_raises_on_the_first_step():
    # the first gradient's singular values, 4.7e307 and 1.6, fail the rank
    # check on the MM step and on its perturbed retry: the run ends there,
    # before any iterate overflows to NaN; the spectral norm, 1.5e308, is
    # still finite
    c = ProblemInstance((5e307 * np.ones((3, 3)), np.eye(3)))
    u0 = random_stiefel(3, 2, np.random.default_rng(0))
    with pytest.raises(ValueError, match="rank-deficient"):
        stmm_solve(c, u0)


def test_steps_do_not_depend_on_the_units():
    # the stop and the Newton system are in units of s = c.gate_unit: a
    # power-of-two scale changes no bit, and 1e8 changes no step
    c = gen_hppca(20, 3, seed=1)
    u0 = random_stiefel(20, 3, np.random.default_rng(0))
    runs = {a: stmm_solve(ProblemInstance(a * c.mats), u0)
            for a in (1.0, 2.0, 2.0 ** 31, 1e8)}
    base = runs[1.0]
    assert base.status == "Stationary" and len(base.newton_steps) == 2
    for tr in runs.values():
        assert (tr.status, tr.iterations, tr.newton_steps,
                tr.accelerated_steps) == (base.status, base.iterations,
                                          base.newton_steps,
                                          base.accelerated_steps)
        assert np.allclose(tr.final.cols, base.final.cols, atol=1e-12)
    assert np.array_equal(runs[2.0 ** 31].final.cols, runs[2.0].final.cols)


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


def test_negative_max_iters_is_rejected():
    # an empty trace has no final objective to report
    with pytest.raises(ValueError, match="max_iters"):
        SolverConfig(max_iters=-1)
    u0 = random_stiefel(6, 2, np.random.default_rng(1))
    trace = stmm_solve(gen_random_psd(6, 2, seed=1), u0,
                       SolverConfig(max_iters=0))
    assert trace.iterations == 0 and trace.status == "MaxIters"


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


def _sign_distance(a, b):
    """Largest entry of |A S - B|, S the column signs that best align A
    with B: the distance between two points that may differ only in the
    signs of their columns, as the objective cannot tell them apart."""
    signs = np.where(np.sum(a * b, axis=0) < 0.0, -1.0, 1.0)
    return float(np.abs(a * signs - b).max())


@pytest.mark.parametrize("d,k", [(20, 5), (40, 5)])
def test_newton_polish_matches_plain_mm(d, k):
    for seed in range(3):
        c = gen_hppca(d, k, seed=seed)
        u0 = random_stiefel(d, k, np.random.default_rng(seed + 100))
        trace = stmm_solve(c, u0, SolverConfig.for_hppca())
        assert trace.status == "Stationary"
        assert trace.newton_steps and trace.accelerated_steps
        assert _sign_distance(trace.final.cols, _plain_mm(c, u0.cols)) <= 1e-7
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


def test_rejected_extrapolations_leave_plain_mm_bit_for_bit(monkeypatch):
    c = gen_hppca(20, 5, seed=4)
    u0 = random_stiefel(20, 5, np.random.default_rng(4))
    cfg = SolverConfig.for_hppca()
    real = stiefel._anderson_point
    tried = []

    def rejected(mats, history, shape):
        # the extrapolation as built, then marked as falling below MM; after
        # a rejection the history restarts from its last pair
        tried.append(len(history))
        cand = real(mats, history, shape)
        return None if cand is None else (cand[0], cand[1], -np.inf, cand[3])

    def same(a, b):
        return (np.array_equal(a.objectives, b.objectives)
                and np.array_equal(a.grad_norms, b.grad_norms)
                and np.array_equal(a.final.cols, b.final.cols)
                and a.newton_steps == b.newton_steps and a.status == b.status)

    # pure MM with the Newton polish: no history, so no extrapolation
    monkeypatch.setattr(stiefel, "_ANDERSON_DEPTH", 0)
    plain = stmm_solve(c, u0, cfg)
    monkeypatch.undo()
    monkeypatch.setattr(stiefel, "_anderson_point", rejected)
    every_rejected = stmm_solve(c, u0, cfg)
    assert plain.status == "Stationary" and plain.newton_steps
    # every MM step but the first (whose history is one pair) tried one
    assert tried == [2] * (plain.iterations - len(plain.newton_steps) - 1)
    assert plain.accelerated_steps == every_rejected.accelerated_steps == ()
    assert same(plain, every_rejected)

    # every candidate still rejected and no Newton: the steps are the bare
    # MM map U -> polar(G(U))
    monkeypatch.setattr(stiefel, "NEWTON_SWITCH", 0.0)
    trace = stmm_solve(c, u0, SolverConfig(max_iters=200))
    u, objs = u0.cols, []
    for _ in range(201):
        g, f, _ = stiefel._evaluate(c.mats, u)
        objs.append(f)
        u = polar_factor(g)
    assert np.array_equal(trace.objectives, objs)


def test_accelerated_ascent_is_monotone():
    rng = np.random.default_rng(31)
    cases = [gen_hppca(40, 5, seed=s) for s in (1, 2)]
    cases += [gen_random_psd(20, 10, seed=s) for s in (1, 2)]
    cases += [gen_cjd(10, 3, sigma=0.1, seed=s) for s in (1, 2)]
    for c in cases:
        trace = stmm_solve(c, random_stiefel(c.d, c.k, rng),
                           SolverConfig.for_hppca())
        assert trace.status == "Stationary"
        assert trace.accelerated_steps
        assert float(np.diff(trace.objectives).min()) >= -1e-12
        assert len(trace.grad_norms) == trace.iterations + 1
        # accelerated and Newton steps are steps, counted once each
        assert not set(trace.accelerated_steps) & set(trace.newton_steps)
        assert max(trace.accelerated_steps) < trace.iterations


def test_large_hppca_draw_ends_stationary():
    # plain MM stops at MaxIters (10 000 steps) on this draw, with gradient
    # norm 1.1e-4 and no Newton step
    c = gen_hppca(200, 10, seed=1)
    u0 = StiefelPoint(np.linalg.eigh(c.mats.sum(axis=0))[1][:, :-11:-1])
    trace = stmm_solve(c, u0, SolverConfig.for_hppca())
    assert trace.status == "Stationary"
    assert trace.iterations < 1000 and trace.newton_steps


def test_a_newton_step_clears_the_history(monkeypatch):
    # Newton is tried at every step and, at every other call, returns the
    # MM point, so accepted Newton steps and MM steps interleave; every
    # extrapolation is built, then rejected
    c = gen_hppca(20, 5, seed=4)
    u0 = random_stiefel(20, 5, np.random.default_rng(4))
    real = stiefel._anderson_point
    newton_calls, tried = [], []

    def every_other(mats, u, g, rg):
        newton_calls.append(len(newton_calls))
        return polar_factor(g) if len(newton_calls) % 2 else None

    def rejected(mats, history, shape):
        tried.append(len(history))
        cand = real(mats, history, shape)
        return None if cand is None else (cand[0], cand[1], -np.inf, cand[3])

    monkeypatch.setattr(stiefel, "NEWTON_SWITCH", np.inf)
    monkeypatch.setattr(stiefel, "_NEWTON_WAIT", 0)
    monkeypatch.setattr(stiefel, "_newton_point", every_other)
    monkeypatch.setattr(stiefel, "_anderson_point", rejected)
    trace = stmm_solve(c, u0, SolverConfig(max_iters=60))
    newton = set(trace.newton_steps)
    assert len(newton) >= 20
    # a candidate needs two pairs: only an MM step that follows an MM step
    # has them, since a Newton step empties the history
    mm_after_mm = [t for t in range(1, trace.iterations)
                   if t not in newton and t - 1 not in newton]
    assert tried == [2] * len(mm_after_mm)
