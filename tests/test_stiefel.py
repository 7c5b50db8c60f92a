"""Manifold solver tests. Gradient formulas are checked against hand
values and central finite differences, the ascent against monotonicity."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stiefelsum import stiefel
from stiefelsum.certificate import certify
from stiefelsum.core import ProblemInstance, StiefelPoint, polar_factor, sym
from stiefelsum.generators import (
    gen_cjd,
    gen_hppca,
    gen_random_psd,
    gen_separated_diagonal,
    make_instance,
)
from stiefelsum.stiefel import (
    SolverConfig,
    objective,
    random_stiefel,
    riemannian_gradient,
    stmm_solve,
)


def test_gradient_hand_values():
    c = ProblemInstance((np.diag([3.0, 1.0]),))
    e1 = np.array([[1.0], [0.0]])
    assert objective(c, e1) == pytest.approx(3.0)
    g, f, _ = stiefel._evaluate(c.mats, e1)
    assert g == pytest.approx(np.array([[6.0], [0.0]]))
    assert f == objective(c, e1)
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
        g = stiefel._evaluate(c.mats, u.cols)[0]
        assert g == pytest.approx(2.0 * loop, abs=1e-12)
        # the multiplier matrix L = U'G / 2, column i U' M_i u_i
        assert 0.5 * (u.cols.T @ g) == pytest.approx(u.cols.T @ loop,
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
    # certify reports ||L - L'||_F of the multiplier matrix L = U'G / 2
    c = gen_separated_diagonal(6, 3, seed=2)
    rng = np.random.default_rng(2)
    u0 = random_stiefel(6, 3, rng)
    assert certify(c, u0).meta["symmetry_residual"] > 1e-3
    trace = stmm_solve(c, u0)
    assert trace.status == "Stationary"
    assert certify(c, trace.final).meta["symmetry_residual"] <= 1e-8


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


def test_a_norm_near_the_double_range_ends_stationary():
    # ||5e307 ones(3, 3)||_2 = 1.5e308 is finite, and I is 1.5e308 times
    # smaller: the view holds it as 6.7e-309 I, and neither the run nor
    # the certificate overflows
    c = ProblemInstance((5e307 * np.ones((3, 3)), np.eye(3)))
    trace = stmm_solve(c, random_stiefel(3, 2, np.random.default_rng(0)))
    assert trace.status == "Stationary"
    assert certify(c, trace.final).status == "CertifiedGlobal"


def test_a_rank_deficient_retry_raises(monkeypatch):
    # an MM step whose gradient and perturbed retry are both rank-deficient
    # ends the run with the polar factor's ValueError
    calls = []

    def deficient(m):
        calls.append(m)
        raise ValueError("rank-deficient input: polar factor not unique")

    monkeypatch.setattr(stiefel, "polar_factor", deficient)
    c = gen_random_psd(6, 2, seed=1)
    u0 = random_stiefel(6, 2, np.random.default_rng(1))
    with pytest.raises(ValueError, match="rank-deficient"):
        stmm_solve(c, u0)
    assert len(calls) == 2
    assert np.array_equal(calls[1], calls[0] + 1e-12 * u0.cols)


def _near_the_double_range(a):
    """The indefinite pair (diag(a, a, 0), diag(-a, 0, a)); at a = 8.9e307
    its M_i + c I and its gradient overflow in the units of the M_i."""
    return ProblemInstance((np.diag([a, a, 0.0]), np.diag([-a, 0.0, a])))


def test_near_the_double_range_is_the_unit_pair():
    # StMM and certify read the view (M_i + c I) / s, the same stack up to
    # rounding for both: LAPACK rescales a matrix whose norm is above about
    # 1e146, so s is not exactly 8.9e307 and the runs are not bitwise equal
    u0 = random_stiefel(3, 2, np.random.default_rng(0))
    finals, witnesses = [], []
    for a in (1.0, 8.9e307):
        c = _near_the_double_range(a)
        trace = stmm_solve(c, u0)
        assert (trace.status, trace.iterations) == ("Stationary", 5)
        assert np.all(np.isfinite(trace.objectives))
        finals.append(trace.objectives[-1] / c.gate_unit)
        for u in (StiefelPoint(np.eye(3)[:, [1, 2]]), trace.final):
            res = certify(c, u)
            assert res.status == "CertifiedGlobal", (a, res.meta["reason"])
            assert np.all(np.isfinite(res.min_eig_slacks))
            witnesses.append(res.nu_witness / c.gate_unit)
    assert abs(finals[0] - finals[1]) <= 1e-14
    assert np.allclose(witnesses[:2], witnesses[2:], rtol=0, atol=1e-12)


@given(st.sampled_from(["hppca", "randpsd"]), st.integers(2, 8),
       st.integers(1, 3), st.integers(0, 2**16), st.sampled_from([0.0, -0.3]),
       st.floats(1.0, 8.8e307))
@example("randpsd", 8, 3, 1, -0.3, 8.8e307)
@example("hppca", 8, 3, 1, 0.0, 8.8e307)
@settings(max_examples=20, deadline=None)
def test_verdicts_hold_up_to_the_largest_double(family, d, k, seed, c_shift,
                                                top):
    # a draw scaled so that its largest entry is at most top and its
    # spectral norm stays finite: StMM and certify see the unit draw's view
    # and reach its verdicts, with no RuntimeWarning (an error here)
    k = min(k, d)
    unit = ProblemInstance(make_instance(family, d, k, {}, seed).mats
                           + c_shift * np.eye(d))
    # big = a M with a = min(top / entry, 1.7e308 / s), built as b (M / entry)
    # so that no factor overflows where s or the largest entry is below 1
    entry = float(np.abs(unit.mats).max())
    b = min(top, 1.7e308 / unit.gate_unit * entry)
    big = ProblemInstance(b * (unit.mats / entry))
    a = b / entry
    u0 = random_stiefel(d, k, np.random.default_rng(seed))
    small, large = stmm_solve(unit, u0), stmm_solve(big, u0)
    assert large.status == small.status
    assert (certify(big, large.final).status
            == certify(unit, small.final).status)
    # F of k blocks can exceed the double range, where inf is its value
    f = a * float(small.objectives[-1])
    if np.isfinite(f):
        assert float(large.objectives[-1]) == pytest.approx(
            f, rel=0, abs=1e-9 * big.gate_unit)


def test_steps_do_not_depend_on_the_units():
    # every step reads the view (M_i + c I) / s, which a power-of-two scale
    # of the M_i leaves bit for bit: the steps and the final point are the
    # same and the trace scales exactly. 1e8 M may round its view
    # differently, so its steps may differ, but not its verdicts or its
    # final point (this draw's norm, 1 + 4.4e-16, snaps to s = 1, and M and
    # 1e8 M both take 60 steps, with Newton steps 58 and 59)
    c = gen_hppca(20, 3, seed=1)
    u0 = random_stiefel(20, 3, np.random.default_rng(0))
    runs = {a: stmm_solve(ProblemInstance(a * c.mats), u0)
            for a in (1.0, 2.0, 2.0 ** 31, 1e8)}
    base = runs[1.0]
    assert base.status == "Stationary" and len(base.newton_steps) >= 1
    for a in (2.0, 2.0 ** 31):
        tr = runs[a]
        assert (tr.status, tr.iterations, tr.newton_steps,
                tr.accelerated_steps) == (base.status, base.iterations,
                                          base.newton_steps,
                                          base.accelerated_steps)
        assert np.array_equal(tr.objectives, a * base.objectives)
        assert np.array_equal(tr.grad_norms, a * base.grad_norms)
        assert np.array_equal(tr.final.cols, base.final.cols)
    big = runs[1e8]
    assert big.status == base.status
    assert certify(c, base.final).status == "CertifiedGlobal"
    assert certify(ProblemInstance(1e8 * c.mats),
                   big.final).status == "CertifiedGlobal"
    assert np.allclose(big.final.cols, base.final.cols, rtol=0, atol=1e-9)


@pytest.mark.parametrize("a", [1e-12, 1e-20])
def test_units_below_one_gate_as_the_unit_draw(a):
    # the gates are in units of s, the spread of a M, however small: a
    # random point of a tiny HPPCA draw is neither stationary nor certified,
    # and StMM climbs from it to the unit draw's certified final point
    c = gen_hppca(20, 3, seed=1)
    tiny = ProblemInstance(a * c.mats)
    u0 = random_stiefel(20, 3, np.random.default_rng(0))
    base, trace = stmm_solve(c, u0), stmm_solve(tiny, u0)
    assert tiny.gate_unit == pytest.approx(a * c.gate_unit, rel=1e-12, abs=0)
    assert trace.status == base.status == "Stationary"
    assert trace.iterations >= 50
    assert certify(tiny, u0).status == "Inconclusive"
    assert certify(tiny, trace.final).status == "CertifiedGlobal"
    assert np.allclose(trace.final.cols, base.final.cols, rtol=0, atol=1e-9)
    assert trace.objectives[-1] == pytest.approx(a * base.objectives[-1],
                                                 rel=1e-12, abs=0)


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


@pytest.mark.parametrize("grad_tol", [float("nan"), -1e-10])
def test_a_grad_tol_that_is_nan_or_negative_is_rejected(grad_tol):
    # a NaN gate never passes, so every run would end MaxIters
    with pytest.raises(ValueError, match="grad_tol"):
        SolverConfig(grad_tol=grad_tol)
    assert SolverConfig(grad_tol=0.0).grad_tol == 0.0


def test_a_shift_does_not_slow_the_ascent():
    # M_i + 3 I has the view of M_i up to rounding, so StMM takes the same
    # path, within 5 % of the unshifted steps
    c = gen_hppca(40, 3, seed=1)
    u0 = random_stiefel(40, 3, np.random.default_rng(1))
    cfg = SolverConfig.for_hppca()
    base = stmm_solve(c, u0, cfg)
    shifted = stmm_solve(ProblemInstance(c.mats + 3.0 * np.eye(40)), u0, cfg)
    assert base.status == shifted.status == "Stationary"
    assert abs(shifted.iterations - base.iterations) <= 0.05 * base.iterations
    assert shifted.objectives[-1] == pytest.approx(
        base.objectives[-1] + 9.0, rel=1e-12)


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
    # MM map U -> polar(G(U)) on the view, whose objective is mapped back
    # to the units of the M_i once, as s (f - k c / s)
    monkeypatch.setattr(stiefel, "NEWTON_SWITCH", 0.0)
    trace = stmm_solve(c, u0, SolverConfig(max_iters=200))
    u, objs = u0.cols, []
    for _ in range(201):
        g, f, _ = stiefel._evaluate(c.view, u)
        objs.append(f)
        u = polar_factor(g)
    s = c.gate_unit
    assert np.array_equal(trace.objectives,
                          s * (np.asarray(objs) - c.k * (c.psd_shift / s)))


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


@pytest.mark.parametrize("c_shift", [0.5, 2.0])
@pytest.mark.parametrize("family", ["hppca", "randpsd"])
def test_ascent_on_shifted_blocks_is_the_unshifted_ascent(family, c_shift):
    # M_i - c I moves no maximizer and only lowers F by k c on St(k, d);
    # StMM steps on the view, PSD with least eigenvalue 0, so it still climbs
    # monotonically to the same stationary value, and certify agrees
    c = (gen_hppca(20, 3, seed=1) if family == "hppca"
         else gen_random_psd(12, 3, seed=1))
    u0 = random_stiefel(c.d, c.k, np.random.default_rng(0))
    base = stmm_solve(c, u0)
    shifted = ProblemInstance(c.mats - c_shift * np.eye(c.d))
    trace = stmm_solve(shifted, u0)
    s = shifted.gate_unit
    assert base.status == trace.status == "Stationary"
    assert float(np.diff(trace.objectives).min()) >= -1e-12 * s
    assert abs(trace.objectives[-1] + c.k * c_shift
               - base.objectives[-1]) <= 1e-9 * s
    assert certify(shifted, trace.final).status == "CertifiedGlobal"
    assert shifted.psd_shift > 0.0  # the shifted blocks are indefinite


@given(st.sampled_from(["hppca", "randpsd"]), st.integers(2, 8),
       st.integers(1, 3), st.integers(0, 2**16), st.floats(-3.0, 3.0))
@settings(max_examples=30, deadline=None)
def test_ascent_is_monotone_for_any_shift(family, d, k, seed, c_shift):
    # every shift has the view of c = 0 up to the rounding of the input;
    # monotonicity is claimed here, on the objective of the M_i + c I
    k = min(k, d)
    c = gen_hppca(d, k, seed=seed) if family == "hppca" else gen_random_psd(
        d, k, seed=seed)
    shifted = ProblemInstance(c.mats + c_shift * np.eye(d))
    trace = stmm_solve(shifted, random_stiefel(d, k,
                                               np.random.default_rng(seed)))
    diffs = np.diff(trace.objectives)
    assert diffs.min(initial=0.0) >= -1e-12 * shifted.gate_unit
