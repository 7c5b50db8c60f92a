import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stiefelsum.core import sym
from stiefelsum.sdp import _fantope_start
from stiefelsum.ipm import (
    DenseOps,
    FantopeOps,
    solve_ipm,
    smat,
    svec,
    sym_kron,
)


def _rand_sym(rng, n):
    return sym(rng.standard_normal((n, n)))


def _rand_spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


@given(st.integers(1, 7), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_svec_isometry_roundtrip(n, seed):
    rng = np.random.default_rng(seed)
    x, y = _rand_sym(rng, n), _rand_sym(rng, n)
    vx = svec(x)
    assert vx.shape == (n * (n + 1) // 2,)
    assert np.allclose(smat(vx, n), x)
    # the vectorization preserves the trace inner product
    assert np.isclose(vx @ svec(y), np.sum(x * y))


def test_sym_kron_matches_operator():
    rng = np.random.default_rng(2)
    for n in (2, 3, 5):
        a, b = _rand_sym(rng, n), _rand_sym(rng, n)
        m = sym_kron(a, b)
        for _ in range(4):
            v = _rand_sym(rng, n)
            want = 0.5 * (a @ v @ b + b @ v @ a)
            assert np.allclose(m @ svec(v), svec(want), atol=1e-10)


def _brute_schur(ops, p_blocks, q_blocks):
    m = ops.m
    h = np.zeros((m, m))
    for col in range(m):
        e = np.zeros(m)
        e[col] = 1.0
        at = ops.apply_AT(e)
        mids = [sym(p @ t @ q) for p, t, q in zip(p_blocks, at, q_blocks)]
        h[:, col] = ops.apply_A(mids)
    return h


@pytest.mark.parametrize("d,k,slack", [(3, 1, True), (4, 2, True),
                                       (5, 3, True), (3, 3, False)])
def test_fantope_schur_vs_brute_force(d, k, slack):
    rng = np.random.default_rng(d * 10 + k)
    mats = [_rand_sym(rng, d) for _ in range(k)]
    ops = FantopeOps(mats, d, include_slack=slack)
    p_blocks = [_rand_spd(rng, s) for s in ops.block_sizes]
    q_blocks = [_rand_spd(rng, s) for s in ops.block_sizes]
    h = ops.schur(p_blocks, q_blocks)
    hb = _brute_schur(ops, p_blocks, q_blocks)
    assert np.allclose(h, hb, atol=1e-8 * max(1.0, np.abs(hb).max()))


def test_dense_schur_vs_brute_force():
    rng = np.random.default_rng(9)
    sizes = [3, 3, 2, 1]
    m = 3
    amats = [[_rand_sym(rng, s) if rng.uniform() > 0.3 else None
              for s in sizes] for _ in range(m)]
    cmats = [_rand_sym(rng, s) for s in sizes]
    ops = DenseOps(sizes, amats, np.ones(m), cmats)
    p_blocks = [_rand_spd(rng, s) for s in sizes]
    q_blocks = [_rand_spd(rng, s) for s in sizes]
    h = ops.schur(p_blocks, q_blocks)
    hb = _brute_schur(ops, p_blocks, q_blocks)
    assert np.allclose(h, hb, atol=1e-9 * max(1.0, np.abs(hb).max()))


def test_fantope_solve_k1_matches_top_eigenvalue():
    # one block: the relaxation maximizes a Rayleigh quotient over the
    # trace-one PSD ball, so the optimum is the top eigenvalue
    mats = [np.diag([3.0, 1.0, 0.0])]
    ops = FantopeOps(mats, 3)
    res = solve_ipm(ops)
    assert res.status == "optimal"
    assert abs(res.pobj - (-3.0)) < 1e-7
    assert abs(res.dobj - (-3.0)) < 1e-7
    x = res.x_blocks[0]
    assert abs(x[0, 0] - 1.0) < 1e-6
    assert res.relgap < 1e-8


def test_fantope_solve_k_equals_d():
    # full square case: every coordinate must be picked exactly once
    mats = [np.diag([2.0, 1.0]), np.diag([1.0, 2.0])]
    ops = FantopeOps(mats, 2, include_slack=False)
    res = solve_ipm(ops)
    assert res.status == "optimal"
    assert abs(res.pobj - (-4.0)) < 1e-7
    assert abs(res.x_blocks[0][0, 0] - 1.0) < 1e-6
    assert abs(res.x_blocks[1][1, 1] - 1.0) < 1e-6


def test_dense_solve_min_eigenvalue():
    # min <C, X> s.t. tr X = 1, X PSD: optimum is the smallest eigenvalue
    rng = np.random.default_rng(11)
    c = _rand_sym(rng, 4)
    ops = DenseOps([4], [[np.eye(4)]], np.ones(1), [c])
    res = solve_ipm(ops)
    assert res.status == "optimal"
    want = float(np.linalg.eigvalsh(c)[0])
    assert abs(res.pobj - want) < 1e-7


def test_dense_infeasible_is_flagged():
    # tr X = -1 with X PSD has no solution; must not report optimal
    ops = DenseOps([3], [[np.eye(3)]], -np.ones(1), [np.eye(3)])
    res = solve_ipm(ops, max_iters=60)
    assert res.status == "numerical_failure"


def test_ipm_interior_start_override():
    mats = [np.diag([5.0, 1.0])]
    ops = FantopeOps(mats, 2)
    x0 = [np.eye(s) / 3.0 for s in ops.block_sizes]
    z0 = [np.eye(s) for s in ops.block_sizes]
    res = solve_ipm(ops, x0=x0, y0=np.zeros(ops.m), z0=z0)
    assert res.status == "optimal"
    assert abs(res.pobj + 5.0) < 1e-7


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_cost_never_converges():
    # from the relaxation's own start the primal residual is zero, so the
    # stop metric must carry the NaN dual residual rather than drop it
    for m in (np.diag([1.0, np.inf]), np.diag([1.0, np.nan])):
        ops = FantopeOps([m], 2)
        res = solve_ipm(ops, *_fantope_start(ops))
        assert res.status == "numerical_failure"
