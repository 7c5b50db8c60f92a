import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stiefelsum import ipm
from stiefelsum.core import sym
from stiefelsum.sdp import _fantope_start
from stiefelsum.ipm import (
    DenseOps,
    FantopeOps,
    _factor_schur,
    _inverse_factor,
    _max_step,
    coupling_block,
    eye_stacks,
    solve_ipm,
    smat,
    svec,
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


def test_coupling_block_matches_operator():
    # n = 9 has 45 svec rows, more than one chunk
    rng = np.random.default_rng(2)
    for n, nb in ((2, 1), (3, 2), (5, 1), (9, 4)):
        ps = np.array([_rand_sym(rng, n) for _ in range(nb)])
        qs = np.array([_rand_sym(rng, n) for _ in range(nb)])
        sd = n * (n + 1) // 2
        m = np.empty((sd, sd))
        coupling_block(ps, qs, m)
        for _ in range(4):
            v = _rand_sym(rng, n)
            want = sum(0.5 * (p @ v @ q + q @ v @ p) for p, q in zip(ps, qs))
            assert np.allclose(m @ svec(v), svec(want), atol=1e-10)


def _rand_spd_stacks(rng, ops):
    return [np.array([_rand_spd(rng, c.shape[1]) for _ in c]) for c in ops.C]


def _brute_schur(ops, p, q):
    """Column j of H is A(sym(P A*(e_j) Q)), formed one block at a time."""
    m = ops.m
    h = np.zeros((m, m))
    for col in range(m):
        at = ops.apply_AT(np.eye(m)[col])
        mids = [np.array([sym(pb @ tb @ qb) for pb, tb, qb in zip(*s)])
                for s in zip(p, at, q)]
        h[:, col] = ops.apply_A(mids)
    return h


def _assert_adjoint(ops, x, y):
    # the operator and its adjoint agree: <A(X), y> = <X, A*(y)>, with the
    # inner product summed block by block
    lhs = ops.apply_A(x) @ y
    rhs = sum(np.sum(xb * ab) for xs, at in zip(x, ops.apply_AT(y))
              for xb, ab in zip(xs, at))
    assert np.isclose(lhs, rhs)


# d = 12 has 78 coupling rows, several chunks; k = 10 gives 11 blocks
@pytest.mark.parametrize("d,k,slack", [(3, 1, True), (4, 2, True),
                                       (5, 3, True), (3, 3, False),
                                       (12, 3, True), (12, 10, True),
                                       (12, 12, False)])
def test_fantope_schur_vs_brute_force(d, k, slack):
    rng = np.random.default_rng(d * 10 + k)
    mats = [_rand_sym(rng, d) for _ in range(k)]
    ops = FantopeOps(mats, d)
    assert ops.has_slack == slack
    assert len(ops.C) == 1 and ops.C[0].shape == (k + slack, d, d)
    p = _rand_spd_stacks(rng, ops)
    q = _rand_spd_stacks(rng, ops)
    h = ops.schur(p, q)
    hb = _brute_schur(ops, p, q)
    assert np.allclose(h, hb, atol=1e-8 * max(1.0, np.abs(hb).max()))
    # A itself, block by block: the traces, then svec of the coupling sum
    want = [np.trace(pb) for pb in p[0][:k]]
    want.extend(svec(sum(p[0])))
    assert np.allclose(ops.apply_A(p), want)
    _assert_adjoint(ops, p, rng.standard_normal(ops.m))


def test_dense_schur_vs_brute_force():
    # diagonal data with some uncoupled (zero) columns, in stacks of two
    # blocks of size 3, one of size 2 and one of size 1
    rng = np.random.default_rng(9)
    layout = [(2, 3), (1, 2), (1, 1)]
    m = 3
    diags = [np.array([rng.standard_normal((n, m))
                       * (rng.uniform(size=m) > 0.3) for _ in range(count)])
             for count, n in layout]
    cmats = [np.array([_rand_sym(rng, n) for _ in range(count)])
             for count, n in layout]
    ops = DenseOps(diags, np.ones(m), cmats)
    assert [c.shape for c in ops.C] == [(2, 3, 3), (1, 2, 2), (1, 1, 1)]
    assert [a.shape for a in ops.diags] == [(2, 3, m), (1, 2, m), (1, 1, m)]
    p = _rand_spd_stacks(rng, ops)
    q = _rand_spd_stacks(rng, ops)
    h = ops.schur(p, q)
    hb = _brute_schur(ops, p, q)
    assert np.allclose(h, hb, atol=1e-9 * max(1.0, np.abs(hb).max()))
    # A itself, block by block: A(X)_p = sum_j <diag(diags[j][:, p]), X_j>
    want = sum(ab.T @ np.diagonal(pb) for a, ps in zip(diags, p)
               for ab, pb in zip(a, ps))
    assert np.allclose(ops.apply_A(p), want)
    _assert_adjoint(ops, p, rng.standard_normal(m))


def test_fantope_solve_k1_matches_top_eigenvalue():
    # one block: the relaxation maximizes a Rayleigh quotient over the
    # trace-one PSD ball, so the optimum is the top eigenvalue
    mats = [np.diag([3.0, 1.0, 0.0])]
    ops = FantopeOps(mats, 3)
    res = solve_ipm(ops)
    assert res.status == "optimal"
    assert abs(res.pobj - (-3.0)) < 1e-7
    assert abs(res.dobj - (-3.0)) < 1e-7
    x = res.x[0][0]
    assert abs(x[0, 0] - 1.0) < 1e-6
    assert res.relgap < 1e-8


def test_fantope_solve_k_equals_d():
    # full square case: every coordinate must be picked exactly once
    mats = [np.diag([2.0, 1.0]), np.diag([1.0, 2.0])]
    ops = FantopeOps(mats, 2)
    res = solve_ipm(ops)
    assert res.status == "optimal"
    assert abs(res.pobj - (-4.0)) < 1e-7
    x, = res.x
    assert abs(x[0][0, 0] - 1.0) < 1e-6
    assert abs(x[1][1, 1] - 1.0) < 1e-6


# k = d: no slack block, so the k cost blocks are the relaxation's one stack;
# with diagonal data the relaxation is the assignment problem. The iteration
# counts are pinned from a block-by-block run of the same iteration.
@pytest.mark.parametrize("d,seed,iterations", [(3, 0, 6), (4, 1, 6),
                                               (5, 2, 7)])
def test_square_relaxation_is_one_stack(d, seed, iterations):
    vals = np.random.default_rng(seed).uniform(size=(d, d))
    ops = FantopeOps([np.diag(v) for v in vals], d)
    assert not ops.has_slack
    assert [c.shape for c in ops.C] == [(d, d, d)]
    res = solve_ipm(ops, *_fantope_start(ops))
    assert res.status == "optimal" and res.iterations == iterations
    best = max(sum(vals[i, p[i]] for i in range(d))
               for p in itertools.permutations(range(d)))
    assert -res.pobj == pytest.approx(best, abs=1e-7)


def test_dense_solve_min_eigenvalue():
    # min <C, X> s.t. tr X = 1, X PSD: optimum is the smallest eigenvalue
    rng = np.random.default_rng(11)
    c = _rand_sym(rng, 4)
    ops = DenseOps([np.ones((1, 4, 1))], np.ones(1), [c[None]])
    res = solve_ipm(ops)
    assert res.status == "optimal"
    want = float(np.linalg.eigvalsh(c)[0])
    assert abs(res.pobj - want) < 1e-7


def test_dense_infeasible_is_flagged():
    # tr X = -1 with X PSD has no solution; must not report optimal
    ops = DenseOps([np.ones((1, 3, 1))], -np.ones(1), [np.eye(3)[None]])
    res = solve_ipm(ops, max_iters=60)
    assert res.status == "numerical_failure"


def test_ipm_interior_start_override():
    mats = [np.diag([5.0, 1.0])]
    ops = FantopeOps(mats, 2)
    x0 = [e / 3.0 for e in eye_stacks(ops)]
    z0 = eye_stacks(ops)
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


def test_nan_in_schur_complement_is_numerical_failure(monkeypatch):
    h = np.eye(4)
    h[0, 3] = np.nan  # above the diagonal, where the lower factor never looks
    with pytest.raises(np.linalg.LinAlgError):
        _factor_schur(h)
    schur = FantopeOps.schur

    def poisoned(self, zinv, x):
        h = schur(self, zinv, x)
        h[0, -1] = np.nan
        return h

    monkeypatch.setattr(FantopeOps, "schur", poisoned)
    res = solve_ipm(FantopeOps([np.diag([3.0, 1.0, 0.0])], 3))
    assert res.status == "numerical_failure"


# n = 1 covers the scalar blocks of the certificate's feasibility program
@given(st.integers(1, 8), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_max_step_reaches_the_cone_boundary(n, seed):
    rng = np.random.default_rng(seed)
    a = _rand_spd(rng, n)
    li = _inverse_factor(a[None])[0]
    assert np.allclose(li.T @ li, np.linalg.inv(a))
    b = rng.standard_normal((n, int(rng.integers(0, n + 1))))
    # a PSD direction keeps the cone
    assert _max_step(li[None], (b @ b.T)[None]) == np.inf
    da = _rand_sym(rng, n)
    if _max_step(li[None], da[None]) == np.inf:
        da = -da
    alpha = _max_step(li[None], da[None])
    assert 0.0 < alpha < np.inf
    np.linalg.cholesky(a + 0.999 * alpha * da)  # still PD
    assert np.linalg.eigvalsh(a + 1.001 * alpha * da)[0] < 0.0


@given(st.integers(1, 8), st.integers(1, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_least_eigenvalues_match_the_full_spectrum(n, count, seed):
    rng = np.random.default_rng(seed)
    a = np.array([_rand_sym(rng, n) * 10.0 ** rng.uniform(-6, 6)
                  for _ in range(count)])
    got = ipm.least_eigenvalues(a)
    assert got.shape == (count,)
    norms = np.linalg.norm(a, 2, axis=(1, 2))
    assert np.all(np.abs(got - np.linalg.eigvalsh(a)[:, 0]) <= 1e-12 * norms)
    a[-1, 0, 0] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        ipm.least_eigenvalues(a)


@given(st.integers(1, 8), st.integers(1, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_stacked_factor_and_step_match_each_matrix(n, count, seed):
    rng = np.random.default_rng(seed)
    a = np.array([_rand_spd(rng, n) for _ in range(count)])
    da = np.array([_rand_sym(rng, n) for _ in range(count)])
    li = _inverse_factor(a)
    assert li.shape == (count, n, n)
    steps = []
    for j in range(count):
        lj = _inverse_factor(a[j:j + 1])
        assert np.allclose(li[j], lj[0], rtol=1e-12, atol=1e-14)
        assert np.allclose(li[j] @ a[j] @ li[j].T, np.eye(n))
        steps.append(_max_step(lj, da[j:j + 1]))
    # the stack's step is the least of its matrices' steps
    assert _max_step(li, da) == pytest.approx(min(steps), rel=1e-10)


@pytest.mark.parametrize("case", ["fantope", "fantope-square", "dense"])
def test_one_cholesky_per_block_and_iteration(case, monkeypatch):
    rng = np.random.default_rng(5)
    if case == "dense":
        # min <C, X> over the stacks of a certificate program: d, k, 1 x 1
        layout = [(1, 4), (1, 2), (2, 1)]
        ops = DenseOps([np.ones((count, n, 1)) for count, n in layout],
                       np.ones(1),
                       [np.array([_rand_sym(rng, n) for _ in range(count)])
                        for count, n in layout])
        start = ()
    else:
        d = 2 if case == "fantope-square" else 3
        ops = FantopeOps([_rand_sym(rng, d) for _ in range(2)], d)
        start = _fantope_start(ops)
    calls = []
    cholesky = np.linalg.cholesky

    def counting(a):
        calls.append(a.shape)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    res = solve_ipm(ops, *start)
    assert res.status == "optimal" and res.iterations > 0
    # every iteration before the last computes a direction, with one
    # batched factor per stack of X and of Z: the batch sizes sum to 2 nb
    stacks = [c.shape for c in ops.C]
    assert len(stacks) == (3 if case == "dense" else 1)
    per_iteration = 2 * stacks
    assert calls == per_iteration * res.iterations
    blocks = {"dense": 4, "fantope": 3, "fantope-square": 2}[case]
    assert sum(c[0] for c in per_iteration) == 2 * blocks


def test_singular_start_fails_closed():
    # X_1 is PSD but singular: no step length exists without a shift, and
    # none is applied
    ops = FantopeOps([np.diag([3.0, 1.0, 0.0])], 3)
    _, y0, z0 = _fantope_start(ops)
    x0 = [np.array([np.diag([0.0, 0.5, 0.5]), np.diag([1.0, 0.5, 0.5])])]
    res = solve_ipm(ops, x0, y0, z0)
    assert res.status == "numerical_failure"
    assert res.iterations == 0
    assert np.array_equal(res.x[0], x0[0])
