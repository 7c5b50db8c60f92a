import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stiefelsum import ipm
from stiefelsum.core import sym
from stiefelsum.ipm import (
    FantopeOps,
    _factor_schur,
    _inverse_factor,
    _max_step,
    coupling_block,
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
        assert np.array_equal(m, m.T)
        for _ in range(4):
            v = _rand_sym(rng, n)
            want = sum(0.5 * (p @ v @ q + q @ v @ p) for p, q in zip(ps, qs))
            assert np.allclose(m @ svec(v), svec(want), atol=1e-10)


def _rand_spd_stack(rng, ops):
    return np.array([_rand_spd(rng, ops.d) for _ in ops.C])


def _brute_schur(ops, p, q):
    """Column j of H is A(sym(P A*(e_j) Q)), formed one block at a time."""
    m = ops.m
    h = np.zeros((m, m))
    for col in range(m):
        at = ops.apply_AT(np.eye(m)[col])
        h[:, col] = ops.apply_A(
            np.array([sym(pb @ tb @ qb) for pb, tb, qb in zip(p, at, q)]))
    return h


def _assert_adjoint(ops, x, y):
    # the operator and its adjoint agree: <A(X), y> = <X, A*(y)>, with the
    # inner product summed block by block
    lhs = ops.apply_A(x) @ y
    rhs = sum(np.sum(xb * ab) for xb, ab in zip(x, ops.apply_AT(y)))
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
    assert ops.C.shape == (k + slack, d, d)
    p = _rand_spd_stack(rng, ops)
    q = _rand_spd_stack(rng, ops)
    h = ops.schur(p, q)
    # one exactly symmetric Fortran-ordered buffer, reused by every call
    assert h.flags.f_contiguous and np.array_equal(h, h.T)
    hb = _brute_schur(ops, p, q)
    assert np.allclose(h, hb, atol=1e-8 * max(1.0, np.abs(hb).max()))
    assert ops.schur(q, p) is h
    hb = _brute_schur(ops, q, p)
    assert np.allclose(h, hb, atol=1e-8 * max(1.0, np.abs(hb).max()))
    # A itself, block by block: the traces, then svec of the coupling sum
    want = [np.trace(pb) for pb in p[:k]]
    want.extend(svec(sum(p)))
    assert np.allclose(ops.apply_A(p), want)
    _assert_adjoint(ops, p, rng.standard_normal(ops.m))


def test_fantope_solve_k1_matches_top_eigenvalue():
    # one block: the relaxation maximizes a Rayleigh quotient over the
    # trace-one PSD ball, so the optimum is the top eigenvalue
    mats = [np.diag([3.0, 1.0, 0.0])]
    ops = FantopeOps(mats, 3)
    res = solve_ipm(ops)
    assert res.status == "optimal"
    assert abs(res.pobj - (-3.0)) < 1e-7
    assert abs(res.dobj - (-3.0)) < 1e-7
    x = res.x[0]
    assert abs(x[0, 0] - 1.0) < 1e-6
    assert res.relgap < 1e-8


def test_fantope_solve_k_equals_d():
    # full square case: every coordinate must be picked exactly once
    mats = [np.diag([2.0, 1.0]), np.diag([1.0, 2.0])]
    ops = FantopeOps(mats, 2)
    res = solve_ipm(ops)
    assert res.status == "optimal"
    assert abs(res.pobj - (-4.0)) < 1e-7
    assert abs(res.x[0, 0, 0] - 1.0) < 1e-6
    assert abs(res.x[1, 1, 1] - 1.0) < 1e-6


# k = d: no slack block, so the k cost blocks are the relaxation's one stack;
# with diagonal data the relaxation is the assignment problem. The iteration
# counts are pinned from a block-by-block run of the same iteration.
@pytest.mark.parametrize("d,seed,iterations", [(3, 0, 6), (4, 1, 6),
                                               (5, 2, 7)])
def test_square_relaxation_is_one_stack(d, seed, iterations):
    vals = np.random.default_rng(seed).uniform(size=(d, d))
    ops = FantopeOps([np.diag(v) for v in vals], d)
    assert not ops.has_slack
    assert ops.C.shape == (d, d, d)
    res = solve_ipm(ops)
    assert res.status == "optimal" and res.iterations == iterations
    best = max(sum(vals[i, p[i]] for i in range(d))
               for p in itertools.permutations(range(d)))
    assert -res.pobj == pytest.approx(best, abs=1e-7)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_cost_never_converges():
    # from the relaxation's own start the primal residual is zero, so the
    # stop metric must carry the NaN dual residual rather than drop it
    for m in (np.diag([1.0, np.inf]), np.diag([1.0, np.nan])):
        ops = FantopeOps([m], 2)
        res = solve_ipm(ops)
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


def test_factor_schur_overwrites_only_the_lower_triangle():
    h0 = _rand_spd(np.random.default_rng(3), 40)
    h = np.asfortranarray(h0)
    f, reg = _factor_schur(h)
    assert f is h and reg == 0.0
    assert np.array_equal(np.triu(h, 1), np.triu(h0, 1))
    lo = np.tril(h)
    assert np.allclose(lo @ lo.T, h0, rtol=1e-13, atol=1e-12 * np.abs(h0).max())


def test_factor_schur_shift_rebuilds_h_from_its_upper_triangle():
    # rank 200 of 300, exactly: the Schur complement of the leading
    # identity block is G G' - G G' = 0 in integer arithmetic, so the
    # unshifted factor stops at pivot 201, after the blocked factor has
    # also updated the trailing lower triangle
    rng = np.random.default_rng(4)
    g = rng.integers(-3, 4, size=(100, 200)).astype(float)
    c = np.vstack([np.eye(200), g])
    h0 = c @ c.T
    h = np.asfortranarray(h0)
    diag = h0.diagonal().copy()
    f, reg = _factor_schur(h)
    assert f is h and reg > 0.0
    upper = np.triu(f, 1)
    assert np.array_equal(upper + upper.T + np.diag(diag), h0)
    lo = np.tril(f)
    assert np.allclose(lo @ lo.T, h0 + reg * np.eye(300),
                       rtol=0.0, atol=1e-12 * np.abs(h0).max())


def test_factor_schur_leaves_a_c_ordered_input_unchanged():
    # the certificate's margin solve passes a fresh C-ordered product
    h = _rand_spd(np.random.default_rng(6), 7)
    h0 = h.copy()
    f, reg = _factor_schur(h)
    assert reg == 0.0 and f is not h and np.array_equal(h, h0)
    lo = np.tril(f)
    assert np.allclose(lo @ lo.T, h0)


# n = 1 covers scalar blocks
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


@pytest.mark.parametrize("case", ["fantope", "fantope-square"])
def test_one_cholesky_per_block_and_iteration(case, monkeypatch):
    rng = np.random.default_rng(5)
    d = 2 if case == "fantope-square" else 3
    ops = FantopeOps([_rand_sym(rng, d) for _ in range(2)], d)
    calls = []
    cholesky = np.linalg.cholesky

    def counting(a):
        calls.append(a.shape)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    res = solve_ipm(ops)
    assert res.status == "optimal" and res.iterations > 0
    # every iteration before the last computes a direction, with one
    # batched factor of the stack X and one of the stack Z
    assert calls == [ops.C.shape] * 2 * res.iterations
    assert ops.C.shape[0] == {"fantope": 3, "fantope-square": 2}[case]


def test_singular_start_fails_closed(monkeypatch):
    # X_1 is PSD but singular: no step length exists without a shift, and
    # none is applied
    ops = FantopeOps([np.diag([3.0, 1.0, 0.0])], 3)
    _, y0, z0 = ops.start()
    x0 = np.array([np.diag([0.0, 0.5, 0.5]), np.diag([1.0, 0.5, 0.5])])
    monkeypatch.setattr(FantopeOps, "start", lambda self: (x0, y0, z0))
    res = solve_ipm(ops)
    assert res.status == "numerical_failure"
    assert res.iterations == 0
    assert np.array_equal(res.x, x0)
