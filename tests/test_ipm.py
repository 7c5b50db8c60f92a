import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stiefelsum import ipm, sdp
from stiefelsum.core import ProblemInstance, shift_and_scale, sym
from stiefelsum.generators import make_instance
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
from stiefelsum.sdp import is_tight, solve_sdp

F32, F64 = np.dtype(np.float32), np.dtype(np.float64)


def _rand_sym(rng, n):
    return sym(rng.standard_normal((n, n)))


def _rand_spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def _from_lower(h):
    """The symmetric matrix whose lower triangle is h's."""
    return np.tril(h) + np.tril(h, -1).T


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
        m = np.full((sd, sd), np.nan)
        coupling_block(ps, qs, m)
        # the lower triangle is written in full, and is all that is needed
        m = _from_lower(m)
        assert np.isfinite(m).all()
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


def _relaxation_mats(mats, d):
    """The blocks of the relaxation of mats: at k = d the coupling forces
    X_k = I - sum_{i<k} X_i, so the relaxation is that of the blocks
    M_i - M_k, i < k, whose slack is X_k (as sdp.solve_sdp solves it)."""
    mats = np.asarray(mats, dtype=float)
    return mats[:-1] - mats[-1] if len(mats) == d else mats


def _assert_adjoint(ops, x, y):
    # the operator and its adjoint agree: <A(X), y> = <X, A*(y)>, with the
    # inner product summed block by block
    lhs = ops.apply_A(x) @ y
    rhs = sum(np.sum(xb * ab) for xb, ab in zip(x, ops.apply_AT(y)))
    assert np.isclose(lhs, rhs)


# d = 12 has 78 coupling rows, several chunks; k = 10 gives 11 blocks. The
# slack is free when k < d; at k = d it is X_k, and the relaxation that of
# the first k - 1 blocks
@pytest.mark.parametrize("d,k,free_slack", [(3, 1, True), (4, 2, True),
                                            (5, 3, True), (3, 3, False),
                                            (12, 3, True), (12, 10, True),
                                            (12, 12, False)])
def test_fantope_schur_vs_brute_force(d, k, free_slack):
    rng = np.random.default_rng(d * 10 + k)
    mats = _relaxation_mats([_rand_sym(rng, d) for _ in range(k)], d)
    ops = FantopeOps(mats, d)
    assert ops.k == k - (not free_slack)
    assert ops.C.shape == (ops.k + 1, d, d)
    p = _rand_spd_stack(rng, ops)
    q = _rand_spd_stack(rng, ops)
    h = ops.schur(p, q)
    # one Fortran-ordered buffer, reused by every call, whose lower triangle
    # is H's
    assert h.flags.f_contiguous
    hb = _brute_schur(ops, p, q)
    assert np.allclose(np.tril(h), np.tril(hb),
                       atol=1e-8 * max(1.0, np.abs(hb).max()))
    h[...] = np.nan  # a later call writes every lower entry again
    assert ops.schur(q, p) is h
    hb = _brute_schur(ops, q, p)
    assert np.allclose(np.tril(h), np.tril(hb),
                       atol=1e-8 * max(1.0, np.abs(hb).max()))
    # A itself, block by block: the traces, then svec of the coupling sum
    want = [np.trace(pb) for pb in p[:ops.k]]
    want.extend(svec(sum(p)))
    assert np.allclose(ops.apply_A(p), want)
    _assert_adjoint(ops, p, rng.standard_normal(ops.m))


@given(st.integers(1, 8), st.integers(1, 8), st.booleans(),
       st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_schur_product_matches_the_assembled_schur(d, k, square, seed):
    # k = d is the relaxation of k - 1 blocks, none at d = 1
    k = d if square else min(k, d)
    rng = np.random.default_rng(seed)
    ops = FantopeOps(_relaxation_mats([_rand_sym(rng, d) for _ in range(k)],
                                      d), d)
    zinv, x = _rand_spd_stack(rng, ops), _rand_spd_stack(rng, ops)
    v = rng.standard_normal(ops.m)
    want = _from_lower(ops.schur(zinv, x)) @ v
    got = ops.schur_product(zinv, x, v)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_single_schur_is_a_view_of_the_one_buffer():
    rng = np.random.default_rng(9)
    ops = FantopeOps([_rand_sym(rng, 12) for _ in range(3)], 12)
    p, q = _rand_spd_stack(rng, ops), _rand_spd_stack(rng, ops)
    h = ops.schur(p, q)
    h64 = _from_lower(h)
    h32 = ops.schur(p, q, single=True)
    # float32 in the first half of the float64 buffer: still one m x m array
    assert h32.dtype == F32 and h32.shape == (ops.m, ops.m)
    assert h32.flags.f_contiguous and np.shares_memory(h32, h)
    assert np.array_equal(np.tril(h32), np.tril(h64).astype(np.float32))
    f, reg = _factor_schur(lambda: h32)
    assert f is h32 and reg == 0.0
    lo = np.tril(f).astype(float)
    assert np.allclose(lo @ lo.T, h64, rtol=1e-5,
                       atol=1e-5 * np.abs(h64).max())
    # a float32 solve scales its right-hand side, so it works beyond float32's
    # range, and returns float64
    b = rng.standard_normal(ops.m)
    want = np.linalg.solve(h64, b)
    for scale in (1.0, 1e60, 1e-60):
        got = ipm._solve_factor(f, scale * b)
        assert got.dtype == F64
        err = np.linalg.norm(got / scale - want)
        assert err <= 1e-4 * np.linalg.norm(want)
    # an indefinite float32 H is a failed factor, not an error
    h32 = ops.schur(p, q, single=True)
    h32[0, 0] = -1.0
    assert _factor_schur(lambda: h32) == (None, 0.0)


def _hppca_ops(d, k, seed):
    mats = np.array(make_instance("hppca", d, k, {}, seed).mats)
    return FantopeOps(mats / np.linalg.norm(mats, 2, axis=(1, 2)).max(), d)


def _record_factor_dtypes(monkeypatch):
    seen = []
    real = ipm._factor_schur

    def recording(build):
        n = len(seen)

        def built():
            h = build()
            seen[n:] = [h.dtype]  # one entry per factor, shifted or not
            return h
        return real(built)

    monkeypatch.setattr(ipm, "_factor_schur", recording)
    return seen


# the single path forced on small solves, square ones (k = d) included
@pytest.mark.parametrize("family,d,k", [("randpsd", 3, 1), ("randpsd", 5, 3),
                                        ("randpsd", 3, 3), ("hppca", 10, 3),
                                        ("diagonal", 4, 4)])
def test_single_path_matches_the_float64_path(family, d, k, monkeypatch):
    mats = shift_and_scale(_relaxation_mats(
        make_instance(family, d, k, {}, 1).mats, d))[0]
    ref = solve_ipm(FantopeOps(mats, d))
    assert ref.single_iterations == 0
    monkeypatch.setattr(ipm, "_SINGLE_MIN_M", 0)
    seen = _record_factor_dtypes(monkeypatch)
    res = solve_ipm(FantopeOps(mats, d))
    assert seen[0] == F32
    assert res.single_iterations == seen.count(F32) - (
        len(seen) - res.iterations)
    assert (res.status, res.stop_reason) == (ref.status, ref.stop_reason)
    assert abs(res.iterations - ref.iterations) <= 1
    assert res.pobj == pytest.approx(ref.pobj, rel=0, abs=1e-8)
    assert res.refine_steps >= 2 * res.iterations
    if family == "hppca":
        assert res.single_iterations > 2


# each fault strikes the third float32 factor of a solve with six
@pytest.mark.parametrize("fault", [
    "spotrf", "miss",
    pytest.param("range",
                 marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
])
def test_a_single_path_fault_hands_over_for_good(fault, monkeypatch):
    monkeypatch.setattr(ipm, "_SINGLE_MIN_M", 0)
    seen = _record_factor_dtypes(monkeypatch)
    schur, spotrf = FantopeOps.schur, ipm.spotrf

    def faulty_schur(self, zinv, x, single=False):
        if single and seen.count(F32) == 2:
            # a factor of 2 H refines by halves: it misses _SINGLE_RTOL; a
            # factor of 1e40 overflows float32
            zinv = zinv * {"spotrf": 1.0, "miss": 2.0, "range": 1e40}[fault]
        return schur(self, zinv, x, single)

    def faulty_spotrf(a, **kwargs):
        c, info = spotrf(a, **kwargs)
        return c, (1 if fault == "spotrf" and seen.count(F32) == 3 else info)

    monkeypatch.setattr(FantopeOps, "schur", faulty_schur)
    monkeypatch.setattr(ipm, "spotrf", faulty_spotrf)
    res = solve_ipm(_hppca_ops(10, 3, 1))
    assert (res.status, res.stop_reason) == ("optimal", "converged")
    # that iteration is redone in float64, and so is every later one
    assert seen == [F32] * 3 + [F64] * (res.iterations - 2)
    assert res.single_iterations == 2


def test_a_slow_single_solve_hands_later_iterations_over(monkeypatch):
    monkeypatch.setattr(ipm, "_SINGLE_MIN_M", 0)
    monkeypatch.setattr(ipm, "_SINGLE_SLOW_STEPS", 1)
    seen = _record_factor_dtypes(monkeypatch)
    res = solve_ipm(_hppca_ops(10, 3, 1))
    assert res.status == "optimal"
    # the first iteration needs a step, so it is the only float32 one
    assert seen == [F32] + [F64] * (res.iterations - 1)
    assert res.single_iterations == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_residual_on_the_single_path_is_overflow(monkeypatch):
    monkeypatch.setattr(ipm, "_SINGLE_MIN_M", 0)
    monkeypatch.setattr(FantopeOps, "schur_product",
                        lambda self, zinv, x, v: np.full_like(v, np.inf))
    seen = _record_factor_dtypes(monkeypatch)
    res = solve_ipm(_hppca_ops(10, 3, 1))
    assert seen == [F32]
    assert (res.status, res.stop_reason) == ("numerical_failure", "overflow")
    assert (res.iterations, res.single_iterations) == (0, 0)


def test_fantope_solve_k1_matches_top_eigenvalue():
    # one block: the relaxation maximizes a Rayleigh quotient over the
    # trace-one PSD ball, so the optimum is the top eigenvalue
    mats = [np.diag([3.0, 1.0, 0.0])]
    ops = FantopeOps(mats, 3)
    res = solve_ipm(ops)
    assert (res.status, res.stop_reason) == ("optimal", "converged")
    assert abs(res.pobj - (-3.0)) < 1e-7
    assert abs(res.dobj - (-3.0)) < 1e-7
    x = res.x[0]
    assert abs(x[0, 0] - 1.0) < 1e-6
    assert res.relgap < 1e-8


def test_fantope_solve_k_equals_d():
    # full square case: every coordinate must be picked exactly once
    rep = solve_sdp(ProblemInstance((np.diag([2.0, 1.0]),
                                     np.diag([1.0, 2.0]))))
    assert rep.status == "Optimal"
    assert abs(rep.value - 4.0) < 1e-7
    assert abs(rep.primal.x_blocks[0][0, 0] - 1.0) < 1e-6
    assert abs(rep.primal.x_blocks[1][1, 1] - 1.0) < 1e-6


def test_fantope_ops_need_a_free_slack():
    # k >= d: the coupling would force the slack to zero, and with it the
    # constraint rows to lose rank
    for d, k in ((1, 1), (2, 2), (3, 3), (2, 3)):
        with pytest.raises(ValueError, match="k < d"):
            FantopeOps(np.zeros((k, d, d)), d)


# k = d: the relaxation of the first k - 1 blocks, with X_k as the slack, is
# again one stack of d blocks; with diagonal data it is the assignment
# problem. Its constraints have full row rank, so it needs no Schur shift;
# the iteration counts are pinned.
@pytest.mark.parametrize("d,seed,iterations", [(3, 0, 6), (4, 1, 6),
                                               (5, 2, 7)])
def test_square_relaxation_is_one_stack(d, seed, iterations, monkeypatch):
    vals = np.random.default_rng(seed).uniform(size=(d, d))
    runs = []
    real = sdp.solve_ipm

    def recording(ops, **kwargs):
        runs.append(real(ops, **kwargs))
        assert ops.C.shape == (d, d, d)
        return runs[-1]

    monkeypatch.setattr(sdp, "solve_ipm", recording)
    rep = solve_sdp(ProblemInstance(tuple(np.diag(v) for v in vals)))
    (res,) = runs
    assert rep.status == "Optimal" and res.iterations == iterations
    assert res.schur_shift == 0.0
    best = max(sum(vals[i, p[i]] for i in range(d))
               for p in itertools.permutations(range(d)))
    assert rep.value == pytest.approx(best, abs=1e-7)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_cost_never_converges():
    # from the relaxation's own start the primal residual is zero, so the
    # stop metric must carry the NaN dual residual rather than drop it
    for m in (np.diag([1.0, np.inf]), np.diag([1.0, np.nan])):
        ops = FantopeOps([m], 2)
        res = solve_ipm(ops)
        assert res.status == "numerical_failure"
        assert res.stop_reason == "non_finite"


def test_nan_in_schur_complement_is_numerical_failure(monkeypatch):
    schur = FantopeOps.schur

    def poisoned(self, zinv, x, *single):
        h = schur(self, zinv, x, *single)
        h[-1, 0] = np.nan
        return h

    monkeypatch.setattr(FantopeOps, "schur", poisoned)
    res = solve_ipm(FantopeOps([np.diag([3.0, 1.0, 0.0])], 3))
    assert res.status == "numerical_failure"
    assert res.stop_reason == "factorization_lost"


def test_factor_schur_overwrites_only_the_lower_triangle():
    h0 = _rand_spd(np.random.default_rng(3), 40)
    h = h0.copy(order="F")
    h[np.triu_indices(40, 1)] = np.nan
    f, reg = _factor_schur(lambda: h)
    assert f is h and reg == 0.0
    assert np.isnan(h[np.triu_indices(40, 1)]).all()
    lo = np.tril(h)
    assert np.allclose(lo @ lo.T, h0, rtol=1e-13, atol=1e-12 * np.abs(h0).max())


# an off-diagonal entry of column 0, a middle and the last diagonal entry
@pytest.mark.parametrize("spot", [(25, 0), (20, 20), (39, 39)])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_lower_entry_fails_the_factor(spot, bad):
    h0 = _rand_spd(np.random.default_rng(3), 40)
    h0[spot] = bad
    with pytest.raises(np.linalg.LinAlgError):
        _factor_schur(lambda: h0.copy(order="F"))
    # float32: a failed factor, which hands the iteration to float64
    h32 = h0.astype(np.float32, order="F")
    assert _factor_schur(lambda: h32) == (None, 0.0)


def _rank_deficient_psd():
    # rank 200 of 300, exactly: the Schur complement of the leading
    # identity block is G G' - G G' = 0 in integer arithmetic, so the
    # unshifted factor stops at pivot 201, after the blocked factor has
    # also updated the trailing lower triangle
    rng = np.random.default_rng(4)
    g = rng.integers(-3, 4, size=(100, 200)).astype(float)
    c = np.vstack([np.eye(200), g])
    return c @ c.T


# the certificate's margin solve builds a C-ordered H, which is copied
@pytest.mark.parametrize("order", ["F", "C"])
def test_factor_schur_builds_h_again_for_each_shifted_attempt(order,
                                                              monkeypatch):
    h0 = _rank_deficient_psd()
    built, attempts = [], []
    dpotrf = ipm.dpotrf

    def build():
        built.append(h0.copy(order=order))
        return built[-1]

    def counting(a, **kwargs):
        attempts.append(a)
        return dpotrf(a, **kwargs)

    monkeypatch.setattr(ipm, "dpotrf", counting)
    f, reg = _factor_schur(build)
    assert reg > 0.0 and len(attempts) > 1
    # one fresh H per attempt, the unshifted one included
    assert len(built) == len(attempts)
    assert all(a is b for a, b in zip(attempts, built))
    assert (f is built[-1]) == (order == "F")
    lo = np.tril(f)
    assert np.allclose(lo @ lo.T, h0 + reg * np.eye(300),
                       rtol=0.0, atol=1e-12 * np.abs(h0).max())


@pytest.mark.parametrize("shifted", [False, True])
def test_solve_factor_reads_only_the_lower_factor(shifted):
    rng = np.random.default_rng(8)
    h0 = _rank_deficient_psd() if shifted else _rand_spd(rng, 60)
    n = len(h0)
    f, reg = _factor_schur(lambda: h0.copy(order="F"))
    assert (reg > 0.0) == shifted
    hs = h0 + reg * np.eye(n)
    b = rng.standard_normal(n)
    b0 = b.copy()
    x = ipm._solve_factor(f, b)
    assert np.array_equal(b, b0)
    if shifted:
        # cond(hs) is about 2e12 here, so the forward error of any backward
        # stable solve is about 1e-4: check the backward error instead
        resid = np.linalg.norm(hs @ x - b)
        assert resid <= 1e-10 * np.linalg.norm(hs, 2) * np.linalg.norm(x)
    else:
        want = np.linalg.solve(hs, b)
        assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want)
    # the strict upper triangle is never read
    poisoned = f.copy(order="F")
    poisoned[np.triu_indices(n, 1)] = np.nan
    assert np.array_equal(ipm._solve_factor(poisoned, b), x)
    # a NaN right-hand side stays visible, for solve_h's finiteness check
    b[n // 2] = np.nan
    with pytest.raises(ValueError):
        np.asarray_chkfinite(ipm._solve_factor(f, b))


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


# a NaN on the diagonal of a matrix with a repeated diagonal, where dsyevx
# reports success; a NaN off the diagonal, an inf, and a 1 x 1 matrix
@pytest.mark.parametrize("diagonal,spot,bad", [
    ((1.0, 1.0, 1.0, 1.0), (1, 1), np.nan),
    ((2.0, 2.0, 2.0, 2.0), (2, 2), np.nan),
    ((1.0, 2.0, 3.0, 4.0), (2, 1), np.nan),
    ((1.0, 2.0, 3.0, 4.0), (0, 3), np.inf),
    ((1.0,), (0, 0), -np.inf),
])
def test_least_eigenvalues_fail_closed(diagonal, spot, bad):
    a = np.repeat(np.diag(diagonal)[None], 3, axis=0)
    assert np.array_equal(ipm.least_eigenvalues(a), [min(diagonal)] * 3)
    a[1][spot] = bad
    with pytest.raises(np.linalg.LinAlgError, match="not finite"):
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


def _all_block_step(li, da):
    """The step from every block's least eigenvalue: _max_step's oracle."""
    b = sym(li @ da @ li.swapaxes(1, 2))
    lmin = float(np.min(ipm.least_eigenvalues(b)))
    return np.inf if lmin >= -1e-14 else -1.0 / lmin


def _step_case(n, count, kind, seed):
    """(li, da) whose scaled direction B = li da li' is of the kind named:
    "random"; "hidden", where the block of the least diagonal entry does
    not bind; "tie", two equal blocks; or "psd", a direction that keeps
    the cone."""
    rng = np.random.default_rng(seed)
    a = np.array([_rand_spd(rng, n) for _ in range(count)])
    li = _inverse_factor(a)
    if kind == "psd":
        g = rng.standard_normal((count, n, int(rng.integers(0, n + 1))))
        return li, g @ g.swapaxes(1, 2)
    b = np.array([_rand_sym(rng, n) + rng.uniform(-2.0, 1.0) * np.eye(n)
                  for _ in range(count)])
    if kind == "hidden" and n > 1:
        # zero diagonal, least eigenvalue -3; every other block has a
        # negative diagonal and a least eigenvalue near -1
        b[1:] = -np.eye(n) + 0.1 * b[1:]
        b[0] = 3.0 * (np.eye(n) - 1.0) / (n - 1)
    factor = np.linalg.cholesky(a)
    da = sym(factor @ b @ factor.swapaxes(1, 2))
    if kind == "tie":
        li[-1], da[-1] = li[0], da[0]
    return li, da


@given(st.integers(1, 8), st.integers(1, 6),
       st.sampled_from(["random", "hidden", "tie", "psd"]),
       st.integers(0, 2**32 - 1))
@example(1, 4, "random", 0)
@example(5, 1, "random", 0)
@example(4, 3, "hidden", 0)
@example(4, 3, "tie", 0)
@example(4, 3, "psd", 0)
@settings(max_examples=200, deadline=None)
def test_max_step_equals_the_all_block_step(n, count, kind, seed):
    li, da = _step_case(n, count, kind, seed)
    step = _max_step(li, da)
    assert step == _all_block_step(li, da)
    if kind == "psd":
        assert step == np.inf
    if kind == "hidden" and n > 1 and count > 1:
        b = sym(li @ da @ li.swapaxes(1, 2))
        lam = np.linalg.eigvalsh(b)[:, 0]
        guess = np.argmin(b.diagonal(axis1=1, axis2=2).min(axis=1))
        assert guess != 0 and lam[guess] > lam[0]
        assert step == pytest.approx(1.0 / 3.0, rel=1e-9)


# a NaN or an inf in one block of da spreads over that block of B; 1e308
# overflows B's two off-diagonal entries alone
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e308])
def test_non_finite_unguessed_block_fails_the_step(bad):
    _, da = _step_case(5, 4, "random", 3)
    li = np.repeat(np.eye(5)[None], 4, axis=0)  # B = da
    guess = np.argmin(da.diagonal(axis1=1, axis2=2).min(axis=1))
    assert _all_block_step(li, da) < np.inf
    da[(guess + 1) % 4, 2, 1] = da[(guess + 1) % 4, 1, 2] = bad
    with pytest.raises(np.linalg.LinAlgError):
        _max_step(li, da)


def test_most_blocks_are_cleared_without_an_eigenvalue(monkeypatch):
    # the relaxation of a wide random PSD draw has k + 1 = 11 blocks, of
    # which few can bind any one step length
    d, k = 20, 10
    mats = shift_and_scale(make_instance("randpsd", d, k, {}, 1).mats)[0]
    counted = []
    real = ipm.least_eigenvalues

    def counting(a):
        counted.append(len(a))
        return real(a)

    monkeypatch.setattr(ipm, "least_eigenvalues", counting)
    calls = _count_calls(monkeypatch, "_max_step")
    res = solve_ipm(FantopeOps(mats, d))
    assert res.status == "optimal"
    assert calls["_max_step"] == 4 * res.iterations
    assert sum(counted) < 0.5 * 4 * res.iterations * (k + 1)


@pytest.mark.parametrize("case", ["fantope", "fantope-square"])
def test_one_cholesky_per_block_and_iteration(case, monkeypatch):
    rng = np.random.default_rng(5)
    d = 2 if case == "fantope-square" else 3
    ops = FantopeOps(_relaxation_mats([_rand_sym(rng, d) for _ in range(2)],
                                      d), d)
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


def _small_ops():
    return FantopeOps([_rand_sym(np.random.default_rng(5), 4)
                       for _ in range(2)], 4)


def _count_calls(monkeypatch, *names):
    """Count the calls to each of names, looked up in ipm or on
    FantopeOps."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        owner = ipm if hasattr(ipm, name) else FantopeOps
        real = getattr(owner, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    return calls


def test_one_schur_factor_and_four_solves_per_iteration(monkeypatch):
    calls = _count_calls(monkeypatch, "_factor_schur", "schur_product",
                         "_solve_factor")
    res = solve_ipm(_small_ops())
    assert res.status == "optimal" and res.iterations > 0
    # one float64 factor per direction-computing iteration; the predictor
    # and the corrector each solve once and refine once, with one exact
    # Schur product each
    n = res.iterations
    assert calls == {"_factor_schur": n, "schur_product": 2 * n,
                     "_solve_factor": 4 * n}
    assert (res.single_iterations, res.refine_steps) == (0, 2 * n)
    assert res.corrector_solves == 0


def test_correctors_reuse_the_one_factor_per_iteration(monkeypatch):
    monkeypatch.setattr(ipm, "_CORRECTOR_MIN_M", 0)
    calls = _count_calls(monkeypatch, "_factor_schur", "schur_product",
                         "_solve_factor")
    res = solve_ipm(_small_ops())
    assert res.status == "optimal"
    # each extra corrector is one more refined solve on the same factor,
    # at most _MAX_CORRECTORS of them per iteration
    n, c = res.iterations, res.corrector_solves
    assert 0 < c <= ipm._MAX_CORRECTORS * n
    assert calls == {"_factor_schur": n, "schur_product": 2 * n + c,
                     "_solve_factor": 4 * n + 2 * c}
    assert res.refine_steps == 2 * n + c


def _same_run(a, b):
    return (a.summary() == b.summary()
            and all(np.array_equal(getattr(a, f), getattr(b, f))
                    for f in ("x", "y", "z")))


def test_below_the_corrector_gate_the_solve_is_unchanged(monkeypatch):
    # m = 823, below the gate, with float32 iterations: the counts are
    # those of the iteration with one corrector
    assert _hppca_ops(40, 3, 1).m < ipm._CORRECTOR_MIN_M
    calls = _count_calls(monkeypatch, "_max_step")
    res = solve_ipm(_hppca_ops(40, 3, 1))
    assert (res.iterations, res.single_iterations) == (13, 9)
    assert res.corrector_solves == 0
    assert calls["_max_step"] == 4 * res.iterations
    # bitwise the run that allows no extra corrector at any size
    monkeypatch.setattr(ipm, "_CORRECTOR_MIN_M", 0)
    monkeypatch.setattr(ipm, "_MAX_CORRECTORS", 0)
    assert _same_run(res, solve_ipm(_hppca_ops(40, 3, 1)))


def test_a_corrector_that_does_not_lengthen_the_step_is_discarded(
        monkeypatch):
    ref = solve_ipm(_small_ops())
    monkeypatch.setattr(ipm, "_CORRECTOR_MIN_M", 0)
    monkeypatch.setattr(ipm, "_CORRECTOR_GAIN", np.inf)
    res = solve_ipm(_small_ops())
    # one corrector tried and dropped per iteration that has a short step,
    # each refined once; the iterates are those of the run without
    # correctors
    c = res.corrector_solves
    assert 0 < c <= res.iterations
    assert _same_run(dataclasses.replace(
        res, corrector_solves=0, refine_steps=res.refine_steps - c), ref)


def test_no_corrector_once_both_steps_are_full(monkeypatch):
    monkeypatch.setattr(ipm, "_CORRECTOR_MIN_M", 0)
    monkeypatch.setattr(ipm, "_max_step", lambda li, da: np.inf)
    res = solve_ipm(_small_ops(), max_iters=3)
    assert res.iterations > 0 and res.corrector_solves == 0


def _alternating(s_x, s_z):
    """A _max_step that returns s_x on the X calls and s_z on the Z calls,
    which alternate, X first. It keeps every direction it is given in its
    directions list."""
    directions = []

    def step(li, da):
        directions.append(da)
        return s_x if len(directions) % 2 else s_z
    step.directions = directions
    return step


# the shorter side binds, either side; a tie; and two full steps
@pytest.mark.parametrize("s_x,s_z", [(0.3, 2.0), (2.0, 0.3), (0.5, 0.5),
                                     (np.inf, np.inf)])
def test_x_y_and_z_move_by_one_step_length(s_x, s_z, monkeypatch):
    ops = _small_ops()
    x0, y0, z0 = ops.start()
    step = _alternating(s_x, s_z)
    monkeypatch.setattr(ipm, "_max_step", step)
    res = solve_ipm(ops, max_iters=1)
    assert (res.iterations, res.stop_reason) == (1, "max_iters")
    # below the corrector gate: the predictor's X and Z calls, then the
    # corrector's, whose directions the iteration takes
    assert len(step.directions) == 4
    dx, dz = step.directions[2:]
    alpha = min(1.0, 0.98 * min(s_x, s_z))
    assert np.allclose(res.x, x0 + alpha * dx, rtol=0.0, atol=1e-14)
    assert np.allclose(res.z, z0 + alpha * dz, rtol=0.0, atol=1e-14)
    # y moves by the same alpha: A*(dy) + dZ is the dual residual, which
    # therefore shrinks by the factor 1 - alpha, to roundoff
    r0 = ops.C - ops.apply_AT(y0) - z0
    r1 = ops.C - ops.apply_AT(res.y) - res.z
    assert np.linalg.norm(r0) > 0.1
    assert np.linalg.norm(r1 - (1.0 - alpha) * r0) <= (
        1e-13 * np.linalg.norm(r0))


# a tight, a non-tight and a square (k = d, X_k the slack) draw
@pytest.mark.parametrize("family,d,k,tight", [("hppca", 10, 3, True),
                                              ("randpsd", 10, 8, False),
                                              ("randpsd", 4, 4, True)])
def test_correctors_match_the_corrector_free_path(family, d, k, tight,
                                                  monkeypatch):
    inst = make_instance(family, d, k, {}, 1)
    mats = shift_and_scale(_relaxation_mats(inst.mats, d))[0]
    runs = []
    for gate in (ipm._CORRECTOR_MIN_M, 0):
        monkeypatch.setattr(ipm, "_CORRECTOR_MIN_M", gate)
        rep = solve_sdp(inst)
        runs.append((rep, solve_ipm(FantopeOps(mats, d))))
    (ref_rep, ref), (rep, res) = runs
    assert ref.corrector_solves == 0 < res.corrector_solves
    assert res.summary()["corrector_solves"] == res.corrector_solves
    assert res.iterations <= ref.iterations
    assert (rep.status, res.stop_reason) == (ref_rep.status, ref.stop_reason)
    assert is_tight(rep) == is_tight(ref_rep) == tight
    # each run stops once its relative gap is below tol = 1e-8, so their
    # objectives agree within that stop rule
    bound = 2e-8 * (1.0 + abs(ref.pobj) + abs(ref.dobj))
    assert abs(res.pobj - ref.pobj) <= bound


def test_singular_start_fails_closed(monkeypatch):
    # X_1 is PSD but singular: no step length exists without a shift, and
    # none is applied
    ops = FantopeOps([np.diag([3.0, 1.0, 0.0])], 3)
    _, y0, z0 = ops.start()
    x0 = np.array([np.diag([0.0, 0.5, 0.5]), np.diag([1.0, 0.5, 0.5])])
    monkeypatch.setattr(FantopeOps, "start", lambda self: (x0, y0, z0))
    res = solve_ipm(ops)
    assert res.status == "numerical_failure"
    assert res.stop_reason == "factorization_lost"
    assert res.iterations == 0
    assert np.array_equal(res.x, x0)


# the exits not covered by the tests above, each forced on a tiny solve; a
# step of 1e-7 is above the collapse threshold but makes no progress, and
# a tiny Z step collapses the common step however long the X step is
@pytest.mark.parametrize("name,patch,reason", [
    ("_max_step", lambda li, da: 1e-9, "step_collapse"),
    pytest.param("_max_step", _alternating(1.0, 1e-9), "step_collapse",
                 id="_max_step-tiny_z_step-step_collapse"),
    ("_max_step", lambda li, da: 1e-7, "stalled"),
    pytest.param("_solve_factor", lambda f, b: np.full_like(b, np.inf),
                 "overflow",
                 marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
])
def test_every_exit_is_named(name, patch, reason, monkeypatch):
    monkeypatch.setattr(ipm, name, patch)
    res = solve_ipm(FantopeOps([np.diag([3.0, 1.0, 0.0])], 3))
    assert (res.status, res.stop_reason) == ("numerical_failure", reason)
    assert res.summary()["stop_reason"] == reason


def test_iteration_cap_is_named():
    ops = FantopeOps([np.diag([3.0, 1.0, 0.0])], 3)
    res = solve_ipm(ops, max_iters=0)
    assert (res.status, res.stop_reason) == ("numerical_failure", "max_iters")
    assert res.iterations == 0
