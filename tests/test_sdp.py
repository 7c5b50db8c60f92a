"""Relaxation solver tests: oracles are numpy eigensolves, permutation
enumeration for the square commuting case, and hand-built KKT points."""

import dataclasses
import itertools
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stiefelsum import ipm, sdp
from stiefelsum.certificate import STATUS_CERTIFIED, certify
from stiefelsum.core import (
    ROP_TOL,
    ProblemInstance,
    StiefelPoint,
    rop_error,
    sym,
)
from stiefelsum.sdp import (
    KKT_TOL,
    STATUS_NUMERICAL_FAILURE,
    STATUS_OPTIMAL,
    KktResiduals,
    SdpDualSolution,
    SdpPrimalSolution,
    SolveReport,
    _status_from,
    check_kkt,
    dual_rank_profile,
    extract_candidate,
    is_tight,
    solve_sdp,
)
from stiefelsum.generators import (
    gen_cjd,
    gen_hppca,
    gen_random_diagonal,
    gen_random_psd,
    gen_separated_diagonal,
    make_instance,
)
from stiefelsum.stiefel import objective, stmm_solve


def _rand_psd(d, rng, gap=None):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    w = np.sort(rng.uniform(0.1, 3.0, size=d))[::-1]
    if gap is not None:
        w[0] = w[1] + gap
    return sym(q @ np.diag(w) @ q.T)


def test_k1_matches_top_eigenvalue():
    rng = np.random.default_rng(7)
    for d in (2, 4, 7, 12):
        m = _rand_psd(d, rng, gap=0.5)
        c = ProblemInstance((m,))
        rep = solve_sdp(c)
        assert rep.status == "Optimal"
        w, v = np.linalg.eigh(m)
        assert rep.value == pytest.approx(w[-1], abs=1e-6)
        point, _, ties = extract_candidate(rep)
        assert not any(ties)
        # candidate aligned with the top eigenvector up to sign
        assert abs(float(v[:, -1] @ point.cols[:, 0])) > 1 - 1e-5


def test_small_corpus_duality_and_kkt():
    rng = np.random.default_rng(11)
    corpus = [
        ProblemInstance(tuple(_rand_psd(5, rng) for _ in range(2))),
        ProblemInstance(tuple(_rand_psd(6, rng) for _ in range(3))),
        gen_random_diagonal(6, 2, seed=3),
        gen_cjd(8, 3, r=2, sigma=0.05, seed=5),
        gen_random_psd(4, 4, seed=9),
    ]
    for c in corpus:
        rep = solve_sdp(c)
        assert rep.status == "Optimal"
        assert rep.gap <= 1e-7 * max(1.0, abs(rep.value))
        assert rep.kkt_residuals.max_residual <= KKT_TOL
        # the report must self-verify: recompute residuals from the blocks
        again = check_kkt(c, rep.primal.x_blocks, rep.dual)
        assert again.max_residual == pytest.approx(
            rep.kkt_residuals.max_residual, abs=1e-12)


def test_square_case_matches_assignment_enumeration():
    # k = d forces sum X_i = I; commuting blocks reduce to an assignment
    c = gen_random_diagonal(4, 4, seed=21)
    diag = np.array([np.diag(m) for m in c.mats])
    best = max(
        sum(diag[i, p[i]] for i in range(4))
        for p in itertools.permutations(range(4))
    )
    rep = solve_sdp(c)
    assert rep.status == "Optimal"
    assert rep.value == pytest.approx(best, abs=1e-6)


# k = d is the relaxation of the first k - 1 blocks with X_k as the slack:
# its constraints have full row rank, so no Schur complement is shifted
@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_square_solves_need_no_schur_shift(d):
    for family in ("randpsd", "hppca", "cjd", "diagonal"):
        for seed in (0, 1):
            inst = make_instance(family, d, d, {}, seed)
            rep = solve_sdp(inst)
            assert rep.status == STATUS_OPTIMAL, (family, seed, rep.meta)
            assert rep.meta["ipm"]["schur_shift"] == 0.0
            assert len(rep.primal.x_blocks) == len(rep.dual.z_blocks) == d
            assert rep.dual.nu.shape == (d,)
    # commuting blocks: the relaxation's value is the assignment optimum
    c = gen_random_diagonal(d, d, seed=7)
    diag = np.array([np.diag(m) for m in c.mats])
    best = max(sum(diag[i, p[i]] for i in range(d))
               for p in itertools.permutations(range(d)))
    assert solve_sdp(c).value == pytest.approx(best, abs=1e-6)


def test_shift_and_scale_mapping():
    rng = np.random.default_rng(31)
    mats = tuple(_rand_psd(5, rng) for _ in range(2))
    base = solve_sdp(ProblemInstance(mats))

    shifted = ProblemInstance(tuple(m - 0.7 * np.eye(5) for m in mats))
    rep_s = solve_sdp(shifted)
    assert rep_s.status == "Optimal"
    assert rep_s.meta["psd_shift"] >= 0.0
    # tr(X_i) = 1, so each block loses exactly the shift
    assert rep_s.value == pytest.approx(base.value - 2 * 0.7, abs=1e-6)
    for xa, xb in zip(base.primal.x_blocks, rep_s.primal.x_blocks):
        assert np.allclose(xa, xb, atol=1e-5)

    rep_g = solve_sdp(ProblemInstance(tuple(3.0 * m for m in mats)))
    assert rep_g.value == pytest.approx(3.0 * base.value, abs=3e-6)


def test_verdicts_hold_at_every_input_scale():
    # the KKT and certificate gates are relative to max(1, max ||M_i||)
    for seed in (1, 2, 3):
        unit = gen_random_psd(6, 2, seed=seed)
        base = solve_sdp(unit)
        assert base.status == STATUS_OPTIMAL
        polished = stmm_solve(unit, extract_candidate(base)[0]).final
        for s in (1.0, 1e2, 1e3, 1e4, 1e6):
            inst = ProblemInstance(tuple(s * m for m in unit.mats))
            rep = solve_sdp(inst)
            assert rep.status == STATUS_OPTIMAL, (seed, s, rep.meta)
            assert rep.value / s == pytest.approx(base.value, abs=1e-7)
            assert certify(inst, polished).status == STATUS_CERTIFIED
    # residuals are computed in units of s, so none overflows
    huge = solve_sdp(ProblemInstance((np.diag([1e300, 1.0]),)))
    assert huge.status == STATUS_OPTIMAL
    assert huge.value / 1e300 == pytest.approx(1.0, abs=1e-8)


def test_schur_regularization_is_reported(monkeypatch):
    # one failed dpotrf: the retry shifts the Schur complement's diagonal
    dpotrf, failures = ipm.dpotrf, [1]

    def failing_once(a, **kwargs):
        c, info = dpotrf(a, **kwargs)
        return c, (failures.pop() if failures else info)

    monkeypatch.setattr(ipm, "dpotrf", failing_once)
    rep = solve_sdp(gen_random_diagonal(5, 2, seed=21))
    assert failures == []
    assert rep.status == STATUS_OPTIMAL
    assert rep.meta["ipm"]["schur_shift"] > 0.0
    monkeypatch.undo()
    rep = solve_sdp(gen_random_diagonal(5, 2, seed=21))
    assert rep.status == STATUS_OPTIMAL
    assert rep.meta["ipm"]["schur_shift"] == 0.0
    c = ProblemInstance((np.diag([3.0, 1.0]),))
    res = certify(c, StiefelPoint(np.array([[1.0], [0.0]])))
    assert res.status == STATUS_CERTIFIED
    assert res.meta["ipm"]["shift"] == 0.0


def test_relaxation_solve_holds_one_schur_complement():
    # the Schur complement is m x m, m = k + d (d + 1) / 2; the first solve
    # warms the process's caches, so the second one's peak is the solve's
    inst = gen_hppca(40, 3, seed=1)
    solve_sdp(inst)
    tracemalloc.start()
    try:
        rep = solve_sdp(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    m = 3 + 40 * 41 // 2
    assert rep.status == STATUS_OPTIMAL
    assert peak < 2 * m * m * 8


def test_check_kkt_hand_point():
    # d=2, k=1, M=diag(3,1): X=e1 e1', nu=1, Y=diag(2,0), Z=0 is exact
    c = ProblemInstance((np.diag([3.0, 1.0]),))
    x = np.diag([1.0, 0.0])
    dual = SdpDualSolution(
        y=np.diag([2.0, 0.0]), z_blocks=np.zeros((1, 2, 2)),
        nu=np.array([1.0]))
    res = check_kkt(c, (x,), dual)
    assert res.max_residual <= 1e-12

    # breaking one condition moves exactly the matching residual
    bad = SdpDualSolution(
        y=np.diag([2.0, 0.0]), z_blocks=np.diag([0.0, -0.1])[None],
        nu=np.array([1.0]))
    res_bad = check_kkt(c, (x,), bad)
    # the dual-side residuals are in units of s = ||M||_2 = 3
    assert res_bad.dual_cone == pytest.approx(0.1 / 3, abs=1e-12)
    assert res_bad.dual_eq > 0.05 / 3


def _kkt_by_full_spectra(c, x_blocks, dual):
    """check_kkt's five residuals from one full eigvalsh per matrix."""
    s = c.gate_unit
    y, nu, eye = dual.y / s, dual.nu / s, np.eye(c.d)
    xsum = sum(x_blocks)
    primal = max([0.0, np.linalg.eigvalsh(xsum)[-1] - 1.0]
                 + [max(-np.linalg.eigvalsh(x)[0], abs(np.trace(x) - 1.0))
                    for x in x_blocks])
    dual_eq, block, cone = max(0.0, -np.linalg.eigvalsh(y)[0]), 0.0, 0.0
    for i, (m, z, x) in enumerate(zip(c.mats / s, dual.z_blocks, x_blocks)):
        z = z / s
        dual_eq = max(dual_eq, np.linalg.norm(y - m - z + nu[i] * eye))
        block = max(block, abs(np.sum(z * x)))
        cone = max(cone, -np.linalg.eigvalsh(z)[0])
    return primal, dual_eq, abs(np.sum((eye - xsum) * y)), block, cone


def test_check_kkt_matches_full_spectra():
    rng = np.random.default_rng(13)
    for d, k in ((1, 1), (3, 2), (6, 3), (9, 4)):
        c = gen_random_psd(d, k, seed=d)
        x_blocks = tuple(sym(rng.standard_normal((d, d))) for _ in range(k))
        dual = SdpDualSolution(
            y=sym(rng.standard_normal((d, d))),
            z_blocks=sym(rng.standard_normal((k, d, d))),
            nu=rng.standard_normal(k))
        got = dataclasses.astuple(check_kkt(c, x_blocks, dual))
        assert got == pytest.approx(_kkt_by_full_spectra(c, x_blocks, dual),
                                    rel=0, abs=1e-12)


def test_dual_rank_profile_hand_and_solved():
    dual = SdpDualSolution(
        y=np.zeros((3, 3)),
        z_blocks=np.array([np.zeros((3, 3)), np.diag([1.0, 0.5, 0.0]),
                           np.diag([2.0, 0.0, 0.0])]),
        nu=np.zeros(3))
    assert dual_rank_profile(dual).tolist() == [0, 2, 1]

    c = gen_separated_diagonal(5, 2, seed=13)
    rep = solve_sdp(c)
    assert rep.status == "Optimal"
    # nondegenerate tight optimum: every Z_i drops rank by one
    assert dual_rank_profile(rep.dual).tolist() == [4, 4]


def test_tied_block_is_flagged():
    rep = solve_sdp(ProblemInstance((np.eye(2),)))
    assert rep.status == "Optimal"
    assert rep.value == pytest.approx(1.0, abs=1e-6)
    point, _, ties = extract_candidate(rep)
    assert any(ties)
    assert point.cols.shape == (2, 1)  # candidate still produced


def _hand_pair():
    """An exact KKT point at unit scale, so every residual is 0.0: d = 4,
    k = 1, M = diag(1, 0.5, 0.5, 0.5), X = e1 e1', nu = 1, Y = 0 and
    Z = I - M."""
    m = np.diag([1.0, 0.5, 0.5, 0.5])
    dual = SdpDualSolution(y=np.zeros((4, 4)), z_blocks=(np.eye(4) - m)[None],
                           nu=np.array([1.0]))
    return ProblemInstance((m,)), (np.diag([1.0, 0.0, 0.0, 0.0]),), dual


def _nan_on_call(monkeypatch, n):
    """Make the n-th least_eigenvalues call of check_kkt return NaN."""
    calls = []
    real = sdp.least_eigenvalues

    def poisoned(a):
        calls.append(a)
        out = real(a)
        if len(calls) == n + 1:
            out[0] = np.nan
        return out
    monkeypatch.setattr(sdp, "least_eigenvalues", poisoned)


# a NaN in each component of the residuals that take a maximum, the other
# components being 0.0, where max(0.0, ...) dropped a NaN that came later:
# the four spectrum ends (the X blocks, their sum, Y, the Z blocks) and the
# dual equation's norm
@pytest.mark.parametrize("component,field", [
    ("x_blocks", "primal"), ("x_sum", "primal"), ("y", "dual_eq"),
    ("z_blocks", "dual_cone"), ("dual_equation", "dual_eq")])
def test_check_kkt_carries_a_nan_in_any_component(component, field,
                                                  monkeypatch):
    c, x, dual = _hand_pair()
    assert check_kkt(c, x, dual) == KktResiduals(0.0, 0.0, 0.0, 0.0, 0.0)
    if component == "dual_equation":
        dual = dataclasses.replace(dual, nu=np.array([np.nan]))
    else:
        calls = ["x_blocks", "x_sum", "y", "z_blocks"]
        _nan_on_call(monkeypatch, calls.index(component))
    res = check_kkt(c, x, dual)
    assert np.isnan(getattr(res, field)) and np.isnan(res.max_residual)
    others = dataclasses.asdict(res)
    del others[field]
    assert set(others.values()) == {0.0}


def test_check_kkt_fails_closed_on_a_nan_block():
    # a NaN on the diagonal of a matrix with a repeated diagonal, which
    # LAPACK's eigensolver alone lets through: in an X block, and in Y
    c, x, dual = _hand_pair()
    with pytest.raises(np.linalg.LinAlgError, match="not finite"):
        check_kkt(c, (np.diag([0.25, np.nan, 0.25, 0.25]),), dual)
    y = np.diag([0.0, np.nan, 0.0, 0.0])
    with pytest.raises(np.linalg.LinAlgError, match="not finite"):
        check_kkt(c, x, dataclasses.replace(dual, y=y))


def test_kkt_max_residual_propagates_nan():
    for pos in range(5):
        fields = [0.0] * 5
        fields[pos] = float("nan")
        assert np.isnan(KktResiduals(*fields).max_residual)


def test_status_gates_fail_closed_on_nan():
    converged = SimpleNamespace(status="optimal")
    assert _status_from(converged, 0.0, 0.0, 1.0, 1.0)[0] == STATUS_OPTIMAL
    for gap, kkt_max in ((float("nan"), 0.0), (0.0, float("nan"))):
        status, reason = _status_from(converged, gap, kkt_max, 1.0, 1.0)
        assert status == STATUS_NUMERICAL_FAILURE
        assert "tolerance" in reason


def _hand_report(blocks, status=STATUS_OPTIMAL, rop_err=None):
    d, k = blocks[0].shape[0], len(blocks)
    zero = np.zeros((d, d))
    return SolveReport(
        status=status,
        primal=SdpPrimalSolution(x_blocks=np.array(blocks), value=0.0),
        dual=SdpDualSolution(y=zero, z_blocks=np.zeros((k, d, d)),
                             nu=np.zeros(k)),
        gap=0.0,
        kkt_residuals=KktResiduals(0.0, 0.0, 0.0, 0.0, 0.0),
        iterations=0,
        wall_time=0.0,
        rop_err=rop_error(blocks) if rop_err is None else rop_err,
    )


def _unit_block(d, i):
    x = np.zeros((d, d))
    x[i, i] = 1.0
    return x


def test_is_tight_hand_reports():
    orth = [_unit_block(3, 0), _unit_block(3, 1)]
    assert is_tight(_hand_report(orth))
    # rank-one blocks sharing a top eigenvector: their sum is no projection
    assert not is_tight(_hand_report([_unit_block(3, 0), _unit_block(3, 0)]))
    assert not is_tight(_hand_report(orth, status=STATUS_NUMERICAL_FAILURE))
    assert not is_tight(_hand_report(orth, rop_err=2.0 * ROP_TOL))
    assert not is_tight(_hand_report(orth, rop_err=float("nan")))


def test_is_tight_takes_one_batched_eigh(monkeypatch):
    # the report's rop_err is the rank-one check; is_tight adds one batched
    # eigh of the blocks (top eigenvectors) and one eigvalsh of their sum
    rep = solve_sdp(gen_separated_diagonal(6, 3, seed=1))
    calls = []

    def counting(name):
        fn = getattr(np.linalg, name)

        def wrapped(a, *args, **kwargs):
            calls.append((name, np.shape(a)))
            return fn(a, *args, **kwargs)
        return wrapped

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(name))
    assert is_tight(rep)
    assert calls == [("eigh", (3, 6, 6)), ("eigvalsh", (6, 6))]


# draws that ended step_collapse one step short of the IPM's tol while X
# and Z took separate step lengths; the last is from a corpus of 2,000
# randpsd (8, 3) draws
COLLAPSED_DRAWS = [("randpsd", 6, 2, 6625), ("randpsd", 6, 2, 28205),
                   ("randpsd", 4, 3, 23532), ("hppca", 6, 2, 21162),
                   ("randpsd", 8, 3, 2932598981083430647)]


@pytest.mark.parametrize("family,d,k,seed", COLLAPSED_DRAWS)
def test_draws_that_collapsed_are_solved_and_tight(family, d, k, seed):
    rep = solve_sdp(make_instance(family, d, k, {}, seed))
    assert rep.status == STATUS_OPTIMAL, rep.meta
    assert rep.meta["ipm"]["stop_reason"] == "converged"
    assert is_tight(rep)


@given(st.sampled_from(["hppca", "randpsd"]), st.integers(2, 8),
       st.integers(1, 3), st.integers(0, 2**16), st.floats(-2.0, 2.0))
@example("randpsd", 6, 2, 6625, 0.5)
@example("randpsd", 6, 2, 28205, -1.5)
@example("randpsd", 4, 3, 23532, 0.5)
@example("hppca", 6, 2, 21162, -1.5)
@settings(max_examples=30, deadline=None)
def test_value_bounds_stmm_and_moves_with_a_shift(family, d, k, seed, c):
    k = min(k, d)
    inst = make_instance(family, d, k, {}, seed)
    rep = solve_sdp(inst)
    assert rep.status == STATUS_OPTIMAL
    # the relaxation's value bounds every feasible point's objective
    stmm = stmm_solve(inst, _top_k_start(inst))
    assert rep.value >= objective(inst, stmm.final) - 1e-7 * inst.gate_unit
    # every X_i has unit trace, so M_i + c I adds exactly k c
    shifted = solve_sdp(ProblemInstance(inst.mats + c * np.eye(d)))
    assert shifted.status == STATUS_OPTIMAL
    assert shifted.value - rep.value == pytest.approx(
        k * c, rel=0, abs=1e-7 * max(1.0, abs(shifted.value)))


def _top_k_start(inst):
    return StiefelPoint(
        np.linalg.eigh(inst.mats.sum(axis=0))[1][:, :-inst.k - 1:-1])


@given(st.sampled_from(["hppca", "randpsd"]), st.integers(2, 8),
       st.integers(1, 3), st.integers(0, 2**16), st.floats(0.1, 10.0))
@settings(max_examples=30, deadline=None)
def test_solve_is_invariant_under_scale(family, d, k, seed, c):
    inst = make_instance(family, d, min(k, d), {}, seed)
    rep = solve_sdp(inst)
    scaled = solve_sdp(ProblemInstance(c * inst.mats))
    assert scaled.status == rep.status
    assert is_tight(scaled) == is_tight(rep)
    assert scaled.value == pytest.approx(c * rep.value, rel=1e-7)


@given(st.sampled_from(["hppca", "randpsd"]), st.integers(2, 8),
       st.integers(1, 3), st.integers(0, 2**16))
@example("randpsd", 6, 2, 6625)
@example("randpsd", 6, 2, 28205)
@example("randpsd", 4, 3, 23532)
@example("hppca", 6, 2, 21162)
@settings(max_examples=30, deadline=None)
def test_a_certified_point_attains_the_relaxation_value(family, d, k, seed):
    inst = make_instance(family, d, min(k, d), {}, seed)
    u = stmm_solve(inst, _top_k_start(inst)).final
    if certify(inst, u).status != STATUS_CERTIFIED:
        return
    rep = solve_sdp(inst)
    assert rep.status == STATUS_OPTIMAL
    assert abs(objective(inst, u) - rep.value) <= 1e-6 * inst.gate_unit
