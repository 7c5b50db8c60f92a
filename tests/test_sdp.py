"""Relaxation solver tests: oracles are numpy eigensolves, permutation
enumeration for the square commuting case, and hand-built KKT points."""

import dataclasses
import itertools
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_schur_regularization_is_reported():
    # k = d: the coupling is an equality and the last Schur complements
    # need a diagonal shift
    rep = solve_sdp(gen_random_diagonal(4, 4, seed=21))
    assert rep.status == STATUS_OPTIMAL
    assert rep.meta["ipm"]["schur_shift"] > 0.0
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
        y=np.diag([2.0, 0.0]), z_blocks=(np.zeros((2, 2)),),
        nu=np.array([1.0]), objective=-3.0)
    res = check_kkt(c, (x,), dual)
    assert res.max_residual <= 1e-12

    # breaking one condition moves exactly the matching residual
    bad = SdpDualSolution(
        y=np.diag([2.0, 0.0]), z_blocks=(np.diag([0.0, -0.1]),),
        nu=np.array([1.0]), objective=-3.0)
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
            z_blocks=tuple(sym(rng.standard_normal((d, d)))
                           for _ in range(k)),
            nu=rng.standard_normal(k), objective=0.0)
        got = dataclasses.astuple(check_kkt(c, x_blocks, dual))
        assert got == pytest.approx(_kkt_by_full_spectra(c, x_blocks, dual),
                                    rel=0, abs=1e-12)


def test_dual_rank_profile_hand_and_solved():
    dual = SdpDualSolution(
        y=np.zeros((3, 3)),
        z_blocks=(np.zeros((3, 3)), np.diag([1.0, 0.5, 0.0]),
                  np.diag([2.0, 0.0, 0.0])),
        nu=np.zeros(3), objective=0.0)
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
        primal=SdpPrimalSolution(x_blocks=tuple(blocks), objective=0.0),
        dual=SdpDualSolution(y=zero, z_blocks=(zero,) * k,
                             nu=np.zeros(k), objective=0.0),
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


@given(st.sampled_from(["hppca", "randpsd"]), st.integers(2, 8),
       st.integers(1, 3), st.integers(0, 2**16), st.floats(-2.0, 2.0))
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
@settings(max_examples=30, deadline=None)
def test_a_certified_point_attains_the_relaxation_value(family, d, k, seed):
    inst = make_instance(family, d, min(k, d), {}, seed)
    u = stmm_solve(inst, _top_k_start(inst)).final
    if certify(inst, u).status != STATUS_CERTIFIED:
        return
    rep = solve_sdp(inst)
    assert rep.status == STATUS_OPTIMAL
    assert abs(objective(inst, u) - rep.value) <= 1e-6 * inst.gate_unit
