"""Certificate tests: verdicts on points whose global status is known by
construction (diagonal instances where the optimum is an assignment)."""

import numpy as np
import pytest

from stiefelsum import certificate, core
from stiefelsum.certificate import (
    CERT_TOL,
    MARGIN_TOL,
    VALUE_MARGIN,
    _complete_basis,
    _feasibility_ops,
    _feasibility_start,
    _lmi_slacks,
    certify,
    classify_inconclusive,
)
from stiefelsum.core import ProblemInstance, StiefelPoint, rop_error, sym
from stiefelsum.generators import (
    gen_hppca,
    gen_random_psd,
    gen_separated_diagonal,
)
from stiefelsum.harness import sweep_trial
from stiefelsum.ipm import solve_ipm
from stiefelsum.sdp import (
    STATUS_NUMERICAL_FAILURE,
    KktResiduals,
    SdpDualSolution,
    SdpPrimalSolution,
    SolveReport,
    solve_sdp,
)
from stiefelsum.stiefel import (
    SolverConfig,
    lambda_matrix,
    objective,
    random_stiefel,
    riemannian_gradient,
    stmm_solve,
)


def test_certify_computes_the_gate_unit_once(monkeypatch):
    # the gate unit is one batched core.spectral_norms of the k blocks;
    # certify's slack gate and its KKT check share it, and certify adds one
    # 2-norm of its own. A fresh instance, since stmm_solve has already
    # cached the unit on c.
    c = gen_separated_diagonal(6, 3, seed=2)
    u = stmm_solve(c, random_stiefel(6, 3, np.random.default_rng(2))).final
    fresh = ProblemInstance(c.mats)
    norm, spectral_norms = np.linalg.norm, core.spectral_norms
    calls = []

    def counting(a, ord=None, *args, **kwargs):
        calls.append((ord, np.shape(a)))
        return norm(a, ord, *args, **kwargs)

    def counting_stack(stack):
        calls.append(("stack", np.shape(stack)))
        return spectral_norms(stack)

    monkeypatch.setattr(np.linalg, "norm", counting)
    monkeypatch.setattr(core, "spectral_norms", counting_stack)
    assert certify(fresh, u).status == "CertifiedGlobal"
    assert [(o, s) for o, s in calls if o in (2, "stack")] == [
        ("stack", (3, 6, 6)), (2, (3, 3))]
    assert fresh.gate_unit == pytest.approx(
        max(1.0, *(norm(m, 2) for m in c.mats)), rel=1e-14)


def test_certifies_known_global_optimum():
    c = ProblemInstance((np.diag([3.0, 1.0]),))
    res = certify(c, StiefelPoint(np.array([[1.0], [0.0]])))
    assert res.status == "CertifiedGlobal"
    assert res.nu_witness is not None and np.all(res.nu_witness >= 0.0)
    assert res.kkt_residuals is not None
    assert res.kkt_residuals.max_residual <= 1e-6
    assert res.min_eig_slacks.shape == (2,)  # k blocks + the multiplier LMI
    assert res.min_eig_slacks.min() >= -1e-7
    assert not res.precondition_weak
    # at the true optimizer the margin program is degenerate: t* ~ 0
    assert abs(res.t_star) <= 1e-6
    assert res.t_star == res.min_eig_slacks.min()


def test_suboptimal_stationary_point_is_inconclusive():
    c = ProblemInstance((np.diag([3.0, 1.0]),))
    sub = StiefelPoint(np.array([[0.0], [1.0]]))  # eigenvector, value 1
    res = certify(c, sub)
    assert res.status == "Inconclusive"
    assert res.nu_witness is None
    # the gate never clears, so the margin program runs to its optimum,
    # max over nu >= 0 of min(nu - 3, 0, 1 - nu) = -1
    assert res.meta["ipm"]["status"] == "optimal"
    assert res.meta["reason"] == "least slack below -CERT_TOL * s"
    assert res.t_star == res.min_eig_slacks.min()
    assert res.t_star == pytest.approx(-1.0, abs=1e-6)
    rep = solve_sdp(c)
    assert classify_inconclusive(c, sub, rep) == "SuboptimalStationary"
    assert classify_inconclusive(c, sub) == "Unknown"


def test_only_a_stationary_point_is_suboptimal_stationary():
    c = ProblemInstance((np.diag([3.0, 1.0, 0.0]), np.diag([0.0, 2.0, 1.0])))
    rep = solve_sdp(c)
    # the optimum [e1, e2] with its columns turned by 0.3 rad in their
    # plane: a point on the manifold that is neither optimal nor stationary
    turn = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
    early = StiefelPoint(np.eye(3)[:, :2] @ turn)
    assert np.linalg.norm(riemannian_gradient(c, early)) > 1e-6
    assert objective(c, early) < rep.value - VALUE_MARGIN
    assert classify_inconclusive(c, early, rep) == "Unknown"
    eye = np.eye(3)
    swapped = StiefelPoint(np.column_stack([eye[:, 1], eye[:, 2]]))
    assert classify_inconclusive(c, swapped, rep) == "SuboptimalStationary"


def _report(blocks, status="Optimal"):
    d, k = blocks[0].shape[0], len(blocks)
    zero = np.zeros((d, d))
    return SolveReport(
        status=status,
        primal=SdpPrimalSolution(x_blocks=tuple(blocks), objective=0.0),
        dual=SdpDualSolution(y=zero, z_blocks=(zero,) * k,
                             nu=np.zeros(k), objective=0.0),
        gap=0.0, kkt_residuals=KktResiduals(0.0, 0.0, 0.0, 0.0, 0.0),
        iterations=0, wall_time=0.0, rop_err=rop_error(blocks))


def test_classification_uses_the_one_tightness_rule():
    c = ProblemInstance((np.diag([3.0, 1.0, 0.0]), np.diag([1.0, 3.0, 0.0])))
    u = StiefelPoint(np.eye(3)[:, :2])
    e1, e2 = np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0])
    # rank-one blocks sharing a top eigenvector: rank-one, yet not tight
    assert classify_inconclusive(c, u, _report([e1, e1])) == "SdpNotTight"
    # a tight report whose value does not beat the candidate's
    assert classify_inconclusive(c, u, _report([e1, e2])) == "Unknown"
    # a failed solve says nothing, however loose its blocks
    half = np.diag([0.5, 0.5, 0.0])
    failed = _report([half, half], status=STATUS_NUMERICAL_FAILURE)
    assert classify_inconclusive(c, u, failed) == "Unknown"


def test_indefinite_multiplier_gate():
    c = ProblemInstance((np.diag([3.0, -1.0]),))
    res = certify(c, StiefelPoint(np.array([[0.0], [1.0]])))
    assert res.status == "Inconclusive"
    assert res.meta["reason"] == "multiplier matrix indefinite"
    assert "ipm" not in res.meta  # decided before any solve
    assert res.t_star == pytest.approx(-1.0, abs=1e-12)


def test_candidate_shape_check():
    c = ProblemInstance((np.diag([1.0, 2.0, 3.0]),))
    with pytest.raises(ValueError):
        certify(c, StiefelPoint(np.eye(3)[:, :2]))


def test_ndarray_candidate_accepted():
    c = ProblemInstance((np.diag([3.0, 1.0]),))
    res = certify(c, np.array([[1.0], [0.0]]))
    assert res.status == "CertifiedGlobal"


def test_weak_precondition_flagged_not_fatal():
    c = gen_separated_diagonal(5, 2, seed=4)
    u = random_stiefel(5, 2, np.random.default_rng(4))
    res = certify(c, u)
    assert res.precondition_weak
    assert res.meta["grad_norm"] > 1e-6


def test_polished_ascent_point_certifies():
    c = gen_separated_diagonal(6, 2, seed=8)
    best = None
    for s in range(5):
        tr = stmm_solve(c, random_stiefel(6, 2, np.random.default_rng(s)))
        if best is None or tr.objectives[-1] > best.objectives[-1]:
            best = tr
    res = certify(c, best.final)
    assert res.status == "CertifiedGlobal"


def test_stalled_feasibility_solve_is_a_status(stalled_certificate):
    c = ProblemInstance((np.diag([3.0, 1.0]),))
    res = certify(c, StiefelPoint(np.array([[1.0], [0.0]])))
    assert res.status == STATUS_NUMERICAL_FAILURE
    assert res.nu_witness is None and np.isnan(res.t_star)
    assert res.meta["reason"] == "feasibility solve stalled"
    assert res.meta["ipm"]["status"] == "numerical_failure"

    # the sweep records the status; a stall is not attributed to the SDP
    rec = sweep_trial(("cjd", 6, 2, {"sigma": 0.0}, 3))
    assert rec["tight"] and "error" not in rec
    assert rec["certificate"] == STATUS_NUMERICAL_FAILURE
    assert rec["certificate_reason"] == "feasibility solve stalled"
    assert rec["certificate_ipm"]["status"] == "numerical_failure"
    assert "classification" not in rec and "marker" not in rec


def test_feasibility_program_is_the_lmi_system_in_the_complete_basis():
    # C_j - A*(nu, t)_j, rotated back by Q and rescaled, is block j's LMI
    # minus t I; the multiplier block is L - D_nu - t I, the scalars nu_i
    rng = np.random.default_rng(17)
    c = gen_random_psd(7, 3, seed=17)
    u = random_stiefel(7, 3, rng).cols
    lam_s = sym(lambda_matrix(c, u).matrix)
    scale = 2.5
    ops = _feasibility_ops(c, u, lam_s, scale)
    q = _complete_basis(u)
    assert np.array_equal(q[:, :3], u)
    assert np.allclose(q.T @ q, np.eye(7), atol=1e-14)
    nu, t = rng.uniform(0.0, 2.0, 3), float(rng.standard_normal())
    aty = ops.apply_AT(np.append(nu, t) / scale)
    z_lmi, (z_mult,), z_nu = [(cj - a) * scale for cj, a in zip(ops.C, aty)]
    slacks = _lmi_slacks(c, u, lam_s, nu)
    core = u @ (lam_s - np.diag(nu)) @ u.T
    for j, m in enumerate(c.mats):
        lmi = core + nu[j] * np.eye(7) - m
        assert np.allclose(q @ z_lmi[j] @ q.T, lmi - t * np.eye(7),
                           atol=1e-12)
        least = np.linalg.eigvalsh(sym(z_lmi[j]))[0] + t
        assert least == pytest.approx(slacks[j], rel=1e-12, abs=1e-12)
    assert np.allclose(z_mult, lam_s - np.diag(nu) - t * np.eye(3),
                       atol=1e-12)
    assert np.linalg.eigvalsh(sym(z_mult))[0] + t == pytest.approx(
        slacks[3], rel=1e-12, abs=1e-12)
    assert z_nu.shape == (3, 1, 1)
    assert np.allclose(z_nu[:, 0, 0], nu, atol=1e-12)


# the program is three stacks whatever the sizes: k blocks of size d, the
# multiplier block of size k, and k scalar blocks, also when k = d, k = 1 or
# d = k = 1, where blocks of different stacks share a size. The iteration
# counts are pinned from a block-by-block run of the same iteration.
@pytest.mark.parametrize("d,k,runs,iterations", [
    (3, 3, [(3, 3, 3), (1, 3, 3), (3, 1, 1)], 7),
    (4, 4, [(4, 4, 4), (1, 4, 4), (4, 1, 1)], 7),
    (5, 1, [(1, 5, 5), (1, 1, 1), (1, 1, 1)], 8),
    (1, 1, [(1, 1, 1), (1, 1, 1), (1, 1, 1)], 7),
])
def test_feasibility_program_runs_merge_and_split(d, k, runs, iterations):
    c = gen_separated_diagonal(d, k, seed=d)
    u = np.eye(d)[:, :k]  # the unique optimum, by construction
    assert certify(c, StiefelPoint(u)).status == "CertifiedGlobal"
    lam_s = sym(lambda_matrix(c, u).matrix)
    scale = max(c.gate_unit, np.linalg.norm(lam_s, 2))
    ops = _feasibility_ops(c, u, lam_s, scale)
    assert [s.shape for s in ops.C] == runs
    full = solve_ipm(ops, *_feasibility_start(ops, k), tol=1e-9)
    assert full.status == "optimal" and full.iterations == iterations
    # at a global optimum the margin t* is 0: the least slack at its nu
    nu = np.clip(full.y[:k] * scale, 0.0, None)
    assert full.y[k] * scale == pytest.approx(
        _lmi_slacks(c, u, lam_s, nu).min(), abs=1e-8)


def test_feasibility_solve_stops_once_the_gate_clears(monkeypatch):
    c = gen_hppca(20, 3, seed=3)
    u = stmm_solve(c, random_stiefel(20, 3, np.random.default_rng(3)),
                   SolverConfig.for_hppca()).final
    calls = []

    def counting(*args):
        calls.append(args)
        return _lmi_slacks(*args)

    monkeypatch.setattr(certificate, "_lmi_slacks", counting)
    res = certify(c, u)
    assert res.status == "CertifiedGlobal"
    assert res.meta["ipm"]["status"] == "feasible"
    assert res.meta["reason"] == ""
    assert res.t_star >= -CERT_TOL * c.gate_unit
    # one gate evaluation per iterate: the verdict reuses the last one's
    # slacks, which are those of the returned nu
    assert len(calls) == res.meta["ipm"]["iterations"] + 1
    lam_s = sym(lambda_matrix(c, u).matrix)
    assert np.array_equal(res.min_eig_slacks,
                          _lmi_slacks(c, u.cols, lam_s, res.nu_witness))
    # the same program without the stop runs on to the margin's optimum
    ops = _feasibility_ops(c, u.cols, lam_s,
                           max(c.gate_unit, np.linalg.norm(lam_s, 2)))
    full = solve_ipm(ops, *_feasibility_start(ops, c.k), tol=MARGIN_TOL)
    assert full.status == "optimal"
    assert res.meta["ipm"]["iterations"] < full.iterations
