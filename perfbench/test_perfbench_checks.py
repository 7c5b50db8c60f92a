"""The benchmark's output checks accept real solver output and reject
hand-corrupted copies of it.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from stiefelsum import certify, extract_candidate, solve_sdp, stmm_solve  # noqa: E402
from stiefelsum.core import ProblemInstance, StiefelPoint  # noqa: E402
from workloads import HppcaCase  # noqa: E402


@pytest.fixture(scope="module")
def case():
    return HppcaCase.make(8, 3, 0, seed=7)


@pytest.fixture(scope="module")
def sdp_out(case):
    rep = solve_sdp(case.inst)
    assert rep.status == "Optimal"
    point, _, _ = extract_candidate(rep)
    return rep, point.cols


@pytest.fixture(scope="module")
def cert_out(case):
    u = stmm_solve(case.inst, case.start).final
    res = certify(case.inst, u)
    assert res.status == "CertifiedGlobal"
    return u.cols, res.nu_witness


def _sdp_problems(case, rep, u, value=None, nu=None):
    return checks.check_sdp(
        case.inst.mats, rep.primal.x_blocks,
        rep.value if value is None else value, rep.dual.y,
        rep.dual.nu if nu is None else nu, u_extracted=u, u_planted=case.planted)


def test_sdp_check_accepts_solver_output(case, sdp_out):
    assert _sdp_problems(case, *sdp_out) == []


def test_sdp_check_rejects_value_above_dual_bound(case, sdp_out):
    rep, u = sdp_out
    dual = float(np.trace(rep.dual.y) + np.sum(rep.dual.nu))
    problems = _sdp_problems(case, rep, u, value=dual + 1e-4)
    assert any("above dual bound" in p for p in problems)


def test_sdp_check_rejects_infeasible_dual(case, sdp_out):
    rep, u = sdp_out
    nu = rep.dual.nu.copy()
    nu[0] -= 0.1  # lowers the bound below the value
    assert _sdp_problems(case, rep, u, nu=nu)


def test_certificate_check_accepts_certified_point(case, cert_out):
    u, nu = cert_out
    assert checks.check_certificate(case.inst.mats, u, nu, case.planted) == []


def test_certificate_check_rejects_perturbed_witness(case, cert_out):
    u, nu = cert_out
    mats = case.inst.mats
    # raising nu_0 by more than u_0' Z_1 u_0 drives Z_1 = Y + nu_1 I - M_1
    # negative along u_0, since Y loses delta u_0 u_0'
    lam = checks.sym(u.T @ np.column_stack([m @ u[:, i] for i, m in enumerate(mats)]))
    y = u @ (lam - np.diag(nu)) @ u.T
    z1 = y + nu[1] * np.eye(u.shape[0]) - mats[1]
    bad = nu.copy()
    bad[0] += 1.5 * float(u[:, 0] @ z1 @ u[:, 0]) + 1e-3
    problems = checks.check_certificate(mats, u, bad, case.planted)
    assert any("not PSD" in p for p in problems)


def test_certificate_check_rejects_suboptimal_stationary_point():
    # assignments of coordinate vectors are stationary for diagonal blocks;
    # (e1, e2) scores 1.2 against the optimum (e2, e1) at 1.5
    mats = (np.diag([1.0, 0.6, 0.1]), np.diag([0.9, 0.2, 0.1]))
    eye = np.eye(3)
    best = eye[:, [1, 0]]
    inst = ProblemInstance(mats)
    res = certify(inst, StiefelPoint(best))
    assert res.status == "CertifiedGlobal"
    assert checks.check_certificate(mats, best, res.nu_witness) == []
    worse = eye[:, [0, 1]]
    grid = np.linspace(0.0, 2.0, 21)
    for nu0 in grid:
        for nu1 in grid:
            assert checks.check_certificate(mats, worse, [nu0, nu1])


def test_table_checks_reject_corrupted_values(case, sdp_out):
    rep, _ = sdp_out
    blocks = rep.primal.x_blocks
    assert checks.is_tight(blocks)
    assert checks.check_table_solve(case.inst.mats, blocks, rep.value) == []
    assert checks.check_table_solve(case.inst.mats, blocks, rep.value - 1e-3)
    mixed = [0.5 * b + 0.5 * blocks[(i + 1) % len(blocks)]
             for i, b in enumerate(blocks)]
    assert not checks.is_tight(mixed)


def test_diagonal_value_matches_enumeration():
    mats = (np.diag([1.0, 0.6, 0.1]), np.diag([0.9, 0.2, 0.1]))
    rep = solve_sdp(ProblemInstance(mats))
    assert checks.check_diagonal_value(mats, rep.value) == []
    assert checks.check_diagonal_value(mats, rep.value + 1e-4)
    assert checks.best_assignment(np.array([[1.0, 0.6, 0.1], [0.9, 0.2, 0.1]])) == 1.5
