"""Commuting-case fast path: assignment solver against brute force, exact
dual feasibility, and the strictly complementary dual construction."""

import numpy as np
import pytest

from stiefelsum.core import ProblemInstance, spectral_norms, sym
from stiefelsum.diagonal import (
    TieError,
    enumerate_assignments,
    goldman_tucker_dual,
    joint_diagonalize,
    perturb_instance,
    solve_assignment,
    tightness_sweep,
)
from stiefelsum.generators import gen_random_psd, gen_separated_diagonal
from stiefelsum.sdp import check_kkt, dual_rank_profile


def test_assignment_matches_enumeration():
    rng = np.random.default_rng(19)
    for _ in range(50):
        d = int(rng.integers(2, 8))
        k = int(rng.integers(1, d + 1))
        m = rng.uniform(0.0, 1.0, size=(k, d))
        sol = solve_assignment(m)
        best_val, best_perm = enumerate_assignments(m)
        assert sol.value == pytest.approx(best_val, abs=1e-12)
        if not sol.ties:
            assert sol.assignment == best_perm


def test_assignment_shape_guard():
    with pytest.raises(ValueError):
        solve_assignment(np.zeros((3, 2)))  # more blocks than coordinates


def test_margin_duals_are_exactly_feasible():
    rng = np.random.default_rng(29)
    for _ in range(20):
        d = int(rng.integers(2, 9))
        k = int(rng.integers(1, d + 1))
        m = rng.uniform(0.0, 2.0, size=(k, d))
        sol = solve_assignment(m)
        y, nu, z = sol.dual
        assert np.all(y >= 0.0)
        rows = np.arange(k)
        # assigned entries close exactly; all entries stay nonnegative
        assert np.all(z[rows, list(sol.assignment)] == 0.0)
        assert np.all(z >= -1e-12)
        assert z == pytest.approx(nu[:, None] + y[None, :] - m, abs=1e-9)
        # strong duality holds to machine precision
        assert float(np.sum(y) + np.sum(nu)) == pytest.approx(sol.value,
                                                              abs=1e-9)


def test_goldman_tucker_ranks_and_kkt():
    rng = np.random.default_rng(37)
    m = rng.uniform(0.0, 1.0, size=(3, 6))
    sol = solve_assignment(m)
    dual = goldman_tucker_dual(m, sol)
    assert dual_rank_profile(dual).tolist() == [5, 5, 5]

    mats = tuple(np.diag(m[i]) for i in range(3))
    c = ProblemInstance(mats)
    eye = np.eye(6)
    primal = tuple(np.outer(eye[:, j], eye[:, j]) for j in sol.assignment)
    res = check_kkt(c, primal, dual)
    assert res.max_residual <= 1e-9
    assert dual.value == pytest.approx(sol.value, abs=1e-9)


def test_goldman_tucker_rejects_ties():
    with pytest.raises(TieError):
        goldman_tucker_dual(np.array([[1.0, 1.0]]))


def test_joint_diagonalize_recovers_common_basis():
    rng = np.random.default_rng(41)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    vals = rng.uniform(0.0, 1.0, size=(3, 5))
    mats = tuple(sym(q @ np.diag(vals[i]) @ q.T) for i in range(3))
    jd = joint_diagonalize(ProblemInstance(mats))
    assert jd is not None
    assert jd.off_diag_residual <= 1e-8
    b = jd.basis.cols
    for i in range(3):
        rotated = b.T @ mats[i] @ b
        assert np.linalg.norm(rotated - np.diag(np.diag(rotated))) <= 1e-7
        assert np.sort(np.diag(rotated)) == pytest.approx(np.sort(vals[i]),
                                                          abs=1e-9)


def test_joint_diagonalize_handles_shared_nullspace():
    # coincident joint eigenvalues must not defeat the basis search
    c = ProblemInstance((np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0])))
    jd = joint_diagonalize(c)
    assert jd is not None
    assert jd.off_diag_residual <= 1e-10


def test_joint_diagonalize_rejects_noncommuting():
    assert joint_diagonalize(gen_random_psd(5, 2, seed=6)) is None


def test_perturb_instance_properties():
    center = gen_separated_diagonal(6, 2, seed=3)
    rng = np.random.default_rng(3)
    p = perturb_instance(center, 0.1, rng)
    assert max(spectral_norms(p.mats)) == pytest.approx(1.0, abs=1e-12)
    for m in p.mats:
        assert float(np.linalg.eigvalsh(m)[0]) >= -1e-12
    assert p.meta["perturbation_scale"] == 0.1
    assert p.meta["psd_shift"] >= 0.0

    z = perturb_instance(center, 0.0, np.random.default_rng(0))
    for a, b in zip(z.mats, center.mats):
        assert np.allclose(a, b, atol=1e-12)


def test_tightness_sweep_zero_scale_is_tight():
    center = gen_separated_diagonal(6, 2, seed=5)
    assert tightness_sweep(center, 0.0, trials=4, seed=0) == 1.0


def test_tightness_sweep_input_guards():
    with pytest.raises(ValueError):
        tightness_sweep(gen_random_psd(5, 2, seed=1), 0.1, trials=2, seed=0)
    tied = ProblemInstance((np.diag([1.0, 0.0]), np.diag([1.0, 0.0])))
    with pytest.raises(ValueError):
        tightness_sweep(tied, 0.1, trials=2, seed=0)
