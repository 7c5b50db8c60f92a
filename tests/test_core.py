import json

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from stiefelsum import core
from stiefelsum.cli import main
from stiefelsum.certificate import certify
from stiefelsum.core import (
    ORTH_TOL,
    ProblemInstance,
    RopPreconditionError,
    StiefelPoint,
    check_rop_orthogonality,
    commuting_distance,
    instance_distance,
    load_instance,
    max_commuting_distance,
    normalize_instance,
    procrustes_project,
    rop_error,
    save_instance,
    spectral_norms,
    sym,
    top_eigenpairs,
)
from stiefelsum.sdp import solve_sdp
from stiefelsum.stiefel import random_stiefel, stmm_solve


def _rand_sym(rng, d):
    return sym(rng.standard_normal((d, d)))


@st.composite
def square_matrices(draw, max_d=6):
    d = draw(st.integers(2, max_d))
    vals = draw(st.lists(
        st.floats(-10, 10, allow_nan=False), min_size=d * d, max_size=d * d))
    return np.asarray(vals).reshape(d, d)


@given(square_matrices())
@settings(max_examples=60, deadline=None)
def test_sym_skew_decompose(a):
    assert np.allclose(sym(a), sym(a).T)


def test_spectral_norm_matches_lapack():
    rng = np.random.default_rng(0)
    assert spectral_norms(np.diag([3.0, -5.0])[None]).tolist() == [5.0]
    a = sym(rng.standard_normal((10, 5, 5)))
    assert np.allclose(spectral_norms(a), np.linalg.norm(a, 2, axis=(1, 2)),
                       rtol=0.0, atol=1e-12)


def test_top_eigenpairs_match_each_block():
    rng = np.random.default_rng(1)
    blocks = [_rand_sym(rng, 6) for _ in range(3)]
    vecs, ties = top_eigenpairs(blocks)
    assert vecs.shape == (6, 3) and ties == [False] * 3
    for x, v in zip(blocks, vecs.T):
        vals, basis = np.linalg.eigh(x)
        assert np.allclose(x @ v, vals[-1] * v)
        assert np.allclose(v, basis[:, -1])


def test_rop_error_hand_values():
    x = np.zeros((3, 3))
    x[0, 0] = 1.0
    assert rop_error([x]) == 0.0
    # spectrum (0.5, 0.5, 0): squared distance from (1, 0, 0) is 0.5
    assert abs(rop_error([np.diag([0.5, 0.5, 0.0])]) - 0.5) < 1e-15
    # mean over blocks
    assert abs(rop_error([x, np.diag([0.5, 0.5, 0.0])]) - 0.25) < 1e-15


def test_commuting_distance_hand_value():
    m1 = np.diag([3.0, 1.0])
    m2 = np.ones((2, 2))
    # commutator is [[0, 2], [-2, 0]], spectral norm 2
    assert abs(commuting_distance(m1, m2) - 2.0) < 1e-14
    assert commuting_distance(m1, np.diag([4.0, 9.0])) == 0.0
    with pytest.raises(ValueError):
        commuting_distance(m1, np.eye(3))


def test_instance_metrics_and_distance():
    c = ProblemInstance(mats=(np.diag([3.0, 1.0]), np.ones((2, 2))))
    assert abs(max_commuting_distance(c) - 2.0) < 1e-14
    single = ProblemInstance(mats=(np.ones((2, 2)),))
    assert max_commuting_distance(single) == 0.0

    cbar = ProblemInstance(mats=(np.diag([3.0, 1.0]), np.zeros((2, 2))))
    assert abs(instance_distance(c, cbar) - 2.0) < 1e-14
    assert instance_distance(c, c) == 0.0
    with pytest.raises(ValueError):
        instance_distance(c, ProblemInstance(mats=(np.eye(3),)))


def test_problem_instance_validation():
    # asymmetric input is symmetrized, not rejected
    c0 = ProblemInstance(mats=(np.array([[0.0, 1.0], [0.0, 0.0]]),))
    assert np.allclose(c0.mats[0], [[0.0, 0.5], [0.5, 0.0]])
    with pytest.raises(ValueError):
        ProblemInstance(mats=(np.eye(2), np.eye(3)))
    c = ProblemInstance(mats=(np.eye(2) * 4.0, np.eye(2)))
    assert c.d == 2 and c.k == 2
    with pytest.raises(ValueError):
        ProblemInstance((np.diag([1.0, np.inf]),))
    with pytest.raises(ValueError):
        ProblemInstance((np.eye(2), np.array([[1.0, np.nan], [np.nan, 0.0]])))
    assert np.allclose(spectral_norms(c.mats), [4.0, 1.0])


def test_finite_entries_up_to_the_largest_double_are_an_instance():
    # the input is symmetrized as A / 2 + A' / 2, whose sum cannot overflow
    c = ProblemInstance((np.diag([1.7e308, 1.0]),))
    assert c.mats[0, 0, 0] == 1.7e308
    trace = stmm_solve(c, random_stiefel(2, 1, np.random.default_rng(0)))
    assert trace.status == "Stationary"
    assert certify(c, trace.final).status == "CertifiedGlobal"
    pair = np.array([[0.0, 1.7e308], [1.5e308, 0.0]])
    assert ProblemInstance((pair,)).mats[0, 1, 0] == 0.5 * 1.7e308 + 0.75e308


@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_halves_symmetrize_as_the_sum_does(n, seed):
    # A / 2 + A' / 2 and (A + A') / 2 are the same float at normal magnitude
    a = np.random.default_rng(seed).standard_normal((min(n, 3), n, n))
    assert np.array_equal(ProblemInstance(a).mats, sym(a))


def test_an_overflowing_spectral_norm_is_bad_input():
    # finite entries whose spectral norm, 1.8e308, overflows: the instance
    # has no gate unit, and each solver says so before any other work
    c = ProblemInstance((6e307 * np.ones((3, 3)), np.eye(3)))
    u0 = StiefelPoint(np.eye(3)[:, :2])
    for solve in (solve_sdp, certify, stmm_solve):
        args = (c,) if solve is solve_sdp else (c, u0)
        with pytest.raises(ValueError, match="spectral norm overflows"):
            solve(*args)


def _assert_one_readonly_stack(c, k, d):
    assert isinstance(c.mats, np.ndarray)
    assert c.mats.shape == (k, d, d) and c.mats.dtype == np.float64
    assert not c.mats.flags.writeable
    with pytest.raises(ValueError):
        c.mats[0, 0, 0] = 1.0


def test_instance_matrices_are_one_readonly_stack(tmp_path):
    rng = np.random.default_rng(4)
    src = np.array([_rand_sym(rng, 4) for _ in range(3)])
    src[0, 0, 1] += 1.0  # asymmetric: symmetrized into a copy
    c = ProblemInstance(src)
    _assert_one_readonly_stack(c, 3, 4)
    assert np.array_equal(c.mats, sym(src))
    src[1] = 0.0  # the instance holds its own copy
    assert np.abs(c.mats[1]).max() > 0.0
    _assert_one_readonly_stack(ProblemInstance([[[1, 2], [2, 1]]]), 1, 2)
    n = normalize_instance(c)
    _assert_one_readonly_stack(n, 3, 4)
    path = tmp_path / "inst.json"
    save_instance(n, path)
    back = load_instance(path)
    _assert_one_readonly_stack(back, 3, 4)
    assert np.array_equal(back.mats, n.mats)


def test_normalize_instance():
    c = ProblemInstance(mats=(np.eye(3) * 4.0, np.eye(3)))
    n = normalize_instance(c)
    assert abs(spectral_norms(n.mats).max() - 1.0) < 1e-14
    assert n.meta["normalization_scale"] == 4.0
    # scale accumulates across repeated normalization
    n2 = normalize_instance(ProblemInstance(
        mats=tuple(2.0 * m for m in n.mats), meta=n.meta))
    assert n2.meta["normalization_scale"] == 8.0
    with pytest.raises(ValueError):
        normalize_instance(ProblemInstance(mats=(np.zeros((2, 2)),)))


def test_stiefel_point_validation():
    StiefelPoint(np.eye(3)[:, :2])
    with pytest.raises(ValueError):
        StiefelPoint(np.eye(3)[:, :2] * 1.5)
    with pytest.raises(ValueError):
        StiefelPoint(np.column_stack([np.eye(3)[:, 0], np.full(3, np.nan)]))
    q = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
    p = StiefelPoint(q)
    assert p.cols.shape == (2, 1)


def test_instances_and_points_compare_by_identity():
    inst, twin = (ProblemInstance((np.eye(2),)) for _ in range(2))
    assert inst == inst and inst != twin
    assert inst in [inst] and twin not in [inst]
    p, q = (StiefelPoint(np.eye(2)) for _ in range(2))
    assert p == p and p != q and q not in [p]


def test_procrustes_against_scipy_polar():
    rng = np.random.default_rng(3)
    for _ in range(20):
        d, k = int(rng.integers(2, 8)), int(rng.integers(1, 5))
        if k > d:
            d, k = k, d
        m = rng.standard_normal((d, k))
        ours = procrustes_project(m).cols
        ref, _ = scipy.linalg.polar(m)
        assert np.allclose(ours, ref, atol=1e-10)


def test_polar_factor_is_the_svd_polar_factor():
    rng = np.random.default_rng(11)
    for _ in range(40):
        d = int(rng.integers(1, 13))
        k = int(rng.integers(1, d + 1))
        m = rng.standard_normal((d, k)) * 10.0 ** rng.uniform(-8, 8)
        u, _, vt = np.linalg.svd(m, full_matrices=False)
        ours = core.polar_factor(m)
        assert np.array_equal(ours, u @ vt)  # bitwise
        assert np.allclose(ours, scipy.linalg.polar(m)[0], rtol=0, atol=1e-12)
    with pytest.raises(np.linalg.LinAlgError):
        core.polar_factor(np.full((3, 2), np.nan))


def test_procrustes_rank_deficient_raises():
    m = np.zeros((4, 2))
    m[:, 0] = [1.0, 0, 0, 0]
    with pytest.raises(ValueError):
        procrustes_project(m)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_procrustes_idempotent_on_stiefel(seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((5, 3)))
    assert np.allclose(procrustes_project(q).cols, q, atol=1e-12)


def test_batched_block_reductions_match_the_loop():
    # one batched LAPACK call per stack, the same arithmetic per block as
    # a loop over the blocks, so the results are equal, not just close
    rng = np.random.default_rng(6)
    blocks = np.array([_rand_sym(rng, 7) for _ in range(4)])
    total = 0.0
    for x in blocks:
        vals = np.linalg.eigvalsh(x)[::-1]
        vals[0] -= 1.0
        total += float(np.sum(vals ** 2))
    assert rop_error(blocks) == total / 4
    c = ProblemInstance(blocks)
    norms = [np.abs(np.linalg.eigvalsh(m)).max() for m in blocks]
    assert list(spectral_norms(c.mats)) == norms
    assert c.gate_unit == max(1.0, *norms)
    assert c.gate_unit == pytest.approx(
        max(1.0, *(np.linalg.norm(m, 2) for m in blocks)), rel=1e-14)


def test_top_eigenpairs_tie_flag():
    x1 = np.diag([1.0, 0.0])
    x2 = np.eye(2) / 2.0
    vecs, ties = top_eigenpairs([x1, x2])
    assert vecs.shape == (2, 2)
    assert ties == [False, True]


def test_check_rop_orthogonality_cases():
    e1 = np.zeros((3, 3)); e1[0, 0] = 1.0
    e2 = np.zeros((3, 3)); e2[1, 1] = 1.0
    assert check_rop_orthogonality([e1, e2])
    # same direction twice: blocks are rank one but the sum is not a projector
    assert not check_rop_orthogonality([e1, e1])
    with pytest.raises(RopPreconditionError):
        check_rop_orthogonality([np.diag([0.5, 0.5, 0.0])])


def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    c = ProblemInstance(
        mats=tuple(_rand_sym(rng, 4) for _ in range(2)),
        meta={"family": "test", "psd_shift": 0.25},
    )
    path = tmp_path / "inst.json"
    save_instance(c, path)
    back = load_instance(path)
    assert instance_distance(c, back) < 1e-12
    assert back.meta == {"family": "test", "psd_shift": 0.25}


def test_load_rejects_asymmetric(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"d": 2, "k": 1, "mats": [[0.0, 1.0, 0.0, 0.0]], "meta": {}}')
    with pytest.raises(ValueError):
        load_instance(path)


def _roundoff_asymmetric_blocks():
    """Three blocks Q diag(1e5 u) Q', d = 30: their largest entry is 7.0e4
    and roundoff leaves max |A - A'| = 5.5e-12."""
    rng = np.random.default_rng(0)
    blocks = []
    for _ in range(3):
        q = np.linalg.qr(rng.standard_normal((30, 30)))[0]
        blocks.append(q @ np.diag(1e5 * rng.uniform(size=30)) @ q.T)
    return np.array(blocks)


def _write_raw_instance(path, mats):
    """mats as an instance file, bit for bit: save_instance would
    symmetrize them first."""
    k, d = mats.shape[:2]
    path.write_text(json.dumps(
        {"d": d, "k": k, "mats": mats.reshape(k, -1).tolist(), "meta": {}}))


@pytest.mark.parametrize("a", [1.0, 1e-4])
def test_load_symmetry_check_does_not_depend_on_units(tmp_path, a):
    mats = a * _roundoff_asymmetric_blocks()
    path = tmp_path / "inst.json"
    _write_raw_instance(path, mats)
    assert np.array_equal(load_instance(path).mats, sym(mats))
    assert main(["solve-sdp", "--instance", str(path)]) == 0
    # an asymmetry of 1e-6 of the largest entry is bad input at any scale
    mats[0, 0, 1] += 1e-6 * np.abs(mats).max()
    _write_raw_instance(path, mats)
    with pytest.raises(ValueError, match="not symmetric"):
        load_instance(path)
    assert main(["solve-sdp", "--instance", str(path)]) == 1
