"""Planted-model tests: sampling determinism, population expectations as
oracles for the empirical blocks, and the closed-form diagnostics."""

import numpy as np
import pytest

from stiefelsum.core import StiefelPoint
from stiefelsum.hppca import (
    build_instance,
    expected_instance,
    hppca_stats,
    load_model,
    make_model,
    pooled_matrix,
    sample,
    save_model,
    snr_distance_bounds,
)


def _model(**kw):
    base = dict(d=4, k=2, lambdas=[4.0, 1.0], variances=[1.0, 4.0],
                group_sizes=[30, 50], seed=7)
    base.update(kw)
    return make_model(**base)


def test_model_validation():
    with pytest.raises(ValueError):
        _model(lambdas=[2.0, 2.0])  # amplitudes must be distinct
    with pytest.raises(ValueError):
        _model(lambdas=[4.0, -1.0])
    with pytest.raises(ValueError):
        _model(variances=[1.0, 0.0])
    with pytest.raises(ValueError):
        _model(group_sizes=[30, 0])
    with pytest.raises(ValueError):
        _model(u_true=np.eye(4)[:, :1])
    # equal noise variances are allowed (homoscedastic case)
    m = _model(variances=[1.0, 1.0])
    assert m.n_groups == 2 and m.n_total == 80


def test_sampling_is_deterministic():
    m = _model()
    a, b = sample(m), sample(m)
    for ga, gb in zip(a.groups, b.groups):
        assert np.array_equal(ga, gb)
    assert a.groups[0].shape == (4, 30)
    assert a.n_total == 80
    ia = build_instance(m, a)
    ib = build_instance(m, b)
    for x, y in zip(ia.mats, ib.mats):
        assert np.array_equal(x, y)
    assert ia.meta["n"] == 80

    shifted = _model(seed=8)
    assert not np.allclose(sample(shifted).groups[0], a.groups[0])


def test_default_u_true_is_reproducible():
    a = make_model(5, 2, [2.0, 1.0], [1.0], [10], seed=3)
    b = make_model(5, 2, [2.0, 1.0], [1.0], [10], seed=3)
    assert np.array_equal(a.u_true.cols, b.u_true.cols)
    assert np.linalg.norm(a.u_true.cols.T @ a.u_true.cols - np.eye(2)) <= 1e-12
    c = make_model(5, 2, [2.0, 1.0], [1.0], [10], seed=4)
    assert not np.allclose(a.u_true.cols, c.u_true.cols)


def test_expected_block_hand_value():
    # single group, lambda = v = 1: w = 1/2, block = diag(1, 1/2) at u = e1
    m = make_model(2, 1, [1.0], [1.0], [10],
                   u_true=StiefelPoint(np.eye(2)[:, :1]))
    exp = expected_instance(m)
    assert exp.mats[0] == pytest.approx(np.diag([1.0, 0.5]), abs=1e-15)


def test_stats_match_expected_blocks():
    m = _model()
    exp = expected_instance(m)
    st = hppca_stats(m)
    for i in range(m.k):
        assert st.sigma_bar[i] == pytest.approx(
            np.linalg.norm(exp.mats[i], 2), abs=1e-10)
        assert st.xi_bar[i] == pytest.approx(float(np.trace(exp.mats[i])),
                                             abs=1e-10)
    assert np.array_equal(st.combined,
                          np.minimum(st.snr_bounds, st.concentration_bounds))
    with pytest.raises(ValueError):
        hppca_stats(m, c_const=0.0)


def test_snr_bound_hand_value_and_every_draw():
    m = _model(lambdas=[1.0, 9.0])
    # block 0: 1/(1/1+1) + 1/(1/4+1) = 0.5 + 0.8
    assert snr_distance_bounds(m)[0] == pytest.approx(1.3, abs=1e-12)

    for seed in range(20):
        mm = _model(seed=seed)
        s = sample(mm)
        inst = build_instance(mm, s)
        pooled = pooled_matrix(mm, s)
        pn = np.linalg.norm(pooled, 2)
        bounds = snr_distance_bounds(mm)
        for i in range(mm.k):
            dist = np.linalg.norm(inst.mats[i] / s.n_total - pooled, 2) / pn
            assert dist <= bounds[i] + 1e-12


def test_noiseless_limit_recovers_subspace():
    m = make_model(5, 2, [2.0, 1.0], [1e-8], [300], seed=11)
    s = sample(m)
    pooled = pooled_matrix(m, s)
    _, vecs = np.linalg.eigh(pooled)
    top = vecs[:, -2:]
    cosines = np.linalg.svd(m.u_true.cols.T @ top, compute_uv=False)
    assert cosines.min() >= 1.0 - 1e-6


def test_empirical_blocks_converge_to_expected():
    m = make_model(4, 2, [3.0, 1.0], [2.0], [100000], seed=5)
    s = sample(m)
    inst = build_instance(m, s)
    exp = expected_instance(m)
    for i in range(m.k):
        err = np.linalg.norm(inst.mats[i] / s.n_total - exp.mats[i], 2)
        assert err <= 0.05 * np.linalg.norm(exp.mats[i], 2)


def test_block_ordering_follows_amplitudes():
    # larger amplitude gets uniformly larger weights, so M_0 - M_1 is PSD
    m = _model(lambdas=[4.0, 1.0])
    inst = build_instance(m, sample(m))
    gap = inst.mats[0] - inst.mats[1]
    assert float(np.linalg.eigvalsh(gap)[0]) >= -1e-10


def test_model_json_roundtrip(tmp_path):
    m = _model()
    p = tmp_path / "model.json"
    save_model(m, p)
    back = load_model(p)
    assert back.d == m.d and back.k == m.k and back.seed == m.seed
    assert np.array_equal(back.lambdas, m.lambdas)
    assert np.array_equal(back.variances, m.variances)
    assert np.array_equal(back.group_sizes, m.group_sizes)
    assert back.u_true.cols == pytest.approx(m.u_true.cols, abs=1e-15)
    a, b = sample(m), sample(back)
    for ga, gb in zip(a.groups, b.groups):
        assert ga == pytest.approx(gb, abs=1e-15)
