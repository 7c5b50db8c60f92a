"""Instance family generators: structural invariants per family."""

import numpy as np
import pytest

from stiefelsum.core import (
    max_commuting_distance,
    normalize_instance,
    rop_error,
    spectral_norms,
)
from stiefelsum.generators import (
    FAMILIES,
    gen_cjd,
    gen_nested,
    gen_random_diagonal,
    gen_random_psd,
    gen_separated_diagonal,
    make_instance,
    rank_two_pair,
)
from stiefelsum.hppca import build_instance, make_model, sample


def _numrank(m, tol=1e-9):
    w = np.linalg.eigvalsh(m)
    return int(np.sum(w > tol * max(1.0, w[-1])))


def test_family_registry():
    assert set(FAMILIES) == {"hppca", "randpsd", "cjd", "diagonal", "nested"}

    model = make_model(8, 2, np.linspace(1.0, 4.0, 2), [1.0, 4.0],
                       [100, 400], seed=3)
    direct = {
        "hppca": normalize_instance(build_instance(model, sample(model))),
        "randpsd": gen_random_psd(8, 2, rank=1, seed=3),
        "cjd": gen_cjd(8, 2, r=3, sigma=1e-2, seed=3),
        "diagonal": gen_random_diagonal(8, 2, seed=3),
        "nested": gen_nested(8, 2, [[1.0, 2.0], [0.0, 1.0]], seed=3)[0],
    }
    params = {"randpsd": {"rank": 1}, "cjd": {"sigma": 1e-2},
              "nested": {"coeffs": [[1, 2], [0, 1]]}}
    for family, want in direct.items():
        got = make_instance(family, 8, 2, params.get(family, {}), seed=3)
        assert all(np.array_equal(a, b) for a, b in zip(got.mats, want.mats))
        assert got.meta == want.meta
    assert direct["nested"].meta["known_optimum"] == 6.0
    # r defaults to min(3, d)
    assert make_instance("cjd", 2, 2, {}, seed=1).meta["r"] == 2

    for family, bad in [("no-such-family", {}), ("cjd", {"sigm": 0.5}),
                        ("randpsd", {"sigma": 0.5}), ("diagonal", {"d": 4}),
                        ("hppca", {"seed": 1}), ("nested", {})]:
        with pytest.raises(ValueError):
            make_instance(family, 8, 2, bad, seed=3)


def test_random_psd_rank_and_normalization():
    c = gen_random_psd(7, 3, seed=5)
    assert c.k == 3 and c.d == 7
    assert max(spectral_norms(c.mats)) == pytest.approx(1.0, abs=1e-12)
    for m in c.mats:
        assert _numrank(m) == 3  # default factor rank is k
    low = gen_random_psd(7, 3, rank=1, seed=5)
    for m in low.mats:
        assert _numrank(m) == 1
    for rank in (0, 2.5, True, "3"):
        with pytest.raises(ValueError, match="rank must be a positive"):
            gen_random_psd(7, 3, rank=rank)
    a = gen_random_psd(6, 2, seed=9)
    b = gen_random_psd(6, 2, seed=9)
    for x, y in zip(a.mats, b.mats):
        assert np.array_equal(x, y)


def test_random_diagonal_is_diagonal():
    c = gen_random_diagonal(6, 3, seed=1)
    for m in c.mats:
        assert np.count_nonzero(m - np.diag(np.diag(m))) == 0
    assert max(spectral_norms(c.mats)) == pytest.approx(1.0, abs=1e-12)


def test_separated_diagonal_margin():
    c = gen_separated_diagonal(8, 4, peak=1.0, base=0.1, seed=2)
    for i, m in enumerate(c.mats):
        v = np.diag(m)
        assert int(np.argmax(v)) == i
        off = np.delete(v, i)
        assert off.max() <= 0.075 + 1e-12  # 0.1 * 0.75 pre-normalization
    with pytest.raises(ValueError):
        gen_separated_diagonal(3, 4)
    with pytest.raises(ValueError):
        gen_separated_diagonal(6, 2, peak=0.1, base=0.1)


def test_cjd_nesting_and_noise_dial():
    c = gen_cjd(10, 3, r=2, sigma=0.0, seed=0)
    assert max_commuting_distance(c) <= 1e-14
    for a, b in zip(c.mats, c.mats[1:]):
        assert float(np.linalg.eigvalsh(a - b)[0]) >= -1e-12

    rev = gen_cjd(10, 3, r=2, sigma=0.0, seed=0, reverse_nesting=True)
    for a, b in zip(rev.mats, rev.mats[1:]):
        assert float(np.linalg.eigvalsh(b - a)[0]) >= -1e-12

    dists = [max_commuting_distance(gen_cjd(10, 3, r=2, sigma=s, seed=1))
             for s in (0.0, 1e-3, 1e-2, 1e-1)]
    assert all(x < y for x, y in zip(dists, dists[1:]))

    noisy = gen_cjd(10, 3, r=2, sigma=0.5, seed=3)
    for a, b in zip(noisy.mats, noisy.mats[1:]):
        assert float(np.linalg.eigvalsh(a - b)[0]) >= -1e-12

    with pytest.raises(ValueError):
        gen_cjd(4, 2, r=5, sigma=0.1)


def test_nested_known_value_and_structure():
    coeffs = np.array([[1.0, 3.0, 0.0], [0.0, 1.0, 3.0], [0.0, 0.0, 1.0]])
    inst, value = gen_nested(8, 3, coeffs, seed=4)
    assert value == pytest.approx(float(np.sum(coeffs ** 2)), abs=1e-12)
    # the top block carries the whole value in its trace
    assert float(np.trace(inst.mats[0])) == pytest.approx(value, abs=1e-9)
    for a, b in zip(inst.mats, inst.mats[1:]):
        assert float(np.linalg.eigvalsh(a - b)[0]) >= -1e-12
    assert max_commuting_distance(inst) > 0.5

    # orthogonal spans (diagonal coefficients) commute
    inst0, _ = gen_nested(8, 3, np.eye(3), seed=4)
    assert max_commuting_distance(inst0) <= 1e-12


def test_nested_input_guards():
    with pytest.raises(ValueError):
        gen_nested(8, 3, np.eye(2))
    bad = np.array([[1.0, 0.0], [0.5, 1.0]])
    with pytest.raises(ValueError):
        gen_nested(8, 2, bad)
    with pytest.raises(ValueError):
        gen_nested(8, 2, np.array([[1.0, 1.0], [0.0, 0.0]]))


def test_rank_two_pair_properties():
    x1, x2 = rank_two_pair()
    s = x1 + x2
    assert float(np.trace(x1)) == pytest.approx(1.0, abs=1e-9)
    assert float(np.trace(x2)) == pytest.approx(1.0, abs=1e-9)
    assert float(np.linalg.eigvalsh(x1)[0]) >= -1e-12
    assert float(np.linalg.eigvalsh(x2)[0]) >= -1e-12
    assert _numrank(x1) == 2 and _numrank(x2) == 2
    w = np.linalg.eigvalsh(s)
    assert w[0] > 1e-9  # the sum has full rank
    assert w[-1] == pytest.approx(1.0, abs=1e-9)
    # far from any rank-one decomposition
    assert rop_error((x1, x2)) > 0.2
