"""Certificate tests: verdicts on points whose global status is known by
construction (diagonal instances where the optimum is an assignment)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stiefelsum import certificate, core, stiefel
from stiefelsum.certificate import (
    CERT_TOL,
    VALUE_MARGIN,
    _complete_basis,
    _induced_pair,
    _margin_solve,
    _reduce,
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
    objective,
    random_stiefel,
    riemannian_gradient,
    stmm_solve,
)


def test_certify_computes_the_gate_unit_once(monkeypatch):
    # one batched eigvalsh of the k blocks gives both the gate unit and the
    # PSD shift; certify's slack gate, its program and its KKT check share
    # them, and certify adds no spectral norm of its own. A fresh
    # instance, since stmm_solve has already cached the spectra on c.
    c = gen_separated_diagonal(6, 3, seed=2)
    u = stmm_solve(c, random_stiefel(6, 3, np.random.default_rng(2))).final
    fresh = ProblemInstance(c.mats)
    norm, eigvalsh = np.linalg.norm, np.linalg.eigvalsh
    spectral_norms = core.spectral_norms
    calls = []

    def counting(a, ord=None, *args, **kwargs):
        calls.append((ord, np.shape(a)))
        return norm(a, ord, *args, **kwargs)

    def counting_eig(a, *args, **kwargs):
        calls.append(("eigvalsh", np.shape(a)))
        return eigvalsh(a, *args, **kwargs)

    def counting_stack(stack):
        calls.append(("stack", np.shape(stack)))
        return spectral_norms(stack)

    monkeypatch.setattr(np.linalg, "norm", counting)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eig)
    monkeypatch.setattr(core, "spectral_norms", counting_stack)
    assert certify(fresh, u).status == "CertifiedGlobal"
    assert (fresh.gate_unit, fresh.psd_shift) == (1.0, 0.0)
    assert [(o, s) for o, s in calls
            if o in (2, "stack") or (o == "eigvalsh" and len(s) == 3)] == [
        ("eigvalsh", (3, 6, 6))]
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
    # the deflated margin, max over nu >= 0 of min(nu - 3, 1 - nu) = -1, is
    # far below the gate, so the path-following bound stops the solve
    assert res.meta["ipm"]["status"] == "infeasible"
    assert res.meta["reason"] == "least slack below -CERT_TOL * s"
    assert res.t_star == res.min_eig_slacks.min()
    # at the returned nu neither margin beats the optimum -1; the full
    # block's zero corner makes its least slack at most that
    assert res.meta["ipm"]["margin"] <= -1.0 + 1e-12
    assert res.t_star <= -1.0 + 1e-12
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
        primal=SdpPrimalSolution(x_blocks=np.array(blocks), value=0.0),
        dual=SdpDualSolution(y=zero, z_blocks=np.zeros((k, d, d)),
                             nu=np.zeros(k)),
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
    # at U = [(e1 + e2)/sqrt(2), (e2 - e1)/sqrt(2)], L = [[1.5, 0], [1.5, 0]]
    # and sym(L) has the least eigenvalue (1.5 - sqrt(4.5)) / 2 = -0.311,
    # below -psd_shift = 0; M_i - 2 I moves L and -psd_shift by -2 and
    # t_star, the least eigenvalue of L + psd_shift I, not at all
    e1, e2 = np.eye(3)[:, 0], np.eye(3)[:, 1]
    u = StiefelPoint(np.column_stack([e1 + e2, e2 - e1]) / np.sqrt(2.0))
    for shift in (0.0, 2.0):
        c = ProblemInstance((np.diag([0.0, 3.0, 1.0]) - shift * np.eye(3),
                             -shift * np.eye(3)))
        res = certify(c, u)
        assert res.status == "Inconclusive"
        assert res.meta["reason"] == "multiplier matrix indefinite"
        assert "ipm" not in res.meta  # decided before any solve
        assert res.t_star == pytest.approx((1.5 - np.sqrt(4.5)) / 2,
                                           abs=1e-12)


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




def _arrowhead(a, m, z):
    """Arrowhead m of the stack a at z, as a dense matrix."""
    n, p = a.border.shape[1:]
    out = np.zeros((n + p, n + p))
    out[:n, :n] = a.corner[m] + np.diag(a.ccoef[m] @ z)
    out[:n, n:] = a.border[m]
    out[n:, :n] = a.border[m].T
    out[n:, n:] = np.diag(a.tcoef[m] @ z - a.theta[m])
    return out


def _multipliers(c, u):
    """sym(L), for the multiplier matrix L = U'G / 2 at u."""
    return sym(0.5 * (u.T @ stiefel._evaluate(c.mats, u)[0]))


def _random_setup(d, k, seed):
    """A random instance, point, multiplier vector and margin; the point is
    not stationary, so no row of any block vanishes."""
    rng = np.random.default_rng(seed)
    c = gen_random_psd(d, k, seed=seed)
    u = random_stiefel(d, k, rng).cols
    lam_s = _multipliers(c, u)
    return c, u, lam_s, rng.uniform(0.0, 2.0, k), float(rng.standard_normal())


@given(st.integers(1, 7), st.integers(1, 7), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_arrowheads_are_the_lmi_blocks_in_the_eigenbases(d, k, seed):
    k = min(k, d)
    c, u, lam_s, nu, t = _random_setup(d, k, seed)
    q = _complete_basis(u)
    assert np.array_equal(q[:, :k], u)
    assert np.allclose(q.T @ q, np.eye(d), atol=1e-14)
    scale = 2.5
    lmis = _reduce(c.mats / scale, u, lam_s / scale)
    z = np.append(nu, t) / scale
    core_mat = u @ (lam_s - np.diag(nu)) @ u.T
    for j, m in enumerate(c.mats):
        # block j of the LMI system, less t I, in the basis [U, W V_j]
        # with W' M_j W = V_j diag(theta_j) V_j'
        w = q[:, k:]
        theta, v = np.linalg.eigh(sym(w.T @ m @ w))
        border = -u.T @ m @ w @ v
        arrow = np.zeros((d, d))
        arrow[:k, :k] = (lam_s - u.T @ m @ u - np.diag(nu)
                         + (nu[j] - t) * np.eye(k))
        arrow[:k, k:] = border
        arrow[k:, :k] = border.T
        arrow[k:, k:] = np.diag(nu[j] - t - theta)
        basis = np.eye(d)
        basis[k:, k:] = v
        lmi = core_mat + (nu[j] - t) * np.eye(d) - m
        assert np.allclose(basis @ arrow @ basis.T, q.T @ lmi @ q,
                           atol=1e-12)
        # the program holds it deflated: row and column j are the
        # identity's, the rest is the arrowhead over scale
        keep = np.arange(d) != j
        got = _arrowhead(lmis, j, z)
        assert np.allclose(got[np.ix_(keep, keep)],
                           arrow[np.ix_(keep, keep)] / scale, atol=1e-12)
        assert np.array_equal(got[j], np.eye(d)[j])
    # then the multiplier block L - D_nu - t I, with a tail of ones
    got = _arrowhead(lmis, k, z)
    assert np.allclose(got[:k, :k], (lam_s - np.diag(nu) - t * np.eye(k))
                       / scale, atol=1e-12)
    assert np.array_equal(got[k:], np.eye(d)[k:])


@given(st.integers(2, 7), st.integers(1, 7), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_deflated_blocks_bound_the_full_blocks(d, k, seed):
    # a deflated block is a principal submatrix of its full block, so its
    # least eigenvalue is at least the full block's (Cauchy interlacing)
    k = min(k, d)
    c, u, lam_s, nu, _ = _random_setup(d, k, seed)
    lmis = _reduce(c.mats, u, lam_s)
    slacks = _induced_pair(c.mats, u, lam_s, nu)[1]
    for j in range(k):
        keep = np.arange(d) != j
        block = _arrowhead(lmis, j, np.append(nu, 0.0))[np.ix_(keep, keep)]
        norm = max(1.0, np.linalg.norm(block, 2))
        assert np.linalg.eigvalsh(block)[0] >= slacks[j] - 1e-12 * norm


@given(st.sampled_from(["hppca", "randpsd"]), st.integers(3, 12),
       st.integers(1, 4), st.sampled_from([3, 30, 2000]),
       st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_bound_stop_never_fires_on_a_certifiable_point(family, d, k, steps,
                                                       seed):
    # points short of, near and at stationarity, some of them suboptimal
    # local maxima: the bound stop must never end a solve that, run on to
    # MARGIN_TOL without it, clears the gate
    k = min(k, d)
    c = (gen_hppca(d, k, seed=seed % 1000) if family == "hppca"
         else gen_random_psd(d, k, seed=seed))
    start = random_stiefel(d, k, np.random.default_rng(seed))
    u = stmm_solve(c, start, SolverConfig(max_iters=steps)).final.cols
    lam_s = _multipliers(c, u)
    s, shift = c.gate_unit, c.psd_shift
    lmis = _reduce((c.mats + shift * np.eye(d)) / s, u,
                   (lam_s + shift * np.eye(k)) / s)

    def clears(z):
        slacks = _induced_pair(c.mats, u, lam_s, z[:k] * s - shift)[1]
        return slacks.min() >= -CERT_TOL * s

    floor = -CERT_TOL
    bounded = _margin_solve(lmis, floor, clears)
    unbounded = _margin_solve(lmis, -np.inf, clears)
    assert unbounded.status in ("feasible", "optimal")
    if bounded.status == "infeasible":
        assert unbounded.status == "optimal"
        # the optimum it ran to is below the floor, as the bound said
        assert unbounded.z[k] < floor


# k = d (no tails), k = 1 (no corners after deflation) and d = k = 1
@pytest.mark.parametrize("d,k", [(3, 3), (4, 4), (5, 1), (1, 1), (6, 2)])
def test_certify_edge_shapes(d, k):
    c = gen_separated_diagonal(d, k, seed=d)
    u = StiefelPoint(np.eye(d)[:, :k])  # the unique optimum, by construction
    res = certify(c, u)
    assert res.status == "CertifiedGlobal"
    assert res.meta["ipm"]["status"] == "feasible"
    assert res.meta["ipm"]["shift"] == 0.0
    # a positive deflated margin: the relaxation's optimum is unique and
    # rank one; the full blocks keep their zero row, so t_star is at most 0
    assert res.meta["ipm"]["margin"] > 0.0
    assert -CERT_TOL * c.gate_unit <= res.t_star <= 1e-12


@pytest.mark.parametrize("c_shift", [-0.5, -2.0, 3.0])
@pytest.mark.parametrize("d,k", [(3, 3), (4, 4), (1, 1)])
def test_certify_at_k_equals_d_does_not_depend_on_a_shift(d, k, c_shift):
    # M_i + c I moves L and every witness by c and changes no program: the
    # optimum stays certified, also where -c exceeds every eigenvalue
    c = gen_separated_diagonal(d, k, seed=d)
    shifted = ProblemInstance(c.mats + c_shift * np.eye(d))
    res = certify(shifted, StiefelPoint(np.eye(d)[:, :k]))
    assert res.status == "CertifiedGlobal"
    assert res.meta["reason"] == ""


@pytest.mark.parametrize("d,k", [(3, 3), (5, 1), (6, 2)])
def test_certify_refuses_a_non_stationary_point(d, k):
    # the optimum with coordinates 0 and 1 (k = d) or 0 and d - 1 turned by
    # 0.3 rad: its rows j no longer vanish, and no nu clears the gate
    c = gen_separated_diagonal(d, k, seed=d)
    a, b = 0, (1 if k == d else d - 1)
    turn = np.eye(d)
    turn[[a, a, b, b], [a, b, a, b]] = [np.cos(0.3), -np.sin(0.3),
                                        np.sin(0.3), np.cos(0.3)]
    u = StiefelPoint(turn[:, :k])
    assert np.linalg.norm(riemannian_gradient(c, u)) > 0.1
    res = certify(c, u)
    assert res.status == "Inconclusive" and res.precondition_weak
    assert res.meta["reason"] == "least slack below -CERT_TOL * s"
    # the deflated margin stays positive, so the solve runs to MARGIN_TOL;
    # at k = d its optimum is degenerate and the Newton system is shifted
    assert res.meta["ipm"]["status"] == "optimal"
    assert res.meta["ipm"]["margin"] > 0.0
    assert (res.meta["ipm"]["shift"] > 0.0) == (k == d)


def test_feasibility_solve_stops_once_the_gate_clears(monkeypatch):
    c = gen_hppca(20, 3, seed=3)
    u = stmm_solve(c, random_stiefel(20, 3, np.random.default_rng(3)),
                   SolverConfig.for_hppca()).final
    calls = []

    def counting(*args):
        calls.append(args)
        return _induced_pair(*args)

    monkeypatch.setattr(certificate, "_induced_pair", counting)
    res = certify(c, u)
    assert res.status == "CertifiedGlobal"
    assert res.meta["ipm"]["status"] == "feasible"
    assert res.meta["reason"] == ""
    assert res.t_star >= -CERT_TOL * c.gate_unit
    # the gate is tried only where the margin is near or above zero, and
    # the verdict reuses the last try's slacks, those of the returned nu
    assert 1 <= len(calls) <= res.meta["ipm"]["iterations"] + 1
    lam_s = _multipliers(c, u.cols)
    assert np.array_equal(res.min_eig_slacks,
                          _induced_pair(c.mats, u.cols, lam_s,
                                        res.nu_witness)[1])
    # the same program with a gate that never clears runs on to MARGIN_TOL
    scale, shift = c.gate_unit, c.psd_shift
    lmis = _reduce((c.mats + shift * np.eye(c.d)) / scale, u.cols,
                   (lam_s + shift * np.eye(c.k)) / scale)
    full = _margin_solve(lmis, -np.inf, lambda z: False)
    assert full.status == "optimal"
    assert res.meta["ipm"]["iterations"] < full.iterations
    assert 0.0 <= res.meta["ipm"]["margin"] <= full.z[-1] * scale


@pytest.mark.parametrize("a", [1.0, 1e10])
def test_verdicts_do_not_depend_on_the_units(a):
    # every gate is in units of c.gate_unit, so scaling the M_i changes no
    # verdict, flag or classification
    c = gen_hppca(20, 3, seed=3)
    u = stmm_solve(c, random_stiefel(20, 3, np.random.default_rng(3)),
                   SolverConfig.for_hppca()).final
    res = certify(ProblemInstance(a * c.mats), u)
    assert res.status == "CertifiedGlobal" and not res.precondition_weak
    # the acceptance suite's 07b pair, in a random basis
    q = np.linalg.qr(np.random.default_rng(7).standard_normal((3, 3)))[0]
    pair = ProblemInstance(tuple(a * q @ np.diag(v) @ q.T
                                 for v in ([3.0, 1.0, 0.0], [0.0, 2.0, 1.0])))
    swapped = StiefelPoint(q @ np.eye(3)[:, 1:])
    res = certify(pair, swapped)
    assert res.status == "Inconclusive" and not res.precondition_weak
    rep = solve_sdp(pair)
    assert classify_inconclusive(pair, swapped, rep) == "SuboptimalStationary"


_barrier = certificate._barrier


def _no_trial_point(a, z, derivatives=False):
    """_barrier at the iterates, None at every line-search trial point."""
    return _barrier(a, z, derivatives) if derivatives else None


def _nan_factor(build):
    return np.full_like(build(), np.nan), 0.0


def _unfactorable(build):
    raise np.linalg.LinAlgError("not positive definite")


# each numerical_failure exit of _margin_solve: no barrier value at the
# start, an unfactorable Newton system, a non-finite Newton decrement, the
# step cap, and a line search that finds no interior point
@pytest.mark.parametrize("name,patch", [
    ("_barrier", lambda *args, **kwargs: None),
    ("_factor_schur", _unfactorable),
    ("_factor_schur", _nan_factor),
    ("_MAX_NEWTON", 0),
    ("_barrier", _no_trial_point),
])
def test_every_margin_solve_failure_is_a_status(monkeypatch, name, patch):
    c = gen_separated_diagonal(6, 2, seed=6)
    u = StiefelPoint(np.eye(6)[:, :2])  # certified when nothing is patched
    monkeypatch.setattr(certificate, name, patch)
    res = certify(c, u)
    assert res.status == STATUS_NUMERICAL_FAILURE
    assert res.nu_witness is None and np.isnan(res.t_star)
    assert np.isnan(res.min_eig_slacks).all()
    assert res.meta["reason"] == "feasibility solve stalled"
    assert res.meta["ipm"]["status"] == "numerical_failure"


def test_barrier_is_none_where_its_value_overflows():
    # one 1 x 1 corner: at nu = 1.5e308 its diagonal overflows to inf,
    # which Cholesky passes, so the log det is what is not finite
    lmis = certificate._Arrowheads(
        corner=np.array([[[1.5e308]]]), ccoef=np.array([[[1.0, 0.0]]]),
        border=np.zeros((1, 1, 1)), theta=np.zeros((1, 1)),
        tcoef=np.array([[1.0, 0.0]]))
    assert np.isfinite(_barrier(lmis, np.array([1.0, 0.0])))
    with np.errstate(over="ignore"):
        assert _barrier(lmis, np.array([1.5e308, 0.0])) is None


def test_a_pair_that_fails_verification_is_not_certified(monkeypatch):
    c = gen_separated_diagonal(6, 2, seed=6)
    bad = KktResiduals(1.0, 0.0, 0.0, 0.0, 0.0)
    monkeypatch.setattr(certificate, "check_kkt", lambda *args: bad)
    res = certify(c, StiefelPoint(np.eye(6)[:, :2]))
    assert res.status == "Inconclusive" and res.nu_witness is None
    assert res.meta["reason"] == "constructed pair failed verification"
    assert res.kkt_residuals is bad
    assert res.t_star >= -CERT_TOL * c.gate_unit


def test_non_finite_gate_matrices_are_a_status(monkeypatch):
    # every least eigenvalue of the gates raises, as least_eigenvalues
    # does on a matrix with a NaN or an inf
    def not_finite(stack):
        raise np.linalg.LinAlgError("matrix not finite")

    monkeypatch.setattr(certificate, "least_eigenvalues", not_finite)
    res = certify(ProblemInstance((np.diag([3.0, 1.0]),)),
                  StiefelPoint(np.array([[1.0], [0.0]])))
    assert res.status == STATUS_NUMERICAL_FAILURE
    assert res.nu_witness is None and np.isnan(res.t_star)
    assert res.meta["reason"] == "gate evaluation failed: matrix not finite"

