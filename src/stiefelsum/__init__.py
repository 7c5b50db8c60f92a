"""Maximizing sums of heterogeneous quadratic forms over the Stiefel
manifold: ascent solver, semidefinite relaxation with tightness
detection, and a dual certificate of global optimality."""

from .certificate import CertificateResult, certify, classify_inconclusive
from .core import (
    ProblemInstance,
    StiefelPoint,
    instance_distance,
    load_instance,
    max_commuting_distance,
    normalize_instance,
    rop_error,
    save_instance,
)
from .diagonal import (
    TieError,
    goldman_tucker_dual,
    joint_diagonalize,
    solve_assignment,
    tightness_sweep,
)
from .hppca import HppcaModel, build_instance, expected_instance, make_model
from .hppca import sample as sample_hppca
from .sdp import SolveReport, check_kkt, extract_candidate, is_tight, solve_sdp
from .stiefel import SolverConfig, objective, random_stiefel, stmm_solve

__version__ = "0.1.0"

__all__ = [
    "CertificateResult",
    "HppcaModel",
    "ProblemInstance",
    "SolveReport",
    "SolverConfig",
    "StiefelPoint",
    "TieError",
    "build_instance",
    "certify",
    "check_kkt",
    "classify_inconclusive",
    "expected_instance",
    "extract_candidate",
    "goldman_tucker_dual",
    "instance_distance",
    "is_tight",
    "joint_diagonalize",
    "load_instance",
    "make_model",
    "max_commuting_distance",
    "normalize_instance",
    "objective",
    "random_stiefel",
    "rop_error",
    "sample_hppca",
    "save_instance",
    "solve_assignment",
    "solve_sdp",
    "stmm_solve",
    "tightness_sweep",
    "__version__",
]
