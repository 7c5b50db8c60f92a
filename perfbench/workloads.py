"""The three workloads: their inputs, operations and output checks.

An operation is (label, run, check): run() does the timed work and returns
its output; check(output) returns (failure, problems), where failure names
a verdict the program should have reached and did not, and problems lists
independent checks the output failed (see checks.py).

Program entry points are looked up as module attributes at call time
(`sdp.solve_sdp`, `stiefel.stmm_solve`, ...), so the layer tracer's
wrappers see every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from stiefelsum import certificate, harness, sdp, stiefel
from stiefelsum.core import ProblemInstance, StiefelPoint, normalize_instance
from stiefelsum.hppca import build_instance, make_model, sample

import checks

# Base draw of the HPPCA instances of sdp-hppca and certify-hppca; --seed
# turns them by a random orthogonal change of basis (see HppcaCase).
BASE_SEED = 1
# The harness's hppca family: amplitudes linspace(1, 4, k), two noise
# groups with variances (1, 4) and sizes (100, 400).
VARIANCES = (1.0, 4.0)
GROUP_SIZES = (100, 400)

# d = 40 is solved in three bases so that the median operation, which is
# a d = 40 solve, is measured three times per round
SDP_GRID = ((20, 3, 0), (40, 3, 0), (40, 3, 1), (40, 3, 2), (60, 3, 0))
CERTIFY_GRID = tuple((d, k, 0) for k in (3, 5) for d in (40, 60, 100))
# Trial counts keep the three tables well apart in time, so the median
# operation is always the randpsd table, whose IPM iteration count varies
# least with the seed (about 2 % over 12 solves).
TABLES = (
    ("diagonal", {"d": [10], "k": [3]}, 6),
    ("hppca", {"d": [10, 20], "k": [3, 5]}, 12),
    ("randpsd", {"d": [20], "k": [10]}, 12),
)
TIGHT_FRACTION = 0.95  # acceptance test 04's claim for the HPPCA cells


def haar_orthogonal(d: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


@dataclass(frozen=True)
class HppcaCase:
    """A fixed HPPCA draw in a basis drawn from the run's seed.

    Conjugating every M_i by one orthogonal Q maps the relaxation, the
    StMM iterates and the certificate onto themselves, so the seed changes
    every input matrix while the work per operation (IPM and StMM iteration
    counts) stays that of the base draw. Run-to-run spread then measures
    the machine, not the luck of the draw."""

    label: str
    inst: ProblemInstance
    planted: np.ndarray  # Q u_true
    start: StiefelPoint  # Q U0, the StMM start

    @classmethod
    def make(cls, d: int, k: int, basis: int, seed: int) -> "HppcaCase":
        model = make_model(d, k, np.linspace(1.0, 4.0, k), list(VARIANCES),
                           list(GROUP_SIZES), seed=BASE_SEED)
        base = normalize_instance(build_instance(model, sample(model)))
        q = haar_orthogonal(d, np.random.default_rng([seed, d, k, basis]))
        u0 = stiefel.random_stiefel(d, k, np.random.default_rng([BASE_SEED, d, k]))
        return cls(
            label=f"d{d}-k{k}" + (f"-q{basis}" if basis else ""),
            inst=ProblemInstance(tuple(q @ m @ q.T for m in base.mats)),
            planted=q @ model.u_true.cols,
            start=StiefelPoint(q @ u0.cols),
        )


class SdpHppca:
    """solve_sdp then extract_candidate on HPPCA, k = 3, d in {20, 40, 60}."""

    def __init__(self, seed: int):
        self.cases = [HppcaCase.make(*cell, seed) for cell in SDP_GRID]

    def ops(self):
        return [(c.label, partial(self._run, c), partial(self._check, c))
                for c in self.cases]

    @staticmethod
    def _run(case):
        rep = sdp.solve_sdp(case.inst)
        point, _, _ = sdp.extract_candidate(rep)
        return rep, point

    @staticmethod
    def _check(case, out):
        rep, point = out
        if rep.status != "Optimal":
            return f"solve_sdp status {rep.status}", []
        return None, checks.check_sdp(
            case.inst.mats, rep.primal.x_blocks, rep.value, rep.dual.y,
            rep.dual.nu, u_extracted=point.cols, u_planted=case.planted)


class CertifyHppca:
    """stmm_solve from a random start, then certify, on HPPCA,
    k in {3, 5}, d in {40, 60, 100}."""

    def __init__(self, seed: int):
        self.cases = [HppcaCase.make(*cell, seed) for cell in CERTIFY_GRID]
        self.cfg = stiefel.SolverConfig.for_hppca()

    def ops(self):
        return [(c.label, partial(self._run, c), partial(self._check, c))
                for c in self.cases]

    def _run(self, case):
        trace = stiefel.stmm_solve(case.inst, case.start, self.cfg)
        return trace, certificate.certify(case.inst, trace.final)

    @staticmethod
    def _check(case, out):
        trace, res = out
        if res.status != "CertifiedGlobal":
            return f"certify status {res.status}", []
        return None, checks.check_certificate(
            case.inst.mats, trace.final.cols, res.nu_witness,
            u_planted=case.planted)


class TablesSmall:
    """harness.run_rop_table, jobs = 1, over three instance families."""

    def __init__(self, seed: int):
        self.seed = seed

    def ops(self):
        return [(table[0], partial(self._run, table), partial(self._check, table))
                for table in TABLES]

    def _run(self, table):
        # rop_trial keeps only summary fields, so each (instance, report)
        # is captured at the name rop_trial calls, for the checks
        family, grid, trials = table
        solved = []
        solve = harness.solve_sdp

        def capture(inst, cfg=None):
            rep = solve(inst, cfg)
            solved.append((inst, rep))
            return rep

        harness.solve_sdp = capture
        try:
            rows, _ = harness.run_rop_table(family, grid, trials,
                                            seed=self.seed, jobs=1)
        finally:
            harness.solve_sdp = solve
        return rows, solved

    @staticmethod
    def _check(table, out):
        family, grid, trials = table
        rows, solved = out
        expected = trials * len(grid["d"]) * len(grid["k"])
        if len(solved) != expected:
            return f"{len(solved)} of {expected} trials solved", []
        failed = [rep.status for _, rep in solved if rep.status != "Optimal"]
        if failed:
            return f"solve_sdp status {failed[0]} in {len(failed)} trials", []
        problems = []
        for inst, rep in solved:
            blocks = rep.primal.x_blocks
            problems += checks.check_table_solve(inst.mats, blocks, rep.value)
            if family == "diagonal":
                problems += checks.check_diagonal_value(inst.mats, rep.value)
        if family == "hppca":
            tight = sum(checks.is_tight(rep.primal.x_blocks) for _, rep in solved)
            if tight < TIGHT_FRACTION * len(solved):
                problems.append(f"only {tight} of {len(solved)} HPPCA solves tight")
        reported = sum(row["trials"] for row in rows)
        if reported != expected:
            problems.append(f"table rows count {reported} trials, not {expected}")
        return None, problems


WORKLOADS = {
    "sdp-hppca": SdpHppca,
    "certify-hppca": CertifyHppca,
    "tables-small": TablesSmall,
}
