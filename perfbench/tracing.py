"""Per-layer self times, recorded by wrapping layer functions from outside.

Each hook replaces a function at the name through which its callers look
it up (a module global or a class attribute) with a wrapper that times the
call. A span's self time is its duration minus the spans it encloses and
minus the calibrator's sampling handler. Self times gather per operation in
raw seconds and are calibrated with that operation's factor on commit. The
source tree is never modified; `uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

_STATIONARY = "Stationary"
_CERTIFIED = "CertifiedGlobal"


def _count_regularized(counts, result):
    counts["ipm.schur_regularized"] += result[1] > 0.0


def _count_iterations(counts, result):
    counts["ipm.iterations"] += result.iterations


def _count_stmm(counts, result):
    counts["stiefel.stmm_iterations"] += result.iterations
    counts["stiefel.stationary"] += result.status == _STATIONARY


def _count_certified(counts, result):
    counts["certificate.certified"] += result.status == _CERTIFIED


# (module, attribute path, metric, counter on the result)
HOOKS = (
    ("stiefelsum.ipm", "FantopeOps.schur", "ipm.fantope_schur_s", None),
    ("stiefelsum.ipm", "DenseOps.schur", "ipm.dense_schur_s", None),
    ("stiefelsum.ipm", "_factor_schur", "ipm.schur_factor_s", _count_regularized),
    ("stiefelsum.ipm", "_max_step", "ipm.step_length_s", None),
    ("stiefelsum.sdp", "solve_ipm", "ipm.solve_self_s", _count_iterations),
    ("stiefelsum.certificate", "solve_ipm", "ipm.solve_self_s", _count_iterations),
    ("stiefelsum.sdp", "check_kkt", "sdp.kkt_check_s", None),
    ("stiefelsum.certificate", "check_kkt", "sdp.kkt_check_s", None),
    ("stiefelsum.sdp", "extract_candidate", "sdp.extract_s", None),
    ("stiefelsum.stiefel", "stmm_solve", "stiefel.stmm_s", _count_stmm),
    ("stiefelsum.stiefel", "procrustes_project", "stiefel.procrustes_s", None),
    ("stiefelsum.certificate", "certify", "certificate.certify_s", _count_certified),
    ("stiefelsum.sdp", "rop_error", "core.rop_error_s", None),
    ("stiefelsum.core", "rop_error", "core.rop_error_s", None),
    ("stiefelsum.harness", "_is_tight", "harness.tight_check_s", None),
    ("stiefelsum.harness", "_make_instance", "harness.instance_gen_s", None),
)


class Tracer:
    def __init__(self, calibrator):
        self.cal = calibrator
        self.pending = defaultdict(float)  # raw self seconds, current operation
        self.totals = defaultdict(float)  # calibrated self seconds
        self.counts = defaultdict(int)  # call counts and result counters
        self.missing = []  # hooks whose target no longer exists
        self._stack = []
        self._saved = []

    def install(self):
        self.missing.clear()
        for module, path, metric, counter in HOOKS:
            owner = importlib.import_module(module)
            *parents, name = path.split(".")
            for p in parents:
                owner = getattr(owner, p, None)
            fn = getattr(owner, name, None)
            if fn is None:
                self.missing.append(f"{module}.{path}")
                continue
            self._saved.append((owner, name, fn))
            setattr(owner, name, self._wrap(fn, metric, counter))

    def uninstall(self):
        while self._saved:
            owner, name, fn = self._saved.pop()
            setattr(owner, name, fn)

    def _wrap(self, fn, metric, counter):
        stack, pending, counts, cal = self._stack, self.pending, self.counts, self.cal

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[metric + ".calls"] += 1
            child = [0.0]
            stack.append(child)
            stolen0 = cal.stolen_s
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - t0 - (cal.stolen_s - stolen0)
                stack.pop()
                if stack:
                    stack[-1][0] += span
                pending[metric] += span - child[0]
            if counter is not None:
                counter(counts, result)
            return result

        return traced

    def commit(self, factor: float):
        for metric, raw in self.pending.items():
            self.totals[metric] += raw * factor
        self.pending.clear()
