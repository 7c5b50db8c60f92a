"""Reference kernel and drift calibration.

The host's speed drifts by tens of percent in phases lasting seconds, so a
raw wall-clock time says as much about the neighbours as about the program.
Every timed operation is therefore measured together with a fixed reference
kernel: a short burst of numpy/LAPACK work that never calls stiefelsum. The
kernel runs just before and just after the operation and, for operations
longer than SAMPLE_PERIOD_S, also every SAMPLE_PERIOD_S while it runs (from
a SIGALRM handler; the handler's own time is taken out of the operation's
time). An operation's calibrated time is

    calibrated_s = raw_s * NOMINAL_S / mean(reference times around and during it)

The kernel's make-up, its inputs and NOMINAL_S are frozen: changing any of
them changes every calibrated figure and is a benchmark change.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Close to the kernel's time on the reference machine when it is quiet
# (see README.md). Frozen, like the kernel and the sampling period.
NOMINAL_S = 0.0050
SAMPLE_PERIOD_S = 0.1
_BRACKET_REPEATS = 3
_SAMPLE_CAPACITY = 1 << 16  # a 180 s run takes under 3 000 samples


class ReferenceKernel:
    """Three parts of 1-2 ms each on the reference machine, one per kind
    of work the program does: LAPACK eigvalsh (three of n = 120), a fancy-
    index gather of the shape the relaxation's Schur assembly performs
    (d = 34), and a loop of small matrix-vector products and thin SVDs like
    StMM's polar steps (d = 40, k = 5). Big LAPACK calls alone slow down
    less than the program does when the host is busy; the small-call loop
    tracks the interpreter-bound part.

    No call allocates 128 KiB or more (the gather writes into a buffer kept
    here), to keep sampling's effect on the program's heap small."""

    def __init__(self):
        rng = np.random.default_rng(20261018)
        self._syms = [0.5 * (b + b.T) for b in rng.standard_normal((3, 120, 120))]
        src = rng.standard_normal((34, 34))
        self._cols, _ = np.triu_indices(34)
        self._rows = src[self._cols]
        self._gathered = np.empty((self._cols.size, self._cols.size))
        self._mats = [0.5 * (m + m.T) for m in rng.standard_normal((5, 40, 40))]
        self._start = np.linalg.qr(rng.standard_normal((40, 5)))[0]

    def run(self) -> float:
        t0 = time.perf_counter()
        for s in self._syms:
            np.linalg.eigvalsh(s)
        np.take(self._rows, self._cols, axis=1, out=self._gathered).sum()
        u = self._start
        for _ in range(45):
            g = np.column_stack([m @ u[:, j] for j, m in enumerate(self._mats)])
            w, _, vt = np.linalg.svd(g, full_matrices=False)
            u = w @ vt
        return time.perf_counter() - t0


class Calibrator:
    """Times operations against the reference kernel.

    Reference times go into a buffer allocated once, so the sampling
    handler never grows an object on the heap in the middle of an
    operation. `stolen_s` accumulates the time spent in the handler, so
    that spans measured inside an operation (the layer tracer) can leave
    it out."""

    def __init__(self):
        self.kernel = ReferenceKernel()
        self.stolen_s = 0.0
        self._samples = np.empty(_SAMPLE_CAPACITY)
        self._count = 0
        for _ in range(_BRACKET_REPEATS):
            self.kernel.run()

    @property
    def ref_samples(self) -> np.ndarray:
        return self._samples[:self._count]

    def _record(self, seconds: float):
        if self._count == self._samples.size:
            raise RuntimeError("reference sample buffer full")
        self._samples[self._count] = seconds
        self._count += 1

    def _bracket(self):
        """Record the median of a few back-to-back kernel runs."""
        self._record(statistics.median(
            self.kernel.run() for _ in range(_BRACKET_REPEATS)))

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self._record(self.kernel.run())
        self.stolen_s += time.perf_counter() - t0

    def time(self, fn, sample: bool = True):
        """Run fn() once; return (result, raw_s, factor).

        raw_s excludes the sampling handler; factor = NOMINAL_S / mean
        reference time, so raw_s * factor is the calibrated time."""
        first = self._count
        self._bracket()
        previous = None
        if sample:
            previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        stolen0 = self.stolen_s
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            t1 = time.perf_counter()
            if sample:
                signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
                signal.signal(signal.SIGALRM, previous)
        raw = (t1 - t0) - (self.stolen_s - stolen0)
        self._bracket()
        return result, raw, NOMINAL_S / float(self._samples[first:self._count].mean())
