"""Timings in seconds at reference speed.

The shared machine this benchmark was built on changes speed every few
seconds, by up to 1.6 times and alike for interpreter and LAPACK work, and
a slow phase can outlast a whole run.  So a short fixed kernel, independent
of degjc, is timed before and after every operation, and inside a long
operation at most every ``INTERVAL_S`` at a call into the oracle or the
witness.  Each stretch of an operation between two kernel samples is scaled
by ``REF_S`` (the kernel's time on the reference machine when it is not
slowed) over the mean of the two samples; the kernel's own time is left out.
"""

import statistics
import time

import tracing

REF_S = 0.0025
REPS = 3
INTERVAL_S = 0.5
# calls at which a long operation may take a kernel sample
PACE_TARGETS = (
    ("degjc.oracle", "build_hamiltonian"),
    ("degjc.oracle", "two_qubit_reduced"),
    ("degjc.oracle", "field_field_reduced"),
    ("degjc.entanglement", "negativity"),
)


class Calibration:
    """A fixed mix of LAPACK, BLAS and interpreter work."""

    def __init__(self, np):
        rng = np.random.default_rng(0)
        self.np = np
        self.a = rng.normal(size=(100, 100)) + 1j * rng.normal(size=(100, 100))
        self.h = self.a + self.a.conj().T
        self.samples = []

    def sample(self):
        """Median of a few kernel times, which sheds a single burst."""
        times = []
        for _ in range(REPS):
            start = time.perf_counter()
            self.np.linalg.eigvalsh(self.h)
            self.a @ self.a
            total = 0
            for k in range(30_000):
                total += k * k
            times.append(time.perf_counter() - start)
        self.samples.append(statistics.median(times))
        return self.samples[-1]

    def scaled(self, seconds, before, after):
        """``seconds`` of work between kernel samples ``before`` and ``after``."""
        return seconds * 2.0 * REF_S / (before + after)

    def scale(self):
        """Reference over the run's typical kernel time, for totals that
        are not split at kernel samples (per-layer times)."""
        return REF_S / statistics.median(self.samples)


class Pacer:
    """Times operations in seconds at reference speed."""

    def __init__(self, calibration):
        self.calibration = calibration
        self.segments = []
        self._start = None
        self._before = None
        self._installed = []

    def install(self):
        self._installed = tracing.patch(PACE_TARGETS, self._wrap)

    def uninstall(self):
        tracing.unpatch(self._installed)
        self._installed = []

    def _wrap(self, original, func_name):
        def wrapper(*args, **kwargs):
            self._tick()
            return original(*args, **kwargs)

        wrapper.__wrapped__ = original
        wrapper.__name__ = original.__name__
        return wrapper

    def begin(self, before):
        """Start timing; ``before`` is the kernel sample just taken."""
        self.segments = []
        self._before = before
        self._start = time.perf_counter()

    def _tick(self):
        if self._start is None:
            return
        now = time.perf_counter()
        if now - self._start < INTERVAL_S:
            return
        sample = self.calibration.sample()
        self.segments.append((now - self._start, self._before, sample))
        self._before = sample
        self._start = time.perf_counter()

    def end(self):
        """Stop timing; returns (scaled seconds, the closing kernel sample)."""
        elapsed = time.perf_counter() - self._start
        self._start = None
        after = self.calibration.sample()
        self.segments.append((elapsed, self._before, after))
        return sum(self.calibration.scaled(t, b, a) for t, b, a in self.segments), after
