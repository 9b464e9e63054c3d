"""Machine-speed correction for the benchmark's timings.

On a shared host the speed of one core drifts by up to +-30% over seconds to
minutes, and a 20-second run cannot average that away. So while the
benchmark measures, a timer signal runs a fixed kernel, independent of
cmnlab, every ``INTERVAL_S``; the kernel's time tracks the machine's speed.
A span of work is reported in reference-speed seconds: its wall time, minus
the kernel runs inside it, times ``REFERENCE_S`` over the median kernel time
of the samples inside and next to it. The kernel mixes interpreter work with
small numpy calls (Hermitian eigenvalues, SVD, tensordot), as cmnlab does.
Raw wall times are printed next to the corrected ones.
"""

import signal
import statistics
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Median kernel time on a 2-vCPU x86-64 Linux VM (Python 3.11, numpy 2.4,
# single-threaded OpenBLAS); it only sets the scale of the reported times.
REFERENCE_S = 0.0044
INTERVAL_S = 0.1

_rng = np.random.default_rng(0)
_HERM = _rng.normal(size=(8, 8)) + 1j * _rng.normal(size=(8, 8))
_HERM = _HERM + _HERM.conj().T
_TENSOR = _rng.normal(size=(4, 4, 4))


def kernel_seconds():
    """Wall time of one run of the fixed kernel."""
    start = perf_counter()
    for _ in range(60):
        np.linalg.eigvalsh(_HERM)
        np.linalg.svd(_TENSOR.reshape(4, 16), compute_uv=False)
        np.tensordot(_TENSOR, _TENSOR, axes=([1, 2], [1, 2]))
        buckets = {}
        for k in range(200):
            buckets[k % 7] = buckets.get(k % 7, 0) + k
    return perf_counter() - start


@contextmanager
def paused():
    """Hold back samples while a child process runs: a sample that shared a
    core with the child would read the machine as slower than it is."""
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})


class SpeedTrack:
    """Context manager that samples the kernel on SIGALRM while it is open."""

    def __init__(self):
        self.starts = []
        self.ends = []
        self._busy = False
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def _sample(self, *_):
        if self._busy:  # a signal that arrives during a sample is dropped
            return
        self._busy = True
        try:
            start = perf_counter()
            kernel_seconds()
            self.starts.append(start)
            self.ends.append(perf_counter())
        finally:
            self._busy = False

    def reference_seconds(self, start, end):
        """Reference-speed time of the work done between two perf_counter
        readings taken while the track was open."""
        first = bisect_left(self.starts, start)
        last = bisect_right(self.starts, end)
        sampling = sum(self.ends[i] - self.starts[i] for i in range(first, last))
        near = range(max(0, first - 1), min(len(self.starts), last + 1))
        kernel = statistics.median(self.ends[i] - self.starts[i] for i in near)
        return (end - start - sampling) * REFERENCE_S / kernel
