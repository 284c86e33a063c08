"""Machine-speed probe and chunk timer.

The benchmark runs on shared machines whose speed drifts by tens of
percent within minutes, so a raw rate measured at one time does not
repeat at another. While a run measures, ``SpeedProbe`` interrupts the
main thread every ``INTERVAL_S`` with SIGALRM and times a fixed kernel
that does the same kind of work as the workload's hot path: small numpy
calls and Python arithmetic for the interpreter-bound workloads, or the
complex GEMM shape of the training cascade. ``ChunkTimer`` subtracts the
probe's own time from each chunk and scales the chunk's rate by the
probe's median duration during that chunk over ``REFERENCE_S``: the rate
the chunk would have had on a machine where the kernel takes
``REFERENCE_S``. The probe runs no simdoa code, so a change to the
package moves the normalized rate as it moves the raw one as long as it
leaves the probe's own speed alone. A change that pollutes the caches
slows the probe by a few percent, and one that leaves the CPU idle (a
sleep) by about ten, so the normalized rate understates such changes by
that much; run records and the traced run's ``bench.raw_ops_per_s`` and
``bench.probe_median_s`` keep the raw figures so that can be checked.
Over ten seeds per workload on a 2-core x86_64 VM,
normalizing cut the run-to-run spread of ``ops_per_s`` from 5-15% to
4-6%. For fit-4x4's set-up time it cut the spread from 13% to 8% with
the GEMM kernel but raised it to 17% with the interpreter kernel, so
set-up is normalized by the workload's own kernel too.
"""

import gc
import math
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
# Kernel duration the normalized rates are scaled to: a round figure near
# both kernels' median on the 2-core x86_64 VM the baseline came from.
REFERENCE_S = 4.0e-4


def _interpreter_kernel():
    a = np.arange(16.0)

    def run():
        acc = 0.0
        for i in range(60):
            acc += float(np.abs(np.exp(1j * a * (i * 1e-3)).sum())) + math.sqrt(i)
        return acc

    return run


def _gemm_kernel():
    # an M x M layer matrix times the M x N field, as in the 4x4 cascade
    w = np.exp(0.01j * np.add.outer(np.arange(225.0), np.arange(225.0)))
    x = np.exp(0.02j * np.add.outer(np.arange(225.0), np.arange(16.0)))

    def run():
        for _ in range(4):
            y = w @ x
        return y

    return run


KERNELS = {"interpreter": _interpreter_kernel, "gemm": _gemm_kernel}


class SpeedProbe:
    """SIGALRM-driven timing of a fixed kernel on the main thread."""

    def __init__(self, kernel, interval=INTERVAL_S):
        self.interval = interval
        self._run = KERNELS[kernel]()
        self.samples = []
        self.spent = 0.0
        self._old = None

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        # a collection of the workload's garbage would land in the sample
        collecting = gc.isenabled()
        gc.disable()
        try:
            self._run()
            self.samples.append(time.perf_counter() - t0)
        finally:
            if collecting:
                gc.enable()
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        return False


class ChunkTimer:
    """Collects (ops, net seconds, median probe seconds or None) per timed chunk."""

    def __init__(self, probe=None):
        self.probe = probe
        self.chunks = []

    def start(self):
        p = self.probe
        return time.perf_counter(), (p.spent, len(p.samples)) if p else (0.0, 0)

    def stop(self, token, ops):
        t0, (spent0, n0) = token
        secs = time.perf_counter() - t0
        p = self.probe
        probe_s = None
        if p is not None:
            secs -= p.spent - spent0
            during = p.samples[n0:]
            probe_s = statistics.median(during) if during else None
        self.chunks.append((ops, secs, probe_s))


def raw_rates(chunks):
    return [ops / secs for ops, secs, _ in chunks if secs > 0]


def normalized_rates(chunks):
    """Chunk rates scaled to REFERENCE_S; a chunk no probe landed in uses the run's median."""
    probed = [p for _, _, p in chunks if p is not None]
    fallback = statistics.median(probed) if probed else REFERENCE_S
    return [ops / secs * (p if p is not None else fallback) / REFERENCE_S
            for ops, secs, p in chunks if secs > 0]
