"""A reference clock for timing on a shared host.

On a shared virtual machine the speed of a vCPU changes every few tens of
milliseconds (most likely other tenants busy on the same physical core),
and the share of slow stretches drifts over minutes, so the same
deterministic pass can take 50% longer a few minutes later.  `RefClock`
samples that speed while a pass runs: a SIGALRM timer interrupts the pass
every `PERIOD_S` seconds of wall time and runs a fixed reference kernel in
the signal handler, on the same thread and so on the same vCPU as the pass.
The kernel uses numpy and the interpreter only, never diagmap, so no change
to the library can change it.

`now()` is a clock that stops while the handler runs, so pass and item times
read with it leave the sampling out.  A pass's time divided by the kernel
time sampled during it (`kernel_s`) is its time in reference units: the
slowdown of a slow stretch hits both and cancels, while a change to the
library moves only the numerator.
"""

import signal
import time
from array import array

import numpy as np

PERIOD_S = 0.05

# Masked -x log x over a 32 x 6 array and a select over 32 values: the
# small-array idiom of diagmap's inner loops (eta_array, the golden-section
# line searches), written out here so that it never calls diagmap.  Against
# short passes of all four workloads on a noisy host, log pass time against
# log kernel time had a slope of 0.99-1.08, so the two slow down together.
_GRID = np.linspace(0.0, 1.0, 192).reshape(32, 6)
_LINE = np.linspace(0.0, 1.0, 32)


def reference_kernel() -> float:
    """Fixed work of 0.3-0.5 ms, free of floating-point exceptions."""
    s = 0.0
    for i in range(30):
        x = _GRID * (1.0 + 1e-3 * i)
        out = np.zeros_like(x)
        pos = x > 1e-300
        out[pos] = -x[pos] * np.log(x[pos])
        s += float(out.sum(axis=-1)[0])
        s += float(np.where(_LINE > 0.5, _LINE, 0.0)[3])
    return s


class RefClock:
    """Context manager that samples the reference kernel during a pass.

    `samples` holds the kernel time of each sample (seconds); `paused` is
    the total time spent in the handler, which `now()` leaves out."""

    def __init__(self):
        self.samples = array("d")
        self.paused = 0.0
        self._old = None

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.paused += time.perf_counter() - t0

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    @property
    def kernel_s(self) -> float:
        """Mean kernel time over the pass, leaving out the slowest tenth of
        the samples: a sample that an interrupt or a descheduling lands in
        grows by far more than the 50 ms of pass around it; dropping those
        cut the spread of short passes in reference units from 4.5-8.9%
        to 3.1-7.7%.
        The kernel is run once more if the pass was too short to be
        sampled."""
        if not self.samples:
            self._tick(signal.SIGALRM, None)
        kept = np.sort(np.asarray(self.samples))
        return float(kept[: max(1, int(0.9 * kept.size))].mean())
