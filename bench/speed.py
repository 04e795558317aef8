"""Machine-speed calibration for the timed metrics.

On a shared machine the speed of the same code drifts by a third or
more over tens of seconds (on a 2-vCPU x86_64 virtual machine, identical
work took 410 to 700 ms of CPU time within one minute, with no steal
time).  The benchmark therefore times a fixed kernel every 0.1 s,
between operations, and scales each operation's time by N / C, where
N is the kernel's nominal time and C the median kernel time of the five
samples nearest the operation.
Times are then reported at the nominal machine speed.  The kernel is
small-array numpy work like the library's per-factor steps, which in
trials tracked the workloads' drift better than numpy-scalar or plain
Python loops; it calls nothing in unichain, so no change to the
program moves it.

Where an operation is a whole CLI process, its time is mostly process
start and imports, which drift differently from small-array numpy work:
over 150 s of alternating samples on the machine above, ``gen --n 4``
subprocess times spread 0.21 between blocks unscaled, 0.08 scaled by the
numpy kernel and 0.015 scaled by the start of a bare interpreter
(``python -S -c pass``, about 11 ms).  Such a workload uses that
``"start"`` kernel instead; it loads nothing from unichain either.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

EVERY_S = 0.1
WINDOW = 5

_U = np.linalg.qr(np.arange(64, dtype=float).reshape(8, 8) % 7 + 1j * np.eye(8))[0]


def kernel() -> float:
    """Small-array numpy work of the kind the library does per factor."""
    a = np.eye(8, dtype=np.complex128)
    acc = 0.0
    for i in range(140):
        v = a[i % 8]
        m = np.eye(8) - 0.5 * np.outer(v, v.conj())
        acc += float(np.linalg.norm(m[0])) + bool(np.all(np.isfinite(m)))
        a = a @ _U
    return acc


def start_kernel() -> None:
    """Start a bare interpreter (no site module, no imports) and wait for it."""
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)


#: name -> (kernel, kernel time at which scaled and measured times agree,
#: about the kernel's median on the 2-vCPU x86_64 machine the bounds were set on)
KERNELS = {"compute": (kernel, 3.0e-3), "start": (start_kernel, 11e-3)}


class Speed:
    """Kernel samples over one phase and the scale factors they imply."""

    def __init__(self, kernel_name: str = "compute"):
        self.kernel, self.nominal_s = KERNELS[kernel_name]
        self.starts = []
        self.durations = []

    def sample(self):
        t0 = time.perf_counter()
        self.kernel()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def maybe_sample(self):
        """Sample if the last sample is older than EVERY_S."""
        if not self.starts or time.perf_counter() - self.starts[-1] >= EVERY_S:
            self.sample()

    def factors(self, times) -> np.ndarray:
        """nominal_s over the median of the WINDOW samples nearest each time."""
        starts = np.asarray(self.starts)
        durations = np.asarray(self.durations)
        out = np.empty(len(times))
        for j, t in enumerate(times):
            i = int(np.searchsorted(starts, t))
            lo = max(0, min(i - WINDOW // 2, len(starts) - WINDOW))
            out[j] = self.nominal_s / float(np.median(durations[lo : lo + WINDOW]))
        return out

    def median_s(self) -> float:
        return float(np.median(self.durations))
