"""Fixed reference kernels that gauge how fast the machine runs right now.

The shared 2-vCPU virtual machine (Intel Xeon) this benchmark was defined
on switches between speed states for seconds to minutes at a time: the
same single-threaded iteration reads 115 ms in one state and 210 ms in the
other.  Each timed
section is therefore bracketed by a short reference kernel, and its wall
time is reported in *reference seconds*:

    t_ref = t_wall * REFERENCE_S / mean(kernel time before, kernel time after)

The kernels imitate the package's regimes without importing it: a
small-array split-step loop (numpy call overhead, like the 1D workloads),
the same loop on two threads at once (like the 1D sweeps on the default
two-worker pool), and a 64^3 transform pair (like ``field_3d``).  They do
not change with the program, so their time moves only with the machine.
``REFERENCE_S`` is roughly one pass's time on that machine; it only sets
the scale.
"""

from __future__ import annotations

import threading
from time import perf_counter

import numpy as np

# (dim, threads) -> typical seconds of one kernel pass on the reference machine
REFERENCE_S = {(1, 1): 0.005, (1, 2): 0.025, (3, 1): 0.035}
PASSES = 3


class Gauge:
    """Times the reference kernel for one (dim, threads) regime."""

    def __init__(self, dim: int, threads: int):
        self.dim, self.threads = dim, threads
        self.n, self.steps = (512, 100) if dim == 1 else (64, 1)
        self.reference = REFERENCE_S[(dim, threads)]
        self()

    def _fields(self) -> tuple[np.ndarray, ...]:
        # built per reading and dropped after it, so the kernel's arrays
        # never add to the peak memory of the iterations it gauges
        shape = (self.n,) * self.dim
        x = np.linspace(-10.0, 10.0, self.n, endpoint=False)
        r2 = sum(np.meshgrid(*[x ** 2] * self.dim, indexing="ij", sparse=True))
        k2 = sum(np.meshgrid(*[np.fft.fftfreq(self.n, 20.0 / self.n) ** 2] * self.dim,
                             indexing="ij", sparse=True))
        psi0 = np.exp(-((np.sqrt(r2) - 2.0) ** 2) / 4.0).astype(complex).reshape(shape)
        return psi0, np.exp(-1j * 0.01 * k2), np.exp(-1j * 1e-3 * r2), np.broadcast_to(r2 > 64.0, shape)

    def _loop(self, psi, kin, tid, mask) -> None:
        for _ in range(self.steps):
            psi = tid * psi
            psi = np.fft.ifftn(kin * np.fft.fftn(psi, norm="ortho"), norm="ortho")
            psi = tid * psi
            float((np.abs(psi[mask]) ** 2).sum())

    def _pass(self, fields) -> float:
        # one copy runs on the calling thread, so a single-threaded pass
        # stays on the CPU that ran the iteration it gauges
        workers = [threading.Thread(target=self._loop, args=fields)
                   for _ in range(self.threads - 1)]
        t0 = perf_counter()
        for w in workers:
            w.start()
        self._loop(*fields)
        for w in workers:
            w.join()
        return perf_counter() - t0

    def __call__(self) -> float:
        """Median seconds of PASSES kernel passes, each on ``threads`` threads."""
        fields = self._fields()
        return sorted(self._pass(fields) for _ in range(PASSES))[PASSES // 2]

    def scale(self, wall: float, before: float, after: float) -> float:
        """``wall`` in reference seconds, given the kernel times around it."""
        return wall * self.reference / (0.5 * (before + after))
