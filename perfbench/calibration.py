"""A fixed numpy kernel that tracks how fast the machine is right now.

On a shared machine the same solve can take 25% longer in one ten-second
stretch than in the next, and every numpy kernel slows alike: in one
150 s trace of a 64 px solve interleaved with this kernel (2-core Intel
Xeon virtual machine, numpy 2.4.6), the solve ranged over 161-259 ms
while its ratio to the kernel stayed within 2.61-2.84. The benchmark
therefore times the kernel between solves and reports solve times in
multiples of it ("cal" units), next to the raw seconds.

The kernel does what dominates one iteration, at the workload's sizes:
a forward and inverse batched 2D FFT with a phase division between
them, a bincount scatter of the frames onto the object canvas and a
fancy-index gather back. It uses numpy only, never ptyblind, so a
change to the library moves the solves and not the yardstick.
"""

from __future__ import annotations

import time

import numpy as np

# Stack elements per calibration sample; gives ~10 ms on 64 px workloads.
ELEMENTS = 200_000


class Calibration:
    def __init__(self, n: int, m: int, positions: np.ndarray) -> None:
        rng = np.random.default_rng(0)
        k = len(positions)
        self.size = n * n
        self.stack = rng.standard_normal((k, m, m)) + 1j * rng.standard_normal((k, m, m))
        offs = np.arange(m)
        rows = (positions[:, 0:1] + offs) % n
        cols = (positions[:, 1:2] + offs) % n
        self.index = (rows[:, :, None] * n + cols[:, None, :]).reshape(-1)
        self.canvas = rng.standard_normal(self.size)
        self.reps = max(1, round(ELEMENTS / self.stack.size))

    def __call__(self) -> float:
        """Wall seconds of one calibration sample."""
        start = time.perf_counter()
        for _ in range(self.reps):
            spectra = np.fft.fft2(self.stack, norm="ortho")
            frames = np.fft.ifft2(spectra / np.maximum(np.abs(spectra), 1e-300), norm="ortho")
            np.bincount(self.index, weights=frames.real.reshape(-1), minlength=self.size)
            np.bincount(self.index, weights=frames.imag.reshape(-1), minlength=self.size)
            self.canvas[self.index]
        return time.perf_counter() - start
