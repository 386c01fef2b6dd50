"""Batched per-frame unitary 2D DFT.

Each frame of a (K, m, m) stack is transformed independently with the
unitary 2D DFT (overall scaling 1/m for an m x m frame), so the
transform pair preserves the Euclidean norm and the solver's
magnitude projection is a true projection in that norm.

Stacks larger than one chunk are transformed chunk by chunk on the
frame-pass engine's pool (``_passes._over_frames``), with the same bits.
"""

from __future__ import annotations

import numpy as np

from ._passes import _frame_edges, _over_frames


def _check_stack_3d(frames: np.ndarray) -> np.ndarray:
    frames = np.asarray(frames)
    if frames.ndim != 3 or frames.shape[1] != frames.shape[2]:
        raise ValueError(f"expected a (K, m, m) stack, got shape {frames.shape}")
    return frames


def check_amplitudes(amplitudes: np.ndarray) -> np.ndarray:
    """Validate a measured-magnitude stack: real, finite, nonnegative."""
    amplitudes = _check_stack_3d(amplitudes)
    if np.iscomplexobj(amplitudes):
        raise ValueError("amplitudes must be real-valued")
    if not np.all(np.isfinite(amplitudes)):
        raise ValueError("amplitudes contain non-finite entries")
    if np.any(amplitudes < 0):
        raise ValueError("amplitudes contain negative entries")
    return amplitudes


def frame_dft(frames: np.ndarray) -> np.ndarray:
    """Unitary 2D DFT of each frame in a stack."""
    frames = _check_stack_3d(frames)
    # Given ``out``, both axis passes write one buffer instead of each
    # allocating a stack. Its dtype is the one numpy's FFT returns.
    out = np.empty(frames.shape, dtype=np.result_type(frames.dtype, 1j))

    def work(lo, hi):
        np.fft.fftn(frames[lo:hi], axes=(-2, -1), norm="ortho", out=out[lo:hi])

    _over_frames(work, _frame_edges(frames.shape[0], out.itemsize * frames.shape[1] ** 2))
    return out
