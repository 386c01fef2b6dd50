"""Batched per-frame 2D DFT and the measured-magnitude projection.

Each frame of a (K, m, m) stack is transformed independently with the
unitary 2D DFT (overall scaling 1/m for an m x m frame), so the
transform pair preserves the Euclidean norm and the magnitude
projection below is a true projection in that norm.
"""

from __future__ import annotations

import numpy as np


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


def _transform_frames(transform, stack: np.ndarray) -> np.ndarray:
    # Given ``out``, both axis passes write one buffer instead of each
    # allocating a stack. Its dtype is the one numpy's FFT returns.
    stack = _check_stack_3d(stack)
    out = np.empty(stack.shape, dtype=np.result_type(stack.dtype, 1j))
    return transform(stack, axes=(-2, -1), norm="ortho", out=out)


def frame_dft(frames: np.ndarray) -> np.ndarray:
    """Unitary 2D DFT of each frame in a stack."""
    return _transform_frames(np.fft.fftn, frames)


def frame_idft(spectra: np.ndarray) -> np.ndarray:
    """Inverse of :func:`frame_dft`."""
    # ifftn rather than ifft2: numpy's ifft2 ignores ``out``.
    return _transform_frames(np.fft.ifftn, spectra)


def _unit_phase(spectra: np.ndarray, mag: np.ndarray, out=None) -> np.ndarray:
    """Phase of ``spectra`` given its magnitudes ``mag``, which are
    overwritten; ``out=spectra`` phases the stack in place."""
    zero = mag == 0.0
    mag[zero] = 1.0
    phase = np.divide(spectra, mag, out=out)
    phase[zero] = 1.0
    return phase


def spectrum_phase(spectra: np.ndarray) -> np.ndarray:
    """Unit-modulus phase of a spectrum stack, with phase(0) = 1."""
    return _unit_phase(spectra, np.abs(spectra))


def magnitude_project(frames: np.ndarray, amplitudes: np.ndarray) -> np.ndarray:
    """Replace each frame's Fourier magnitudes with measured amplitudes.

    Keeps the Fourier phases of ``frames`` (zero-magnitude bins take
    phase 1) and returns the inverse transform, i.e. the nearest stack
    whose per-frame spectra have the prescribed magnitudes.
    """
    frames = _check_stack_3d(frames)
    amplitudes = np.asarray(amplitudes)
    if amplitudes.shape != frames.shape:
        raise ValueError(
            f"amplitudes shape {amplitudes.shape} does not match frames {frames.shape}"
        )
    return frame_idft(spectrum_phase(frame_dft(frames)) * amplitudes)
