"""Batched per-frame 2D DFT and the measured-magnitude projection.

Each frame of a (K, m, m) stack is transformed independently with the
unitary 2D DFT (overall scaling 1/m for an m x m frame), so the
transform pair preserves the Euclidean norm and the magnitude
projection below is a true projection in that norm.

Frames are independent until something sums over them, so per-frame
work on a stack larger than one chunk of ``_CHUNK_BYTES`` runs in frame
chunks on a pool with one thread per usable core (numpy releases the
GIL in its FFTs and ufunc loops). Every chunk computes its frames
exactly as the whole stack would, so the results are bit-identical.
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

# Frames per chunk: as many as fit in this many bytes of the stack, and
# never one alone, because numpy's broadcast product of a single
# (1, m, m) frame may round differently from the same frame inside a
# taller stack.
_CHUNK_BYTES = 4 * 2**20


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


_POOL = None
_POOL_LOCK = threading.Lock()


def _pool() -> ThreadPoolExecutor:
    """The chunk pool, started by the first stack that spans chunks."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(max_workers=_usable_cores(), thread_name_prefix="ptyblind")
        return _POOL


def _forget_pool() -> None:
    # A forked child inherits the pool object but not its threads, and
    # the lock as some thread may have held it.
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _frame_edges(count: int, frame_bytes: int) -> list[int]:
    """Integer edges of the chunks of a stack of ``count`` frames of
    ``frame_bytes`` each: about ``_CHUNK_BYTES`` and at least two frames
    per chunk, or ``[0, count]`` for a stack shorter than two chunks."""
    per = max(2, _CHUNK_BYTES // max(frame_bytes, 1))
    chunks = max(1, count // per)
    return [count * i // chunks for i in range(chunks + 1)]


def _over_frames(work, edges: list[int]) -> None:
    """Run ``work(lo, hi)`` on the frames ``[lo, hi)`` of every chunk
    between ``edges``; each chunk writes its own frames of the output
    stacks the caller allocated.

    A single chunk runs on the calling thread. Several run on the pool,
    and the first exception in chunk order is raised once every chunk
    has finished. ``work`` runs in a copy of the caller's context
    (numpy's error state) and must call numpy and private helpers only.
    """
    if len(edges) == 2:
        work(edges[0], edges[1])
        return
    pool = _pool()
    futures = [
        pool.submit(contextvars.copy_context().run, work, lo, hi)
        for lo, hi in zip(edges, edges[1:])
    ]
    wait(futures)
    for future in futures:
        future.result()


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

    def work(lo, hi):
        transform(stack[lo:hi], axes=(-2, -1), norm="ortho", out=out[lo:hi])

    _over_frames(work, _frame_edges(stack.shape[0], out.itemsize * stack.shape[1] ** 2))
    return out


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
