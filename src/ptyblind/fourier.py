"""Batched per-frame 2D DFT and the frame chunks of per-frame passes.

Each frame of a (K, m, m) stack is transformed independently with the
unitary 2D DFT (overall scaling 1/m for an m x m frame), so the
transform pair preserves the Euclidean norm and the solver's
magnitude projection is a true projection in that norm.

Frames are independent until something sums over them, so per-frame
work on a stack larger than one chunk of ``_CHUNK_BYTES`` runs in frame
chunks on a pool with one thread per usable core (numpy releases the
GIL in its FFTs and ufunc loops). Every chunk computes its frames
exactly as the whole stack would, so the results are bit-identical.
Sums over the whole stack run on the calling thread after every chunk
has finished, except that a pass may give a tail, which the calling
thread runs on each chunk in chunk order as soon as it finishes, while
the pool works on later chunks: that is where the solver sums the
probe step's terms in frame order and scatters frames of at least
``_WINDOW_PX`` onto the object, by window adds that keep the frame
order and so the bits. A pass keeps a bounded number of chunks in
flight, so that chunks that far apart can share scratch.
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

# Frames of at least this many pixels a side are scattered onto the
# object window by window, chunk by chunk as the tail of a pass (see
# ``operators._add_windows``); smaller ones by one ``np.add.at`` or
# ``bincount`` over the stack. On a 2-core Xeon, over 169-frame rasters
# at a quarter-frame step, a real stack took 0.42 ms by ``bincount``
# against 0.52 by window adds at 48 px, 0.75 against 0.84 at 64 and 3.2
# against 2.6 at 128; a 4-iteration solve took the same time either way
# at 64 px and about 5% less by windows at 128 px, where the adds run
# while the pool transforms later chunks.
_WINDOW_PX = 64


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


def _in_flight(chunks: int) -> int:
    """Chunks a pass over ``chunks`` chunks keeps in flight: one per
    usable core and one queued, so no worker waits on the calling
    thread's tails, or every chunk where that is fewer."""
    return min(chunks, _usable_cores() + 1)


def _frame_edges(count: int, frame_bytes: int) -> list[int]:
    """Integer edges of the chunks of a stack of ``count`` frames of
    ``frame_bytes`` each: about ``_CHUNK_BYTES`` and at least two frames
    per chunk, or ``[0, count]`` for a stack shorter than two chunks."""
    per = max(2, _CHUNK_BYTES // max(frame_bytes, 1))
    chunks = max(1, count // per)
    return [count * i // chunks for i in range(chunks + 1)]


def _over_frames(work, edges: list[int], tail=None) -> None:
    """Run ``work(lo, hi)`` on the frames ``[lo, hi)`` of every chunk
    between ``edges``; each chunk writes its own frames of the output
    stacks the caller allocated. Given ``tail``, run ``tail(lo, hi)`` on
    the calling thread for each chunk in chunk order, as soon as that
    chunk's work has finished, while the pool works on later chunks.
    At most :func:`_in_flight` chunks are in flight: chunk ``i`` is
    submitted only once chunk ``i - _in_flight(chunks)`` has finished
    and been through its tail, so chunks that far apart may share
    scratch.

    A single chunk runs its work and then its tail on the calling
    thread. Several run on the pool, and the first exception in chunk
    order is raised once every chunk has finished; no tail runs at or
    after a chunk that failed. ``work`` runs in a copy of the caller's
    context (numpy's error state) and must call numpy and private
    helpers only.
    """
    if len(edges) == 2:
        work(edges[0], edges[1])
        if tail is not None:
            tail(edges[0], edges[1])
        return
    chunks = list(zip(edges, edges[1:]))
    ahead = _in_flight(len(chunks))
    pool = _pool()
    futures = []
    failed = False

    def settle(i):
        # Wait for chunk i; run its tail while no chunk up to it failed.
        nonlocal failed
        failed = failed or futures[i].exception() is not None
        if tail is not None and not failed:
            tail(*chunks[i])

    try:
        for i, (lo, hi) in enumerate(chunks):
            if i >= ahead:
                settle(i - ahead)
            futures.append(pool.submit(contextvars.copy_context().run, work, lo, hi))
        for i in range(len(chunks) - ahead, len(chunks)):
            settle(i)
    finally:
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
