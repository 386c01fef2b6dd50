"""The frame-pass engine: chunked passes over a frame stack, the scratch
of a run, and the route by which frames are scattered onto the object.

Frames are independent until something sums over them, so per-frame
work on a stack larger than one chunk of ``_CHUNK_BYTES`` runs in frame
chunks on a pool with one worker per usable core; numpy releases the
GIL in its FFTs and ufunc loops. Every chunk computes its frames
exactly as the whole stack would, so the results are bit-identical. A
stack shorter than two chunks (every 64 px instance) is one chunk, run
on the calling thread by the same code, touching the same stacks in the
same order. Sums over the whole stack run on the calling thread after
every chunk has finished, except that a pass may give a tail, which the
calling thread runs on each chunk in chunk order as soon as it
finishes, while the pool works on later chunks. A pass keeps a bounded
number of chunks in flight, so that chunks that far apart can share
scratch. Workers call numpy and private helpers only, so every public
function runs on the calling thread.

Each per-frame stage of the solver is one fused pass per chunk: the
frame update (gather, probe product, DFT, magnitudes, misfit, phase,
scaling, inverse DFT, conjugate-probe product) and row 0's, which stops
at the misfit; the start frames of a run without ``frames_init``
(:func:`_start_frames`), the frame update on a unit object: its
windows are all the probe, so the phases come from one transform of the
probe and the pass fills them and runs the scaling onwards; the
standard and power steps, which share one gathered kernel; the
per-frame gate's weighted stack; and the intensity of the canvas. A shifted step takes
two passes: the first gathers the shifted accumulation, whose sums over
the frames are taken before the second multiplies it by the frames.
The sums over the frames of a step's products and weights are taken in
the pass's tail: the first chunk is summed and each later frame added
in turn, which is the order numpy's sum over the whole stack takes, so
the bits are its bits. Only the inner products and the misfit norm read
the whole stack once every chunk has finished.

This module alone decides how frames are scattered onto the object.
Frames below ``_WINDOW_PX`` (16 px in every 64 px instance) are
scattered by ``embed_add_frames``, one ``np.add.at`` or ``bincount``
over the whole stack. Larger frames are scattered chunk by chunk in the
tail: as each chunk of the frame update or of the start frames
finishes, its weighted frames and their intensities are added window by
window into the new adjoint accumulation and canvas
(:func:`_add_windows`); the object coverage adds ``|p|**2`` windows.
Either way the start and the frame update return the new frames'
adjoint accumulation and intensity canvas. Each pixel receives its
frames in ascending order from 0.0 on either route, so every result is
bit-identical to the unchunked pass.

The new frames overwrite the old ones, which nothing reads by then.
Every other frame-sized array of a run is its scratch
(:class:`_Workspace`): a complex stack, for the spectra and the
weighted stack, and one float64 block. The block holds a float64 stack
for what reductions over the whole stack read (the magnitudes and
misfit, the gathered weights) and the chunk slots, for what a chunk
needs only until its tail has run (the reciprocal magnitudes, the new
frames' intensities, the shifted step's per-frame denominator). A pass
keeps at most one chunk per usable core and one more in flight, each in
a slot of its own, so a stack of more chunks than that (400 frames of
128 px make 25) holds a few chunks of slots instead of a second float64
stack. Both are allocated when the run starts. The passes write into
them with ``out=`` ufuncs and ``take`` gathers. A probe, a per-frame
factor or a real operand that a ufunc would broadcast or cast over a
stack is first copied into a whole stack or slot, since numpy buffers
such operands on every call; only row 0, once per run, multiplies its
windows by the broadcast probe, which gives the same bits. Past the
first iteration no pass allocates a frame-sized array, and none frees
one. With fresh stacks and temporaries, glibc grew and trimmed its heap
on every gate or shifted iteration of the 64 px instances (up to 650
page faults and 30% more time per framewise iteration).
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Optional

import numpy as np

from .operators import ScanGeometry, _check_object, _fill, embed_add_frames, replicate_probe

# Frames per chunk: as many as fit in this many bytes of the stack, and
# never one alone, because numpy's broadcast product of a single
# (1, m, m) frame may round differently from the same frame inside a
# taller stack.
_CHUNK_BYTES = 4 * 2**20

# Frames of at least this many pixels a side are scattered onto the
# object window by window, chunk by chunk as the tail of a pass (see
# ``_add_windows``); smaller ones by one ``np.add.at`` or ``bincount``
# over the stack. On a 2-core Xeon, over 169-frame rasters at a
# quarter-frame step, a real stack took 0.42 ms by ``bincount`` against
# 0.52 by window adds at 48 px, 0.75 against 0.84 at 64 and 3.2 against
# 2.6 at 128; a 4-iteration solve took the same time either way at 64 px
# and about 5% less by windows at 128 px, where the adds run while the
# pool transforms later chunks. With window adds at 16 px, 60-iteration
# ``weak64`` solves ran 1.48 times slower in ``standard`` and 1.43 times
# slower in ``rank1_global`` (``tools/ab.py``, 15 rounds).
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


class _Workspace:
    """Frame-sized scratch of one run.

    ``stack`` is a complex (K, m, m) stack and ``real`` a float64 one,
    which holds what a reduction over the whole stack reads: the misfit
    and the gathered weights of the probe steps. No stack holds the
    coverage: a step gathers the (n, n) object coverage where it reads
    it. No state survives a step: a step reads nothing a previous step
    left in the scratch stacks, and a stack passed into a step must not
    be one it writes.

    ``edges`` are the frame chunks every per-frame pass runs over.
    Float64 values a chunk needs only until its tail has run (the
    reciprocal magnitudes, the intensities the tail adds into the
    canvas, the shifted step's per-frame denominator) go in the chunk's
    slot, :meth:`slot`: chunk ``i`` takes slot ``i mod S``, where ``S =
    _in_flight(chunks)`` is one more than the usable cores, or the
    number of chunks where that is fewer. A pass keeps at most ``S``
    chunks in flight (:func:`_over_frames`), so a chunk starts only once
    the chunk before it in its slot has been through its tail. ``real``
    and the slots are one float64 block, ``real`` first; where every
    chunk has a slot of its own, the block is two stacks and the second
    holds each chunk's slot at its own frames.

    Each array is allocated on its own: glibc serves blocks of one
    stack's size from its heap once one has been freed, where a larger
    block would raise its thresholds for the whole process. A run makes
    both before its frames, which outlive it in its ``History``: they
    then lie below memory still in use when they are freed, and glibc
    keeps them for the next run instead of returning them to the
    system, to fault them in again page by page.
    """

    def __init__(self, geom: ScanGeometry) -> None:
        m = geom.m
        self.stack = np.empty((geom.K, m, m), dtype=np.complex128)
        # Chunked by the frames' complex128 bytes.
        self.edges = _frame_edges(geom.K, self.stack.itemsize * m**2)
        chunks = list(zip(self.edges, self.edges[1:]))
        ahead = _in_flight(len(chunks))
        # ``real``, then the slots, each as tall as the tallest chunk it
        # takes: with a slot per chunk, a second stack holding each
        # chunk's slot at its own frames.
        heights = [max(hi - lo for lo, hi in chunks[j::ahead]) for j in range(ahead)]
        block = np.empty((geom.K + sum(heights), m, m))
        self.real = block[: geom.K]
        self._slots = {}
        for i, (lo, hi) in enumerate(chunks):
            first = geom.K + sum(heights[: i % ahead])
            self._slots[lo] = block[first : first + hi - lo]

    def slot(self, lo: int) -> np.ndarray:
        """The float64 scratch of the chunk starting at frame ``lo``, one
        (m, m) frame for each of its frames."""
        return self._slots[lo]


def _by_windows(geom: ScanGeometry) -> bool:
    """Whether scatters onto the object of ``geom`` add its frames window
    by window: frames of at least ``_WINDOW_PX`` a side."""
    return geom.m >= _WINDOW_PX


def _add_windows(image: np.ndarray, frames: np.ndarray, geom: ScanGeometry, lo: int) -> None:
    """Add ``frames``, the frames from ``lo`` on of a stack, onto the
    (n, n) ``image`` in place, window by window in frame order (see
    :attr:`ScanGeometry.window_slices`). Every pixel takes its frames in
    the order :func:`embed_add_frames` adds them, so frames added in
    ascending runs onto zeros give its bits. Unlike ``np.add.at``, each
    add releases the GIL."""
    for frame, rects in zip(frames, geom.window_slices[lo : lo + len(frames)]):
        for target, source in rects:
            window = image[target]
            np.add(window, frame[source], out=window)


def _object_coverage(probe: np.ndarray, geom: ScanGeometry, scratch: np.ndarray) -> np.ndarray:
    """The (n, n) object coverage of a probe: ``|probe|**2`` added window
    by window, or for frames below ``_WINDOW_PX`` replicated into
    ``scratch``, a float64 (K, m, m) stack, and scattered."""
    intensity = np.abs(probe) ** 2
    if _by_windows(geom):
        coverage = np.zeros((geom.n, geom.n))
        _add_windows(coverage, np.broadcast_to(intensity, (geom.K, geom.m, geom.m)), geom, 0)
        return coverage
    return embed_add_frames(replicate_probe(intensity, geom, out=scratch), geom)


def _flat_image(image: np.ndarray, geom: ScanGeometry, out: np.ndarray) -> np.ndarray:
    """An (n, n) image flattened in the dtype of ``out``, the stack its
    windows are gathered into: ``take`` writes only an ``out`` of its
    source's dtype."""
    return np.asarray(_check_object(image, geom), dtype=out.dtype).reshape(-1)


def _summing_tail(chunk_of):
    """A pass tail that adds each finished chunk of some stacks into
    their sums over the frames, and the list that holds those sums once
    the pass has run. ``chunk_of(lo, hi)`` gives the chunk's frames of
    each stack. The first chunk is summed and later ones added frame by
    frame: numpy sums a stack over its frames in frame order, so each
    sum has the bits of ``stack.sum(axis=0)`` on its whole stack."""
    sums = []

    def tail(lo, hi):
        for i, frames in enumerate(chunk_of(lo, hi)):
            if i == len(sums):
                sums.append(frames.sum(axis=0))
                continue
            for frame in frames:
                np.add(sums[i], frame, out=sums[i])

    return tail, sums


def _gathered_terms(
    frames, geom: ScanGeometry, image: np.ndarray, weights: np.ndarray, work: _Workspace
) -> tuple[np.ndarray, np.ndarray]:
    """The least-squares terms ``sum_k conj(image|_k) f_k`` and
    ``sum_k weights|_k`` of the standard and power steps, where ``X|_k``
    is the window of an (n, n) image at frame k: the products run in
    ``work.stack`` and the gathered real ``weights`` in ``work.real``,
    and the pass's tail sums each finished chunk of both. ``frames`` is
    a frame stack or None; without frames the first term is ``sum_k
    conj(image|_k)``, and the windows ``conj(image|_k)`` are left in
    ``work.stack``."""
    products, gathered, index = work.stack, work.real, geom.frame_indices
    flat = _flat_image(weights, geom, gathered)
    conj_image = np.conj(_flat_image(image, geom, products))

    # ``clip`` spares every take() below a buffer; the indices are in
    # range.
    def chunk(lo, hi):
        flat.take(index[lo:hi], out=gathered[lo:hi], mode="clip")
        conj_image.take(index[lo:hi], out=products[lo:hi], mode="clip")
        if frames is not None:
            # conj(image) * frames, not the reverse: see the note in
            # _summed_products.
            np.multiply(products[lo:hi], frames[lo:hi], out=products[lo:hi])

    tail, sums = _summing_tail(lambda lo, hi: (products[lo:hi], gathered[lo:hi]))
    _over_frames(chunk, work.edges, tail)
    return sums[0], sums[1]


def _summed_products(frames: np.ndarray, work: _Workspace, conjugate: bool) -> np.ndarray:
    """``sum_k w_k f_k`` over the windows ``w_k`` that ``work.stack``
    holds, or over their conjugates given ``conjugate``: each chunk
    multiplies its windows by its frames in place, and the pass's tail
    sums them."""
    view = work.stack

    def product(lo, hi):
        windows = view[lo:hi]
        if conjugate:
            np.conj(windows, out=windows)
        # Operand order fixes the rounding: numpy fuses a multiply and
        # an add in complex products, so a * b and b * a can differ in
        # the last bit. This order reproduces earlier results bit for
        # bit; on stacks of 256 KiB and more numpy evaluated
        # ``shifted * (...)`` in place in its temporary, as
        # ``(...) * shifted``.
        np.multiply(windows, frames[lo:hi], out=windows)

    tail, sums = _summing_tail(lambda lo, hi: (view[lo:hi],))
    _over_frames(product, work.edges, tail)
    return sums[0]


def _shifted_windows(geom: ScanGeometry, factors, coverage, adjoint, canvas, work: _Workspace):
    """The first pass of the per-frame shifted step, at one factor
    ``t_k`` per frame (``factors``, complex128 of length K): each frame's
    shifted accumulation ``A|_k - t_k C|_k`` of the adjoint accumulation
    ``A`` and the object coverage ``C``, left in ``work.stack``, and the
    sum over the frames of ``canvas|_k - |t_k|^2 C|_k``, each frame's in
    its chunk's slot until the pass's tail has summed it. Returns the
    sum and ``work.stack``."""
    fcol = factors[:, None, None]
    index, view, real = geom.frame_indices, work.stack, work.real
    flat, flat_coverage = _flat_image(adjoint, geom, view), _flat_image(coverage, geom, real)
    flat_canvas = _flat_image(canvas, geom, real)

    # The float scratch is real, so ``t_k C|_k`` is taken part by part:
    # C is real, and each part has the bits of the complex product.
    # ``C|_k`` is then scaled by ``|t_k|^2`` in place and subtracted from
    # the canvas frame by frame, before any sum over the frames, which
    # keeps the denominator to the digits its terms keep.
    def chunk(lo, hi):
        shift = flat.take(index[lo:hi], out=view[lo:hi], mode="clip")
        weights = flat_coverage.take(index[lo:hi], out=real[lo:hi], mode="clip")
        slot = work.slot(lo)
        for part, factor in ((shift.real, fcol.real), (shift.imag, fcol.imag)):
            product = np.multiply(_fill(slot, factor[lo:hi]), weights, out=slot)
            np.subtract(part, product, out=part)
        np.multiply(weights, _fill(slot, np.abs(fcol[lo:hi]) ** 2), out=weights)
        den = flat_canvas.take(index[lo:hi], out=slot, mode="clip")
        np.subtract(den, weights, out=den)

    tail, sums = _summing_tail(lambda lo, hi: (work.slot(lo),))
    _over_frames(chunk, work.edges, tail)
    return sums[0], view


def _window_sums(
    frames: np.ndarray,
    probe: np.ndarray,
    geom: ScanGeometry,
    coverage: np.ndarray,
    adjoint: np.ndarray,
    work: _Workspace,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The per-frame sums ``alpha``, ``beta`` and ``gamma`` the per-frame
    gate is scored from, each of length K: ``alpha_k = sum |p|^2 A|_k``,
    ``beta_k = sum C|_k conj(p) f_k`` and ``gamma_k = sum |p|^2 C|_k``
    (real), where ``X|_k`` is the window of an (n, n) image at frame k,
    ``A`` the adjoint accumulation and ``C`` the object coverage.

    ``alpha`` and ``gamma`` are circular correlations of the images with
    ``|p|^2`` zero-padded to (n, n), taken by FFT and read at the
    positions, which the geometry holds modulo n, so a window that
    wraps is summed as it is gathered. ``beta`` is one gathered pass:
    each chunk weighs its frames by the gathered coverage in
    ``work.stack``, and the product with ``conj(p)`` runs over the whole
    stack on the calling thread.
    """
    # Two image-sized arrays, transformed in place (``ifft2`` would
    # allocate two more whatever its ``out``).
    kernel = np.zeros((geom.n, geom.n), dtype=np.complex128)
    kernel[: geom.m, : geom.m] = np.abs(probe) ** 2
    np.conj(np.fft.fftn(kernel, out=kernel), out=kernel)
    spectrum = np.empty_like(kernel)

    def correlated(image):
        spectrum[...] = image
        np.fft.fftn(spectrum, out=spectrum)
        np.multiply(spectrum, kernel, out=spectrum)
        return np.fft.ifftn(spectrum, out=spectrum)[geom.positions[:, 0], geom.positions[:, 1]]

    alpha = correlated(adjoint)
    gamma = correlated(coverage).real
    del kernel, spectrum
    flat, index, view = _flat_image(coverage, geom, work.stack), geom.frame_indices, work.stack

    def weighted(lo, hi):
        flat.take(index[lo:hi], out=view[lo:hi], mode="clip")
        np.multiply(view[lo:hi], frames[lo:hi], out=view[lo:hi])

    _over_frames(weighted, work.edges)
    beta = view.reshape(geom.K, -1) @ np.conj(probe).reshape(-1)
    return alpha, beta, gamma


def _intensity(frames: np.ndarray, out: np.ndarray) -> None:
    """``|frames|**2`` into the float64 ``out``."""
    np.square(np.abs(frames, out=out), out=out)


def _intensity_canvas(frames: np.ndarray, geom: ScanGeometry, work: _Workspace) -> np.ndarray:
    """The (n, n) scatter-add of the stack intensity ``|frames|**2``,
    formed in ``work.real``. Gathered back to each frame it is the
    frame-overlap coverage the power step divides by; its inner product
    with the object coverage is the stack's coverage-weighted energy."""
    intensity = work.real
    _over_frames(lambda lo, hi: _intensity(frames[lo:hi], intensity[lo:hi]), work.edges)
    return embed_add_frames(intensity, geom)


def _window_tail(geom: ScanGeometry, work: _Workspace):
    """For frames of at least ``_WINDOW_PX``, the tail of a pass that
    writes frames, and the zero (adjoint, canvas) images it fills: it
    adds each finished chunk's conjugate-probe weighted frames
    (``work.stack``) into the adjoint and their intensities (the
    chunk's slot) into the canvas, window by window, so the images end
    with the bits of ``embed_add_frames`` on the whole stacks. For
    smaller frames, ``(None, None)``."""
    if not _by_windows(geom):
        return None, None
    adjoint, canvas = np.zeros((geom.n, geom.n), dtype=np.complex128), np.zeros((geom.n, geom.n))

    def tail(lo, hi):
        _add_windows(adjoint, work.stack[lo:hi], geom, lo)
        _add_windows(canvas, work.slot(lo), geom, lo)

    return tail, (adjoint, canvas)


def _scattered(frames: np.ndarray, images, geom: ScanGeometry, work: _Workspace):
    """The adjoint accumulation and intensity canvas of the ``frames`` a
    pass has just written, their conjugate-probe weighting left in
    ``work.stack``: ``images`` as the pass's window tail filled them,
    or, given None, both stacks scattered whole."""
    if images is not None:
        return images
    return embed_add_frames(work.stack, geom), _intensity_canvas(frames, geom, work)


def _impose_amplitudes(
    spectra: np.ndarray,
    magnitudes: np.ndarray,
    amplitudes: Optional[np.ndarray],
    inv: np.ndarray,
    scratch: np.ndarray,
) -> None:
    """Give ``spectra`` the magnitudes ``amplitudes`` in place and keep
    their phases: multiply them by the reciprocal of their
    ``magnitudes``, formed in ``inv``, and then by the amplitudes, each
    filled into the complex stack ``scratch`` first. A bin of magnitude
    exactly zero takes phase 1, so it becomes its amplitude, and no bin
    is divided by zero. Without ``amplitudes`` the spectra are left at
    unit modulus, their phases."""
    if magnitudes.min() > 0.0:
        np.divide(1.0, magnitudes, out=inv)
    else:
        # Zero bins (or NaN): both factors are 1 at the zero bins.
        zero = magnitudes == 0.0
        np.divide(1.0, np.add(magnitudes, zero, out=inv), out=inv)
        np.copyto(spectra, 1.0, where=zero)
    np.multiply(spectra, _fill(scratch, inv), out=spectra)
    if amplitudes is not None:
        np.multiply(spectra, _fill(scratch, amplitudes), out=spectra)


def _magnitude_pass(
    obj: np.ndarray,
    probe: np.ndarray,
    amplitudes: np.ndarray,
    geom: ScanGeometry,
    work: _Workspace,
    frames: Optional[np.ndarray],
    tail=None,
) -> float:
    """Per-frame part of the frame update, fused over the run's frame
    chunks.

    Each chunk illuminates its windows of ``obj`` and transforms them
    in ``work.stack``, puts the spectrum magnitudes in ``work.real`` and
    turns those into the misfit to ``amplitudes``. Given ``frames``, it
    imposes the amplitudes on the spectra (:func:`_impose_amplitudes`,
    with the reciprocal magnitudes in the chunk's slot), transforms back
    into ``frames`` and weights the frames by the conjugate probe in
    ``work.stack``, the stack whose scatter-add is their adjoint
    accumulation. Until the inverse transform writes them, a chunk's
    ``frames`` hold in turn the replicated probe, the reciprocal
    magnitudes and the amplitudes, as complex numbers, so no ufunc
    broadcasts or casts a frame-sized operand. Without ``frames`` (row
    0, which writes no frames) the windows take the broadcast probe, the
    product the filled stack gives bit for bit, and the pass stops at the
    misfit. Returns the misfit norm; it is taken over the whole stack, so
    no bit depends on the chunking.

    Given the ``tail`` of :func:`_window_tail` as well, each chunk
    leaves its new frames' intensity in its slot, free once the
    amplitudes are imposed, and the calling thread adds each finished
    chunk into the tail's adjoint accumulation and intensity canvas
    while the pool works on later chunks.

    The reciprocal gives the bits the division by the magnitudes gave:
    numpy divides by a complex ``mag + 0j`` by Smith's formula, which
    multiplies ``re + im * 0`` and ``im - re * 0``, the numerator's
    parts but for the sign of a zero part, by ``1 / mag``; the product
    with ``1 / mag + 0j`` rounds each part once, the same way.
    """
    flat = obj.reshape(-1)
    index = geom.frame_indices
    conj_probe = np.conj(probe)
    weighted, misfit = work.stack, work.real

    def chunk(lo, hi):
        spectra, magnitudes = weighted[lo:hi], misfit[lo:hi]
        flat.take(index[lo:hi], out=spectra, mode="clip")
        probes = probe if frames is None else _fill(frames[lo:hi], probe)
        np.multiply(probes, spectra, out=spectra)
        np.fft.fftn(spectra, axes=(-2, -1), norm="ortho", out=spectra)
        np.abs(spectra, out=magnitudes)
        if frames is not None:
            scratch, inv = frames[lo:hi], work.slot(lo)
            _impose_amplitudes(spectra, magnitudes, amplitudes[lo:hi], inv, scratch)
            np.fft.ifftn(spectra, axes=(-2, -1), norm="ortho", out=scratch)
            np.multiply(_fill(spectra, conj_probe), scratch, out=spectra)
            if tail is not None:
                _intensity(scratch, inv)
        np.subtract(magnitudes, amplitudes[lo:hi], out=magnitudes)

    _over_frames(chunk, work.edges, tail)
    return np.linalg.norm(misfit)


def _frame_update(obj, probe, amplitudes, geom: ScanGeometry, work: _Workspace, frames):
    """The frame update of (``obj``, ``probe``), written over ``frames``
    by :func:`_magnitude_pass`: the misfit norm, and the new frames'
    adjoint accumulation ``illuminate_adjoint(frames, probe, geom)`` and
    intensity canvas, on the scatter route of the frame size."""
    tail, images = _window_tail(geom, work)
    misfit = _magnitude_pass(obj, probe, amplitudes, geom, work, frames, tail)
    return (misfit, *_scattered(frames, images, geom, work))


def _start_frames(
    probe: np.ndarray, amplitudes: np.ndarray, geom: ScanGeometry, work: _Workspace
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The frames of a unit object under ``probe`` with the measured
    ``amplitudes`` imposed, the start of a run without ``frames_init``,
    with their adjoint accumulation and intensity canvas on the scatter
    route of the frame size; their conjugate-probe weighting is left in
    ``work.stack``.

    Every window of a unit object is the probe, so every frame has the
    probe's spectrum and so its phases. These are taken once, in the
    first frame of the scratch stacks, by the calls the frame pass
    (:func:`_magnitude_pass`) makes on a chunk: the product of the probe
    with a window of ones, a ``(1, m, m)`` transform and the phase rule
    of :func:`_impose_amplitudes`. One pass over the chunks then fills
    each frame with the phases, multiplies them by its amplitudes,
    transforms back into the frames and weights those by the conjugate
    probe: the bits of the frame pass on a unit object, without its K
    forward transforms and magnitudes and its misfit. Its tail scatters
    the frames as the frame update's does (:func:`_frame_update`).
    """
    tail, images = _window_tail(geom, work)
    frames = np.empty(amplitudes.shape, dtype=np.complex128)
    spectrum, magnitudes, inv = work.stack[:1], work.real[:1], work.slot(0)[:1]
    spectrum.fill(1.0)
    np.multiply(_fill(frames[:1], probe), spectrum, out=spectrum)
    np.fft.fftn(spectrum, axes=(-2, -1), norm="ortho", out=spectrum)
    np.abs(spectrum, out=magnitudes)
    _impose_amplitudes(spectrum, magnitudes, None, inv, frames[:1])
    # Copied out of the stack the pass overwrites.
    phases = spectrum[0].copy()
    conj_probe = np.conj(probe)

    def chunk(lo, hi):
        spectra, scratch = work.stack[lo:hi], frames[lo:hi]
        np.multiply(_fill(spectra, phases), _fill(scratch, amplitudes[lo:hi]), out=spectra)
        np.fft.ifftn(spectra, axes=(-2, -1), norm="ortho", out=scratch)
        np.multiply(_fill(spectra, conj_probe), scratch, out=spectra)
        if tail is not None:
            _intensity(scratch, work.slot(lo))

    _over_frames(chunk, work.edges, tail)
    return (frames, *_scattered(frames, images, geom, work))

