"""Blind reconstruction updates and the outer alternating loop.

The solver alternates three steps: a least-squares object update from
the current frames and probe, a probe update (one of four modes), and
a frame update that re-imposes the measured Fourier magnitudes on the
model frames. Probe modes:

``standard``
    Per-pixel least squares of the probe against the extracted object
    views, averaged over frames.
``power``
    One step of a power iteration that minimizes the pairwise
    discrepancy quadratic form between overlapping frames, treating
    the probe as the unknown.
``rank1_global`` / ``rank1_framewise``
    The power step applied after subtracting the estimated average
    transmitted component (a single complex transparency factor, or
    one factor per overlapping-frame neighborhood) from the frames.
    Removing that near-constant part enlarges the spectral gap the
    power step sees, which is what accelerates weak-contrast
    reconstructions.

The shifted step divides by the small residual contrast, so it
amplifies whatever frame inconsistency the magnitude projection left
behind; applied unconditionally it is violently unstable early in a
run. The loop therefore schedules it: a shifted step is taken only
when :func:`shift_consistency` certifies the shifted stack is close
to self-consistent (a score of at least ``RANK1_GATE``) and at most
every ``RANK1_CADENCE`` iterations, with plain power steps
consolidating in between. After each shifted step the object is
recomputed with the new probe before the frames are rebuilt, so the
jump is absorbed instead of being undone by the next consolidation
steps. Both branches leave an exact solution fixed.

Each iteration is a single pass over the frame stack. Three products
of the current (frames, probe) pair are computed once and read by
every consumer: the object coverage ``C``; the adjoint accumulation
``A = illuminate_adjoint(frames, probe)``, the numerator of the next
object update and the power step's accumulation; and the intensity
canvas, the scatter-add of ``|frames|**2``, which the metrics row
makes for the frames it records (the frame update, for frames of at
least ``fourier._WINDOW_PX``). ``<C, canvas>`` is the stack's
coverage-weighted energy ``E``, from which the metrics row's pairwise
discrepancy ``E - ||A||^2`` and the global gate read; the canvas
gathered to the frames is the power step's denominator. All three
are (n, n) images, gathered to the frames chunk by chunk where a step
reads them. Every step takes the ones it reads as required arguments,
with the run's scratch stacks, and none recomputes them; a step that
needs the accumulation of another stack (the frames under a new
probe) is handed it by its caller. The
steps keep public names in this module because the benchmark in
``perfbench/`` traces them by name. The rank-1 estimators and the
gate run only on iterations the cadence allows.
Shifting every frame by one factor ``t`` times the probe shifts the
adjoint accumulation ``A`` by ``t`` times the object coverage ``C``,
and the intensity canvas by ``|t|^2 C - 2 Re(conj(t) A)``. So the
global gate's transparency, its shifted accumulation ``A_s = A - t C``
and its score, ``||A_s||^2`` over the shifted stack's
coverage-weighted energy, all come from (n, n) images, and so does the
global shifted step, the power step on ``A_s`` and the shifted canvas.
The per-frame gate's score is the same form with one factor per frame;
it comes from those images and three length-K sums over the frame
windows, two by FFT correlation with ``|p|**2`` and one by a gathered
pass over the frames. The per-frame step takes each frame's shifted
accumulation ``A|_k - t_k C|_k`` from the gathered images. No gate or
step forms a shifted stack. These closed forms lose about
``log10(E / weight)`` digits as the shifted stack's coverage-weighted
energy, the gate's weight, falls below the stack's ``E``: below
``_WEIGHT_FLOOR`` of it, on a nearly transparent stack, a gate scores 0
and a step raises :class:`DegenerateInputError`, and the loop takes the
plain power step. A gate returns its score and keeps nothing.
The model spectra are transformed once: their magnitudes give the
data residual and then phase the spectra in place for the frame
update.

Every per-frame elementwise stage runs in the run's chunks of about
4 MiB of frames (``_Workspace.edges``), on a thread pool with one
worker per usable core; numpy releases the GIL in these loops. Each
stage is one fused pass per chunk: the frame update (gather, probe
product, DFT, magnitudes, misfit, phase, scaling, inverse DFT,
conjugate-probe product) and row 0's, which stops at the misfit; the
start frames of a run without ``frames_init`` (:func:`_start_frames`),
the frame update on a unit object: its windows are all the probe, so
the phases come from one transform of the probe and the pass fills them
and runs the scaling onwards; the standard and power steps, which share
one gathered kernel; the per-frame gate's weighted stack; and the
intensity of the canvas. A shifted step takes two passes: the first
gathers the shifted accumulation, whose sums over the frames are taken
before the second multiplies it by the frames. The sums over the frames
of a step's products and weights are taken in the pass's tail, which
the calling thread runs on each chunk in chunk order as soon as it
finishes, while the pool works on later chunks: the first chunk is
summed and each later frame added in turn, which is the order numpy's
sum over the whole stack takes, so the bits are its bits. Only the
inner products and the misfit norm read the whole stack once every
chunk has finished. Frames below ``fourier._WINDOW_PX`` (16 px in every
64 px instance) are scattered onto the object the same way, one
``np.add.at`` or ``bincount`` over the whole stack. Larger frames are scattered chunk by chunk in the tail: as
each chunk of the frame update or of the start frames finishes, its
weighted frames and their intensities are added window by window into
the new adjoint accumulation and canvas; the object coverage adds
``|p|**2`` windows. Each pixel receives its frames in ascending order from 0.0 on
either route, so every result is bit-identical to the unchunked pass. A
stack shorter than two chunks (every 64 px instance) is one chunk, run
on the calling thread by the same code, touching the same stacks in the
same order.
The new frames overwrite the old ones, which nothing reads by then.
Every other frame-sized array of a run is its scratch
(:class:`_Workspace`): a complex stack, for the spectra and the weighted
stack, and one float64 block. The block holds a float64 stack for what
reductions over the whole stack read (the magnitudes and misfit, the
gathered weights) and the chunk slots, for what a chunk needs only
until its tail has run (the reciprocal magnitudes, the new frames'
intensities, the shifted step's per-frame denominator). A pass keeps
at most one chunk per usable core and one more in flight, each in a
slot of its own, so a stack of more chunks than that (400 frames of
128 px make 25) holds a few chunks of slots instead of a second float64
stack. Both are allocated when the run starts. The
steps write into them with ``out=`` ufuncs and ``take`` gathers. A
probe, a per-frame factor or a real operand that a ufunc would
broadcast or cast over a stack is first copied into a whole stack or
slot, since numpy buffers such operands on every call; only row 0,
once per run, multiplies its windows by the broadcast probe, which
gives the same bits. Past the first iteration no step allocates a
frame-sized array, and none frees one.
With fresh stacks and temporaries, glibc grew and trimmed its heap on
every gate or shifted iteration of the 64 px instances (up to 650 page
faults and 30% more time per framewise iteration). Workers call numpy
and private helpers only, so every public function runs on the
calling thread.

Denominators are floored at ``EPSILON_REL`` times their maximum, so
division is scale-free and uncovered pixels map to zero.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .fourier import _frame_edges, _in_flight, _over_frames, check_amplitudes
from .metrics import MetricsRow, _relative_gap, nrmse_probe
from .operators import (
    ScanGeometry,
    _add_windows,
    _by_windows,
    _check_integer,
    _check_object,
    _check_probe as _check_probe_shape,
    _check_stack,
    _fill,
    _object_coverage,
    embed_add_frames,
    extract_frames,  # noqa: F401  (unused here; perfbench's tracer test wraps this binding)
    illuminate_adjoint,
)

PROBE_MODES = ("standard", "power", "rank1_global", "rank1_framewise")

# Every update's denominator is floored at this fraction of its maximum.
EPSILON_REL = 1e-8

# The shifted step's schedule, as the module docstring describes it.
# Both values are tuned, not parameters of the method: on the
# weak-contrast instances gate 0 at cadence 1 or 3 missed probe NRMSE
# 0.1, and gate 0.5 at cadence 1 converged more slowly than 0.95 at
# cadence 3.
RANK1_GATE = 0.95
RANK1_CADENCE = 3

# Either gate's closed-form weight sums terms of up to the stack energy,
# so it and the step's closed forms lose log10(energy / weight) digits:
# at this fraction of the energy they still keep 8. Below it a gate
# scores 0 and a shifted step raises DegenerateInputError: a nearly
# transparent stack's residue can cancel to rounding noise of either
# sign there, and a constant object carries no probe information.
_WEIGHT_FLOOR = 1e-8


class DegenerateInputError(ValueError):
    """The input carries no usable signal for the requested update."""


@dataclass
class SolverConfig:
    """Knobs for :func:`run_reconstruction`.

    The rank-1 modes schedule their transparency-shifted step by the
    module constants ``RANK1_GATE`` and ``RANK1_CADENCE``.
    """

    probe_mode: str = "standard"
    max_iters: int = 100
    stop_nrmse: Optional[float] = None

    def __post_init__(self) -> None:
        # A fractional count would fail later in range().
        _check_integer(self.max_iters, "max_iters")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if self.stop_nrmse is not None and not self.stop_nrmse >= 0.0:
            # A NaN threshold would never fire.
            raise ValueError(f"stop_nrmse must be >= 0, got {self.stop_nrmse}")
        if self.probe_mode not in PROBE_MODES:
            raise ValueError(f"probe_mode must be one of {PROBE_MODES}, got {self.probe_mode!r}")


@dataclass
class History:
    """Outcome of a reconstruction run: metric rows plus final state."""

    rows: list[MetricsRow] = field(default_factory=list)
    events: list[str] = field(default_factory=list)
    probe: Optional[np.ndarray] = None
    object_image: Optional[np.ndarray] = None
    frames: Optional[np.ndarray] = None


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
    fourier._in_flight(chunks)`` is one more than the usable cores, or
    the number of chunks where that is fewer. A pass keeps at most ``S``
    chunks in flight (``fourier._over_frames``), so a chunk starts only
    once the chunk before it in its slot has been through its tail.
    ``real`` and the slots are one float64 block, ``real`` first; where
    every chunk has a slot of its own, the block is two stacks and the
    second holds each chunk's slot at its own frames.

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


def _divided(
    numerator: np.ndarray,
    denominator: np.ndarray,
    subject: str,
    undefined: str,
    source: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``numerator`` over ``denominator`` floored at ``EPSILON_REL`` times
    its maximum. Where the denominator, an intensity of ``subject``, is
    identically zero it raises :class:`DegenerateInputError`: "``subject``
    is identically zero: ``undefined``", or, where ``source`` is given
    and not zero, so the intensity underflowed, "``subject`` intensity
    underflowed to zero: ``undefined``". Only that path reads
    ``source``."""
    peak = denominator.max()
    if not peak > 0:
        if source is not None and np.any(source):
            raise DegenerateInputError(f"{subject} intensity underflowed to zero: {undefined}")
        raise DegenerateInputError(f"{subject} is identically zero: {undefined}")
    return numerator / np.maximum(denominator, EPSILON_REL * peak)


def update_object(coverage: np.ndarray, adjoint: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """Least-squares object estimate from a frame stack and probe.

    Conjugate-probe weighted scatter-add divided by the illumination
    coverage; pixels no frame covers come out zero. ``coverage`` is the
    probe's object coverage and ``adjoint`` the stack's accumulation
    ``illuminate_adjoint(frames, probe, geom)``; ``probe`` is read only
    when the coverage vanishes, to say whether it is zero.
    """
    return _divided(adjoint, coverage, "probe", "object coverage vanishes", source=probe)


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
    sum has the bits of ``operators.sum_frames`` on its whole stack."""
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
            # _rank1_terms.
            np.multiply(products[lo:hi], frames[lo:hi], out=products[lo:hi])

    tail, sums = _summing_tail(lambda lo, hi: (products[lo:hi], gathered[lo:hi]))
    _over_frames(chunk, work.edges, tail)
    return sums[0], sums[1]


def update_probe_standard(
    frames: np.ndarray, obj: np.ndarray, geom: ScanGeometry, work: _Workspace
) -> np.ndarray:
    """Per-pixel least-squares probe given the object: frame-averaged
    conjugate-view weighting over the summed view intensities."""
    obj = np.asarray(_check_object(obj, geom), dtype=np.complex128)
    # Elementwise, so gathering the image's intensity gives each view's
    # intensity bit for bit, at the cost of one image instead of a stack.
    intensity = np.abs(obj)
    np.square(intensity, out=intensity)
    num, den = _gathered_terms(np.asarray(frames), geom, obj, intensity, work)
    return _divided(num, den, "object", "probe update undefined", source=obj)


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


def _zero_images(geom: ScanGeometry) -> tuple[np.ndarray, np.ndarray]:
    """A zero complex adjoint accumulation and a zero intensity canvas,
    for a frame pass to add its frames into."""
    return np.zeros((geom.n, geom.n), dtype=np.complex128), np.zeros((geom.n, geom.n))


def _window_tail(
    images: Optional[tuple[np.ndarray, np.ndarray]], geom: ScanGeometry, work: _Workspace
):
    """The tail of a frame pass given ``images``, an (adjoint, canvas)
    pair from :func:`_zero_images`, or None without: it adds each
    finished chunk's conjugate-probe weighted frames (``work.stack``)
    into the adjoint and their intensities (the chunk's slot) into the
    canvas, window by window, so the images end with the bits of
    ``embed_add_frames`` on the whole stacks."""
    if images is None:
        return None
    adjoint, canvas = images

    def tail(lo, hi):
        _add_windows(adjoint, work.stack[lo:hi], geom, lo)
        _add_windows(canvas, work.slot(lo), geom, lo)

    return tail


def pairwise_discrepancy(coverage: np.ndarray, adjoint: np.ndarray, canvas: np.ndarray) -> float:
    """Mutual inconsistency of overlapping frames under the probe.

    Sum over frame pairs of the squared mismatch between each frame
    re-illuminated at the other's position; zero exactly when the
    stack comes from a single object. Evaluated matrix-free, from
    (n, n) images only, as the coverage-weighted stack energy
    ``<coverage, canvas>`` minus the energy of the adjoint accumulation,
    clamped at zero against rounding. ``coverage`` is the probe's object
    coverage, ``adjoint`` the stack's accumulation
    ``illuminate_adjoint(frames, probe, geom)`` and ``canvas`` the
    scatter-add of the stack intensity ``|frames|**2``.
    """
    energy = np.vdot(coverage, canvas).real
    return max(float(energy - np.vdot(adjoint, adjoint).real), 0.0)


def update_probe_power(
    frames: np.ndarray,
    geom: ScanGeometry,
    adjoint: np.ndarray,
    canvas: np.ndarray,
    work: _Workspace,
) -> np.ndarray:
    """One power step on the pairwise-discrepancy quadratic form.

    With the frames fixed, the discrepancy is a Hermitian form in the
    probe whose kernel (for consistent frames) is the true probe
    direction; the preconditioned power step drives the iterate toward
    it. Numerator: frames times the re-extracted conjugate adjoint
    accumulation ``adjoint = illuminate_adjoint(frames, probe, geom)``,
    summed over frames. Denominator: frame-overlap coverage of the
    stack intensity, the ``canvas`` (the scatter-add of ``|frames|**2``)
    gathered to the frames.
    """
    num, den = _gathered_terms(np.asarray(frames), geom, adjoint, canvas, work)
    return _divided(num, den, "frame stack", "power update undefined", source=frames)


def transparency_global(adjoint: np.ndarray, probe: np.ndarray, geom: ScanGeometry) -> complex:
    """Average complex transmission of the frames relative to the probe,
    ``<p, f_k> / ||p||^2`` averaged over the K frames, from their adjoint
    accumulation ``adjoint = illuminate_adjoint(frames, probe, geom)``,
    whose sum is ``sum_k <p, f_k>``."""
    probe = np.asarray(probe)
    probe_sq = np.vdot(probe, probe).real
    if probe_sq == 0.0:
        raise ValueError("probe is identically zero")
    return complex(_check_object(adjoint, geom).sum() / (geom.K * probe_sq))


def transparency_framewise(
    frames: np.ndarray,
    probe: np.ndarray,
    overlap: np.ndarray,
) -> np.ndarray:
    """Per-frame transparency averaged over each overlap neighborhood.

    ``overlap`` is the K x K binary symmetric matrix marking frame
    pairs that share object pixels (diagonal included). Its product
    with the complex per-frame sums is taken in complex128, so a
    complex128 matrix is used as it is and any other is converted on
    every call.
    """
    frames = np.asarray(frames)
    probe = np.asarray(probe)
    probe_sq = np.vdot(probe, probe).real
    if probe_sq == 0.0:
        raise ValueError("probe is identically zero")
    overlap = np.asarray(overlap, dtype=np.complex128)
    per_frame = np.tensordot(np.conj(probe), frames, axes=([0, 1], [1, 2]))
    return (overlap @ per_frame) / (probe_sq * overlap.real.sum(axis=1))


def build_overlap_matrix(geom: ScanGeometry) -> np.ndarray:
    """K x K binary matrix of frame pairs sharing at least one pixel."""
    def axis_overlap(offsets: np.ndarray) -> np.ndarray:
        d = np.mod(offsets[:, None] - offsets[None, :], geom.n)
        return (d <= geom.m - 1) | (d >= geom.n - geom.m + 1)

    rows = axis_overlap(geom.positions[:, 0])
    cols = axis_overlap(geom.positions[:, 1])
    return (rows & cols).astype(np.uint8)


def _global_shift(
    transparency: complex, coverage: np.ndarray, adjoint: np.ndarray, canvas: np.ndarray
) -> tuple[float, bool, np.ndarray]:
    """The stack shifted by one factor ``t`` in closed form: its
    coverage-weighted energy ``E - 2 Re(conj(t) <C, A>) + |t|^2 ||C||^2``
    for the stack's own weighted energy ``E = <C, canvas>``, its
    accumulation ``A`` and the object coverage ``C``; whether that weight
    is usable; and the shifted accumulation ``A - t C``."""
    energy = np.vdot(coverage, canvas).real
    cross = (np.conj(transparency) * np.vdot(coverage, adjoint)).real
    weight = energy - 2.0 * cross + abs(transparency) ** 2 * np.vdot(coverage, coverage)
    # One image-sized temporary at a time; a real factor still makes a
    # complex accumulation.
    accumulation = np.multiply(transparency, coverage, dtype=np.complex128)
    np.subtract(adjoint, accumulation, out=accumulation)
    return weight, _usable_weight(weight, energy), accumulation


def _rank1_terms(
    frames: np.ndarray,
    probe: np.ndarray,
    geom: ScanGeometry,
    factors: np.ndarray,
    coverage: np.ndarray,
    adjoint: np.ndarray,
    canvas: np.ndarray,
    work: _Workspace,
) -> tuple[np.ndarray, np.ndarray]:
    """Numerator and denominator of the transparency-shifted power
    step with one factor per frame (``factors``, complex128 of length
    K): each frame is handled by the uniform-shift formula at its own
    factor, assembled from the probe's object coverage ``C``, the
    unshifted stack's adjoint accumulation ``A`` and its intensity
    ``canvas``, so no stack is formed or scattered. With the window
    ``X|_k`` of an (n, n) image at frame k and ``A'_k = A|_k - t_k
    C|_k``, the numerator is ``sum_k conj(A'_k) f_k - p sum_k t_k
    conj(A'_k)`` and the denominator ``sum_k (canvas|_k - |t_k|^2 C|_k
    - 2 Re(conj(t_k) A'_k))``, a nonnegative coverage of shifted
    stacks; tiny negative rounding is clamped.

    Two passes. The first forms ``A'_k`` in ``work.stack`` and each
    frame's ``canvas|_k - |t_k|^2 C|_k`` in its chunk's slot, which the
    pass's tail sums; that sum, less the real part of twice ``sum_k
    conj(t_k) A'_k``, is the denominator. Its weight ``sum(den |p|^2)``
    is the shifted stack's coverage-weighted energy; where that is not
    usable (below ``_WEIGHT_FLOOR`` of the stack energy) it raises
    :class:`DegenerateInputError` before the second pass, which
    multiplies ``conj(A'_k)`` by the frames.
    """
    fcol = factors[:, None, None]
    index, view, real = geom.frame_indices, work.stack, work.real
    flat, flat_coverage = _flat_image(adjoint, geom, view), _flat_image(coverage, geom, real)
    flat_canvas = _flat_image(canvas, geom, real)

    # The float scratch is real, so ``t_k C|_k`` is taken part by part:
    # C is real, and each part has the bits of the complex product.
    # ``C|_k`` is then scaled by ``|t_k|^2`` in place and subtracted from
    # the canvas frame by frame, before any sum over the frames, which
    # keeps the denominator to the digits its terms keep.
    def shifted_accumulation(lo, hi):
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
    _over_frames(shifted_accumulation, work.edges, tail)
    # sum_k conj(t_k) A'_k, and the denominator
    cross = (np.conj(factors) @ view.reshape(geom.K, -1)).reshape(probe.shape)
    den = sums[0] - 2.0 * cross.real
    if not _usable_weight(float((den * np.abs(probe) ** 2).sum()), np.vdot(coverage, canvas).real):
        raise DegenerateInputError(
            "transparency shift left no usable stack energy: nearly constant object region"
        )

    def numerator(lo, hi):
        diff = np.conj(view[lo:hi], out=view[lo:hi])
        # Operand order fixes the rounding: numpy fuses a multiply and
        # an add in complex products, so a * b and b * a can differ in
        # the last bit. This order reproduces earlier results bit for
        # bit; on stacks of 256 KiB and more numpy evaluated
        # ``shifted * (...)`` in place in its temporary, as
        # ``(...) * shifted``.
        np.multiply(diff, frames[lo:hi], out=diff)

    tail, sums = _summing_tail(lambda lo, hi: (view[lo:hi],))
    _over_frames(numerator, work.edges, tail)
    return sums[0] - probe * np.conj(cross), np.maximum(den, 0.0)


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


def _usable_weight(weight: float, energy: float) -> bool:
    """Whether a closed-form weight, the shifted stack's coverage-weighted
    energy, keeps enough digits to score or step by: finite and at least
    ``_WEIGHT_FLOOR`` of the stack energy."""
    return math.isfinite(weight) and weight >= _WEIGHT_FLOOR * energy > 0.0


def _shift_factors(transparency: complex | np.ndarray, geom: ScanGeometry) -> complex | np.ndarray:
    """One transparency factor as it is given, or per-frame factors as
    complex128; per-frame factors of any shape but ``(K,)`` and a
    factor that is not finite raise ``ValueError``."""
    if np.ndim(transparency) == 0:
        factors = transparency
    else:
        factors = np.asarray(transparency, dtype=np.complex128)
        if factors.shape != (geom.K,):
            raise ValueError(
                f"framewise transparency must have length K={geom.K}, got shape {factors.shape}"
            )
    _check_finite(factors, "transparency")
    return factors


def shift_consistency(
    frames: np.ndarray,
    probe: np.ndarray,
    geom: ScanGeometry,
    transparency: complex | np.ndarray,
    coverage: np.ndarray,
    adjoint: np.ndarray,
    canvas: np.ndarray,
    work: _Workspace,
) -> float:
    """Consistency score of the transparency-shifted stack along the
    current probe.

    The score is the ratio of the shifted power step's quadratic form
    to its coverage-weighted norm at the current probe. It equals 1
    exactly when the shifted frames are mutually consistent (come from
    a single object under this probe) and drops toward 0 as the shift
    residue is dominated by frame inconsistency. With a single global
    factor the score is confined to [0, 1] up to rounding; with
    per-frame factors it can overshoot 1 slightly because each frame is
    scored against its own shifted stack. The solver uses it to decide
    when the shifted step can be trusted.

    The arguments are those of :func:`update_probe_rank1`, which takes
    the step the score vouches for. ``transparency`` is one complex
    factor for the whole stack or a length-K array of per-frame factors;
    per-frame factors of any other shape, and a factor that is not
    finite, raise ``ValueError`` before any work. ``coverage`` is the
    probe's object coverage, ``adjoint`` the unshifted stack's
    accumulation ``illuminate_adjoint(frames, probe, geom)`` and
    ``canvas`` the scatter-add of its intensity ``|frames|**2``.

    With one factor ``t`` the shifted stack is still plain data, so the
    form at the probe is the energy of its accumulation ``A - t C`` and
    the norm its coverage-weighted energy, ``E - 2 Re(conj(t) <C, A>) +
    |t|^2 ||C||^2`` for the accumulation ``A``, the coverage ``C`` and
    the stack's own weighted energy ``E = <C, canvas>``.

    Per-frame factors ``t_k`` take the uniform-shift formula at each
    frame's own factor (which multiplies the full coverage map): the
    plain power step of frames shifted by different constants would
    break the true-probe fixed point, since no single object makes them.
    Their form is ``||A||^2 - Re sum_k (t_k conj(alpha_k) + conj(t_k)
    beta_k) + sum_k |t_k|^2 gamma_k`` and their norm ``E - 2 Re sum_k
    conj(t_k) alpha_k + sum_k |t_k|^2 gamma_k``, from the window sums
    of :func:`_window_sums`; with every ``t_k = t`` these are the global
    terms.

    Both terms cancel as the shift residue falls many orders below the
    stack. Where the norm is not finite or below ``_WEIGHT_FLOOR`` of
    ``E`` the score is 0, so the loop takes the plain power step; the
    gate forms no shifted stack and keeps nothing.
    """
    factors = _shift_factors(transparency, geom)
    frames, probe = np.asarray(frames), np.asarray(probe)
    if np.ndim(factors) == 0:
        weight, usable, accumulation = _global_shift(factors, coverage, adjoint, canvas)
        form = np.vdot(accumulation, accumulation).real
    else:
        energy = np.vdot(coverage, canvas).real
        alpha, beta, gamma = _window_sums(frames, probe, geom, coverage, adjoint, work)
        cross = np.vdot(factors, alpha).real
        scaled = np.abs(factors) ** 2 @ gamma
        form = np.vdot(adjoint, adjoint).real - cross - np.vdot(factors, beta).real + scaled
        weight = energy - 2.0 * cross + scaled
        usable = _usable_weight(weight, energy)
    return float(form / weight) if usable else 0.0


def update_probe_rank1(
    frames: np.ndarray,
    probe: np.ndarray,
    geom: ScanGeometry,
    transparency: complex | np.ndarray,
    coverage: np.ndarray,
    adjoint: np.ndarray,
    canvas: np.ndarray,
    work: _Workspace,
) -> np.ndarray:
    """Transparency-accelerated probe update: the power step of the stack
    less its estimated transmitted component ``transparency`` times the
    probe, with the arguments of :func:`shift_consistency`.

    The step forms no shifted stack. With one factor ``t`` it reads the
    shifted stack's accumulation ``A' = A - t C``, which the gate
    scored, and its intensity canvas ``canvas - 2 Re(conj(t) A) + |t|^2
    C``, gathered and summed for the denominator; the numerator is
    ``sum_k conj(A'|_k) f_k - t p sum_k conj(A'|_k)``, where ``X|_k`` is
    the window of an (n, n) image at frame k. Two passes over
    ``work.stack``: one gathers ``conj(A'|_k)`` (and the canvas, into
    ``work.real``), the other multiplies it by the frames once its sum is
    taken. Per-frame factors take the uniform-shift formula at each
    frame's own factor, from the terms of :func:`_rank1_terms`.

    Where the shifted stack's coverage-weighted energy is not usable
    (below ``_WEIGHT_FLOOR`` of the stack energy, as
    :func:`shift_consistency` tests it), the step raises
    :class:`DegenerateInputError` before it multiplies anything by the
    frames: a nearly constant object region carries no probe information
    the closed forms can resolve, and callers may then fall back to the
    plain power update. With per-frame factors the step sums that energy
    over its own denominator, so it can fall on the other side of the
    floor from the gate's.
    """
    factors = _shift_factors(transparency, geom)
    frames, probe = np.asarray(frames), np.asarray(probe)
    if np.ndim(factors) == 0:
        _, usable, shift = _global_shift(factors, coverage, adjoint, canvas)
        if not usable:
            raise DegenerateInputError(
                "transparency shift left no usable stack energy: nearly constant object region"
            )
        cross = np.multiply(np.conj(factors), adjoint).real
        shifted_canvas = canvas - 2.0 * cross + abs(factors) ** 2 * coverage
        total, den = _gathered_terms(None, geom, shift, shifted_canvas, work)
        view = work.stack

        def product(lo, hi):
            np.multiply(view[lo:hi], frames[lo:hi], out=view[lo:hi])

        tail, sums = _summing_tail(lambda lo, hi: (view[lo:hi],))
        _over_frames(product, work.edges, tail)
        num = sums[0] - factors * probe * total
    else:
        num, den = _rank1_terms(frames, probe, geom, factors, coverage, adjoint, canvas, work)
    return _divided(num, den, "shifted frame stack", "rank-1 update undefined")


def center_probe(probe: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Circularly shift a probe so its intensity center of mass sits at
    the frame center ((m-1)/2 per axis), within one pixel.

    The center of mass is the circular (first-harmonic) mean of the
    intensity along each axis, which stays well defined when the blob
    wraps around the frame edge. Returns the shifted probe and the
    integer (row, col) shift applied.
    """
    probe = np.asarray(probe)
    intensity = np.abs(probe) ** 2
    total = intensity.sum()
    if total == 0.0:
        raise ValueError("cannot center an identically zero probe")
    m = probe.shape[0]
    target = (m - 1) / 2.0
    shift = np.zeros(2, dtype=np.int64)
    for axis in range(2):
        marginal = intensity.sum(axis=1 - axis)
        harmonic = np.sum(marginal * np.exp(2j * np.pi * np.arange(m) / m))
        if abs(harmonic) < 1e-12 * total:
            continue  # balanced mass: center undefined, leave axis alone
        com = (np.angle(harmonic) * m / (2.0 * np.pi)) % m
        delta = (target - com + m / 2.0) % m - m / 2.0
        shift[axis] = int(np.round(delta))
    return np.roll(probe, tuple(shift), axis=(0, 1)), shift


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
    images: Optional[tuple[np.ndarray, np.ndarray]] = None,
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

    Given ``images`` as well (frames of at least ``fourier._WINDOW_PX``),
    each chunk leaves its new frames' intensity in its slot, free once
    the amplitudes are imposed, and the calling thread adds each
    finished chunk into the adjoint accumulation and intensity canvas
    ``images`` (:func:`_window_tail`) while the pool works on later
    chunks.

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
            if images is not None:
                _intensity(scratch, inv)
        np.subtract(magnitudes, amplitudes[lo:hi], out=magnitudes)

    _over_frames(chunk, work.edges, _window_tail(images, geom, work))
    return np.linalg.norm(misfit)


def _start_frames(
    probe: np.ndarray,
    amplitudes: np.ndarray,
    geom: ScanGeometry,
    work: _Workspace,
    images: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> np.ndarray:
    """The frames of a unit object under ``probe`` with the measured
    ``amplitudes`` imposed, the start of a run without ``frames_init``;
    their conjugate-probe weighting is left in ``work.stack``, the stack
    whose scatter-add is their adjoint accumulation.

    Every window of a unit object is the probe, so every frame has the
    probe's spectrum and so its phases. These are taken once, in the
    first frame of the scratch stacks, by the calls the frame pass
    (:func:`_magnitude_pass`) makes on a chunk: the product of the probe
    with a window of ones, a ``(1, m, m)`` transform and the phase rule
    of :func:`_impose_amplitudes`. One pass over the chunks then fills
    each frame with the phases, multiplies them by its amplitudes,
    transforms back into the frames and weights those by the conjugate
    probe: the bits of the frame pass on a unit object, without its K
    forward transforms and magnitudes and its misfit. Given ``images``,
    the pass adds its frames into them as :func:`_magnitude_pass` does.
    """
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
        if images is not None:
            _intensity(scratch, work.slot(lo))

    _over_frames(chunk, work.edges, _window_tail(images, geom, work))
    return frames


def _check_finite(value, name: str) -> None:
    finite = np.isfinite(value).all() if isinstance(value, np.ndarray) else cmath.isfinite(value)
    if not finite:
        raise ValueError(f"{name} is not finite")


def _check_probe(probe: np.ndarray, name: str, geom: ScanGeometry) -> None:
    """Reject a wrong-shaped, non-finite or zero probe named ``name``,
    or one whose norm underflows to zero."""
    _check_probe_shape(probe, geom, name)
    if not np.all(np.isfinite(probe)):
        raise ValueError(f"{name} contains non-finite entries")
    if np.linalg.norm(probe) == 0.0:
        if np.any(probe):
            raise ValueError(f"{name} intensity underflowed to zero")
        raise ValueError(f"{name} is identically zero")


@dataclass
class _Iterate:
    """State the loop carries from one iteration to the next.

    ``coverage`` is the (n, n) object coverage of ``probe``,
    ``adjoint`` is ``illuminate_adjoint(frames, probe)`` and ``canvas``
    the scatter-add of the intensity ``|frames|**2``, which the metrics
    row computes for the frames it records, or for frames of at least
    ``fourier._WINDOW_PX`` the pass that makes them. Each is computed
    once per iteration and read by the metrics row and the probe step: the
    coverage and ``adjoint`` also by the next object update, ``adjoint``
    and ``canvas`` by the power step, and all three by both rank-1
    gates and the shifted step. ``work`` holds every other frame-sized stack the steps
    use. ``since_shift`` counts the iterations since the last
    transparency-shifted step.
    """

    frames: np.ndarray
    probe: np.ndarray
    coverage: np.ndarray
    adjoint: np.ndarray
    work: _Workspace
    since_shift: int
    shift_seen: bool = False
    canvas: Optional[np.ndarray] = None


def _probe_step(
    state: _Iterate,
    obj: np.ndarray,
    geom: ScanGeometry,
    cfg: SolverConfig,
    overlap: Optional[np.ndarray],
    iteration: int,
    events: list[str],
) -> tuple[np.ndarray, bool]:
    """One probe update per ``cfg.probe_mode``.

    Returns the new probe and whether this step was transparency-
    shifted, and advances the shift schedule in ``state``.
    """
    frames, probe, work = state.frames, state.probe, state.work
    coverage, adjoint, canvas = state.coverage, state.adjoint, state.canvas
    if cfg.probe_mode == "standard":
        return update_probe_standard(frames, obj, geom, work), False
    if cfg.probe_mode != "power" and state.since_shift >= RANK1_CADENCE:
        if cfg.probe_mode == "rank1_framewise":
            factor = transparency_framewise(frames, probe, overlap)
        else:
            factor = transparency_global(adjoint, probe, geom)
        args = (frames, probe, geom, factor, coverage, adjoint, canvas, work)
        score = shift_consistency(*args)
        if score >= RANK1_GATE:
            try:
                stepped = update_probe_rank1(*args)
            except DegenerateInputError:
                events.append(
                    f"iteration {iteration}: degenerate transparency shift, "
                    "fell back to power update"
                )
            else:
                if not state.shift_seen:
                    events.append(
                        f"iteration {iteration}: transparency shift engaged "
                        f"(consistency {score:.3f})"
                    )
                state.since_shift = 0
                state.shift_seen = True
                return stepped, True
    state.since_shift += 1
    return update_probe_power(frames, geom, adjoint, canvas, work), False


def run_reconstruction(
    amplitudes: np.ndarray,
    geom: ScanGeometry,
    probe_init: np.ndarray,
    cfg: SolverConfig,
    probe_true: Optional[np.ndarray] = None,
    frames_init: Optional[np.ndarray] = None,
) -> History:
    """Alternating blind reconstruction from diffraction amplitudes.

    Each outer iteration updates the object, then the probe (per
    ``cfg.probe_mode``), recenters the probe (jointly rolling the
    object, which preserves the data fit) and locks its norm to the
    initial probe's, and finally rebuilds the frames from the model
    with measured magnitudes imposed. In the rank-1 modes the transparency-shifted
    step runs on the gate-and-cadence schedule described in the module
    docstring, and after a shifted step the object is recomputed with
    the new probe before the frames are rebuilt. Metrics are recorded
    every iteration; row 0 describes the initial state. The recorded
    data residual is the model feasibility gap: the relative distance
    between the measured amplitudes and the magnitudes the current
    (object, probe) pair predicts (at row 0, the object implied by the
    initial frames). The frames themselves always satisfy the
    magnitude constraint after the frame update, so their own gap
    would be vacuous.

    Without ``frames_init`` the run starts from the frames of a unit
    object under the initial probe, with the measured magnitudes
    imposed. Every window of a unit object is the probe, so the probe's
    spectrum is transformed once and its phases given to every frame:
    the bits of the frame update on a unit object, without its K forward
    transforms.
    ``stop_nrmse`` halts the run at the first iteration whose probe
    error reaches the threshold and requires ``probe_true``.
    """
    amplitudes = _check_stack(check_amplitudes(amplitudes), geom, "amplitudes")
    probe = np.array(probe_init, dtype=np.complex128)
    _check_probe(probe, "probe_init", geom)
    norm_lock_target = np.linalg.norm(probe)
    if probe_true is not None:
        _check_probe(np.asarray(probe_true), "probe_true", geom)
    if cfg.stop_nrmse is not None and probe_true is None:
        raise ValueError("stop_nrmse requires the true probe")

    work = _Workspace(geom)
    windowed = _by_windows(geom)
    canvas = None
    overlap = None
    if cfg.probe_mode == "rank1_framewise":
        # Built once per run, before the frames like the workspace, in
        # the dtype its product is taken in.
        overlap = build_overlap_matrix(geom).astype(np.complex128)
    if frames_init is None:
        # An (n, n) block held over the start and freed after the
        # adjoint leaves a gap in the heap that the loop's (n, n)
        # temporaries take. Without the gap the 300-iteration 64 px
        # solves of perfbench's noisy_wrap64 ran 2-3% slower, from the
        # placement alone; nothing reads the block.
        gap = np.empty((geom.n, geom.n), dtype=np.complex128)
        if windowed:
            adjoint, canvas = _zero_images(geom)
            frames = _start_frames(probe, amplitudes, geom, work, (adjoint, canvas))
        else:
            frames = _start_frames(probe, amplitudes, geom, work)
            adjoint = embed_add_frames(work.stack, geom)
        del gap
    else:
        # A C-ordered copy: the loop overwrites these frames in place,
        # and the frames' memory order decides how reductions round.
        frames = np.array(frames_init, dtype=np.complex128, order="C")
        _check_stack(frames, geom, "frames_init")
        if not np.all(np.isfinite(frames)):
            raise ValueError("frames_init contains non-finite entries")
        adjoint = illuminate_adjoint(frames, probe, geom, scratch=work.stack)
        if windowed:
            canvas = _intensity_canvas(frames, geom, work)

    history = History()
    t_start = time.perf_counter()
    coverage = _object_coverage(probe, geom, work.real)
    state = _Iterate(
        frames, probe, coverage, adjoint, work, since_shift=RANK1_CADENCE, canvas=canvas
    )
    # From here the state holds these; the old names would keep the
    # first probe, coverage, adjoint and canvas alive for the whole run.
    del frames, probe, coverage, adjoint, canvas

    def record(iteration: int, resid: float, t0: float) -> bool:
        """Append a metrics row; returns whether the stop rule fires."""
        err = nrmse_probe(state.probe, probe_true) if probe_true is not None else None
        if not windowed:
            # Below the window size the frame passes make no canvas.
            state.canvas = _intensity_canvas(state.frames, geom, work)
        pairwise = pairwise_discrepancy(state.coverage, state.adjoint, state.canvas)
        _check_finite(pairwise, "pairwise discrepancy")
        history.rows.append(
            MetricsRow(
                iter=iteration,
                nrmse_probe=err,
                data_residual=resid,
                pairwise=pairwise,
                wall_ms=(time.perf_counter() - t0) * 1000.0,
            )
        )
        return cfg.stop_nrmse is not None and err is not None and err <= cfg.stop_nrmse

    amp_norm = np.linalg.norm(amplitudes)

    def model_gap(misfit_norm: float) -> float:
        # An overflowing norm would make the ratio NaN or a false 0.
        _check_finite(misfit_norm, "data misfit norm")
        _check_finite(amp_norm, "amplitude norm")
        return _relative_gap(misfit_norm, amp_norm)

    iteration = 0
    try:
        obj = update_object(state.coverage, state.adjoint, state.probe)
        # Row 0 keeps the initial frames: its pass writes no frames.
        misfit_norm = _magnitude_pass(obj, state.probe, amplitudes, geom, work, None)
        stop = record(0, model_gap(misfit_norm), t_start)
        for iteration in range(1, cfg.max_iters + 1):
            if stop:
                break
            t0 = time.perf_counter()
            obj = update_object(state.coverage, state.adjoint, state.probe)
            probe, engaged = _probe_step(state, obj, geom, cfg, overlap, iteration, history.events)
            _check_finite(probe, f"{cfg.probe_mode} probe update")
            probe, shift = center_probe(probe)
            if shift.any():
                obj = np.roll(obj, tuple(shift), axis=(0, 1))
            norm = np.linalg.norm(probe)
            if norm == 0.0:
                raise ValueError("probe update collapsed to zero")
            probe *= norm_lock_target / norm
            state.probe = probe
            state.coverage = _object_coverage(probe, geom, work.real)
            if engaged:
                # A shifted step can move the probe far; re-fit the
                # object before rebuilding the frames so the jump is
                # kept instead of being averaged away. The old object
                # is dropped first, out of the re-fit's peak memory.
                del obj
                obj = update_object(
                    state.coverage,
                    illuminate_adjoint(state.frames, probe, geom, scratch=work.stack),
                    probe,
                )
            # Nothing reads the old frames any more: the new ones
            # overwrite them.
            if windowed:
                # The old images go before the pass makes the new ones,
                # out of its peak memory.
                state.adjoint = state.canvas = None
                state.adjoint, state.canvas = _zero_images(geom)
                misfit_norm = _magnitude_pass(
                    obj, probe, amplitudes, geom, work, state.frames, (state.adjoint, state.canvas)
                )
            else:
                misfit_norm = _magnitude_pass(obj, probe, amplitudes, geom, work, state.frames)
                state.adjoint = embed_add_frames(work.stack, geom)
            stop = record(iteration, model_gap(misfit_norm), t0)
    except ValueError as exc:
        raise type(exc)(f"iteration {iteration}: {exc}") from exc

    history.probe = state.probe
    history.object_image = obj
    history.frames = state.frames
    return history
