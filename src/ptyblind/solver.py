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
    On the weak-contrast acceptance instance (criterion 6) they reach
    probe NRMSE 0.1 in 19 (global) and 16 (per-frame) iterations
    against 51 for ``standard``. Why is still open. It is not a
    spectral gap the shift restores: at fixed, consistent frames the
    plain power step has one unit eigenvalue per gauge class of the
    scan (16 on the 4 px raster) and the next at |lambda| = 0.069, a
    gap of 0.93, and there the shifted step contracts more slowly than
    the plain one, not faster.

The shifted step divides by the small residual contrast, so it
amplifies whatever frame inconsistency the magnitude projection left
behind; applied unconditionally it is violently unstable early in a
run. The loop therefore schedules it: a shifted step is taken only
when :func:`shift_consistency` certifies the shifted stack is close
to self-consistent (a score of at least ``RANK1_GATE``) and at most
every ``RANK1_CADENCE`` iterations, with plain power steps
consolidating in between. A shifted step replaces the probe step and
nothing else: every iteration updates the object once, before its probe
step. Both branches leave an exact solution fixed.

Three products of the current (frames, probe) pair are computed once
per iteration and read by every consumer: the object coverage ``C``;
the adjoint accumulation ``A = illuminate_adjoint(frames, probe)``, the
numerator of the next object update and the power step's
accumulation; and the intensity canvas, the scatter-add of
``|frames|**2``. The frame update makes the last two with the frames.
``<C, canvas>`` is the stack's coverage-weighted energy ``E``, from
which the metrics row's pairwise discrepancy ``E - ||A||^2`` and the
global gate read; the canvas gathered to the frames is the power step's
denominator. All three are (n, n) images, gathered to the frames where
a step reads them. Every step takes the ones it reads as required
arguments, with the run's scratch, and none recomputes them; a
step that needs the accumulation of another stack (the frames under a
new probe) is handed it by its caller. The steps keep public names
in this module because the benchmark in ``perfbench/`` traces them by
name. The rank-1 estimators and the gate run only on iterations the
cadence allows.
Shifting every frame by one factor ``t`` times the probe shifts the
adjoint accumulation ``A`` by ``t`` times the object coverage ``C``,
and the intensity canvas by ``|t|^2 C - 2 Re(conj(t) A)``. So the
global gate's transparency, its shifted accumulation ``A_s = A - t C``
and its score, ``||A_s||^2`` over the shifted stack's
coverage-weighted energy, all come from (n, n) images, and so does the
global shifted step, the power step on ``A_s`` and the shifted canvas.
The per-frame gate's score is the same form with one factor per frame;
it comes from those images and three length-K sums over the frame
windows, ``alpha`` and ``gamma`` (``|p|**2`` against the gathered
windows of ``A`` and ``C``) and ``beta``, from one gathered pass. The
per-frame step takes each frame's shifted accumulation ``A|_k - t_k
C|_k`` from the gathered images, and reduces ``alpha`` and ``gamma``
from the same windows by the same calls. No gate or step forms a
shifted stack. These closed forms lose about ``log10(E / weight)``
digits as the shifted stack's coverage-weighted energy, the weight,
falls below the stack's ``E``. Each gate and its step take the weight
from one helper (:func:`_global_shift`, :func:`_framewise_shift`) and
the same bits: below ``_WEIGHT_FLOOR`` of ``E``, on a nearly
transparent stack, the gate scores 0 and the loop takes the plain power
step, and the step, called alone, raises :class:`DegenerateInputError`.
So a step the gate accepted does not raise for its weight, and a step
that raises all the same ends the run. A gate returns its score and
keeps nothing.
The model spectra are transformed once: their magnitudes give the
data residual and then phase the spectra in place for the frame
update.

The per-frame work runs in the frame-pass engine, ``_passes``: its
chunked passes, the run's scratch and how frames are scattered onto
the object are described there. This module keeps the
formulas, the weight floor and the errors. To it the run's scratch is
an opaque handle, made once per run and handed to the engine's calls,
each of which owns it while it runs; it scatters no frames itself.

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

from ._passes import (
    _Workspace, _frame_update, _framewise_shifted_sums, _gathered_terms,
    _magnitude_pass, _object_coverage, _shifted_sums, _stack_images, _start_frames, _window_sums,
)
from .fourier import check_amplitudes
from .metrics import MetricsRow, _relative_gap, nrmse_probe
from .operators import (
    ScanGeometry,
    _check_integer,
    _check_object,
    _check_probe as _check_probe_shape,
    _check_stack,
    extract_frames,  # noqa: F401  (unused here; perfbench's tracer test wraps this binding)
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
        raise DegenerateInputError(f"{_zero(subject, source)}: {undefined}")
    return numerator / np.maximum(denominator, EPSILON_REL * peak)


def _zero(subject: str, source) -> str:
    """What ``subject``, whose intensity is zero, is: "``subject``
    intensity underflowed to zero" where ``source`` has a nonzero entry,
    else "``subject`` is identically zero"."""
    state = "intensity underflowed to zero" if np.any(source) else "is identically zero"
    return f"{subject} {state}"


def update_object(coverage: np.ndarray, adjoint: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """Least-squares object estimate from a frame stack and probe.

    Conjugate-probe weighted scatter-add divided by the illumination
    coverage; pixels no frame covers come out zero. ``coverage`` is the
    probe's object coverage and ``adjoint`` the stack's accumulation
    ``illuminate_adjoint(frames, probe, geom)``; ``probe`` is read only
    when the coverage vanishes, to say whether it is zero.
    """
    return _divided(adjoint, coverage, "probe", "object coverage vanishes", source=probe)


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
        raise ValueError(_zero("probe", probe))
    return complex(_check_object(adjoint, geom).sum() / (geom.K * probe_sq))


def transparency_framewise(
    frames: np.ndarray, probe: np.ndarray, geom: ScanGeometry
) -> np.ndarray:
    """Per-frame transparency averaged over each overlap neighbourhood:
    for frame k, the mean of ``<p, f_j> / ||p||^2`` over the frames j
    whose windows share a pixel with its own, itself included.

    Two windows share a pixel exactly when their row offsets and their
    column offsets are each less than ``m`` apart around the circle, so
    the neighbourhood sums are separable: the inner products are added
    onto the grid of distinct (row, column) offsets, multiplied by the
    overlap of each axis and read back at each frame's offsets, then
    divided by the exact neighbour counts. Nothing of K x K size is
    formed.
    """
    frames = _check_stack(frames, geom)
    probe = np.asarray(probe)
    probe_sq = np.vdot(probe, probe).real
    if probe_sq == 0.0:
        raise ValueError(_zero("probe", probe))
    per_frame = np.tensordot(np.conj(probe), frames, axes=([0, 1], [1, 2]))
    hood = geom._neighbourhoods
    return hood.sums(per_frame) / (probe_sq * hood.counts)


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


def _usable_weight(weight: float, energy: float) -> bool:
    """Whether a closed-form weight, the shifted stack's coverage-weighted
    energy, keeps enough digits to score or step by: finite and at least
    ``_WEIGHT_FLOOR`` of the stack energy."""
    return math.isfinite(weight) and weight >= _WEIGHT_FLOOR * energy > 0.0


def _framewise_shift(factors, alpha, gamma, coverage, canvas) -> tuple[float, bool, float, float]:
    """The stack shifted by one factor ``t_k`` per frame in closed form:
    its coverage-weighted energy ``E - 2 Re sum_k conj(t_k) alpha_k +
    sum_k |t_k|^2 gamma_k`` for the stack's own weighted energy ``E =
    <C, canvas>`` and the per-frame sums ``alpha`` and ``gamma`` of
    :func:`_window_sums`; whether that weight is usable; and its two
    shift terms, ``Re sum_k conj(t_k) alpha_k`` and ``sum_k |t_k|^2
    gamma_k``. The per-frame gate and step both weigh the shifted stack
    here, from sums with the same bits, so they test the same weight."""
    energy = np.vdot(coverage, canvas).real
    cross = np.vdot(factors, alpha).real
    scaled = np.abs(factors) ** 2 @ gamma
    weight = energy - 2.0 * cross + scaled
    return weight, _usable_weight(weight, energy), cross, scaled


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
    terms. The norm is the step's weight too (:func:`_framewise_shift`).

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
        alpha, beta, gamma = _window_sums(frames, probe, geom, coverage, adjoint, work)
        weight, usable, cross, scaled = _framewise_shift(factors, alpha, gamma, coverage, canvas)
        form = np.vdot(adjoint, adjoint).real - cross - np.vdot(factors, beta).real + scaled
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
    the window of an (n, n) image at frame k. Per-frame factors ``t_k``
    take the uniform-shift formula at each frame's own factor: with
    ``A'_k = A|_k - t_k C|_k`` the numerator is ``sum_k conj(A'_k) f_k -
    p sum_k t_k conj(A'_k)`` and the denominator ``sum_k (canvas|_k -
    |t_k|^2 C|_k - 2 Re(conj(t_k) A'_k))``, a nonnegative coverage of
    shifted stacks whose tiny negative rounding is clamped. Either
    form's sums over the frames come from one call of the frame-pass
    engine.

    Where the shifted stack's coverage-weighted energy is not usable
    (below ``_WEIGHT_FLOOR`` of the stack energy), the step raises
    :class:`DegenerateInputError`: a nearly constant object region
    carries no probe information the closed forms can resolve. It tests
    the weight :func:`shift_consistency` tests, from the same bits, so
    it raises on exactly the stacks whose weight the gate rejects. With
    one factor it raises before any pass over the frames; with per-frame
    factors, once the engine call that gives the window sums, and with
    them the products, has run.
    """
    factors = _shift_factors(transparency, geom)
    frames, probe = np.asarray(frames), np.asarray(probe)
    if np.ndim(factors) == 0:
        _, usable, shift = _global_shift(factors, coverage, adjoint, canvas)
        if usable:
            # The product's complex base is freed before the passes.
            cross = np.multiply(np.conj(factors), adjoint).real
            shifted_canvas = canvas - 2.0 * cross + abs(factors) ** 2 * coverage
            del cross
            num, total, den = _shifted_sums(frames, geom, shift, shifted_canvas, work)
            num -= factors * probe * total
    else:
        num, cross, canvas_sum, alpha, gamma = _framewise_shifted_sums(
            frames, probe, geom, factors, coverage, adjoint, canvas, work
        )
        usable = _framewise_shift(factors, alpha, gamma, coverage, canvas)[1]
        num -= probe * np.conj(cross)
        den = np.maximum(canvas_sum - 2.0 * cross.real, 0.0)
    if not usable:
        raise DegenerateInputError(
            "transparency shift left no usable stack energy: nearly constant object region"
        )
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
        raise ValueError(f"cannot center the probe: {_zero('probe', probe)}")
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
        raise ValueError(_zero(name, probe))


@dataclass
class _Iterate:
    """State the loop carries from one iteration to the next.

    ``coverage`` is the (n, n) object coverage of ``probe``,
    ``adjoint`` is ``illuminate_adjoint(frames, probe)`` and ``canvas``
    the scatter-add of the intensity ``|frames|**2``, both made by the
    pass that makes the frames. Each is computed once per iteration and
    read by the metrics row and the probe step: the coverage and
    ``adjoint`` also by the next object update, ``adjoint`` and
    ``canvas`` by the power step, and all three by both rank-1 gates
    and the shifted step. ``work`` holds every other frame-sized stack
    the steps use. ``since_shift`` counts the iterations since the last
    transparency-shifted step.
    """

    frames: np.ndarray
    probe: np.ndarray
    coverage: np.ndarray
    adjoint: np.ndarray
    canvas: np.ndarray
    work: _Workspace
    since_shift: int
    shift_seen: bool = False


def _probe_step(
    state: _Iterate,
    obj: np.ndarray,
    geom: ScanGeometry,
    cfg: SolverConfig,
    iteration: int,
    events: list[str],
) -> np.ndarray:
    """One probe update per ``cfg.probe_mode``: returns the new probe and
    advances the shift schedule in ``state``."""
    frames, probe, work = state.frames, state.probe, state.work
    coverage, adjoint, canvas = state.coverage, state.adjoint, state.canvas
    if cfg.probe_mode == "standard":
        return update_probe_standard(frames, obj, geom, work)
    if cfg.probe_mode != "power" and state.since_shift >= RANK1_CADENCE:
        if cfg.probe_mode == "rank1_framewise":
            factor = transparency_framewise(frames, probe, geom)
        else:
            factor = transparency_global(adjoint, probe, geom)
        args = (frames, probe, geom, factor, coverage, adjoint, canvas, work)
        score = shift_consistency(*args)
        if score >= RANK1_GATE:
            if not state.shift_seen:
                events.append(
                    f"iteration {iteration}: transparency shift engaged (consistency {score:.3f})"
                )
            state.since_shift = 0
            state.shift_seen = True
            return update_probe_rank1(*args)
    state.since_shift += 1
    return update_probe_power(frames, geom, adjoint, canvas, work)


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
    with measured magnitudes imposed. In the rank-1 modes the
    transparency-shifted step takes the place of the probe update on the
    gate-and-cadence schedule described in the module docstring; the
    object is updated once per iteration in every mode. Metrics are recorded
    every iteration; row 0 describes the initial state. The recorded
    data residual is the model feasibility gap: the relative distance
    between the measured amplitudes and the magnitudes the current
    (object, probe) pair predicts (at row 0, the object implied by the
    initial frames). Its norm is taken from each frame's squared misfit,
    summed over the frames, so its bits do not depend on how the frames
    are chunked; it is within about 1e-15 relative of the norm of the
    whole misfit stack. The frames themselves always satisfy the
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
    if frames_init is None:
        frames, adjoint, canvas = _start_frames(probe, amplitudes, geom, work)
    else:
        # A C-ordered copy: the loop overwrites these frames in place,
        # and the frames' memory order decides how reductions round.
        frames = np.array(frames_init, dtype=np.complex128, order="C")
        _check_stack(frames, geom, "frames_init")
        if not np.all(np.isfinite(frames)):
            raise ValueError("frames_init contains non-finite entries")
        adjoint, canvas = _stack_images(frames, probe, geom, work)

    history = History()
    t_start = time.perf_counter()
    coverage = _object_coverage(probe, geom, work)
    state = _Iterate(frames, probe, coverage, adjoint, canvas, work, since_shift=RANK1_CADENCE)
    # From here the state holds these; the old names would keep the
    # first probe, coverage, adjoint and canvas alive for the whole run.
    del frames, probe, coverage, adjoint, canvas

    def record(iteration: int, resid: float, t0: float) -> bool:
        """Append a metrics row; returns whether the stop rule fires."""
        err = nrmse_probe(state.probe, probe_true) if probe_true is not None else None
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
            probe = _probe_step(state, obj, geom, cfg, iteration, history.events)
            _check_finite(probe, f"{cfg.probe_mode} probe update")
            probe, shift = center_probe(probe)
            if shift.any():
                obj = np.roll(obj, tuple(shift), axis=(0, 1))
            norm = np.linalg.norm(probe)
            if norm == 0.0:
                raise ValueError("probe update collapsed to zero")
            probe *= norm_lock_target / norm
            state.probe = probe
            state.coverage = _object_coverage(probe, geom, work)
            # Nothing reads the old frames any more: the new ones
            # overwrite them. The old images go before the pass makes
            # the new ones, out of its peak memory.
            state.adjoint = state.canvas = None
            misfit_norm, state.adjoint, state.canvas = _frame_update(
                obj, probe, amplitudes, geom, work, state.frames
            )
            stop = record(iteration, model_gap(misfit_norm), t0)
    except ValueError as exc:
        raise type(exc)(f"iteration {iteration}: {exc}") from exc

    history.probe = state.probe
    history.object_image = obj
    history.frames = state.frames
    return history
