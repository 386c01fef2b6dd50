"""Shared oracle builders for the test suite.

The oracles here are built independently from the library internals:
dense matrices come from explicit Python loops over scan positions,
so agreement with the matrix-free operators is meaningful evidence.
``step_inputs`` is the exception: it builds a solver step's inputs
the way the reconstruction loop does.
"""

import shutil
import tempfile
from typing import NamedTuple

import numpy as np
import pytest

from ptyblind import (
    DegenerateInputError,
    ScanGeometry,
    coverage_maps,
    embed_add_frames,
    extract_frames,
    frame_dft,
    illuminate,
    illuminate_adjoint,
)
from ptyblind.metrics import _relative_gap
from ptyblind._passes import _Workspace
from ptyblind.operators import replicate_probe
from ptyblind.solver import (
    EPSILON_REL,
    _WEIGHT_FLOOR,
    update_object,
)


def rand_complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_geometry(rng, n, m, K):
    positions = rng.integers(0, n, size=(K, 2))
    return ScanGeometry(n=n, m=m, positions=positions)


def dense_extract_matrix(geom):
    """Dense (K*m*m) x (n*n) window-extraction matrix, one row per
    stacked frame pixel, built by direct index enumeration."""
    n, m = geom.n, geom.m
    T = np.zeros((geom.K * m * m, n * n))
    row = 0
    for i in range(geom.K):
        r0, c0 = (int(v) for v in geom.positions[i])
        for r in range(m):
            for c in range(m):
                T[row, ((r0 + r) % n) * n + (c0 + c) % n] = 1.0
                row += 1
    return T


def dense_replicate_matrix(geom):
    """Dense (K*m*m) x (m*m) stack-of-identities replication matrix."""
    eye = np.eye(geom.m * geom.m)
    return np.vstack([eye] * geom.K)


def dense_illuminate_matrix(probe, geom):
    """Dense (K*m*m) x (n*n) matrix of window extraction followed by
    pointwise probe multiplication."""
    S = dense_replicate_matrix(geom)
    weights = S @ probe.reshape(-1)
    return weights[:, None] * dense_extract_matrix(geom).astype(complex)


def stack_to_vec(frames):
    return np.asarray(frames).reshape(-1)


def vec_to_stack(vec, geom):
    return np.asarray(vec).reshape(geom.K, geom.m, geom.m)


def dense_power_matrices(frames, geom):
    """Explicit probe-space matrices of the pairwise-discrepancy form.

    For the quadratic form in the probe at fixed frames, returns the
    diagonal weight D (as a length m*m vector) and the Hermitian
    matrix A, accumulated pair by pair over object pixels: every
    (frame, frame-pixel) pair landing on the same object pixel
    couples.
    """
    n, m, K = geom.n, geom.m, geom.K
    M = m * m
    zf = np.asarray(frames).reshape(K, M)
    # object pixel hit by probe pixel q of frame i
    hit = np.zeros((K, M), dtype=np.int64)
    for i in range(K):
        r0, c0 = (int(v) for v in geom.positions[i])
        q = 0
        for r in range(m):
            for c in range(m):
                hit[i, q] = ((r0 + r) % n) * n + (c0 + c) % n
                q += 1
    A = np.zeros((M, M), dtype=complex)
    D = np.zeros(M)
    for pix in range(n * n):
        frames_idx, cols = np.nonzero(hit == pix)
        if cols.size == 0:
            continue
        vals = zf[frames_idx, cols]
        contrib = np.zeros(M, dtype=complex)
        np.add.at(contrib, cols, vals)
        A += np.outer(contrib, np.conj(contrib))
        count = np.zeros(M)
        np.add.at(count, cols, 1.0)
        D += count * float((np.abs(vals) ** 2).sum())
    return D, A


class StepInputs(NamedTuple):
    coverage: np.ndarray
    adjoint: np.ndarray
    canvas: np.ndarray
    work: _Workspace


def step_inputs(frames, probe, geom):
    """What the reconstruction loop hands a solver step for the pair
    (frames, probe), built fresh from public operators: the probe's
    object coverage, the adjoint accumulation ``illuminate_adjoint(frames,
    probe, geom)``, the scatter-add of the stack intensity ``|frames|**2``
    and a new run workspace.

    The steps take these in this order, after their other arguments, so
    ``*step_inputs(...)`` completes a call of ``shift_consistency`` and
    ``update_probe_rank1``, ``*step_inputs(...)[:3]`` one of
    ``pairwise_discrepancy`` and ``*step_inputs(...)[1:]`` one of
    ``update_probe_power``.
    """
    coverage = coverage_maps(probe, geom).object_coverage
    adjoint = illuminate_adjoint(frames, probe, geom)
    canvas = embed_add_frames(np.abs(frames) ** 2, geom)
    return StepInputs(coverage, adjoint, canvas, _Workspace(geom))


def stack_scored_gate(frames, probe, geom, transparency):
    """The global gate's score taken on the shifted stack itself: the
    energy of the shifted stack's adjoint accumulation (its conjugate-
    probe weighting, scattered) over the stack's energy weighted by the
    object coverage gathered to the frames; 0 for a zero stack."""
    shifted = np.asarray(frames) - transparency * replicate_probe(probe, geom)
    accumulation = embed_add_frames(np.conj(probe) * shifted, geom)
    coverage = extract_frames(coverage_maps(probe, geom).object_coverage, geom)
    weight = np.vdot(shifted, coverage * shifted).real
    form = np.vdot(accumulation, accumulation).real
    return float(form / weight) if weight > 0.0 else 0.0


def uniform_shift_terms(frames, probe, geom, factors):
    """Numerator and denominator of the shifted power step with one
    factor per frame, frame by frame: frame i's terms come from the
    whole stack shifted uniformly by its own factor, formed explicitly,
    scattered and gathered back. The denominator is not clamped."""
    num = np.zeros((geom.m, geom.m), dtype=complex)
    den = np.zeros((geom.m, geom.m))
    for i in range(geom.K):
        uniform = frames - factors[i] * probe[None, :, :]
        acc = illuminate_adjoint(uniform, probe, geom)
        num += uniform[i] * extract_frames(np.conj(acc), geom)[i]
        den += extract_frames(embed_add_frames(np.abs(uniform) ** 2, geom), geom)[i]
    return num, den


def stack_formed_step(frames, probe, geom, transparency):
    """The shifted step from explicitly shifted stacks: the terms of
    :func:`uniform_shift_terms` at each frame's factor (one factor for
    every frame, given a single transparency), the denominator clamped
    at zero and floored as the solver floors it."""
    if np.ndim(transparency) == 0:
        factors = np.full(geom.K, complex(transparency))
    else:
        factors = np.asarray(transparency, dtype=complex)
    num, den = uniform_shift_terms(np.asarray(frames), np.asarray(probe), geom, factors)
    den = np.maximum(den, 0.0)
    return num / np.maximum(den, EPSILON_REL * den.max())


def stack_scored_framewise_gate(frames, probe, geom, factors):
    """The per-frame gate's score taken on the shifted stacks: the
    shifted step's quadratic form ``<p, num>`` over its weight
    ``sum(den |p|^2)``, from the terms of :func:`uniform_shift_terms`
    with the denominator clamped at zero; 0 for a zero weight."""
    probe = np.asarray(probe)
    num, den = uniform_shift_terms(np.asarray(frames), probe, geom, np.asarray(factors))
    weight = float((np.maximum(den, 0.0) * np.abs(probe) ** 2).sum())
    return float(np.vdot(probe, num).real / weight) if weight > 0.0 else 0.0


def frame_consistency_project(frames, probe, geom):
    """Project a frame stack onto the set consistent with one object.

    Averages the frames into the object domain (coverage-weighted) and
    re-illuminates; fixed points are exactly the stacks a single object
    can produce under the probe.
    """
    coverage, adjoint = step_inputs(frames, probe, geom)[:2]
    return illuminate(update_object(coverage, adjoint, probe), probe, geom)


def data_residual(frames, amplitudes):
    """Relative gap between frame spectra magnitudes and measured data,
    with the loop's convention against all-zero data."""
    amplitudes = np.asarray(amplitudes)
    gap = np.linalg.norm(np.abs(frame_dft(frames)) - amplitudes)
    return _relative_gap(gap, np.linalg.norm(amplitudes))


def frame_idft(spectra):
    """Inverse of ``frame_dft``: the unitary inverse 2D DFT of each frame."""
    return np.fft.ifft2(spectra, axes=(-2, -1), norm="ortho")


def spectrum_phase(spectra):
    """Unit-modulus phase of a spectrum stack, with phase(0) = 1."""
    magnitudes = np.abs(spectra)
    zero = magnitudes == 0.0
    phase = spectra / np.where(zero, 1.0, magnitudes)
    phase[zero] = 1.0
    return phase


def divided_spectra(spectra, amplitudes):
    """Spectra given the magnitudes ``amplitudes`` by complex division:
    ``spectra`` over their magnitudes filled into a complex stack, with
    phase 1 at exactly-zero bins, times the amplitudes."""
    magnitudes = np.empty_like(spectra)
    magnitudes[...] = np.abs(spectra)
    zero = magnitudes == 0.0
    magnitudes[zero] = 1.0
    phase = spectra / magnitudes
    phase[zero] = 1.0
    return phase * amplitudes


def magnitude_project(frames, amplitudes):
    """Replace each frame's Fourier magnitudes with measured amplitudes.

    Keeps the Fourier phases of ``frames`` (zero-magnitude bins take
    phase 1) and returns the inverse transform, i.e. the nearest stack
    whose per-frame spectra have the prescribed magnitudes.
    """
    return frame_idft(spectrum_phase(frame_dft(frames)) * amplitudes)


def update_probe_rank1_expanded(frames, probe, geom, transparency):
    """Cross-check of the shifted step (``update_probe_rank1``) by the complementary
    arithmetic route, built from the public operators only.

    Global factor c: the transparency terms are distributed through the
    power step's numerator and denominator instead of shifting the
    stack first. The shifted stack's adjoint accumulation is the
    unshifted one minus c times the object coverage, and its intensity
    expands to |z|^2 - 2 Re(conj(c) conj(p) z) + |c|^2 |p|^2.
    Per-frame factors: each frame's contribution is recomputed from an
    explicitly shifted stack (one uniform shift per frame), the
    un-distributed form of the same update. Either raises
    ``DegenerateInputError`` where the weight of the unclamped
    denominator, ``sum(den |p|^2)``, is below ``_WEIGHT_FLOOR`` of the
    stack's coverage-weighted energy.
    """
    frames = np.asarray(frames)
    probe = np.asarray(probe)
    one_factor = np.ndim(transparency) == 0
    if one_factor:
        factors = np.full(geom.K, complex(transparency))
    else:
        factors = np.asarray(transparency, dtype=complex)
    frame_cov = coverage_maps(probe, geom).frame_coverage

    if one_factor:
        c = factors[0]
        shifted = frames - c * probe[None, :, :]
        adjoint_view = extract_frames(illuminate_adjoint(frames, probe, geom), geom)
        num = (shifted * (np.conj(adjoint_view) - np.conj(c) * frame_cov)).sum(axis=0)
        stack_cov = extract_frames(embed_add_frames(np.abs(frames) ** 2, geom), geom)
        den = (
            stack_cov - 2.0 * np.real(np.conj(c) * adjoint_view) + abs(c) ** 2 * frame_cov
        ).sum(axis=0)
    else:
        num, den = uniform_shift_terms(frames, probe, geom, factors)
    energy = np.vdot(frames, frame_cov * frames).real
    if not (den * np.abs(probe) ** 2).sum() >= _WEIGHT_FLOOR * energy > 0.0:
        raise DegenerateInputError("transparency shift left no usable stack energy")
    den = np.maximum(den, 0.0)
    return num / np.maximum(den, EPSILON_REL * den.max())


def grid_search_nrmse(estimate, truth, points=201):
    """Scale-optimal NRMSE by brute-force search over a complex grid.

    The optimal complex scale is bounded by ||truth||/||estimate||
    (Cauchy-Schwarz), so a centered square grid of that half-width
    times 1.5 always brackets it. Returns (best value, grid spacing
    in the complex plane).
    """
    est = np.asarray(estimate).reshape(-1)
    tru = np.asarray(truth).reshape(-1)
    bound = 1.5 * np.linalg.norm(tru) / np.linalg.norm(est)
    axis = np.linspace(-bound, bound, points)
    best = np.inf
    for re in axis:
        scaled = np.abs((re + 1j * axis)[:, None] * est[None, :] - tru[None, :])
        best = min(best, np.sqrt((scaled**2).sum(axis=1)).min())
    return best / np.linalg.norm(tru), axis[1] - axis[0]


def pytest_configure(config):
    # Hypothesis caches the constants it finds in local source files in
    # its storage directory, ./.hypothesis unless set, while the session
    # collects: give it a directory that is removed when the session ends.
    from hypothesis.configuration import set_hypothesis_home_dir

    storage = tempfile.mkdtemp(prefix="hypothesis-")
    set_hypothesis_home_dir(storage)
    config.add_cleanup(lambda: shutil.rmtree(storage, ignore_errors=True))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
