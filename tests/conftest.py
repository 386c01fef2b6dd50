"""Shared oracle builders for the test suite.

Everything here is built independently from the library internals:
dense matrices come from explicit Python loops over scan positions,
so agreement with the matrix-free operators is meaningful evidence.
"""

import numpy as np
import pytest

from ptyblind import (
    DegenerateInputError,
    ScanGeometry,
    coverage_maps,
    embed_add_frames,
    extract_frames,
    illuminate_adjoint,
    sum_frames,
)
from ptyblind.solver import RANK1_DEGENERACY_RTOL


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


def update_probe_rank1_expanded(frames, probe, geom, estimate, cfg):
    """Cross-check of ``update_probe_rank1`` by the complementary
    arithmetic route, built from the public operators only.

    Global factor c: the transparency terms are distributed through the
    power step's numerator and denominator instead of shifting the
    stack first. The shifted stack's adjoint accumulation is the
    unshifted one minus c times the object coverage, and its intensity
    expands to |z|^2 - 2 Re(conj(c) conj(p) z) + |c|^2 |p|^2.
    Per-frame factors: each frame's contribution is recomputed from an
    explicitly shifted stack (one uniform shift per frame), the
    un-distributed form of the same update.
    """
    frames = np.asarray(frames)
    probe = np.asarray(probe)
    if estimate.framewise_factors is None:
        factors = np.full(geom.K, complex(estimate.global_factor))
    else:
        factors = np.asarray(estimate.framewise_factors, dtype=complex)
    shifted = frames - factors[:, None, None] * probe[None, :, :]
    if np.linalg.norm(shifted) <= RANK1_DEGENERACY_RTOL * np.linalg.norm(frames):
        raise DegenerateInputError("transparency shift removed the whole stack")

    if estimate.framewise_factors is None:
        c = factors[0]
        frame_cov = coverage_maps(probe, geom).frame_coverage
        adjoint_view = extract_frames(illuminate_adjoint(frames, probe, geom), geom)
        num = sum_frames(shifted * (np.conj(adjoint_view) - np.conj(c) * frame_cov))
        stack_cov = extract_frames(embed_add_frames(np.abs(frames) ** 2, geom), geom)
        den = sum_frames(
            stack_cov - 2.0 * np.real(np.conj(c) * adjoint_view) + abs(c) ** 2 * frame_cov
        )
    else:
        num = np.zeros((geom.m, geom.m), dtype=complex)
        den = np.zeros((geom.m, geom.m))
        for i in range(geom.K):
            uniform = frames - factors[i] * probe[None, :, :]
            acc = illuminate_adjoint(uniform, probe, geom)
            num += uniform[i] * extract_frames(np.conj(acc), geom)[i]
            den += extract_frames(embed_add_frames(np.abs(uniform) ** 2, geom), geom)[i]
    den = np.maximum(den, 0.0)
    if not den.max() > 0:
        raise DegenerateInputError("shifted frame stack is identically zero")
    return num / np.maximum(den, cfg.epsilon_rel * den.max())


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
