"""Matrix-free scan operators for ptychographic frame stacks.

A scan experiment views an n x n object through K overlapping m x m
windows (circular boundary), each multiplied by a common m x m probe.
This module implements the window extraction / scatter-add pair, the
probe replication / frame summation pair, the combined illumination
operator and its adjoint, the illumination coverage diagonals, and a
dense-matrix construction of the same operators for small instances
(used as a test oracle).

Conventions
-----------
* Objects are complex (n, n) arrays, probes complex (m, m), frame
  stacks complex (K, m, m), all C-ordered; vector forms are row-major
  flattenings.
* Frame i covers object pixels ((row_i + r) % n, (col_i + c) % n) for
  0 <= r, c < m; scan offsets are reduced mod n at construction.
* Scatter-add accumulation runs in a fixed order (frame index
  ascending, row-major within each frame) so overlapping sums are
  bit-reproducible.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

DENSE_SIZE_LIMIT = 10**7


@dataclass(eq=False)
class ScanGeometry:
    """Scan layout: object size, frame size, and integer scan offsets.

    Parameters
    ----------
    n : int
        Object pixels per side.
    m : int
        Frame pixels per side, 1 <= m <= n.
    positions : array-like of shape (K, 2)
        Integer (row, col) offsets of each frame; reduced mod n.
    """

    n: int
    m: int
    positions: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < self.m:
            raise ValueError(f"need 1 <= m <= n, got m={self.m}, n={self.n}")
        pos = np.asarray(self.positions, dtype=np.int64)
        if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] < 1:
            raise ValueError(f"positions must have shape (K, 2) with K >= 1, got {pos.shape}")
        self.positions = np.mod(pos, self.n)

    @property
    def K(self) -> int:
        return self.positions.shape[0]

    @cached_property
    def frame_indices(self) -> np.ndarray:
        """(K, m, m) flat row-major object index of every frame pixel."""
        offs = np.arange(self.m)
        rows = (self.positions[:, 0:1] + offs) % self.n  # (K, m)
        cols = (self.positions[:, 1:2] + offs) % self.n  # (K, m)
        return rows[:, :, None] * self.n + cols[:, None, :]

    @cached_property
    def _interleaved_indices(self) -> np.ndarray:
        """(2*K*m*m,) indices into the float64 view of a complex object
        canvas: the real then the imaginary slot of every frame pixel,
        in the order of the float64 view of a complex stack."""
        slots = 2 * self.frame_indices.reshape(-1, 1)
        return (slots + np.arange(2)).reshape(-1)

    @cached_property
    def covered_mask(self) -> np.ndarray:
        """(n, n) bool mask of object pixels hit by at least one frame."""
        hit = np.zeros(self.n * self.n, dtype=bool)
        hit[self.frame_indices.ravel()] = True
        return hit.reshape(self.n, self.n)


@dataclass
class CoverageMaps:
    """Illumination coverage diagonals for a (probe, geometry) pair.

    ``object_coverage[p]`` sums |probe|**2 over every frame covering
    object pixel p; ``frame_coverage`` is the same map re-extracted to
    the frame stack, so the two share one arithmetic path.
    """

    object_coverage: np.ndarray  # (n, n) real, >= 0
    frame_coverage: np.ndarray  # (K, m, m) real, >= 0


def _check_object(obj: np.ndarray, geom: ScanGeometry) -> np.ndarray:
    obj = np.asarray(obj)
    if obj.shape != (geom.n, geom.n):
        raise ValueError(f"object shape {obj.shape} does not match geometry n={geom.n}")
    return obj


def _check_probe(probe: np.ndarray, geom: ScanGeometry) -> np.ndarray:
    probe = np.asarray(probe)
    if probe.shape != (geom.m, geom.m):
        raise ValueError(f"probe shape {probe.shape} does not match geometry m={geom.m}")
    return probe


def _check_stack(frames: np.ndarray, geom: ScanGeometry) -> np.ndarray:
    frames = np.asarray(frames)
    if frames.shape != (geom.K, geom.m, geom.m):
        raise ValueError(
            f"frame stack shape {frames.shape} does not match geometry "
            f"(K={geom.K}, m={geom.m})"
        )
    return frames


def extract_frames(obj: np.ndarray, geom: ScanGeometry) -> np.ndarray:
    """Cut the K circular m x m windows out of an object, as a stack."""
    obj = _check_object(obj, geom)
    return obj.reshape(-1)[geom.frame_indices]


def embed_add_frames(frames: np.ndarray, geom: ScanGeometry) -> np.ndarray:
    """Scatter-add a frame stack back onto the object canvas.

    Adjoint of :func:`extract_frames`; overlapping frame pixels sum.
    """
    frames = _check_stack(frames, geom)
    size = geom.n * geom.n
    if np.iscomplexobj(frames):
        # One bincount over the float64 view: real and imaginary parts
        # accumulate in adjacent bins, each in frame order.
        parts = np.ascontiguousarray(frames, dtype=np.complex128).reshape(-1).view(np.float64)
        acc = np.bincount(geom._interleaved_indices, weights=parts, minlength=2 * size)
        acc = acc.view(np.complex128)
    else:
        idx = geom.frame_indices.reshape(-1)
        acc = np.bincount(idx, weights=frames.reshape(-1), minlength=size)
    return acc.reshape(geom.n, geom.n)


def replicate_probe(probe: np.ndarray, geom: ScanGeometry) -> np.ndarray:
    """Stack K copies of the probe."""
    probe = _check_probe(probe, geom)
    return np.broadcast_to(probe, (geom.K, geom.m, geom.m)).copy()


def sum_frames(frames: np.ndarray) -> np.ndarray:
    """Sum a stack over its frame axis (adjoint of probe replication)."""
    frames = np.asarray(frames)
    if frames.ndim != 3 or frames.shape[1] != frames.shape[2]:
        raise ValueError(f"expected a (K, m, m) stack, got shape {frames.shape}")
    return frames.sum(axis=0)


def illuminate(obj: np.ndarray, probe: np.ndarray, geom: ScanGeometry) -> np.ndarray:
    """Forward illumination: probe times each extracted object window."""
    probe = _check_probe(probe, geom)
    return probe[None, :, :] * extract_frames(obj, geom)


def illuminate_adjoint(frames: np.ndarray, probe: np.ndarray, geom: ScanGeometry) -> np.ndarray:
    """Adjoint illumination: conjugate-probe weighting then scatter-add."""
    frames = _check_stack(frames, geom)
    probe = _check_probe(probe, geom)
    return embed_add_frames(np.conj(probe)[None, :, :] * frames, geom)


def coverage_maps(probe: np.ndarray, geom: ScanGeometry) -> CoverageMaps:
    """Object- and frame-domain illumination coverage for a probe.

    Both maps depend only on (probe, geometry); solvers compute them
    once per probe value and pass them into the update operations.
    """
    probe = _check_probe(probe, geom)
    intensity = np.abs(probe) ** 2
    obj_cov = embed_add_frames(replicate_probe(intensity, geom), geom)
    return CoverageMaps(object_coverage=obj_cov, frame_coverage=extract_frames(obj_cov, geom))


class DenseOperators(NamedTuple):
    """Explicit matrices acting on row-major flattened vectors."""

    extraction: np.ndarray  # (K*m*m, n*n), frame extraction
    replication: np.ndarray  # (K*m*m, m*m), probe replication
    illumination: np.ndarray  # (K*m*m, n*n), probe-weighted extraction


def dense_operators(probe: np.ndarray, geom: ScanGeometry) -> DenseOperators:
    """Dense oracle for the matrix-free operators, small instances only.

    Guarded at K*m^2*n^2 <= 1e7 entries for the extraction matrix.
    """
    probe = _check_probe(probe, geom)
    n, m, K = geom.n, geom.m, geom.K
    if K * m * m * n * n > DENSE_SIZE_LIMIT:
        raise ValueError(
            f"instance too large for dense operators: K*m^2*n^2 = {K * m * m * n * n} "
            f"> {DENSE_SIZE_LIMIT}"
        )
    extraction = np.zeros((K * m * m, n * n))
    rows = np.arange(K * m * m)
    extraction[rows, geom.frame_indices.reshape(-1)] = 1.0
    replication = np.tile(np.eye(m * m), (K, 1))
    illumination = (replication @ probe.reshape(-1))[:, None] * extraction
    return DenseOperators(extraction=extraction, replication=replication, illumination=illumination)
