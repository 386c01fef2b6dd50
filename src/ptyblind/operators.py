"""Matrix-free scan operators for ptychographic frame stacks.

A scan experiment views an n x n object through K overlapping m x m
windows (circular boundary), each multiplied by a common m x m probe.
This module implements the window extraction / scatter-add pair, probe
replication (whose adjoint is the sum over the frames,
``stack.sum(axis=0)``), the combined illumination operator and its
adjoint, the illumination coverage diagonals, and the frame-overlap
relation of a scan, kept per axis (``ScanGeometry._neighbourhoods``).

Conventions
-----------
* Objects are complex (n, n) arrays, probes complex (m, m), frame
  stacks complex (K, m, m), all C-ordered; vector forms are row-major
  flattenings.
* Frame i covers object pixels ((row_i + r) % n, (col_i + c) % n) for
  0 <= r, c < m; scan offsets are reduced mod n at construction.
* Scatter-add accumulation runs in a fixed order (frame index
  ascending, row-major within each frame) so overlapping sums are
  bit-reproducible: one ``np.add.at`` (:func:`_scatter_add`) adds
  every pixel in that frame order. The solver's frame passes add each
  chunk of frames as it finishes, large frames window by window
  (``_passes._add_frames``), in the same order and with the same bits.

All functions are pure and safe to call concurrently, except that a
call given an ``out`` buffer writes it; calls sharing one must not
overlap.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


def _check_integer(value, name: str) -> None:
    """Reject a ``value`` named ``name`` that is not an integer. A float
    or a bool would pass the range checks and then size or index arrays;
    numpy integers are integers."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


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
        Integer (row, col) offsets of each frame; reduced mod n. Floats
        are accepted when they are finite whole numbers.
    """

    n: int
    m: int
    positions: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        _check_integer(self.n, "n")
        _check_integer(self.m, "m")
        if self.m < 1 or self.n < self.m:
            raise ValueError(f"need 1 <= m <= n, got m={self.m}, n={self.n}")
        pos = np.asarray(self.positions)
        if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] < 1:
            raise ValueError(f"positions must have shape (K, 2) with K >= 1, got {pos.shape}")
        if pos.dtype.kind not in "iuf":
            raise ValueError(f"positions must be integers, got dtype {pos.dtype}")
        if pos.dtype.kind == "f":
            # Casting would truncate a fraction and turn a NaN or an
            # infinity into an arbitrary offset.
            integral = (np.abs(pos) < 2.0**63) & (pos == np.round(pos))
            bad = np.flatnonzero(~integral.all(axis=1))
            if bad.size:
                i = int(bad[0])
                raise ValueError(
                    f"positions[{i}] = {pos[i].tolist()} is not a pair of finite integer offsets"
                )
        self.positions = np.mod(pos.astype(np.int64), self.n)

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
    def window_slices(self) -> tuple:
        """Per frame, the rectangles its window covers on the object: one,
        or up to four where it wraps, each a ``(target, source)`` pair
        such that ``image[target]`` of an (n, n) image and
        ``frame[source]`` of the (m, m) frame hold the same pixels."""

        def parts(offset: int) -> list[tuple[slice, slice]]:
            # (object slice, frame slice) along one axis.
            split = self.n - offset
            if split >= self.m:
                return [(slice(offset, offset + self.m), slice(0, self.m))]
            return [
                (slice(offset, self.n), slice(0, split)),
                (slice(0, self.m - split), slice(split, self.m)),
            ]

        return tuple(
            tuple(((rt, ct), (rs, cs)) for rt, rs in parts(r) for ct, cs in parts(c))
            for r, c in self.positions.tolist()
        )

    @cached_property
    def _neighbourhoods(self) -> _Neighbourhoods:
        """Which frames share a pixel, kept per axis, and how many share
        one with each frame; made when first asked."""
        return _Neighbourhoods(self)


class _Neighbourhoods:
    """The frame-overlap relation of a scan without its K x K matrix.

    On the torus two windows share a pixel exactly when their row
    offsets and their column offsets are each less than ``m`` apart
    around the circle. ``row_overlap`` and ``col_overlap`` are those
    relations, 0 or 1 in float64, between the distinct row and column
    offsets, each at most (n, n); ``cells`` holds each frame's flat
    index on the (distinct row, distinct column) grid, and ``counts``
    each frame's number of neighbours, itself included.
    """

    def __init__(self, geom: ScanGeometry) -> None:
        def axis(offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            # Each frame's index among the distinct offsets, and which of
            # those are less than m apart around the circle.
            distinct, index = np.unique(offsets, return_inverse=True)
            gap = np.mod(distinct[:, None] - distinct[None, :], geom.n)
            return index, ((gap < geom.m) | (gap > geom.n - geom.m)).astype(np.float64)

        rows, self.row_overlap = axis(geom.positions[:, 0])
        cols, self.col_overlap = axis(geom.positions[:, 1])
        self.cells = rows * len(self.col_overlap) + cols
        # Sums of ones up to K are exact in float64.
        self.counts = self.sums(np.ones(geom.K)).astype(np.int64)

    def sums(self, values: np.ndarray) -> np.ndarray:
        """Each frame's sum of the per-frame ``values`` over the frames
        that share a pixel with it: the values added onto the offset
        grid in frame order, multiplied by the overlap of each axis
        (``row_overlap @ grid @ col_overlap.T``) and read back at each
        frame's cell."""
        grid = np.zeros(
            (len(self.row_overlap), len(self.col_overlap)), dtype=np.result_type(values, 1.0)
        )
        _scatter_add(grid, values, self.cells)
        return (self.row_overlap @ grid @ self.col_overlap.T).reshape(-1)[self.cells]


def _fill(out: np.ndarray, value) -> np.ndarray:
    """``out`` with ``value`` broadcast (and cast) into it.

    A ufunc that broadcasts a probe or a per-frame factor over a stack of
    small frames, or casts an operand, copies it into a buffer of up to
    8192 elements per call; a stack filled once instead is the same
    operand, element for element, so the arithmetic does not change.
    """
    np.copyto(out, value)
    return out


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


def _check_probe(probe: np.ndarray, geom: ScanGeometry, name: str = "probe") -> np.ndarray:
    probe = np.asarray(probe)
    if probe.shape != (geom.m, geom.m):
        raise ValueError(f"{name} shape {probe.shape} does not match geometry m={geom.m}")
    return probe


def _check_stack(frames: np.ndarray, geom: ScanGeometry, name: str = "frame stack") -> np.ndarray:
    frames = np.asarray(frames)
    if frames.shape != (geom.K, geom.m, geom.m):
        raise ValueError(
            f"{name} shape {frames.shape} does not match geometry "
            f"(K={geom.K}, m={geom.m})"
        )
    return frames


def extract_frames(obj: np.ndarray, geom: ScanGeometry) -> np.ndarray:
    """Cut the K circular m x m windows out of an object, as a stack."""
    # ``clip`` spares take() a buffer; the indices are in range.
    return _check_object(obj, geom).reshape(-1).take(geom.frame_indices, mode="clip")


def embed_add_frames(frames: np.ndarray, geom: ScanGeometry) -> np.ndarray:
    """Scatter-add a frame stack back onto the object canvas.

    Adjoint of :func:`extract_frames`; overlapping frame pixels sum.
    """
    frames = _check_stack(frames, geom)
    dtype = np.complex128 if np.iscomplexobj(frames) else np.float64
    image = np.zeros((geom.n, geom.n), dtype=dtype)
    _scatter_add(image, frames, geom.frame_indices)
    return image


def _scatter_add(image: np.ndarray, frames: np.ndarray, index: np.ndarray) -> None:
    """Add ``frames`` onto the C-ordered (n, n) ``image`` in place at
    ``index``, their flat object indices (``frame_indices`` of those
    frames): each pixel adds its values in frame order, row-major
    within a frame, to what it holds. A complex image adds both parts
    at once, the sums one bincount per part would give. The per-frame
    values of :meth:`_Neighbourhoods.sums` are added onto their offset
    grid the same way, one value per frame."""
    values = np.ascontiguousarray(frames, dtype=image.dtype).reshape(-1)
    # The only ``np.add.at`` of the package. Its index and values are
    # both flat and the values contiguous: numpy 2.4 misreads a values
    # operand of fewer dimensions than the index, and
    # ``np.add.at(np.zeros(4), [[0, 1, 2], [1, 2, 3]], [1., 2., 3.])``
    # leaves 7e-310 in its last element.
    np.add.at(image.reshape(-1), index.reshape(-1), values)


def replicate_probe(probe: np.ndarray, geom: ScanGeometry) -> np.ndarray:
    """Stack K copies of the probe."""
    probe = _check_probe(probe, geom)
    return _fill(np.empty((geom.K, geom.m, geom.m), dtype=probe.dtype), probe)


def illuminate(obj: np.ndarray, probe: np.ndarray, geom: ScanGeometry) -> np.ndarray:
    """Forward illumination: probe times each extracted object window."""
    probe = _check_probe(probe, geom)
    return probe[None, :, :] * extract_frames(obj, geom)


def illuminate_adjoint(frames: np.ndarray, probe: np.ndarray, geom: ScanGeometry) -> np.ndarray:
    """Adjoint illumination: conjugate-probe weighting then scatter-add."""
    frames = _check_stack(frames, geom)
    probe = _check_probe(probe, geom)
    weighted = _fill(np.empty(frames.shape, dtype=np.complex128), np.conj(probe))
    return embed_add_frames(np.multiply(weighted, frames, out=weighted), geom)


def coverage_maps(probe: np.ndarray, geom: ScanGeometry) -> CoverageMaps:
    """Object- and frame-domain illumination coverage for a probe.

    Both maps depend only on (probe, geometry): the object coverage is
    ``|probe|**2`` replicated over the frames and scattered onto the
    object, and the frame coverage that map extracted to the frames. The
    solver keeps only the object coverage and gathers the frame coverage
    from it where a step reads it.
    """
    intensity = np.abs(np.asarray(probe)) ** 2
    obj_cov = embed_add_frames(replicate_probe(intensity, geom), geom)
    return CoverageMaps(object_coverage=obj_cov, frame_coverage=extract_frames(obj_cov, geom))
