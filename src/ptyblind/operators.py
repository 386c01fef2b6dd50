"""Matrix-free scan operators for ptychographic frame stacks.

A scan experiment views an n x n object through K overlapping m x m
windows (circular boundary), each multiplied by a common m x m probe.
This module implements the window extraction / scatter-add pair, probe
replication (whose adjoint is the sum over the frames,
``stack.sum(axis=0)``), the combined illumination operator and its
adjoint, and the illumination coverage diagonals.

Conventions
-----------
* Objects are complex (n, n) arrays, probes complex (m, m), frame
  stacks complex (K, m, m), all C-ordered; vector forms are row-major
  flattenings.
* Frame i covers object pixels ((row_i + r) % n, (col_i + c) % n) for
  0 <= r, c < m; scan offsets are reduced mod n at construction.
* Scatter-add accumulation runs in a fixed order (frame index
  ascending, row-major within each frame) so overlapping sums are
  bit-reproducible: complex stacks by one ``np.add.at``, real ones by
  one ``np.bincount``, each adding every pixel in that frame order.
  The solver's frame passes scatter large frames window by window in
  the same order instead (``_passes._add_windows``), with the same
  bits.

All functions are pure and safe to call concurrently, except that a
call given a buffer (``out`` or ``scratch``) writes it; calls sharing
one must not overlap.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

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
    size = geom.n * geom.n
    idx = geom.frame_indices.reshape(-1)
    if np.iscomplexobj(frames):
        # Adds each pixel in frame order, both parts at once: the sums
        # one bincount per part would give, bit for bit, and faster. On
        # real stacks bincount is the faster of the two.
        acc = np.zeros(size, dtype=np.complex128)
        np.add.at(acc, idx, np.asarray(frames, dtype=np.complex128).reshape(-1))
    else:
        acc = np.bincount(idx, weights=frames.reshape(-1), minlength=size)
    return acc.reshape(geom.n, geom.n)


def replicate_probe(
    probe: np.ndarray, geom: ScanGeometry, *, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Stack K copies of the probe, written into ``out`` when given."""
    probe = _check_probe(probe, geom)
    if out is None:
        out = np.empty((geom.K, geom.m, geom.m), dtype=probe.dtype)
    return _fill(out, probe)


def illuminate(obj: np.ndarray, probe: np.ndarray, geom: ScanGeometry) -> np.ndarray:
    """Forward illumination: probe times each extracted object window."""
    probe = _check_probe(probe, geom)
    return probe[None, :, :] * extract_frames(obj, geom)


def illuminate_adjoint(
    frames: np.ndarray,
    probe: np.ndarray,
    geom: ScanGeometry,
    *,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Adjoint illumination: conjugate-probe weighting then scatter-add.

    The weighted stack is formed in ``scratch``, a complex128 (K, m, m)
    stack, when given.
    """
    frames = _check_stack(frames, geom)
    probe = _check_probe(probe, geom)
    if scratch is None:
        scratch = np.empty(frames.shape, dtype=np.complex128)
    weighted = np.multiply(_fill(scratch, np.conj(probe)), frames, out=scratch)
    return embed_add_frames(weighted, geom)


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
