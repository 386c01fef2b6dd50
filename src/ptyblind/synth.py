"""Synthetic experiment construction.

Phantom objects with an exactly controlled constant-component energy
fraction, a soft-edged aperture probe model, raster scan geometries,
forward simulation of diffraction amplitudes, and a seeded probe
perturbation for building imperfect initial estimates. Everything here
is deterministic under fixed seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fourier import frame_dft
from .operators import ScanGeometry, illuminate

TEXTURE_KINDS = ("smooth", "piecewise")

# Frequency-domain width (cycles/pixel) of the Gaussian envelope that
# smooths phantom textures; sets a feature scale of a few pixels
# independent of the object size.
_TEXTURE_CUTOFF = 0.08

# Number of flat levels per real/imaginary channel in piecewise textures.
_PIECEWISE_LEVELS = 4


@dataclass
class PhantomSpec:
    """Recipe for a synthetic object.

    ``dc_fraction`` is the fraction of the object's energy carried by
    its constant component, in [0, 1); the weak-contrast regime lives
    near 1.
    """

    n: int
    dc_fraction: float
    texture_seed: int = 0
    texture_kind: str = "smooth"

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"object size must be >= 1, got {self.n}")
        if not 0.0 <= self.dc_fraction < 1.0:
            raise ValueError(f"dc_fraction must lie in [0, 1), got {self.dc_fraction}")
        if self.texture_seed < 0:
            raise ValueError(f"texture_seed must be >= 0, got {self.texture_seed}")
        if self.texture_kind not in TEXTURE_KINDS:
            raise ValueError(
                f"texture_kind must be one of {TEXTURE_KINDS}, got {self.texture_kind!r}"
            )


@dataclass
class ProbeSpec:
    """Recipe for a synthetic illumination.

    ``aperture_radius_px`` is the disk radius in pixels;
    ``defocus_phase_strength`` is the quadratic phase in radians at the
    aperture edge.
    """

    m: int
    aperture_radius_px: float
    defocus_phase_strength: float = 0.0

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"frame size must be >= 1, got {self.m}")
        if not 0.0 < self.aperture_radius_px <= self.m / 2.0:
            raise ValueError(
                f"aperture_radius_px must lie in (0, m/2] = (0, {self.m / 2}], "
                f"got {self.aperture_radius_px}"
            )
        if not math.isfinite(self.defocus_phase_strength):
            raise ValueError(
                f"defocus_phase_strength must be finite, got {self.defocus_phase_strength}"
            )


def _smooth_field(n: int, rng: np.random.Generator) -> np.ndarray:
    """Gaussian random complex field, low-pass filtered."""
    field = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    freq = np.fft.fftfreq(n)
    radius_sq = freq[:, None] ** 2 + freq[None, :] ** 2
    envelope = np.exp(-0.5 * radius_sq / _TEXTURE_CUTOFF**2)
    return np.fft.ifft2(np.fft.fft2(field) * envelope)


def _quantize_levels(values: np.ndarray, levels: int) -> np.ndarray:
    """Snap values to the mean of their quantile bin, making flat regions."""
    edges = np.quantile(values, np.linspace(0.0, 1.0, levels + 1)[1:-1])
    bins = np.digitize(values, edges)
    out = np.empty_like(values)
    for b in range(levels):
        mask = bins == b
        if mask.any():
            out[mask] = values[mask].mean()
    return out


def make_test_object(spec: PhantomSpec) -> np.ndarray:
    """Synthesize an n x n complex object with an exact DC energy share.

    The texture is orthogonalized against the constant before mixing,
    so the constant component carries exactly ``dc_fraction`` of the
    total energy rather than approximately. Pixel values are scaled so
    magnitudes are of order one.
    """
    rng = np.random.default_rng(spec.texture_seed)
    texture = _smooth_field(spec.n, rng)
    if spec.texture_kind == "piecewise":
        texture = _quantize_levels(texture.real, _PIECEWISE_LEVELS) + 1j * _quantize_levels(
            texture.imag, _PIECEWISE_LEVELS
        )
    texture = texture - texture.mean()
    norm = np.linalg.norm(texture)
    if norm == 0.0:
        raise ValueError("texture degenerated to a constant; choose another seed")
    texture *= spec.n / norm
    return np.sqrt(spec.dc_fraction) * np.ones((spec.n, spec.n)) + np.sqrt(
        1.0 - spec.dc_fraction
    ) * texture


def make_probe(spec: ProbeSpec) -> np.ndarray:
    """Soft-edged circular aperture with optional quadratic phase.

    Amplitude is 1 inside the aperture with a one-pixel Gaussian skirt
    outside; the phase grows quadratically to
    ``defocus_phase_strength`` radians at the aperture edge. The
    construction is symmetric about ((m-1)/2, (m-1)/2), so the
    intensity center of mass sits at the frame center.
    """
    coords = np.arange(spec.m) - (spec.m - 1) / 2.0
    rho = np.hypot(coords[:, None], coords[None, :])
    overshoot = np.maximum(rho - spec.aperture_radius_px, 0.0)
    amplitude = np.exp(-0.5 * overshoot**2)
    phase = spec.defocus_phase_strength * (rho / spec.aperture_radius_px) ** 2
    return amplitude * np.exp(1j * phase)


def make_raster_geometry(n: int, m: int, step: int, grid: tuple[int, int]) -> ScanGeometry:
    """Row-major raster scan: positions (step*r, step*c) over the grid.

    The grid may have at most ``n`` rows and columns, since past that a
    raster repeats its frames. Checked before anything is allocated, the
    bound keeps the positions no larger than the object.
    """
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    rows, cols = int(grid[0]), int(grid[1])
    if rows < 1 or cols < 1:
        raise ValueError(f"grid must be positive, got {grid}")
    if max(rows, cols) > n:
        raise ValueError(f"grid must have at most n={n} rows and columns, got {grid}")
    # Python products, so an offset past int64 raises instead of wrapping.
    offsets = np.array([step * i for i in range(max(rows, cols))], dtype=np.int64)
    positions = np.column_stack([np.repeat(offsets[:rows], cols), np.tile(offsets[:cols], rows)])
    return ScanGeometry(n=n, m=m, positions=positions)


def simulate_data(obj: np.ndarray, probe: np.ndarray, geom: ScanGeometry) -> np.ndarray:
    """Forward model: per-frame Fourier magnitudes of the illuminated views."""
    return np.abs(frame_dft(illuminate(obj, probe, geom)))


def perturb_probe(
    probe: np.ndarray, blur_sigma_px: float, noise_level: float, seed: int
) -> np.ndarray:
    """Degrade a probe into an initial estimate: Gaussian low-pass blur
    plus seeded complex noise, renormalized to the input norm.

    ``blur_sigma_px`` is the spatial width of the blur kernel;
    ``noise_level`` scales unit-variance complex Gaussian noise to
    ``noise_level * ||probe|| / m`` per pixel, i.e. a total noise norm
    of about ``noise_level * ||probe||``.
    """
    for name, value in (("blur_sigma_px", blur_sigma_px), ("noise_level", noise_level)):
        # A NaN would skip its perturbation and an infinity give a NaN probe.
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"{name} must be finite and >= 0, got {value}")
    out = np.array(probe, dtype=np.complex128)
    norm0 = np.linalg.norm(out)
    if norm0 == 0.0:
        return out
    m = out.shape[0]
    if blur_sigma_px > 0:
        freq = np.fft.fftfreq(m)
        radius_sq = freq[:, None] ** 2 + freq[None, :] ** 2
        kernel = np.exp(-2.0 * np.pi**2 * blur_sigma_px**2 * radius_sq)
        out = np.fft.ifft2(np.fft.fft2(out) * kernel)
    if noise_level > 0:
        rng = np.random.default_rng(seed)
        noise = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2.0)
        out = out + (noise_level * norm0 / m) * noise
    norm1 = np.linalg.norm(out)
    if norm1 > 0:
        out *= norm0 / norm1
    return out
