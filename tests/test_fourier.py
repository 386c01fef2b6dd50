"""Frame-DFT tests against a naive transform, and checks of the inverse
transform and magnitude-projection oracles the reference loop is built on."""

import numpy as np
import pytest

from ptyblind import _passes, frame_dft
from ptyblind.fourier import check_amplitudes

from conftest import frame_idft, magnitude_project, rand_complex, spectrum_phase


def naive_unitary_dft(frame):
    """Direct four-loop unitary 2D DFT of one m x m frame."""
    m = frame.shape[0]
    out = np.zeros((m, m), dtype=complex)
    for u in range(m):
        for v in range(m):
            acc = 0j
            for r in range(m):
                for c in range(m):
                    acc += frame[r, c] * np.exp(-2j * np.pi * (u * r + v * c) / m)
            out[u, v] = acc / m
    return out


def test_frame_dft_matches_naive(rng):
    stack = rand_complex(rng, 3, 4, 4)
    got = frame_dft(stack)
    for i in range(3):
        np.testing.assert_allclose(got[i], naive_unitary_dft(stack[i]), atol=1e-12)


def test_round_trip_and_parseval(rng):
    stack = rand_complex(rng, 5, 6, 6)
    spectra = frame_dft(stack)
    np.testing.assert_allclose(frame_idft(spectra), stack, atol=1e-12)
    assert np.linalg.norm(spectra) == pytest.approx(np.linalg.norm(stack), rel=1e-12)


@pytest.mark.parametrize("dtype", [np.complex128, np.float64, np.complex64])
def test_frame_transforms_match_numpy_bytes_and_dtype(rng, monkeypatch, dtype):
    stack = rand_complex(rng, 5, 8, 8)
    stack = (stack if np.issubdtype(dtype, np.complexfloating) else stack.real).astype(dtype)
    # One chunk, then chunks of two and three frames on the thread pool.
    for chunk_bytes in (_passes._CHUNK_BYTES, 1):
        monkeypatch.setattr(_passes, "_CHUNK_BYTES", chunk_bytes)
        want = np.fft.fft2(stack, axes=(-2, -1), norm="ortho")
        got = frame_dft(stack)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_spectrum_phase_unit_modulus_and_zero_convention(rng):
    stack = rand_complex(rng, 2, 3, 3)
    stack[0, 0, 0] = 0.0
    phase = spectrum_phase(stack)
    np.testing.assert_allclose(np.abs(phase), 1.0, atol=1e-12)
    assert phase[0, 0, 0] == 1.0 + 0j
    nz = stack != 0
    np.testing.assert_allclose(phase[nz], stack[nz] / np.abs(stack[nz]), atol=1e-12)


def test_magnitude_project_imposes_measured_magnitudes(rng):
    stack = rand_complex(rng, 4, 5, 5)
    amplitudes = np.abs(rand_complex(rng, 4, 5, 5))
    projected = magnitude_project(stack, amplitudes)
    np.testing.assert_allclose(np.abs(frame_dft(projected)), amplitudes, atol=1e-12)


def test_magnitude_project_keeps_feasible_points(rng):
    stack = rand_complex(rng, 3, 4, 4)
    amplitudes = np.abs(frame_dft(stack))
    np.testing.assert_allclose(magnitude_project(stack, amplitudes), stack, atol=1e-12)


def test_magnitude_project_zero_spectrum_gets_zero_phase(rng):
    amplitudes = np.abs(rand_complex(rng, 2, 3, 3))
    projected = magnitude_project(np.zeros((2, 3, 3), dtype=complex), amplitudes)
    np.testing.assert_allclose(projected, frame_idft(amplitudes + 0j), atol=1e-12)


def test_check_amplitudes_rejects_bad_input(rng):
    good = np.abs(rand_complex(rng, 2, 3, 3))
    np.testing.assert_array_equal(check_amplitudes(good), good)
    with pytest.raises(ValueError):
        check_amplitudes(-good)
    bad = good.copy()
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        check_amplitudes(bad)
    with pytest.raises(ValueError):
        check_amplitudes(good.astype(complex))
