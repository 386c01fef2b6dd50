"""Probe-error metric against a brute-force scale search, plus the
data-feasibility residual's exact cases."""

import numpy as np
import pytest
from conftest import frame_idft, grid_search_nrmse, rand_complex

from ptyblind.fourier import frame_dft
from ptyblind.metrics import data_residual, nrmse_probe


class TestNrmseProbe:
    def test_never_above_grid_search_and_within_resolution(self, rng):
        # oracle: exhaustive search over complex rescalings; the closed
        # form must sit at or below every grid value, and the grid
        # minimum can exceed it only by the grid's own resolution
        for _ in range(5):
            est = rand_complex(rng, 4, 4)
            true = rand_complex(rng, 4, 4)
            closed = nrmse_probe(est, true)
            grid_min, spacing = grid_search_nrmse(est, true)
            assert closed <= grid_min + 1e-12
            ratio_sq = np.vdot(est, est).real / np.vdot(true, true).real
            assert grid_min**2 - closed**2 <= 0.5000001 * spacing**2 * ratio_sq + 1e-12

    def test_invariant_to_complex_rescaling(self, rng):
        est = rand_complex(rng, 5, 5)
        true = rand_complex(rng, 5, 5)
        base = nrmse_probe(est, true)
        for c in (2.0, -0.3 + 1.7j, 1e-6j):
            assert nrmse_probe(c * est, true) == pytest.approx(base, rel=1e-12)

    def test_zero_for_rescaled_truth(self, rng):
        true = rand_complex(rng, 5, 5)
        assert nrmse_probe((0.4 - 2.2j) * true, true) <= 1e-13

    def test_rejects_zero_inputs(self, rng):
        z = np.zeros((4, 4), dtype=complex)
        w = rand_complex(rng, 4, 4)
        with pytest.raises(ValueError):
            nrmse_probe(z, w)
        with pytest.raises(ValueError):
            nrmse_probe(w, z)


class TestDataResidual:
    def test_exact_zero_when_magnitudes_match(self, rng):
        frames = rand_complex(rng, 6, 4, 4)
        amplitudes = np.abs(frame_dft(frames))
        assert data_residual(frames, amplitudes) == 0.0

    def test_zero_over_zero_is_zero(self):
        frames = np.zeros((3, 4, 4), dtype=complex)
        assert data_residual(frames, np.zeros((3, 4, 4))) == 0.0

    def test_infinite_when_data_zero_but_frames_not(self, rng):
        frames = rand_complex(rng, 3, 4, 4)
        assert data_residual(frames, np.zeros((3, 4, 4))) == float("inf")

    def test_matches_hand_computation(self, rng):
        spectra = rand_complex(rng, 2, 3, 3)
        frames = frame_idft(spectra)
        amplitudes = np.abs(spectra) + 0.1
        expected = np.linalg.norm(np.abs(spectra) - amplitudes) / np.linalg.norm(amplitudes)
        assert data_residual(frames, amplitudes) == pytest.approx(expected, rel=1e-12)
