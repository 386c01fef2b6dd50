"""Synthetic experiment builders: exact constant-energy share, probe
geometry, raster enumeration, forward data, and seeded perturbation."""

import numpy as np
import pytest

from ptyblind import illuminate
from ptyblind.fourier import frame_dft
from ptyblind.metrics import nrmse_probe
from ptyblind.synth import (
    PhantomSpec,
    ProbeSpec,
    make_probe,
    make_raster_geometry,
    make_test_object,
    perturb_probe,
    simulate_data,
)


class TestMakeTestObject:
    @pytest.mark.parametrize("dc", [0.0, 0.5, 0.99])
    @pytest.mark.parametrize("kind", ["smooth", "piecewise"])
    def test_constant_component_energy_share_is_exact(self, dc, kind):
        obj = make_test_object(PhantomSpec(n=32, dc_fraction=dc, texture_seed=3, texture_kind=kind))
        # oracle: project onto the constant and compare energies
        constant = obj.mean()
        share = 32 * 32 * abs(constant) ** 2 / np.vdot(obj, obj).real
        assert share == pytest.approx(dc, abs=1e-10)

    def test_deterministic_under_seed(self):
        spec = PhantomSpec(n=16, dc_fraction=0.7, texture_seed=11)
        assert np.array_equal(make_test_object(spec), make_test_object(spec))

    def test_different_seeds_differ(self):
        a = make_test_object(PhantomSpec(n=16, dc_fraction=0.7, texture_seed=0))
        b = make_test_object(PhantomSpec(n=16, dc_fraction=0.7, texture_seed=1))
        assert not np.allclose(a, b)

    def test_piecewise_texture_has_few_flat_levels(self):
        obj = make_test_object(
            PhantomSpec(n=24, dc_fraction=0.25, texture_seed=3, texture_kind="piecewise")
        )
        assert len(np.unique(np.round(obj.real, 9))) <= 4
        assert len(np.unique(np.round(obj.imag, 9))) <= 4

    def test_validation(self):
        with pytest.raises(ValueError):
            PhantomSpec(n=16, dc_fraction=1.0)
        with pytest.raises(ValueError):
            PhantomSpec(n=16, dc_fraction=-0.1)
        with pytest.raises(ValueError):
            PhantomSpec(n=0, dc_fraction=0.5)
        with pytest.raises(ValueError):
            PhantomSpec(n=16, dc_fraction=0.5, texture_kind="marble")


class TestMakeProbe:
    def test_intensity_center_of_mass_at_frame_center(self):
        probe = make_probe(ProbeSpec(m=16, aperture_radius_px=5.0, defocus_phase_strength=0.5))
        intensity = np.abs(probe) ** 2
        coords = np.arange(16)
        row = float((coords[:, None] * intensity).sum() / intensity.sum())
        col = float((coords[None, :] * intensity).sum() / intensity.sum())
        assert abs(row - 7.5) <= 1.0
        assert abs(col - 7.5) <= 1.0

    def test_unit_amplitude_inside_aperture(self):
        probe = make_probe(ProbeSpec(m=16, aperture_radius_px=5.0))
        coords = np.arange(16) - 7.5
        rho = np.hypot(coords[:, None], coords[None, :])
        inside = rho <= 5.0
        assert np.allclose(np.abs(probe)[inside], 1.0, atol=1e-12)
        assert np.abs(probe)[~inside].max() < 1.0

    def test_flat_phase_without_defocus(self):
        probe = make_probe(ProbeSpec(m=16, aperture_radius_px=5.0))
        assert np.allclose(probe.imag, 0.0, atol=1e-12)

    def test_aperture_radius_validation(self):
        with pytest.raises(ValueError):
            ProbeSpec(m=16, aperture_radius_px=0.0)
        with pytest.raises(ValueError):
            ProbeSpec(m=16, aperture_radius_px=8.5)
        with pytest.raises(ValueError):
            ProbeSpec(m=16, aperture_radius_px=-2.0)


class TestRasterGeometry:
    def test_enumerates_row_major(self):
        geom = make_raster_geometry(n=10, m=3, step=3, grid=(2, 2))
        assert geom.positions.tolist() == [[0, 0], [0, 3], [3, 0], [3, 3]]
        assert geom.n == 10 and geom.m == 3 and geom.K == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            make_raster_geometry(n=10, m=3, step=0, grid=(2, 2))
        with pytest.raises(ValueError):
            make_raster_geometry(n=10, m=3, step=2, grid=(0, 2))


class TestSimulateData:
    def test_matches_composition_of_model_pieces(self, rng):
        geom = make_raster_geometry(n=12, m=4, step=2, grid=(3, 3))
        obj = make_test_object(PhantomSpec(n=12, dc_fraction=0.5, texture_seed=2))
        probe = make_probe(ProbeSpec(m=4, aperture_radius_px=1.5))
        data = simulate_data(obj, probe, geom)
        assert np.array_equal(data, np.abs(frame_dft(illuminate(obj, probe, geom))))
        assert data.shape == (9, 4, 4)
        assert (data >= 0).all()


class TestPerturbProbe:
    def test_deterministic_and_norm_preserving(self):
        probe = make_probe(ProbeSpec(m=16, aperture_radius_px=7.5, defocus_phase_strength=0.5))
        a = perturb_probe(probe, blur_sigma_px=2.0, noise_level=0.05, seed=1)
        b = perturb_probe(probe, blur_sigma_px=2.0, noise_level=0.05, seed=1)
        assert np.array_equal(a, b)
        assert np.linalg.norm(a) == pytest.approx(np.linalg.norm(probe), rel=1e-12)

    def test_produces_moderate_initial_error(self):
        probe = make_probe(ProbeSpec(m=16, aperture_radius_px=7.5, defocus_phase_strength=0.5))
        out = perturb_probe(probe, blur_sigma_px=2.0, noise_level=0.05, seed=1)
        assert 0.05 <= nrmse_probe(out, probe) <= 0.4

    def test_zero_perturbation_is_identity(self):
        probe = make_probe(ProbeSpec(m=8, aperture_radius_px=3.0))
        out = perturb_probe(probe, blur_sigma_px=0.0, noise_level=0.0, seed=0)
        assert np.array_equal(out, probe.astype(np.complex128))

    def test_seed_changes_noise(self):
        probe = make_probe(ProbeSpec(m=8, aperture_radius_px=3.0))
        a = perturb_probe(probe, blur_sigma_px=0.0, noise_level=0.1, seed=1)
        b = perturb_probe(probe, blur_sigma_px=0.0, noise_level=0.1, seed=2)
        assert not np.array_equal(a, b)

    def test_rejects_negative_arguments(self):
        probe = make_probe(ProbeSpec(m=8, aperture_radius_px=3.0))
        with pytest.raises(ValueError):
            perturb_probe(probe, blur_sigma_px=-1.0, noise_level=0.0, seed=0)
        with pytest.raises(ValueError):
            perturb_probe(probe, blur_sigma_px=0.0, noise_level=-0.1, seed=0)
