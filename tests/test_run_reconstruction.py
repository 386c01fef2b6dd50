"""End-to-end behavior of the alternating reconstruction loop:
feasibility on a disjoint tiling, stopping rules, event reporting,
determinism, error context, and input validation."""

import numpy as np
import pytest
from conftest import rand_complex

from ptyblind import SolverConfig, center_probe, illuminate, run_reconstruction, solver
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


def disjoint_instance():
    """Four frames tiling a 16x16 object exactly, no overlap."""
    geom = make_raster_geometry(n=16, m=8, step=8, grid=(2, 2))
    obj = make_test_object(PhantomSpec(n=16, dc_fraction=0.9, texture_seed=2))
    probe = make_probe(ProbeSpec(m=8, aperture_radius_px=3.0, defocus_phase_strength=0.3))
    return geom, obj, probe, simulate_data(obj, probe, geom)


def overlapping_instance():
    """Weak-contrast 32x32 object under a step-3 raster with overlap."""
    geom = make_raster_geometry(n=32, m=8, step=3, grid=(11, 11))
    obj = make_test_object(PhantomSpec(n=32, dc_fraction=0.98, texture_seed=0))
    probe = make_probe(ProbeSpec(m=8, aperture_radius_px=3.5, defocus_phase_strength=0.5))
    init = perturb_probe(probe, blur_sigma_px=1.0, noise_level=0.05, seed=1)
    return geom, probe, init, simulate_data(obj, probe, geom)


class TestFeasibilityAndHistory:
    def test_disjoint_tiling_reaches_data_feasibility(self):
        geom, obj, probe, amps = disjoint_instance()
        cfg = SolverConfig(probe_mode="standard", max_iters=5)
        hist = run_reconstruction(amps, geom, probe, cfg)
        assert hist.rows[-1].data_residual <= 1e-8
        # no two frames share pixels, so mutual inconsistency is zero
        assert all(row.pairwise <= 1e-12 for row in hist.rows)

    def test_history_rows_and_final_state(self):
        geom, probe, init, amps = overlapping_instance()
        cfg = SolverConfig(probe_mode="power", max_iters=4)
        hist = run_reconstruction(amps, geom, init, cfg, probe_true=probe)
        assert [row.iter for row in hist.rows] == [0, 1, 2, 3, 4]
        assert all(row.wall_ms >= 0.0 for row in hist.rows)
        assert all(np.isfinite(row.nrmse_probe) for row in hist.rows)
        assert all(row.pairwise >= 0.0 for row in hist.rows)
        assert hist.probe.shape == (8, 8)
        assert hist.object_image.shape == (32, 32)
        assert hist.frames.shape == amps.shape

    def test_norm_lock_preserves_initial_probe_norm(self):
        geom, probe, init, amps = overlapping_instance()
        cfg = SolverConfig(probe_mode="power", max_iters=6)
        hist = run_reconstruction(amps, geom, init, cfg)
        assert np.linalg.norm(hist.probe) == pytest.approx(np.linalg.norm(init), rel=1e-12)

    def test_every_iteration_recenters_the_probe(self):
        geom, probe, init, amps = overlapping_instance()
        off_center = np.roll(init, (3, -2), axis=(0, 1))
        assert center_probe(off_center)[1].tolist() == [-3, 2]
        cfg = SolverConfig(probe_mode="power", max_iters=1)
        hist = run_reconstruction(amps, geom, off_center, cfg)
        assert not center_probe(hist.probe)[1].any()

    def test_max_iters_zero_records_initial_state_only(self):
        geom, obj, probe, amps = disjoint_instance()
        cfg = SolverConfig(probe_mode="power", max_iters=0)
        hist = run_reconstruction(amps, geom, probe, cfg)
        assert len(hist.rows) == 1
        assert hist.rows[0].iter == 0
        assert np.array_equal(hist.probe, probe.astype(np.complex128))


class TestStopping:
    def test_stop_nrmse_halts_at_first_crossing(self):
        geom, probe, init, amps = overlapping_instance()
        cfg = SolverConfig(probe_mode="power", max_iters=100, stop_nrmse=0.06)
        hist = run_reconstruction(amps, geom, init, cfg, probe_true=probe)
        assert len(hist.rows) < 101
        assert hist.rows[-1].nrmse_probe <= 0.06
        assert all(row.nrmse_probe > 0.06 for row in hist.rows[:-1])

    def test_stop_threshold_met_at_start_skips_iterations(self):
        geom, probe, init, amps = overlapping_instance()
        cfg = SolverConfig(probe_mode="power", max_iters=50, stop_nrmse=1.0)
        hist = run_reconstruction(amps, geom, init, cfg, probe_true=probe)
        assert len(hist.rows) == 1

    def test_stop_nrmse_requires_true_probe(self):
        geom, obj, probe, amps = disjoint_instance()
        cfg = SolverConfig(max_iters=3, stop_nrmse=0.1)
        with pytest.raises(ValueError):
            run_reconstruction(amps, geom, probe, cfg)


class TestEventsAndErrors:
    @pytest.mark.parametrize("mode", ["rank1_global", "rank1_framewise"])
    def test_nearly_constant_object_takes_the_power_step_without_event(
        self, monkeypatch, rng, mode
    ):
        # The transparency shift of an almost perfectly transparent
        # object leaves only rounding, below the weight floor: each gate
        # scores 0, and the run keeps going on the plain power step.
        geom = make_raster_geometry(n=16, m=8, step=4, grid=(4, 4))
        probe = make_probe(ProbeSpec(m=8, aperture_radius_px=3.0, defocus_phase_strength=0.3))
        obj = 1.0 + 1e-13 * rand_complex(rng, 16, 16)
        frames = illuminate(obj, probe, geom)
        amps = simulate_data(obj, probe, geom)
        monkeypatch.setattr(solver, "RANK1_CADENCE", 1)
        scores = []
        gate = solver.shift_consistency

        def scored(*args):
            scores.append(gate(*args))
            return scores[-1]

        monkeypatch.setattr(solver, "shift_consistency", scored)
        cfg = SolverConfig(probe_mode=mode, max_iters=2)
        hist = run_reconstruction(amps, geom, probe, cfg, frames_init=frames)
        assert scores == [0.0, 0.0]
        assert hist.events == []
        assert len(hist.rows) == 3

    def test_engagement_event_on_weak_contrast_instance(self):
        geom, probe, init, amps = overlapping_instance()
        cfg = SolverConfig(probe_mode="rank1_global", max_iters=10)
        hist = run_reconstruction(amps, geom, init, cfg, probe_true=probe)
        assert any("transparency shift engaged" in event for event in hist.events)

    @pytest.mark.parametrize(
        "mode, estimator",
        [("rank1_global", "transparency_global"), ("rank1_framewise", "transparency_framewise")],
    )
    def test_gate_computes_only_the_estimator_its_mode_reads(self, monkeypatch, mode, estimator):
        calls = dict.fromkeys(("transparency_global", "transparency_framewise"), 0)
        for name in calls:
            def counted(*args, _name=name, _original=getattr(solver, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(solver, name, counted)
        geom, probe, init, amps = overlapping_instance()
        run_reconstruction(amps, geom, init, SolverConfig(probe_mode=mode, max_iters=10))
        assert calls[estimator] >= 1
        assert sum(calls.values()) == calls[estimator]

    def test_errors_carry_iteration_context(self):
        geom, obj, probe, amps = disjoint_instance()
        cfg = SolverConfig(probe_mode="power", max_iters=3)
        zeros = np.zeros_like(amps, dtype=complex)
        with pytest.raises(ValueError, match="^iteration 1: "):
            run_reconstruction(amps, geom, probe, cfg, frames_init=zeros)


def acceptance_instance():
    """The 64 px weak-contrast instance of the acceptance criteria."""
    geom = make_raster_geometry(n=64, m=16, step=4, grid=(13, 13))
    obj = make_test_object(PhantomSpec(n=64, dc_fraction=0.99, texture_seed=0))
    probe = make_probe(ProbeSpec(m=16, aperture_radius_px=7.5, defocus_phase_strength=0.5))
    init = perturb_probe(probe, blur_sigma_px=2.0, noise_level=0.05, seed=1)
    return geom, init, simulate_data(obj, probe, geom)


class TestNonFiniteIterate:
    @pytest.mark.parametrize("mode", ["standard", "power"])
    def test_overflowing_data_fails_before_a_row_is_recorded(self, mode):
        # The squared amplitudes overflow float64, so the norms of row 0
        # are infinite and its data residual would be NaN.
        geom, init, amps = acceptance_instance()
        cfg = SolverConfig(probe_mode=mode, max_iters=3)
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError, match="^iteration 0: data misfit norm is not finite$"):
                run_reconstruction(amps * 1e160, geom, init, cfg)

    def test_zero_data_with_non_zero_model_records_infinite_residual(self):
        # The convention of metrics.data_residual: a finite model against
        # all-zero data is infinitely far from it, which is not an error.
        geom, probe, init, amps = overlapping_instance()
        frames = illuminate(np.ones((geom.n, geom.n), dtype=complex), probe, geom)
        cfg = SolverConfig(probe_mode="power", max_iters=0)
        hist = run_reconstruction(np.zeros_like(amps), geom, init, cfg, frames_init=frames)
        assert hist.rows[0].data_residual == float("inf")

    @pytest.mark.parametrize("frames_given", [True, False])
    def test_non_finite_probe_update_is_named(self, monkeypatch, frames_given):
        # The check guards the update itself, on both start paths: given
        # frames, or the frames of a unit object under the initial probe.
        geom, probe, init, amps = overlapping_instance()
        frames = illuminate(np.ones((geom.n, geom.n), dtype=complex), probe, geom)
        monkeypatch.setattr(
            solver, "update_probe_power", lambda *args, **kwargs: np.full((8, 8), np.nan + 0j)
        )
        cfg = SolverConfig(probe_mode="power", max_iters=3)
        with pytest.raises(ValueError, match="^iteration 1: power probe update is not finite$"):
            run_reconstruction(amps, geom, init, cfg, frames_init=frames if frames_given else None)


class TestDeterminism:
    def test_inputs_are_not_overwritten(self):
        # The loop writes each iteration's frames over the last ones; the
        # caller's arrays must never be those frames.
        geom, probe, init, amps = overlapping_instance()
        frames = illuminate(np.ones((geom.n, geom.n), dtype=complex), probe, geom)
        inputs = [amps, init, frames]
        before = [a.tobytes() for a in inputs]
        run_reconstruction(amps, geom, init, SolverConfig(max_iters=3), frames_init=frames)
        assert [a.tobytes() for a in inputs] == before

    def test_frames_init_memory_order_does_not_matter(self):
        geom, probe, init, amps = overlapping_instance()
        frames = illuminate(np.ones((geom.n, geom.n), dtype=complex), probe, geom)
        cfg = SolverConfig(probe_mode="rank1_framewise", max_iters=5)
        a = run_reconstruction(amps, geom, init, cfg, frames_init=frames)
        b = run_reconstruction(amps, geom, init, cfg, frames_init=np.asfortranarray(frames))
        assert a.probe.tobytes() == b.probe.tobytes()
        assert a.frames.tobytes() == b.frames.tobytes()

    def test_transparent_init_is_deterministic(self):
        geom, probe, init, amps = overlapping_instance()
        cfg = SolverConfig(probe_mode="rank1_global", max_iters=5)
        a = run_reconstruction(amps, geom, init, cfg)
        b = run_reconstruction(amps, geom, init, cfg)
        assert np.array_equal(a.probe, b.probe)
        assert [r.data_residual for r in a.rows] == [r.data_residual for r in b.rows]


class TestValidation:
    def test_rejects_mismatched_shapes_and_zero_probe(self):
        geom, obj, probe, amps = disjoint_instance()
        cfg = SolverConfig(max_iters=1)
        with pytest.raises(ValueError):
            run_reconstruction(amps[:, :4, :4], geom, probe, cfg)
        with pytest.raises(ValueError):
            run_reconstruction(amps, geom, probe[:4, :4], cfg)
        with pytest.raises(ValueError):
            run_reconstruction(amps, geom, np.zeros_like(probe), cfg)
        with pytest.raises(ValueError):
            run_reconstruction(amps, geom, probe, cfg, frames_init=amps[:2].astype(complex))
        with pytest.raises(ValueError):
            run_reconstruction(-amps, geom, probe, cfg)

    def test_rejects_non_finite_probe_init(self):
        geom, obj, probe, amps = disjoint_instance()
        bad = probe.astype(complex)
        bad[2, 3] = np.nan
        with pytest.raises(ValueError, match="^probe_init contains non-finite entries$"):
            run_reconstruction(amps, geom, bad, SolverConfig(max_iters=1))

    @pytest.mark.parametrize(
        "spoil, message",
        [
            ("nan", "contains non-finite entries"),
            ("zero", "is identically zero"),
            ("flattened", r"shape \(64,\) does not match geometry m=8"),
        ],
        ids=["nan", "zero", "flattened"],
    )
    def test_rejects_bad_probe_true(self, spoil, message):
        # A NaN truth would fill every row's error with NaN, so the stop
        # rule would never fire; the others failed only at iteration 0.
        geom, obj, probe, amps = disjoint_instance()
        truth = probe.astype(complex)
        if spoil == "nan":
            truth[2, 3] = np.nan
        elif spoil == "zero":
            truth[:] = 0.0
        else:
            truth = truth.ravel()
        cfg = SolverConfig(max_iters=3, stop_nrmse=0.1)
        with pytest.raises(ValueError, match=f"^probe_true {message}$"):
            run_reconstruction(amps, geom, probe, cfg, probe_true=truth)

    def test_rejects_non_finite_frames_init(self):
        geom, obj, probe, amps = disjoint_instance()
        frames = illuminate(obj, probe, geom)
        frames[1, 2, 3] = np.inf
        with pytest.raises(ValueError, match="^frames_init contains non-finite entries$"):
            run_reconstruction(amps, geom, probe, SolverConfig(max_iters=1), frames_init=frames)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(probe_mode="momentum")
        with pytest.raises(ValueError):
            SolverConfig(max_iters=-1)
        # A NaN threshold compares false with every error, so its stop
        # rule would never fire.
        for stop in (float("nan"), -0.1):
            with pytest.raises(ValueError, match="stop_nrmse must be >= 0"):
                SolverConfig(stop_nrmse=stop)

    @pytest.mark.parametrize(
        "field, value",
        # A fractional max_iters would fail in range().
        [("max_iters", 2.5), ("max_iters", True)],
    )
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            SolverConfig(**{field: value})
