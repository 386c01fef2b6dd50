"""The reconstruction loop against a reference loop built only from the
public step functions.

The reference recomputes every input of every step from the current
(frames, probe) pair, while the loop computes the coverage and the
adjoint accumulation once per iteration and hands them to each step.
Reusing a product must not change a bit of the outcome, so the two
runs are compared byte for byte: final probe, object and frames,
every History value except the wall time, and the events.
"""

import re

import numpy as np
import pytest
from conftest import (
    data_residual,
    step_inputs,
    magnitude_project,
)

from ptyblind import (
    DegenerateInputError,
    ScanGeometry,
    SolverConfig,
    center_probe,
    illuminate,
    nrmse_probe,
    run_reconstruction,
    solver,
)
from ptyblind.solver import (
    pairwise_discrepancy,
    shift_consistency,
    transparency_framewise,
    transparency_global,
    update_object,
    update_probe_power,
    update_probe_rank1,
    update_probe_standard,
)
from ptyblind.synth import (
    PhantomSpec,
    ProbeSpec,
    make_probe,
    make_raster_geometry,
    make_test_object,
    perturb_probe,
    simulate_data,
)

MODES = ("standard", "power", "rank1_global", "rank1_framewise")


def reference_run(amplitudes, geom, probe_init, cfg, probe_true=None, frames_init=None):
    """Reference reconstruction loop. Returns the History's rows
    (without wall time), events, final arrays and the number of
    transparency-shifted steps."""
    probe = np.array(probe_init, dtype=np.complex128)
    norm_lock_target = np.linalg.norm(probe)
    if frames_init is None:
        ones = np.ones((geom.n, geom.n), dtype=np.complex128)
        frames = magnitude_project(illuminate(ones, probe, geom), amplitudes)
    else:
        frames = np.array(frames_init, dtype=np.complex128)
    rows, events = [], []

    def record(iteration, model):
        err = nrmse_probe(probe, probe_true) if probe_true is not None else None
        resid = data_residual(model, amplitudes)
        pairwise = pairwise_discrepancy(*step_inputs(frames, probe, geom)[:3])
        rows.append((iteration, err, resid, pairwise))
        return cfg.stop_nrmse is not None and err <= cfg.stop_nrmse

    obj = update_object(*step_inputs(frames, probe, geom)[:2], probe)
    stop = record(0, illuminate(obj, probe, geom))
    since_shift, shifts = solver.RANK1_CADENCE, 0
    for iteration in range(1, cfg.max_iters + 1):
        if stop:
            break
        obj = update_object(*step_inputs(frames, probe, geom)[:2], probe)
        new, engaged = None, False
        if cfg.probe_mode == "standard":
            new = update_probe_standard(frames, obj, geom, step_inputs(frames, probe, geom).work)
        elif cfg.probe_mode != "power" and since_shift >= solver.RANK1_CADENCE:
            if cfg.probe_mode == "rank1_framewise":
                transparency = transparency_framewise(frames, probe, geom)
            else:
                adjoint = step_inputs(frames, probe, geom).adjoint
                transparency = transparency_global(adjoint, probe, geom)
            score = shift_consistency(
                frames, probe, geom, transparency, *step_inputs(frames, probe, geom)
            )
            if score >= solver.RANK1_GATE:
                new = update_probe_rank1(
                    frames, probe, geom, transparency, *step_inputs(frames, probe, geom)
                )
                if shifts == 0:
                    events.append(
                        f"iteration {iteration}: transparency shift engaged "
                        f"(consistency {score:.3f})"
                    )
                engaged, shifts, since_shift = True, shifts + 1, 0
        if new is None:
            new = update_probe_power(frames, geom, *step_inputs(frames, probe, geom)[1:])
            since_shift += 1
        probe, shift = center_probe(new)
        obj = np.roll(obj, tuple(shift), axis=(0, 1))
        probe *= norm_lock_target / np.linalg.norm(probe)
        if engaged:
            obj = update_object(*step_inputs(frames, probe, geom)[:2], probe)
        model = illuminate(obj, probe, geom)
        frames = magnitude_project(model, amplitudes)
        stop = record(iteration, model)
    return rows, events, (probe, obj, frames), shifts


def assert_same_run(history, reference):
    rows, events, arrays, _ = reference
    assert [(r.iter, r.nrmse_probe, r.data_residual, r.pairwise) for r in history.rows] == rows
    assert history.events == events
    for got, want in zip((history.probe, history.object_image, history.frames), arrays):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def wrapping_instance():
    """Weak-contrast 32x32 object under a raster shifted so that the
    frames at its far edge wrap around the object."""
    raster = make_raster_geometry(n=32, m=8, step=3, grid=(11, 11))
    geom = ScanGeometry(n=32, m=8, positions=raster.positions + 5)
    obj = make_test_object(PhantomSpec(n=32, dc_fraction=0.98, texture_seed=0))
    probe = make_probe(ProbeSpec(m=8, aperture_radius_px=3.5, defocus_phase_strength=0.5))
    init = perturb_probe(probe, blur_sigma_px=1.0, noise_level=0.05, seed=1)
    return geom, probe, init, simulate_data(obj, probe, geom)


@pytest.mark.parametrize("mode", MODES)
def test_loop_matches_reference_on_wrapping_raster(mode):
    geom, probe, init, amps = wrapping_instance()
    assert np.any(geom.positions + geom.m > geom.n)
    cfg = SolverConfig(probe_mode=mode, max_iters=30)
    reference = reference_run(amps, geom, init, cfg, probe_true=probe)
    assert_same_run(run_reconstruction(amps, geom, init, cfg, probe_true=probe), reference)
    if mode.startswith("rank1"):
        assert reference[3] >= 2


def test_loop_matches_reference_until_stop():
    geom, probe, init, amps = wrapping_instance()
    cfg = SolverConfig(probe_mode="rank1_global", max_iters=100, stop_nrmse=0.1)
    reference = reference_run(amps, geom, init, cfg, probe_true=probe)
    assert len(reference[0]) < 101
    assert_same_run(run_reconstruction(amps, geom, init, cfg, probe_true=probe), reference)


@pytest.mark.parametrize("mode", ["rank1_global", "rank1_framewise"])
def test_a_step_that_raises_after_its_gate_accepted_ends_the_run(monkeypatch, mode):
    # The gate and the step weigh the shifted stack alike, so the loop
    # keeps no fallback to the power step: a shifted step that raises
    # all the same ends the run, naming the iteration.
    geom, probe, init, amps = wrapping_instance()
    cfg = SolverConfig(probe_mode=mode, max_iters=30)
    engaged = run_reconstruction(amps, geom, init, cfg, probe_true=probe).events[0]
    first = re.fullmatch(r"iteration (\d+): transparency shift engaged \(.*\)", engaged)[1]

    def degenerate(*args):
        raise DegenerateInputError("no usable stack energy")

    monkeypatch.setattr(solver, "update_probe_rank1", degenerate)
    with pytest.raises(DegenerateInputError, match=f"^iteration {first}: no usable stack energy$"):
        run_reconstruction(amps, geom, init, cfg, probe_true=probe)
