"""Whole-solve invariances of the reconstruction loop.

Each test solves the acceptance instance (criterion 6 of
``test_acceptance.py``) for at most 25 iterations, stopping at probe
NRMSE 0.1, which is enough for the shifted step to run in both rank-1
modes, and compares the solve of a transformed problem, the transform
undone on its output, with the solve of the problem itself:

* amplitudes times ``2**k``: every quantity of the loop scales by an
  exact power of two or not at all, so the probe keeps its bytes and the
  object is exactly ``2**k`` times the reference;
* the transposed problem, the frames in reverse order, and a global
  phase on the start probe: the arithmetic is the same up to the order
  of its sums, so the iteration count and the events are equal and the
  probes agree to 1e-12.
"""

from functools import lru_cache

import numpy as np
import pytest

from ptyblind import ScanGeometry, SolverConfig, run_reconstruction, solver
from ptyblind.synth import (
    PhantomSpec,
    ProbeSpec,
    make_probe,
    make_raster_geometry,
    make_test_object,
    perturb_probe,
    simulate_data,
)

MODES = ("standard", "rank1_global", "rank1_framewise")
PHASE = np.exp(0.7j)


@lru_cache(maxsize=None)
def instance():
    """Geometry, true probe, start probe and amplitudes of criterion 6."""
    geom = make_raster_geometry(n=64, m=16, step=4, grid=(13, 13))
    obj = make_test_object(PhantomSpec(n=64, dc_fraction=0.99, texture_seed=0))
    probe = make_probe(ProbeSpec(m=16, aperture_radius_px=7.5, defocus_phase_strength=0.5))
    init = perturb_probe(probe, blur_sigma_px=2.0, noise_level=0.05, seed=1)
    return geom, probe, init, simulate_data(obj, probe, geom)


def solve(mode, geom, probe, init, amps):
    cfg = SolverConfig(probe_mode=mode, max_iters=25, stop_nrmse=0.1)
    return run_reconstruction(amps, geom, init, cfg, probe_true=probe)


@lru_cache(maxsize=None)
def reference(mode):
    """The untransformed solve and the number of shifted steps it took."""
    steps = []
    rank1 = solver.update_probe_rank1
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "update_probe_rank1", lambda *a: steps.append(1) or rank1(*a))
        history = solve(mode, *instance())
    return history, len(steps)


def transposed(geom, probe, init, amps):
    positions = np.ascontiguousarray(geom.positions[:, ::-1])
    problem = (probe.T, init.T, np.ascontiguousarray(amps.transpose(0, 2, 1)))
    return (ScanGeometry(n=geom.n, m=geom.m, positions=positions), *problem)


def reversed_frames(geom, probe, init, amps):
    positions = np.ascontiguousarray(geom.positions[::-1])
    return ScanGeometry(n=geom.n, m=geom.m, positions=positions), probe, init, amps[::-1].copy()


def phased_start(geom, probe, init, amps):
    return geom, probe, PHASE * init, amps


# Each transform of the problem, and the map of its final probe back.
TRANSFORMS = {
    "transpose": (transposed, lambda p: p.T),
    "reverse": (reversed_frames, lambda p: p),
    "phase": (phased_start, lambda p: p / PHASE),
}


@pytest.mark.parametrize("mode", MODES)
def test_the_rank1_solves_take_shifted_steps(mode):
    history, steps = reference(mode)
    assert steps >= 2 if mode.startswith("rank1") else steps == 0
    assert len(history.rows) > 2


@pytest.mark.parametrize("k", [-20, 40])
@pytest.mark.parametrize("mode", MODES)
def test_a_power_of_two_amplitude_scale_is_exact(mode, k):
    geom, probe, init, amps = instance()
    want, _ = reference(mode)
    got = solve(mode, geom, probe, init, amps * 2.0**k)
    assert got.probe.tobytes() == want.probe.tobytes()
    assert got.object_image.tobytes() == (want.object_image * 2.0**k).tobytes()
    assert got.events == want.events
    assert [row.iter for row in got.rows] == [row.iter for row in want.rows]


@pytest.mark.parametrize("transform", TRANSFORMS)
@pytest.mark.parametrize("mode", MODES)
def test_a_symmetry_of_the_problem_keeps_the_solve(mode, transform):
    apply, undo = TRANSFORMS[transform]
    want, _ = reference(mode)
    got = solve(mode, *apply(*instance()))
    assert got.events == want.events
    assert [row.iter for row in got.rows] == [row.iter for row in want.rows]
    probe = undo(got.probe)
    assert np.linalg.norm(probe - want.probe) <= 1e-12 * np.linalg.norm(want.probe)
