"""Frame-sized allocations of the reconstruction loop.

A run allocates its frame-sized stacks once; after the first iteration
no step allocates a transient frame-sized array. Every transient
allocation and free of that size made glibc grow and trim its heap,
which made a 64 px framewise iteration up to 30% slower. The traced
memory is sampled at every metrics row: the peak between two rows, less
the larger of the memory in use at either row, must stay below one
float64 frame stack. The memory in use holds the frames and the run's
two complex scratch stacks. A third, the spare stack, is made only by a
run that forms a shifted stack, which a gate or a shifted step does only
below the weight floor: a rank-1 run that takes its shifted steps from
the closed form holds no more frame-sized stacks than a ``power`` run.
"""

import tracemalloc

import numpy as np
import pytest
from test_loop_oracle import MODES, wrapping_instance

from ptyblind import ScanGeometry, SolverConfig, run_reconstruction, solver
from ptyblind.fourier import _frame_edges
from ptyblind.synth import (
    PhantomSpec,
    ProbeSpec,
    make_probe,
    make_raster_geometry,
    make_test_object,
    perturb_probe,
    simulate_data,
)


def traced_run(monkeypatch, amps, geom, init, cfg, probe_true):
    """Run with tracemalloc on; returns the transient peak between each
    pair of consecutive rows, the memory in use at each row and the
    number of shifted-step calls."""
    samples = []
    nrmse = solver.nrmse_probe
    rank1 = solver.update_probe_rank1
    calls = [0]

    def sampled_nrmse(estimate, truth):
        samples.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        return nrmse(estimate, truth)

    def counted_rank1(*args, **kwargs):
        calls[0] += 1
        return rank1(*args, **kwargs)

    monkeypatch.setattr(solver, "nrmse_probe", sampled_nrmse)
    monkeypatch.setattr(solver, "update_probe_rank1", counted_rank1)
    tracemalloc.start()
    try:
        history = run_reconstruction(amps, geom, init, cfg, probe_true=probe_true)
    finally:
        tracemalloc.stop()
    transient = [
        peak - max(before, after) for (before, _), (after, peak) in zip(samples, samples[1:])
    ]
    assert len(transient) == len(history.rows) - 1
    return transient, [current for current, _ in samples], calls[0]


def recorded_workspaces(monkeypatch):
    """The workspaces of the runs made while the test runs."""
    workspaces = []

    class Recorded(solver._Workspace):
        def __init__(self, *args):
            super().__init__(*args)
            workspaces.append(self)

    monkeypatch.setattr(solver, "_Workspace", Recorded)
    return workspaces


def frame_stack_bytes(geom):
    return geom.K * geom.m**2 * np.dtype(np.float64).itemsize


@pytest.mark.parametrize("mode", MODES)
def test_no_frame_sized_transient_after_first_iteration(monkeypatch, mode):
    geom, probe, init, amps = wrapping_instance()
    cfg = SolverConfig(probe_mode=mode, max_iters=30)
    transient, _, shifts = traced_run(monkeypatch, amps, geom, init, cfg, probe)
    if mode.startswith("rank1"):
        assert shifts >= 2
    # From row 2 on: the first iteration allocates the run's stacks.
    assert max(transient[1:]) < frame_stack_bytes(geom), transient


@pytest.mark.parametrize("mode", MODES)
def test_no_frame_sized_transient_on_the_pool(monkeypatch, mode):
    geom = make_raster_geometry(n=128, m=64, step=6, grid=(12, 12))
    geom = ScanGeometry(n=128, m=64, positions=geom.positions + 3)
    assert len(_frame_edges(geom.K, np.dtype(np.complex128).itemsize * geom.m**2)) > 2
    obj = make_test_object(PhantomSpec(n=128, dc_fraction=0.98, texture_seed=2))
    probe = make_probe(ProbeSpec(m=64, aperture_radius_px=24.0, defocus_phase_strength=0.5))
    init = perturb_probe(probe, blur_sigma_px=2.0, noise_level=0.05, seed=3)
    monkeypatch.setattr(solver, "RANK1_CADENCE", 1)
    cfg = SolverConfig(probe_mode=mode, max_iters=5)
    amps = simulate_data(obj, probe, geom)
    workspaces = recorded_workspaces(monkeypatch)
    transient, in_use, shifts = traced_run(monkeypatch, amps, geom, init, cfg, probe)
    assert max(transient[1:]) < frame_stack_bytes(geom), transient
    assert shifts == (1 if mode.startswith("rank1") else 0)
    # The frames and two complex128 scratch stacks are six float64
    # stacks; the images, the overlap matrix and the small arrays fit in
    # half of a seventh. Each rank-1 run takes its shifted step above the
    # weight floor, and makes no spare stack.
    (work,) = workspaces
    assert work._spare is None
    held = 6 * frame_stack_bytes(geom)
    assert max(in_use) < held + frame_stack_bytes(geom) // 2, (in_use, held)


@pytest.mark.parametrize("mode", ["rank1_global", "rank1_framewise"])
def test_a_shifting_run_holds_only_the_frames_and_two_scratch_stacks(mode):
    # On the wrapping instance every gate and shifted step is above the
    # weight floor. At its rows the rank-1 run holds no more than the
    # most a power run holds, and, per-frame, the K x K complex overlap
    # matrix: the spare stack would add two float64 frame stacks.
    geom, probe, init, amps = wrapping_instance()
    held = {}
    for run in ("power", mode):
        with pytest.MonkeyPatch.context() as patch:
            workspaces = recorded_workspaces(patch)
            cfg = SolverConfig(probe_mode=run, max_iters=30)
            _, in_use, shifts = traced_run(patch, amps, geom, init, cfg, probe)
        (work,) = workspaces
        assert work._spare is None
        held[run] = max(in_use)
    assert shifts >= 2
    overlap = geom.K**2 * np.dtype(np.complex128).itemsize if mode == "rank1_framewise" else 0
    assert held[mode] - overlap < held["power"] + frame_stack_bytes(geom) // 2, (held, overlap)
