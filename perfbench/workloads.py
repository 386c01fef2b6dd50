"""Seeded benchmark instances, the solves run on them, and output checks.

Every workload runs the four probe modes on an ensemble of instances.
Instance ``k`` of a run with seed ``s`` uses the instance seed
``s * instances + k``: it is the texture seed of the phantom, plus one
it seeds the initial-probe perturbation, and plus seven the Poisson
draw. Seed 0 therefore starts with the acceptance instances of
``tests/test_acceptance.py`` (texture 0, perturbation 1).

The ensembles exist because a single instance is not a steady
measurement: across texture seeds the iterations to NRMSE 0.1 range
over a factor of seven, and under Poisson noise whether the rank-1
modes drift depends on the instance.

All calls into ptyblind go through module attributes
(``synth.simulate_data``, ``solver.run_reconstruction``) so that the
traced run's wrappers see them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ptyblind import operators, solver, synth

MODES = ("standard", "power", "rank1_global", "rank1_framewise")
DC_FRACTION = 0.99
NRMSE_TARGET = 0.1
PERTURBATION_SEED_OFFSET = 1
POISSON_SEED_OFFSET = 7


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: an instance recipe and the solve settings.

    ``offset`` shifts the whole raster; frames starting past ``n - m``
    wrap round the object edge. ``stop_nrmse`` set means every solve
    must reach it within ``max_iters``; unset means every solve runs
    exactly ``max_iters`` iterations. ``require_progress`` asks that the
    final probe NRMSE is no worse than the initial one.
    """

    name: str
    n: int
    m: int
    step: int
    grid: int
    aperture_px: float
    defocus: float
    blur_px: float
    init_noise: float
    instances: int
    max_iters: int
    stop_nrmse: Optional[float] = None
    offset: int = 0
    photons_per_frame: Optional[float] = None
    require_progress: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="weak64",
            n=64, m=16, step=4, grid=13, aperture_px=7.5, defocus=0.5,
            blur_px=2.0, init_noise=0.05,
            instances=32, max_iters=500, stop_nrmse=NRMSE_TARGET,
        ),
        Workload(
            name="large223",
            n=223, m=128, step=5, grid=20, aperture_px=48.0, defocus=1.0,
            blur_px=4.0, init_noise=0.1,
            instances=1, max_iters=2, require_progress=True,
        ),
        Workload(
            name="noisy_wrap64",
            n=64, m=16, step=4, grid=13, aperture_px=7.5, defocus=0.5,
            blur_px=2.0, init_noise=0.05,
            instances=5, max_iters=300, offset=6, photons_per_frame=1e5,
        ),
    )
}


@dataclass
class Instance:
    amplitudes: np.ndarray
    probe_init: np.ndarray
    probe_true: np.ndarray


@dataclass
class Inputs:
    geom: operators.ScanGeometry
    instances: list[Instance]


def poisson_amplitudes(amplitudes: np.ndarray, photons_per_frame: float, seed: int) -> np.ndarray:
    """Amplitudes of a Poisson photon count of the intensities.

    One global flux scale gives a mean of ``photons_per_frame`` counts
    per frame; the counts are scaled back to the input's units.
    """
    intensity = np.asarray(amplitudes) ** 2
    scale = photons_per_frame * intensity.shape[0] / intensity.sum()
    counts = np.random.default_rng(seed).poisson(intensity * scale)
    return np.sqrt(counts / scale)


def raster_positions(w: Workload) -> np.ndarray:
    """(K, 2) scan offsets of the workload, computed without ptyblind."""
    steps = w.step * np.arange(w.grid)
    rows, cols = np.meshgrid(steps, steps, indexing="ij")
    return np.stack([rows.ravel(), cols.ravel()], axis=1) + w.offset


def make_geometry(w: Workload) -> operators.ScanGeometry:
    geom = synth.make_raster_geometry(n=w.n, m=w.m, step=w.step, grid=(w.grid, w.grid))
    if w.offset:
        geom = operators.ScanGeometry(n=w.n, m=w.m, positions=geom.positions + w.offset)
    return geom


def instance_seed(w: Workload, seed: int, k: int) -> int:
    return seed * w.instances + k


def generate(w: Workload, seed: int) -> Inputs:
    """Build the geometry and every instance of a run from its seed."""
    geom = make_geometry(w)
    probe = synth.make_probe(
        synth.ProbeSpec(m=w.m, aperture_radius_px=w.aperture_px, defocus_phase_strength=w.defocus)
    )
    instances = []
    for k in range(w.instances):
        s = instance_seed(w, seed, k)
        obj = synth.make_test_object(synth.PhantomSpec(n=w.n, dc_fraction=DC_FRACTION, texture_seed=s))
        amplitudes = synth.simulate_data(obj, probe, geom)
        if w.photons_per_frame is not None:
            amplitudes = poisson_amplitudes(amplitudes, w.photons_per_frame, s + POISSON_SEED_OFFSET)
        probe_init = synth.perturb_probe(
            probe, blur_sigma_px=w.blur_px, noise_level=w.init_noise, seed=s + PERTURBATION_SEED_OFFSET
        )
        instances.append(Instance(amplitudes, probe_init, probe))
    return Inputs(geom, instances)


def solve(w: Workload, inputs: Inputs, k: int, mode: str, max_iters: Optional[int] = None) -> solver.History:
    inst = inputs.instances[k]
    cfg = solver.SolverConfig(
        probe_mode=mode,
        max_iters=w.max_iters if max_iters is None else max_iters,
        stop_nrmse=w.stop_nrmse,
    )
    return solver.run_reconstruction(
        inst.amplitudes, inputs.geom, inst.probe_init, cfg, probe_true=inst.probe_true
    )


def check(w: Workload, history: solver.History) -> list[str]:
    """Problems with a solve's outputs; empty when they are correct."""
    problems = []
    for name in ("probe", "object_image", "frames"):
        value = getattr(history, name)
        if value is None or not np.all(np.isfinite(value)):
            problems.append(f"{name} is missing or not finite")
    values = [
        (row.nrmse_probe, row.data_residual, row.pairwise, row.wall_ms) for row in history.rows
    ]
    if not values or not np.all(np.isfinite(np.array(values, dtype=float))):
        problems.append("a History value is not finite")
        return problems
    errors = [row.nrmse_probe for row in history.rows]
    if w.stop_nrmse is None and history.rows[-1].iter != w.max_iters:
        problems.append(f"ran {history.rows[-1].iter} of {w.max_iters} iterations")
    if w.require_progress and errors[-1] > errors[0]:
        problems.append(f"NRMSE rose from {errors[0]:.4f} to {errors[-1]:.4f}")
    return problems


def reached(w: Workload, history: solver.History) -> bool:
    """Whether a solve met the workload's NRMSE target (always, without one).

    A miss is not a failed solve: on about one weak64 instance in 150
    the rank-1 modes stall above the target for all 500 iterations. The
    benchmark counts misses and leaves them out of the timing metrics,
    where one 500-iteration solve would swamp 31 short ones.
    """
    return w.stop_nrmse is None or history.rows[-1].nrmse_probe <= w.stop_nrmse


def iters_to_target(history: solver.History) -> int:
    """First iteration whose probe NRMSE is at most the target, or -1."""
    for row in history.rows:
        if row.nrmse_probe <= NRMSE_TARGET:
            return row.iter
    return -1


def fallbacks(history: solver.History) -> int:
    return sum("fell back" in event for event in history.events)
