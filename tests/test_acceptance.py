"""Acceptance suite: one test per shipped claim, one printed verdict line
each (run with ``pytest -s tests/test_acceptance.py`` to see them).

Every numeric check is made against an independent construction living
in this file or in conftest: dense matrices assembled by explicit
loops, literal double sums, brute-force grid searches, or pinned
synthetic experiments driven through the public API.
"""

import time

import numpy as np
import pytest
from conftest import (
    dense_extract_matrix,
    dense_illuminate_matrix,
    dense_power_matrices,
    frame_consistency_project,
    grid_search_nrmse,
    rand_complex,
    stack_to_vec,
    step_inputs,
    update_probe_rank1_expanded,
    vec_to_stack,
)

from ptyblind import (
    DegenerateInputError,
    ScanGeometry,
    SolverConfig,
    coverage_maps,
    illuminate,
    illuminate_adjoint,
    run_reconstruction,
)
from ptyblind.metrics import nrmse_probe
from ptyblind.operators import replicate_probe
from ptyblind.solver import (
    pairwise_discrepancy,
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

CFG = SolverConfig()


def _report(k: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {k}: {'PASS' if ok else 'FAIL'} - {detail}")


def _rel(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(got) - np.asarray(want)) / np.linalg.norm(want))


def test_criterion_1_dense_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    n, m, K = 8, 4, 6
    geom = ScanGeometry(n=n, m=m, positions=rng.integers(0, n, size=(K, 2)))
    probe = rand_complex(rng, m, m)
    obj = rand_complex(rng, n, n)
    frames = rand_complex(rng, K, m, m)

    Q = dense_illuminate_matrix(probe, geom)
    T = dense_extract_matrix(geom)
    errs = {}

    errs["window_illumination"] = _rel(
        illuminate(obj, probe, geom), vec_to_stack(Q @ obj.reshape(-1), geom)
    )
    errs["adjoint"] = _rel(
        illuminate_adjoint(frames, probe, geom),
        (Q.conj().T @ stack_to_vec(frames)).reshape(n, n),
    )

    cov = coverage_maps(probe, geom)
    obj_cov = (np.abs(Q) ** 2).sum(axis=0)
    errs["object_coverage"] = _rel(cov.object_coverage, obj_cov.reshape(n, n))
    errs["frame_coverage"] = _rel(cov.frame_coverage, vec_to_stack(T @ obj_cov, geom))

    # diagonal least squares in the object domain, then re-illumination
    pinv = np.where(obj_cov > 1e-12 * obj_cov.max(), 1.0 / np.where(obj_cov > 0, obj_cov, 1.0), 0.0)
    obj_lsq = pinv * (Q.conj().T @ stack_to_vec(frames))
    inputs = step_inputs(frames, probe, geom)
    errs["update_object"] = _rel(update_object(*inputs[:2], probe), obj_lsq.reshape(n, n))
    errs["consistency_projection"] = _rel(
        frame_consistency_project(frames, probe, geom), vec_to_stack(Q @ obj_lsq, geom)
    )

    views = vec_to_stack(T.astype(complex) @ obj.reshape(-1), geom)
    per_pixel = (np.conj(views) * frames).sum(axis=0) / (np.abs(views) ** 2).sum(axis=0)
    errs["probe_standard"] = _rel(update_probe_standard(frames, obj, geom, inputs.work), per_pixel)

    D, A = dense_power_matrices(frames, geom)
    errs["probe_power"] = _rel(
        update_probe_power(frames, geom, *inputs[1:]), ((A @ probe.reshape(-1)) / D).reshape(m, m)
    )

    elapsed = time.perf_counter() - t0
    worst = max(errs.values())
    ok = worst <= 1e-11 and elapsed < 1.0
    _report(1, ok, f"worst relative error {worst:.2e} over {len(errs)} dense oracles, "
                   f"{elapsed * 1e3:.0f} ms")
    assert worst <= 1e-11, errs
    assert elapsed < 1.0


def _embedded_field(values: np.ndarray, position, n: int) -> np.ndarray:
    """Place an m x m patch into an n x n zero field at a wrapped window."""
    m = values.shape[0]
    out = np.zeros((n, n), dtype=complex)
    r0, c0 = int(position[0]), int(position[1])
    for r in range(m):
        for c in range(m):
            out[(r0 + r) % n, (c0 + c) % n] = values[r, c]
    return out


def test_criterion_2_pairwise_identity():
    worst_random = 0.0
    worst_consistent = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n, m, K = 6, 3, 4
        geom = ScanGeometry(n=n, m=m, positions=rng.integers(0, n, size=(K, 2)))
        probe = rand_complex(rng, m, m)
        frames = rand_complex(rng, K, m, m)

        # literal double sum over ordered frame pairs of embedded
        # cross-illuminated differences, halved
        wfields = [_embedded_field(probe, geom.positions[i], n) for i in range(K)]
        zfields = [_embedded_field(frames[i], geom.positions[i], n) for i in range(K)]
        brute = 0.0
        for i in range(K):
            for j in range(K):
                diff = wfields[j] * zfields[i] - wfields[i] * zfields[j]
                brute += float(np.vdot(diff, diff).real)
        brute *= 0.5
        fast = pairwise_discrepancy(*step_inputs(frames, probe, geom)[:3])
        worst_random = max(worst_random, abs(brute - fast) / brute)

        consistent = illuminate(rand_complex(rng, n, n), probe, geom)
        value = pairwise_discrepancy(*step_inputs(consistent, probe, geom)[:3])
        bound = np.linalg.norm(consistent) ** 2 * coverage_maps(probe, geom).object_coverage.max()
        worst_consistent = max(worst_consistent, value / bound)

    ok = worst_random <= 1e-10 and worst_consistent <= 1e-12
    _report(2, ok, f"20 seeds: brute-force gap {worst_random:.2e}, "
                   f"consistent-stack residue {worst_consistent:.2e} of scale")
    assert ok


def test_criterion_3_projector_properties():
    rng = np.random.default_rng(303)
    worst_idem = 0.0
    worst_increase = 0.0
    for _ in range(50):
        n, m, K = 8, 4, 6
        geom = ScanGeometry(n=n, m=m, positions=rng.integers(0, n, size=(K, 2)))
        probe = rand_complex(rng, m, m)
        frames = rand_complex(rng, K, m, m)
        once = frame_consistency_project(frames, probe, geom)
        twice = frame_consistency_project(once, probe, geom)
        worst_idem = max(worst_idem, _rel(twice, once))
        before = pairwise_discrepancy(*step_inputs(frames, probe, geom)[:3])
        after = pairwise_discrepancy(*step_inputs(once, probe, geom)[:3])
        worst_increase = max(worst_increase, (after - before) / before)
    ok = worst_idem <= 1e-10 and worst_increase <= 1e-10
    _report(3, ok, f"50 stacks: idempotence residue {worst_idem:.2e}, "
                   f"worst discrepancy change {worst_increase:+.2e}")
    assert ok


def test_criterion_4_true_pair_fixed_under_every_mode():
    geom = make_raster_geometry(n=32, m=8, step=4, grid=(7, 7))
    obj = make_test_object(PhantomSpec(n=32, dc_fraction=0.5, texture_seed=4))
    probe = make_probe(ProbeSpec(m=8, aperture_radius_px=3.0, defocus_phase_strength=0.5))
    amps = simulate_data(obj, probe, geom)
    frames_true = illuminate(obj, probe, geom)
    probe_errs = {}
    object_errs = {}
    for mode in ("standard", "power", "rank1_global", "rank1_framewise"):
        cfg = SolverConfig(probe_mode=mode, max_iters=1)
        hist = run_reconstruction(
            amps, geom, probe, cfg, probe_true=probe, frames_init=frames_true
        )
        probe_errs[mode] = hist.rows[-1].nrmse_probe
        object_errs[mode] = nrmse_probe(hist.object_image, obj)
        if mode.startswith("rank1"):
            # prove the transparency-shifted branch really ran
            assert any("transparency shift engaged" in e for e in hist.events)
    worst = max(max(probe_errs.values()), max(object_errs.values()))
    ok = worst <= 1e-10
    _report(4, ok, f"probe and object NRMSE after one iteration <= {worst:.2e} "
                   f"across {len(probe_errs)} probe modes")
    assert ok, (probe_errs, object_errs)


def test_criterion_5_rank1_algebra():
    rng = np.random.default_rng(505)
    worst_paths = 0.0
    for trial in range(30):
        n, m, K = 8, 3, 5
        geom = ScanGeometry(n=n, m=m, positions=rng.integers(0, n, size=(K, 2)))
        frames = rand_complex(rng, K, m, m)
        probe = rand_complex(rng, m, m)
        if trial % 2:
            transparency = complex(rand_complex(rng, 1)[0])
        else:
            transparency = rand_complex(rng, K)
        inputs = step_inputs(frames, probe, geom)
        fast = update_probe_rank1(frames, probe, geom, transparency, *inputs)
        slow = update_probe_rank1_expanded(frames, probe, geom, transparency)
        worst_paths = max(worst_paths, _rel(slow, fast))

    worst_nu = 0.0
    geom = ScanGeometry(n=8, m=3, positions=rng.integers(0, 8, size=(5, 2)))
    for _ in range(5):
        probe = rand_complex(rng, 3, 3)
        nu = complex(rand_complex(rng, 1)[0])
        pure = nu * replicate_probe(probe, geom)
        estimate = transparency_global(illuminate_adjoint(pure, probe, geom), probe, geom)
        worst_nu = max(worst_nu, abs(estimate - nu) / abs(nu))

    probe = rand_complex(rng, 3, 3)
    constant_frames = (0.8 + 0.3j) * replicate_probe(probe, geom)
    with pytest.raises(DegenerateInputError):
        inputs = step_inputs(constant_frames, probe, geom)
        update_probe_rank1(constant_frames, probe, geom, 0.8 + 0.3j, *inputs)

    ok = worst_paths <= 1e-11 and worst_nu <= 1e-14
    _report(5, ok, f"two evaluation paths agree to {worst_paths:.2e} (30 instances), "
                   f"transparency recovery error {worst_nu:.2e}, degeneracy raises")
    assert ok


def test_criterion_6_transparency_speedup():
    t0 = time.perf_counter()
    geom = make_raster_geometry(n=64, m=16, step=4, grid=(13, 13))
    obj = make_test_object(PhantomSpec(n=64, dc_fraction=0.99, texture_seed=0))
    probe = make_probe(ProbeSpec(m=16, aperture_radius_px=7.5, defocus_phase_strength=0.5))
    amps = simulate_data(obj, probe, geom)
    init = perturb_probe(probe, blur_sigma_px=2.0, noise_level=0.05, seed=1)

    iters = {}
    reached = {}
    for mode in ("standard", "rank1_global", "rank1_framewise"):
        cfg = SolverConfig(probe_mode=mode, max_iters=500, stop_nrmse=0.1)
        hist = run_reconstruction(amps, geom, init, cfg, probe_true=probe)
        iters[mode] = hist.rows[-1].iter
        reached[mode] = hist.rows[-1].nrmse_probe <= 0.1
    elapsed = time.perf_counter() - t0

    ok = (
        all(reached.values())
        and iters["rank1_global"] <= 0.5 * iters["standard"]
        and elapsed < 60.0
    )
    _report(6, ok, f"iterations to NRMSE 0.1: standard={iters['standard']}, "
                   f"rank1_global={iters['rank1_global']} "
                   f"(ratio {iters['rank1_global'] / iters['standard']:.2f}), "
                   f"rank1_framewise={iters['rank1_framewise']} (recorded), "
                   f"{elapsed:.1f} s total")
    assert ok, (iters, reached, elapsed)


def test_criterion_6_holds_on_piecewise_specimens():
    # The abstract's second specimen class ("piecewise smooth"), on
    # criterion 6's scan, probe and start. The counts are pinned: the
    # shifted step's lead is large at dc 0.99 and small at dc 0.9.
    geom = make_raster_geometry(n=64, m=16, step=4, grid=(13, 13))
    probe = make_probe(ProbeSpec(m=16, aperture_radius_px=7.5, defocus_phase_strength=0.5))
    init = perturb_probe(probe, blur_sigma_px=2.0, noise_level=0.05, seed=1)
    pinned = {
        (0.99, "standard"): 47,
        (0.99, "rank1_global"): 18,
        (0.9, "standard"): 14,
        (0.9, "rank1_global"): 12,
    }
    iters = {}
    for dc in (0.99, 0.9):
        spec = PhantomSpec(n=64, dc_fraction=dc, texture_seed=0, texture_kind="piecewise")
        amps = simulate_data(make_test_object(spec), probe, geom)
        for mode in ("standard", "rank1_global"):
            cfg = SolverConfig(probe_mode=mode, max_iters=500, stop_nrmse=0.1)
            final = run_reconstruction(amps, geom, init, cfg, probe_true=probe).rows[-1]
            iters[dc, mode] = final.iter if final.nrmse_probe <= 0.1 else None
    ok = iters == pinned
    _report(6, ok, "piecewise texture 0, iterations to NRMSE 0.1: " + ", ".join(
        f"dc {dc} {mode}={count}" for (dc, mode), count in iters.items()
    ))
    assert ok, iters


# Summed iterations to NRMSE 0.1 over the ensemble, per scan and mode.
ENSEMBLE_ITERATIONS = {
    "raster": {"standard": 524, "rank1_global": 146, "rank1_framewise": 136},
    "jittered": {"standard": 456, "rank1_global": 137, "rank1_framewise": 134},
}


@pytest.mark.parametrize("scan", ENSEMBLE_ITERATIONS)
def test_criterion_6_holds_on_an_ensemble_and_a_jittered_scan(scan):
    # Criterion 6's recipe at texture seeds 0-7 (start perturbation seed
    # k + 1), on its 4 px raster and on the same raster with every
    # position moved by up to 1 px per axis, which makes 8 frames wrap.
    # A raster's positions differ by multiples of 4 px, so a probe times
    # any 4 px periodic factor fits the data as well (a gauge the rank-1
    # steps may drift along); the jitter leaves no such factor. The
    # summed counts are pinned, as criterion 6 pins its three.
    geom = make_raster_geometry(n=64, m=16, step=4, grid=(13, 13))
    if scan == "jittered":
        jitter = np.random.default_rng(1001).integers(-1, 2, size=(geom.K, 2))
        geom = ScanGeometry(n=64, m=16, positions=(geom.positions + jitter) % 64)
        assert (geom.positions > 64 - 16).any(axis=1).sum() == 8
    probe = make_probe(ProbeSpec(m=16, aperture_radius_px=7.5, defocus_phase_strength=0.5))
    iters = dict.fromkeys(ENSEMBLE_ITERATIONS[scan], 0)
    misses = []
    for k in range(8):
        obj = make_test_object(PhantomSpec(n=64, dc_fraction=0.99, texture_seed=k))
        amps = simulate_data(obj, probe, geom)
        init = perturb_probe(probe, blur_sigma_px=2.0, noise_level=0.05, seed=k + 1)
        for mode in iters:
            cfg = SolverConfig(probe_mode=mode, max_iters=500, stop_nrmse=0.1)
            final = run_reconstruction(amps, geom, init, cfg, probe_true=probe).rows[-1]
            iters[mode] += final.iter
            if final.nrmse_probe > 0.1:
                misses.append((k, mode))
    lead = max(iters["rank1_global"], iters["rank1_framewise"]) / iters["standard"]
    ok = not misses and lead <= 0.35 and iters == ENSEMBLE_ITERATIONS[scan]
    _report(6, ok, f"{scan} scan, textures 0-7, summed iterations to NRMSE 0.1: " + ", ".join(
        f"{mode}={count}" for mode, count in iters.items()
    ) + f" (rank-1 at most {lead:.2f} of standard), misses {misses}")
    assert ok, (iters, misses)


def test_criterion_7_large_instance_smoke_run():
    t0 = time.perf_counter()
    geom = make_raster_geometry(n=223, m=128, step=5, grid=(20, 20))
    obj = make_test_object(PhantomSpec(n=223, dc_fraction=0.99, texture_seed=0))
    probe = make_probe(ProbeSpec(m=128, aperture_radius_px=48.0, defocus_phase_strength=1.0))
    amps = simulate_data(obj, probe, geom)
    init = perturb_probe(probe, blur_sigma_px=4.0, noise_level=0.1, seed=1)

    cfg = SolverConfig(probe_mode="rank1_global", max_iters=50)
    hist = run_reconstruction(amps, geom, init, cfg, probe_true=probe)
    elapsed = time.perf_counter() - t0

    errors = np.array([row.nrmse_probe for row in hist.rows])
    best = np.minimum.accumulate(errors)
    # The gate first accepts a shifted step at the last iteration, which
    # takes the probe error below 0.1 (from 0.119 to 0.0912).
    shifted = any(e.startswith("iteration 50: transparency shift engaged") for e in hist.events)
    ok = (
        len(hist.rows) == 51
        and bool(np.isfinite(errors).all())
        and bool((np.diff(best) <= 0).all())
        and best[-1] <= errors[0]
        and shifted
        and errors[-1] <= 0.1
    )
    _report(7, ok, f"400 frames of 128x128 over a 223x223 object: 50 iterations, "
                   f"NRMSE {errors[0]:.3f} -> best {best[-1]:.3f}, final {errors[-1]:.4f} "
                   f"after the iteration-50 shift: {shifted}, {elapsed:.0f} s")
    assert ok


def test_criterion_8_nrmse_grid_search():
    rng = np.random.default_rng(808)
    worst_above = -np.inf
    worst_gap = 0.0
    for _ in range(20):
        est = rand_complex(rng, 8, 8)
        true = rand_complex(rng, 8, 8)
        closed = nrmse_probe(est, true)
        grid_min, spacing = grid_search_nrmse(est, true)
        worst_above = max(worst_above, closed - grid_min)
        ratio_sq = np.vdot(est, est).real / np.vdot(true, true).real
        gap = (grid_min**2 - closed**2) / (0.5 * spacing**2 * ratio_sq)
        worst_gap = max(worst_gap, gap)
    ok = worst_above <= 1e-12 and worst_gap <= 1.0000001
    _report(8, ok, f"20 pairs: closed form below every grid value "
                   f"(margin {worst_above:.1e}) and within grid resolution "
                   f"(worst {worst_gap:.3f} of the cell bound)")
    assert ok
