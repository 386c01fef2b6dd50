"""Tests of the benchmark's own machinery.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import ptyblind  # noqa: E402
import run  # noqa: E402
from calibration import Calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


def test_self_times_subtract_direct_children_only():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3].
    spans = [
        Span(2, 1, "c", 2.0, 3.0, 0),
        Span(1, 0, "a", 1.0, 4.0, 0),
        Span(3, 0, "b", 5.0, 9.0, 0),
        Span(0, -1, "root", 0.0, 10.0, 0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
    assert sum(selfs.values()) == 10.0


def bindings():
    """Every (module, attribute) -> object binding in loaded ptyblind modules."""
    return {
        (key, attr): value
        for key, module in list(sys.modules.items())
        if key == "ptyblind" or key.startswith("ptyblind.")
        for attr, value in vars(module).items()
    }


def test_traced_run_wraps_every_binding_and_restores_it():
    layers = {name: getattr(ptyblind, name) for name in run.LAYERS}
    before = bindings()
    tracer = tracing.Tracer("weak64")
    w = workloads.WORKLOADS["weak64"]
    with tracing.traced(tracer, layers, "ptyblind", run.WORK):
        # solver imported extract_frames by name and operators calls
        # embed_add_frames internally: both bindings must be wrapped.
        assert ptyblind.solver.extract_frames is not before["ptyblind.solver", "extract_frames"]
        assert ptyblind.operators.embed_add_frames is not before["ptyblind.operators", "embed_add_frames"]
        geom = workloads.make_geometry(w)
        probe = ptyblind.synth.make_probe(ptyblind.synth.ProbeSpec(m=16, aperture_radius_px=7.5))
        ptyblind.operators.coverage_maps(probe, geom)
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    names = [span.name for span in tracer.spans]
    assert names.count("operators.embed_add_frames") == 1
    coverage = next(s for s in tracer.spans if s.name == "operators.coverage_maps")
    assert {s.name for s in tracer.spans if s.parent == coverage.span_id} == {
        "operators.replicate_probe", "operators.embed_add_frames", "operators.extract_frames",
    }


def test_traced_solve_matches_untraced_bit_for_bit():
    w = workloads.WORKLOADS["weak64"]
    inputs = workloads.generate(w, seed=0)
    plain = workloads.solve(w, inputs, 0, "rank1_framewise", max_iters=5)
    layers = {name: getattr(ptyblind, name) for name in run.LAYERS}
    tracer = tracing.Tracer("weak64")
    with tracing.traced(tracer, layers, "ptyblind", run.WORK):
        traced = workloads.solve(w, inputs, 0, "rank1_framewise", max_iters=5)
    assert traced.probe.tobytes() == plain.probe.tobytes()
    metrics = run.layer_metrics(w, tracer.spans, (1.0, {}), (1.0, {(0, "rank1_framewise"): (1.0, traced)}))
    root = next(s for s in tracer.spans if s.name == "solver.run_reconstruction")
    total_self = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert total_self == pytest.approx(root.end - root.start, rel=1e-9)
    assert metrics["solver.iterations"] == 5


def test_poisson_amplitudes_are_deterministic_per_seed():
    amplitudes = np.abs(np.random.default_rng(3).normal(size=(20, 8, 8)))
    a = workloads.poisson_amplitudes(amplitudes, 1e5, seed=7)
    b = workloads.poisson_amplitudes(amplitudes, 1e5, seed=7)
    c = workloads.poisson_amplitudes(amplitudes, 1e5, seed=8)
    assert a.tobytes() == b.tobytes()
    assert not np.array_equal(a, c)
    scale = 1e5 * 20 / (amplitudes**2).sum()
    photons = (a**2 * scale).sum(axis=(1, 2))
    assert photons.mean() == pytest.approx(1e5, rel=0.01)


def test_seed_zero_starts_with_the_acceptance_instance():
    w = workloads.WORKLOADS["weak64"]
    inputs = workloads.generate(w, seed=0)
    probe = ptyblind.make_probe(ptyblind.ProbeSpec(m=16, aperture_radius_px=7.5, defocus_phase_strength=0.5))
    obj = ptyblind.make_test_object(ptyblind.PhantomSpec(n=64, dc_fraction=0.99, texture_seed=0))
    first = inputs.instances[0]
    assert np.array_equal(first.amplitudes, ptyblind.simulate_data(obj, probe, inputs.geom))
    assert np.array_equal(
        first.probe_init, ptyblind.perturb_probe(probe, blur_sigma_px=2.0, noise_level=0.05, seed=1)
    )


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_calibration_scatters_like_the_workload_geometry(name):
    w = workloads.WORKLOADS[name]
    geom = workloads.make_geometry(w)
    calibrate = Calibration(w.n, w.m, workloads.raster_positions(w))
    assert np.array_equal(calibrate.index, geom.frame_indices.reshape(-1))


def test_wrapping_workload_has_48_wrapped_frames():
    geom = workloads.make_geometry(workloads.WORKLOADS["noisy_wrap64"])
    wraps = (geom.positions + geom.m > geom.n).any(axis=1)
    assert geom.K == 169 and int(wraps.sum()) == 48


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.end_to_end_units()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
