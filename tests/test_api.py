"""The public API and the call path the benchmark traces.

``ptyblind.__all__`` holds what a user of the solver needs. The loop's
steps stay out of it but keep their names in ``ptyblind.solver``, and
the loop calls them through that module's attributes: the benchmark in
``perfbench/`` wraps those attributes to count and time every call,
and derives the gate's accept ratio from the counts.
"""

import inspect
from collections import Counter

import pytest
from test_loop_oracle import MODES, wrapping_instance

import ptyblind
from ptyblind import SolverConfig, run_reconstruction, solver

PUBLIC = {
    "DegenerateInputError",
    "History",
    "MetricsRow",
    "PhantomSpec",
    "ProbeSpec",
    "ScanGeometry",
    "SolverConfig",
    "center_probe",
    "coverage_maps",
    "embed_add_frames",
    "extract_frames",
    "frame_dft",
    "illuminate",
    "illuminate_adjoint",
    "make_probe",
    "make_raster_geometry",
    "make_test_object",
    "nrmse_probe",
    "perturb_probe",
    "run_reconstruction",
    "simulate_data",
}

COMMON = ("update_object", "center_probe", "pairwise_discrepancy")
RANK1 = ("update_probe_power", "shift_consistency", "update_probe_rank1")
MODE_STEPS = {
    "standard": COMMON + ("update_probe_standard",),
    "power": COMMON + ("update_probe_power",),
    "rank1_global": COMMON + RANK1 + ("transparency_global",),
    "rank1_framewise": COMMON + RANK1 + ("transparency_framewise", "build_overlap_matrix"),
}
STEPS = sorted(set().union(*MODE_STEPS.values()))
# The kernels that form a transparency-shifted stack: one global factor,
# or one factor per frame.
SHIFT_KERNELS = ("_shift_globally", "_rank1_terms")


def test_all_is_exactly_the_solver_user_api():
    assert len(PUBLIC) == 21
    assert len(ptyblind.__all__) == len(set(ptyblind.__all__))
    assert set(ptyblind.__all__) == PUBLIC | {"__version__"}
    for name in ptyblind.__all__:
        assert getattr(ptyblind, name) is not None


def test_steps_take_only_required_positional_parameters():
    # The loop hands every step its inputs; none carries a knob or a
    # keyword default.
    for name in STEPS:
        for param in inspect.signature(getattr(solver, name)).parameters.values():
            assert param.kind is param.POSITIONAL_OR_KEYWORD, (name, param)
            assert param.default is param.empty, (name, param)


@pytest.mark.parametrize("mode", MODES)
def test_loop_calls_its_steps_through_solver_attributes(monkeypatch, mode):
    calls = Counter()
    for name in STEPS + list(SHIFT_KERNELS):
        def counted(*args, _name=name, _original=getattr(solver, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(solver, name, counted)
    geom, probe, init, amps = wrapping_instance()
    cfg = SolverConfig(probe_mode=mode, max_iters=30)
    history = run_reconstruction(amps, geom, init, cfg, probe_true=probe)
    kernels = sum(calls.pop(name, 0) for name in SHIFT_KERNELS)
    assert set(calls) == set(MODE_STEPS[mode])
    assert calls["pairwise_discrepancy"] == len(history.rows)
    if mode.startswith("rank1"):
        assert calls["shift_consistency"] >= calls["update_probe_rank1"] > 0
        # An accepted gate hands its shifted stack to the step: each
        # stack is formed once.
        assert kernels == calls["shift_consistency"]
