"""The public API and the call path the benchmark traces.

``ptyblind.__all__`` holds what a user of the solver needs. The loop's
steps stay out of it but keep their names in ``ptyblind.solver``, and
the loop calls them through that module's attributes: the benchmark in
``perfbench/`` wraps those attributes to count and time every call,
and derives the gate's accept ratio from the counts.
"""

import inspect
from collections import Counter
from dataclasses import fields

import pytest
import test_loop_oracle
from test_loop_oracle import MODES, wrapping_instance

import ptyblind
from ptyblind import SolverConfig, _passes, run_reconstruction, solver
from ptyblind.cli import RunConfig, parse_run_config

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
    "rank1_framewise": COMMON + RANK1 + ("transparency_framewise",),
}
STEPS = sorted(set().union(*MODE_STEPS.values()))


def test_all_is_exactly_the_solver_user_api():
    assert len(PUBLIC) == 21
    assert len(ptyblind.__all__) == len(set(ptyblind.__all__))
    assert set(ptyblind.__all__) == PUBLIC | {"__version__"}
    for name in ptyblind.__all__:
        assert getattr(ptyblind, name) is not None


def test_config_holds_only_what_a_user_sets():
    # The rank-1 schedule is two solver constants, and every
    # convergence log holds every iteration.
    assert [f.name for f in fields(SolverConfig)] == ["probe_mode", "max_iters", "stop_nrmse"]
    top_level = ["geometry", "phantom", "probe", "perturbation", "solver", "output_dir"]
    assert [f.name for f in fields(RunConfig)] == top_level
    with pytest.raises(ValueError) as caught:
        parse_run_config({"geometry": {"n": 16, "m": 8, "step": 4, "grid": [3, 3]}, "x": 0})
    assert str(caught.value).endswith(f"allowed keys: {sorted(top_level)}")


def test_steps_take_only_required_positional_parameters():
    # The loop hands every step its inputs; none carries a knob or a
    # keyword default.
    for name in STEPS:
        for param in inspect.signature(getattr(solver, name)).parameters.values():
            assert param.kind is param.POSITIONAL_OR_KEYWORD, (name, param)
            assert param.default is param.empty, (name, param)


def count_calls(monkeypatch, module, names):
    """A Counter of the calls to ``module``'s functions ``names``, which
    are replaced by counting wrappers for the test."""
    calls = Counter()
    for name in names:
        def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("mode", MODES)
def test_loop_calls_its_steps_through_solver_attributes(monkeypatch, mode):
    geom, probe, init, amps = wrapping_instance()
    cfg = SolverConfig(probe_mode=mode, max_iters=30)
    # The reference loop reaches the gate where the loop does.
    reference = count_calls(monkeypatch, test_loop_oracle, RANK1[1:])
    test_loop_oracle.reference_run(amps, geom, init, cfg, probe_true=probe)
    calls = count_calls(monkeypatch, solver, STEPS)
    canvases = count_calls(monkeypatch, _passes, ["_stack_images"])
    given = count_calls(monkeypatch, solver, ["_stack_images"])
    history = run_reconstruction(amps, geom, init, cfg, probe_true=probe)
    # The pass that writes each row's frames scatters their intensity
    # once, as a ``_stack_images`` pass; the power steps, the gates and
    # the shifted steps read those canvases, and no intensity is
    # scattered apart. A run without ``frames_init`` scatters no given
    # frames.
    assert canvases["_stack_images"] == len(history.rows)
    assert given["_stack_images"] == 0
    assert set(calls) == set(MODE_STEPS[mode])
    assert calls["pairwise_discrepancy"] == len(history.rows)
    if mode.startswith("rank1"):
        assert calls["shift_consistency"] == reference["shift_consistency"]
        assert calls["shift_consistency"] > calls["update_probe_rank1"] > 0
        assert calls["update_probe_rank1"] == reference["update_probe_rank1"]
    if mode == "rank1_global":
        assert calls["transparency_global"] == calls["shift_consistency"]
