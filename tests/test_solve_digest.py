"""tools/solve_digest.py records each solve's final probe, and its diff
reports the worst probe difference over the solves whose bytes differ."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

TOOL = Path(__file__).resolve().parent.parent / "tools" / "solve_digest.py"
SRC = Path(__file__).resolve().parent.parent / "src"

# A workloads module of one small instance, in the form of
# perfbench/workloads.py that the tool reads.
WORKLOADS = '''
from types import SimpleNamespace

from ptyblind import SolverConfig, run_reconstruction
from ptyblind.synth import PhantomSpec, ProbeSpec, make_probe, make_raster_geometry
from ptyblind.synth import make_test_object, perturb_probe, simulate_data

MODES = ("power", "rank1_global")
WORKLOADS = {"tiny": SimpleNamespace(instances=1)}


def generate(w, seed):
    geom = make_raster_geometry(n=16, m=8, step=4, grid=(3, 3))
    obj = make_test_object(PhantomSpec(n=16, dc_fraction=0.9, texture_seed=seed))
    probe = make_probe(ProbeSpec(m=8, aperture_radius_px=3.0, defocus_phase_strength=0.3))
    init = perturb_probe(probe, blur_sigma_px=1.0, noise_level=0.05, seed=seed + 1)
    return geom, probe, init, simulate_data(obj, probe, geom)


def solve(w, inputs, k, mode):
    geom, probe, init, amps = inputs
    cfg = SolverConfig(probe_mode=mode, max_iters=4)
    return run_reconstruction(amps, geom, init, cfg, probe_true=probe)
'''


def run_tool(*args):
    return subprocess.run(
        [sys.executable, str(TOOL), *map(str, args)], capture_output=True, text=True, timeout=120
    )


def solve_entry(probe, sha="a"):
    return {
        "sha256": sha,
        "probe": [probe.real.tolist(), probe.imag.tolist()],
        "iterations": 4,
        "gates": 0,
        "rank1_calls": 0,
        "events": [],
        "nrmse_probe": [0.5, 0.25],
        "data_residual": [0.1, 0.05],
        "pairwise": [2.0, 1.0],
    }


def write(path, solves):
    path.write_text(json.dumps({"root": ".", "seed": 0, "solves": solves}))
    return path


def test_the_digest_holds_each_final_probe(tmp_path):
    (tmp_path / "src").symlink_to(SRC)
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "workloads.py").write_text(WORKLOADS)
    # The tool reads the tree's src/ and perfbench/workloads.py only.
    out = tmp_path / "digest.json"
    done = run_tool("--root", tmp_path, "--out", out)
    assert done.returncode == 0, done.stderr
    solves = json.loads(out.read_text())["solves"]
    assert sorted(solves) == ["tiny/0/power", "tiny/0/rank1_global"]

    source = tmp_path / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("tiny_workloads", source)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    inputs = workloads.generate(None, 0)
    for mode in workloads.MODES:
        probe = workloads.solve(None, inputs, 0, mode).probe
        real, imag = solves[f"tiny/0/{mode}"]["probe"]
        assert np.asarray(real).tobytes() == probe.real.tobytes()
        assert np.asarray(imag).tobytes() == probe.imag.tobytes()


def test_the_diff_gives_the_worst_probe_difference_of_the_changed_solves(tmp_path):
    rng = np.random.default_rng(3)
    probes = [rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(3)]
    solves = {f"w/{k}/power": solve_entry(probe) for k, probe in enumerate(probes)}
    old = write(tmp_path / "old.json", solves)
    moved = {
        "w/0/power": solve_entry(probes[0] * (1 + 1e-9), sha="b"),
        "w/1/power": solve_entry(probes[1] * (1 + 1e-12), sha="c"),
        # Same bytes: a probe that moved is not counted.
        "w/2/power": solve_entry(probes[2] * 2.0),
    }
    new = write(tmp_path / "new.json", moved)
    done = run_tool(new, "--against", old)
    assert done.returncode == 1
    lines = done.stdout.splitlines()
    assert "1 of 3 solves with identical arrays, events and counts" in lines
    gap = 1e-9 / (1 + 1e-9)
    assert f"final probe: worst relative difference {gap:.3g} over the 2 solves" in done.stdout


def test_the_diff_reads_a_digest_without_probes(tmp_path):
    probe = np.ones((2, 2), dtype=complex)
    old = solve_entry(probe)
    del old["probe"]
    old = write(tmp_path / "old.json", {"w/0/power": old})
    same = write(tmp_path / "same.json", {"w/0/power": solve_entry(probe)})
    done = run_tool(same, "--against", old)
    assert done.returncode == 0
    assert "final probe" not in done.stdout
    changed = write(tmp_path / "changed.json", {"w/0/power": solve_entry(probe, sha="b")})
    done = run_tool(changed, "--against", old)
    assert done.returncode == 1
    assert "final probe: worst relative difference not recorded over the 1 solves" in done.stdout


def test_the_diff_compares_only_the_workloads_the_new_digest_holds(tmp_path):
    probe = np.ones((2, 2), dtype=complex)
    solves = {f"{w}/{k}/power": solve_entry(probe) for w in ("a", "b", "c") for k in (0, 1)}
    old = write(tmp_path / "old.json", solves)
    subset = write(tmp_path / "subset.json", {key: solves[key] for key in ("b/0/power", "b/1/power")})
    done = run_tool(subset, "--against", old)
    assert done.returncode == 0, done.stdout
    lines = done.stdout.splitlines()
    assert lines[0] == "not compared, only in the old digest: a, c"
    assert "2 of 2 solves with identical arrays, events and counts" in lines
    assert "only in" not in "\n".join(lines[1:])
    # A solve missing inside a compared workload still fails the diff.
    partial = write(tmp_path / "partial.json", {"b/0/power": solves["b/0/power"]})
    done = run_tool(partial, "--against", old)
    assert done.returncode == 1
    assert "b/1/power: only in the old digest" in done.stdout.splitlines()
    assert "1 of 2 solves with identical arrays, events and counts" in done.stdout


def test_the_diff_refuses_digests_of_different_seeds(tmp_path):
    solves = {"w/0/power": solve_entry(np.ones((2, 2), dtype=complex))}
    old = write(tmp_path / "old.json", solves)
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"root": ".", "seed": 5, "solves": solves}))
    done = run_tool(other, "--against", old)
    assert done.returncode == 2
    assert done.stdout == ""
    assert "error: the digests are of different seeds: 5 against 0" in done.stderr
