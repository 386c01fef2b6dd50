"""tools/ab.py loads two trees side by side and times their solves in
paired rounds; the same tree twice is an A/A run."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab.py"


def run_tool(a, b, summary=None, iters=1, rounds=3):
    args = [sys.executable, str(TOOL), str(a), str(b), "--workload", "weak64"]
    args += ["--iters", str(iters), "--rounds", str(rounds)]
    done = subprocess.run(args, capture_output=True, text=True, timeout=120)
    lines = done.stdout.splitlines()
    if summary is not None:
        summary.append(lines[-2])
    return done.returncode, json.loads(lines[-1])


def copy_tree(tmp_path, module, old, new):
    """A copy of this tree's ``src`` whose ``module`` has ``old`` replaced
    by ``new``, once."""
    shutil.copytree(ROOT / "src", tmp_path / "src")
    path = tmp_path / "src" / "ptyblind" / module
    source = path.read_text()
    assert source.count(old) == 1
    path.write_text(source.replace(old, new))
    return tmp_path


def test_an_a_a_run_reports_paired_ratios_and_identical_probes():
    summary = []
    code, report = run_tool(ROOT, ROOT, summary)
    assert code == 0 and report["identical_probe"]
    # One traced solve a side: the same tree's peaks agree to a KiB.
    assert report["a_peak_mb"] > 0.5
    assert abs(report["b_peak_mb"] - report["a_peak_mb"]) < 2**-10
    assert summary[0].endswith(
        f"peak A {report['a_peak_mb']:.1f} MiB, B {report['b_peak_mb']:.1f} MiB"
    )
    assert (report["workload"], report["mode"], report["iters"], report["rounds"]) == (
        "weak64", "standard", 1, 3
    )
    assert (report["a_iterations"], report["b_iterations"]) == (1, 1)
    assert len(report["ratios"]) == 3 and 0 <= report["b_wins"] <= 3
    for name in ("ratio", "aa_spread"):
        low, high = report[name]["interval"]
        assert 0 < low <= report[name]["median"] <= high


def test_solves_stop_at_the_workloads_probe_error_as_perfbench_solves_them():
    # weak64 solves to probe NRMSE 0.1; instance 0 in standard mode gets
    # there in well under the 500 iterations the workload allows.
    code, report = run_tool(ROOT, ROOT, iters=500, rounds=1)
    assert code == 0 and report["stop_nrmse"] == 0.1
    assert report["a_iterations"] == report["b_iterations"] < 100


def test_each_tree_runs_its_own_code(tmp_path):
    # A copy whose floor differs gives another probe, so exit code 1.
    copy = copy_tree(tmp_path, "solver.py", "EPSILON_REL = 1e-8\n", "EPSILON_REL = 1e-2\n")
    code, report = run_tool(ROOT, copy)
    assert code == 1 and not report["identical_probe"]


def test_each_side_reports_its_own_traced_peak(tmp_path):
    # A copy whose workspace holds one MiB more peaks one MiB higher.
    line = "        self.edges = _frame_edges("
    copy = copy_tree(tmp_path, "_passes.py", line, "        self.spare = np.ones(2**17)\n" + line)
    code, report = run_tool(ROOT, copy)
    assert code == 0 and report["identical_probe"]
    assert abs(report["b_peak_mb"] - report["a_peak_mb"] - 1.0) < 2**-10
