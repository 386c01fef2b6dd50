"""tools/ab.py loads two trees side by side and times their solves in
paired rounds; the same tree twice is an A/A run."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "ab.py"


def run_tool(a, b):
    args = [sys.executable, str(TOOL), str(a), str(b), "--workload", "weak64"]
    args += ["--iters", "1", "--rounds", "3"]
    done = subprocess.run(args, capture_output=True, text=True, timeout=120)
    return done.returncode, json.loads(done.stdout.splitlines()[-1])


def test_an_a_a_run_reports_paired_ratios_and_identical_probes():
    code, report = run_tool(ROOT, ROOT)
    assert code == 0 and report["identical_probe"]
    assert (report["workload"], report["mode"], report["iters"], report["rounds"]) == (
        "weak64", "standard", 1, 3
    )
    assert len(report["ratios"]) == 3 and 0 <= report["b_wins"] <= 3
    for name in ("ratio", "aa_spread"):
        low, high = report[name]["interval"]
        assert 0 < low <= report[name]["median"] <= high


def test_each_tree_runs_its_own_code(tmp_path):
    # A copy whose floor differs gives another probe, so exit code 1.
    shutil.copytree(ROOT / "src", tmp_path / "src")
    solver = tmp_path / "src" / "ptyblind" / "solver.py"
    source = solver.read_text()
    assert source.count("EPSILON_REL = 1e-8\n") == 1
    solver.write_text(source.replace("EPSILON_REL = 1e-8\n", "EPSILON_REL = 1e-2\n"))
    code, report = run_tool(ROOT, tmp_path)
    assert code == 1 and not report["identical_probe"]
