"""Time the solves of two ``src/ptyblind`` trees against each other in one process.

Each tree is loaded under a module name of its own (``ab_a``, ``ab_b``),
so both can be timed side by side on the same inputs: instance 0 of a
workload of ``perfbench/workloads.py`` at seed 0, generated once by this
checkout.
A round runs the solve four times, each a ``run_reconstruction`` call
of at most ``--iters`` iterations (the workload's count by default; 0
times the set-up alone) that stops at the workload's probe NRMSE
``stop_nrmse`` where it sets one, as ``perfbench/run.py`` solves it,
in ABBA order and BAAB in the next, so each side takes
each place equally often. It gives the paired ratio ``(b1 + b2) / (a1 +
a2)`` of raw wall seconds. The report gives the median ratio over the
rounds with a 95% bootstrap interval, the rounds B wins, and the A/A
spread of the same rounds: the median and interval of ``a2 / a1``, the
later A solve over the earlier, which shows what the protocol can
resolve. Before the rounds, each side runs one solve under
``tracemalloc``, whose traced peak the report gives in MiB, as
``perfbench/run.py`` measures ``peak_mb``. Give the same tree twice for
a full A/A run::

    python3 tools/ab.py ../parent . --workload large223 --mode standard
    python3 tools/ab.py ../parent . --workload large223 --iters 0
    python3 tools/ab.py . . --workload large223 --rounds 30

The last line of output is the report as one JSON object; it gives the
``stop_nrmse`` the solves ran to and the iterations each side's first
solve ran (``a_iterations``, ``b_iterations``). The exit code
is 1 when the two trees' final probes differ in any byte, which a change
meant to keep every bit must not do.
"""

import os

# As in perfbench/run.py: one BLAS and OpenMP thread, set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib.util
import json
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BOOTSTRAP_SAMPLES = 2000


def load_tree(root: Path, name: str):
    """The ``ptyblind`` package of the tree at ``root``, imported as
    ``name``; its modules import each other relatively, so they load as
    ``name.<module>``."""
    package = Path(root).resolve() / "src" / "ptyblind"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def instance(workload: str):
    """Positions, sizes and arrays of instance 0 of a workload of
    ``perfbench/workloads.py`` at seed 0, generated by this checkout."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    w = workloads.WORKLOADS[workload]
    inputs = workloads.generate(w, 0)
    inst = inputs.instances[0]
    geom = inputs.geom
    return w, (geom.n, geom.m, np.array(geom.positions)), inst


def solver_call(tree, layout, inst, mode: str, iters: int, stop_nrmse):
    """A no-argument call of one solve with the tree's own types."""
    n, m, positions = layout
    geom = tree.ScanGeometry(n=n, m=m, positions=positions)
    cfg = tree.SolverConfig(probe_mode=mode, max_iters=iters, stop_nrmse=stop_nrmse)

    def call():
        return tree.run_reconstruction(
            inst.amplitudes, geom, inst.probe_init, cfg, probe_true=inst.probe_true
        )

    return call


def first_outcome(call) -> tuple[bytes, int]:
    """The final probe's bytes and the iteration count of one solve,
    whose ``History`` is dropped before the next solve starts."""
    history = call()
    return history.probe.tobytes(), history.rows[-1].iter


def traced_peak_mb(call) -> float:
    """The traced allocation peak of one call, in MiB."""
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def timed(call) -> float:
    gc.collect()
    t0 = time.perf_counter()
    call()
    return time.perf_counter() - t0


def summary(ratios: list[float]) -> dict:
    """Median of the ratios and a 95% bootstrap interval of it."""
    values = np.asarray(ratios)
    rng = np.random.default_rng(0)
    picks = rng.integers(0, len(values), size=(BOOTSTRAP_SAMPLES, len(values)))
    medians = np.median(values[picks], axis=1)
    low, high = np.percentile(medians, [2.5, 97.5])
    return {"median": float(np.median(values)), "interval": [float(low), float(high)]}


def compare(call_a, call_b, rounds: int) -> dict:
    """Run ``rounds`` rounds after one warm-up call of each side: ABBA,
    then BAAB, and so on, so each side takes each place equally often."""
    call_a(), call_b()
    a_s, b_s, ratios, spread = [], [], [], []
    for i in range(rounds):
        if i % 2 == 0:
            a1, b1, b2, a2 = timed(call_a), timed(call_b), timed(call_b), timed(call_a)
        else:
            b1, a1, a2, b2 = timed(call_b), timed(call_a), timed(call_a), timed(call_b)
        a_s += [a1, a2]
        b_s += [b1, b2]
        ratios.append((b1 + b2) / (a1 + a2))
        spread.append(a2 / a1)
    return {
        "a_median_s": float(np.median(a_s)),
        "b_median_s": float(np.median(b_s)),
        "ratio": summary(ratios),
        "b_wins": int(sum(r < 1.0 for r in ratios)),
        "rounds": rounds,
        "aa_spread": summary(spread),
        "ratios": [round(r, 4) for r in ratios],
    }


def at_least(low: int):
    """An argparse type: an integer no less than ``low``. A round count
    of 0 would leave no ratio to report, and a negative iteration count
    no solve to run."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, not {value}")
        return value

    parse.__name__ = "int"
    return parse


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="tree A, the reference (say the parent)")
    parser.add_argument("b", help="tree B, the candidate")
    parser.add_argument("--workload", default="large223")
    parser.add_argument("--mode", default="standard")
    parser.add_argument(
        "--iters", type=at_least(0), help="iterations per solve (default: the workload's)"
    )
    parser.add_argument("--rounds", type=at_least(1), default=20)
    args = parser.parse_args(argv)

    w, layout, inst = instance(args.workload)
    iters = w.max_iters if args.iters is None else args.iters
    calls = [
        solver_call(load_tree(root, name), layout, inst, args.mode, iters, w.stop_nrmse)
        for root, name in ((args.a, "ab_a"), (args.b, "ab_b"))
    ]
    (probe_a, ran_a), (probe_b, ran_b) = [first_outcome(call) for call in calls]
    same = probe_a == probe_b
    peaks = [traced_peak_mb(call) for call in calls]
    report = {
        "a": str(args.a),
        "b": str(args.b),
        "workload": args.workload,
        "mode": args.mode,
        "iters": iters,
        "stop_nrmse": w.stop_nrmse,
        "a_iterations": ran_a,
        "b_iterations": ran_b,
        "identical_probe": same,
        "a_peak_mb": peaks[0],
        "b_peak_mb": peaks[1],
        **compare(*calls, args.rounds),
    }
    ratio, spread = report["ratio"], report["aa_spread"]
    print(
        f"B/A {ratio['median']:.4f} [{ratio['interval'][0]:.4f}, {ratio['interval'][1]:.4f}], "
        f"B faster in {report['b_wins']} of {args.rounds}; A/A {spread['median']:.4f} "
        f"[{spread['interval'][0]:.4f}, {spread['interval'][1]:.4f}]; "
        f"A {report['a_median_s']:.4f} s, B {report['b_median_s']:.4f} s; "
        f"peak A {peaks[0]:.1f} MiB, B {peaks[1]:.1f} MiB"
    )
    print(json.dumps(report))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
