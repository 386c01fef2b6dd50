"""Digest every seed-0 benchmark solve, or diff two digests.

A digest records, per workload, instance and probe mode, a SHA-256 of
the solve's outputs (final probe, object and frames, every ``History``
row without its wall time, and the events), the iteration count, the
number of ``update_probe_rank1`` calls, the events and the per-row
probe NRMSE. It runs the solves of ``perfbench/workloads.py`` from the
tree given by ``--root``, importing that tree's ``src/`` and
``perfbench/workloads.py`` without changing either. Compare two trees
(say a change and its parent) by digesting each and diffing::

    python3 tools/solve_digest.py --root . --out change.json
    python3 tools/solve_digest.py --root ../parent --out parent.json
    python3 tools/solve_digest.py change.json --against parent.json

The diff lists the solves whose bytes differ, and among those any
change of iteration count, ``update_probe_rank1`` calls or events, with
the worst per-row difference of ``nrmse_probe``. The exit code is 1
when any solve differs.
"""

import os

# As in perfbench/run.py: one BLAS and OpenMP thread, set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import sys
from pathlib import Path


def digest_tree(root: Path, names: list[str] | None, seed: int) -> dict:
    """Run every solve of the workloads ``names`` (all by default) at
    ``seed`` from the tree at ``root`` and return their digest."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import numpy as np
    import workloads
    from ptyblind import solver

    calls = [0]
    step = solver.update_probe_rank1

    def counted(*args, **kwargs):
        calls[0] += 1
        return step(*args, **kwargs)

    # The loop calls its steps through the module's attributes.
    solver.update_probe_rank1 = counted
    solves = {}
    for name in names or workloads.WORKLOADS:
        w = workloads.WORKLOADS[name]
        inputs = workloads.generate(w, seed)
        for k in range(w.instances):
            for mode in workloads.MODES:
                calls[0] = 0
                history = workloads.solve(w, inputs, k, mode)
                sha = hashlib.sha256()
                for array in (history.probe, history.object_image, history.frames):
                    array = np.ascontiguousarray(array)
                    sha.update(f"{array.dtype} {array.shape}".encode())
                    sha.update(array.tobytes())
                for row in history.rows:
                    values = (row.iter, row.nrmse_probe, row.data_residual, row.pairwise)
                    sha.update(repr(values).encode())
                sha.update("\n".join(history.events).encode())
                solves[f"{name}/{k}/{mode}"] = {
                    "sha256": sha.hexdigest(),
                    "iterations": history.rows[-1].iter,
                    "rank1_calls": calls[0],
                    "events": history.events,
                    "nrmse_probe": [row.nrmse_probe for row in history.rows],
                }
            print(f"{name} instance {k} done", file=sys.stderr)
    return {"root": str(root), "seed": seed, "solves": solves}


def diff(new: dict, old: dict) -> tuple[list[str], int]:
    """Report lines on how the digest ``new`` differs from ``old``, and
    the number of solves that differ."""
    lines = []
    changed, worst = [], 0.0
    for key in sorted(old["solves"].keys() | new["solves"].keys()):
        a, b = old["solves"].get(key), new["solves"].get(key)
        if a is None or b is None:
            lines.append(f"{key}: only in the {'new' if a is None else 'old'} digest")
            changed.append(key)
            continue
        if a["sha256"] == b["sha256"]:
            continue
        changed.append(key)
        for field in ("iterations", "rank1_calls", "events"):
            if a[field] != b[field]:
                lines.append(f"{key}: {field} {a[field]!r} -> {b[field]!r}")
        rows_a, rows_b = a["nrmse_probe"], b["nrmse_probe"]
        if len(rows_a) == len(rows_b):
            gap = max(abs(x - y) for x, y in zip(rows_a, rows_b))
            worst = max(worst, gap)
            lines.append(f"{key}: bytes differ, worst per-row nrmse_probe difference {gap:.3g}")
        else:
            lines.append(f"{key}: {len(rows_a)} -> {len(rows_b)} rows")
    total = len(old["solves"].keys() | new["solves"].keys())
    lines.append(
        f"{total - len(changed)} of {total} solves byte-identical; "
        f"worst per-row nrmse_probe difference {worst:.3g}"
    )
    return lines, len(changed)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("digest", nargs="?", help="a saved digest to read instead of solving")
    parser.add_argument("--root", default=".", help="the tree whose solves to digest")
    parser.add_argument("--workload", nargs="+", help="workloads to solve (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="write the digest here")
    parser.add_argument("--against", help="a saved digest to diff this one against")
    args = parser.parse_args()
    if args.digest:
        current = json.loads(Path(args.digest).read_text())
    else:
        current = digest_tree(Path(args.root).resolve(), args.workload, args.seed)
    if args.out:
        Path(args.out).write_text(json.dumps(current, indent=1) + "\n")
    if args.against is None:
        return 0
    lines, changed = diff(current, json.loads(Path(args.against).read_text()))
    print("\n".join(lines))
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
