"""Digest every seed-0 benchmark solve, or diff two digests.

A digest records, per workload, instance and probe mode, a SHA-256 of
the solve's final probe, object and frames and its events, the final
probe itself (real and imaginary parts, row by row), the iteration
count, the numbers of ``shift_consistency`` calls (``gates``)
and ``update_probe_rank1`` calls (``rank1_calls``), the events, and the
``History`` columns ``nrmse_probe``, ``data_residual``
and ``pairwise`` row by row. It runs the solves of
``perfbench/workloads.py`` from the tree given by ``--root``, importing
that tree's ``src/`` and ``perfbench/workloads.py`` without changing
either. Compare two trees (say a change and its parent) by digesting
each and diffing::

    python3 tools/solve_digest.py --root . --out change.json
    python3 tools/solve_digest.py --root ../parent --out parent.json
    python3 tools/solve_digest.py change.json --against parent.json

The diff compares the workloads the new digest holds, so a digest of
one workload (``--workload large223``) diffs against a full one; one
line names the workloads it leaves out. Two digests of different seeds
are refused with exit code 2. The diff lists the solves whose arrays
or events differ, any change of iteration count, gate or step count or
events, and for each column
the number of solves whose rows differ and the worst per-row relative
difference, ``|new - old| / max(|new|, |old|)``. Over the solves whose
arrays or events differ it gives the worst relative final-probe
difference, ``||new - old|| / max(||new||, ||old||)`` in the Frobenius
norm, where both digests hold the probe. The exit code is 1
when the arrays, events, iteration counts or gate or step counts of any
compared solve differ, or a solve of a compared workload is in one
digest only; a column that moves only in its values is reported, not
failed. For each workload and mode with a changed solve, one line gives
the summed ``iterations`` and ``rank1_calls`` over the solves both
digests hold, old -> new.
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

import numpy as np

COLUMNS = ("nrmse_probe", "data_residual", "pairwise")
# Each digest count and the solver step whose calls it counts.
COUNTED = {"gates": "shift_consistency", "rank1_calls": "update_probe_rank1"}


def digest_tree(root: Path, names: list[str] | None, seed: int) -> dict:
    """Run every solve of the workloads ``names`` (all by default) at
    ``seed`` from the tree at ``root`` and return their digest."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from ptyblind import solver

    calls = dict.fromkeys(COUNTED, 0)

    def counting(count, step):
        def counted(*args, **kwargs):
            calls[count] += 1
            return step(*args, **kwargs)

        return counted

    # The loop calls its steps through the module's attributes.
    for count, name in COUNTED.items():
        setattr(solver, name, counting(count, getattr(solver, name)))
    solves = {}
    for name in names or workloads.WORKLOADS:
        w = workloads.WORKLOADS[name]
        inputs = workloads.generate(w, seed)
        for k in range(w.instances):
            for mode in workloads.MODES:
                calls.update(dict.fromkeys(COUNTED, 0))
                history = workloads.solve(w, inputs, k, mode)
                sha = hashlib.sha256()
                for array in (history.probe, history.object_image, history.frames):
                    array = np.ascontiguousarray(array)
                    sha.update(f"{array.dtype} {array.shape}".encode())
                    sha.update(array.tobytes())
                sha.update("\n".join(history.events).encode())
                solves[f"{name}/{k}/{mode}"] = {
                    "sha256": sha.hexdigest(),
                    "probe": [history.probe.real.tolist(), history.probe.imag.tolist()],
                    "iterations": history.rows[-1].iter,
                    **calls,
                    "events": history.events,
                    **{c: [getattr(row, c) for row in history.rows] for c in COLUMNS},
                }
            print(f"{name} instance {k} done", file=sys.stderr)
    return {"root": str(root), "seed": seed, "solves": solves}


def relative_gap(new, old) -> float:
    """``|new - old| / max(|new|, |old|)``: 0 for equal values (two
    zeros or two blanks included), 1 where only one is blank."""
    if new == old:
        return 0.0
    if new is None or old is None:
        return 1.0
    return abs(new - old) / max(abs(new), abs(old))


def probe_gap(new: dict, old: dict) -> float | None:
    """The relative difference of two solves' final probes in the
    Frobenius norm, or None where either digest lacks the probe."""
    if "probe" not in new or "probe" not in old:
        return None
    a, b = (complex_array(solve["probe"]) for solve in (new, old))
    if a.shape != b.shape:
        return float("inf")
    scale = max(np.linalg.norm(a), np.linalg.norm(b))
    return float(np.linalg.norm(a - b) / scale) if scale > 0 else 0.0


def complex_array(parts: list) -> np.ndarray:
    real, imag = (np.asarray(part, dtype=np.float64) for part in parts)
    return real + 1j * imag


def workload(key: str) -> str:
    """The workload of a solve's key ``<workload>/<instance>/<mode>``."""
    return key.split("/")[0]


def mode_sums(new: dict, old: dict, changed: list[str]) -> list[str]:
    """One line for each (workload, mode) with a changed solve: its
    summed ``iterations`` and ``rank1_calls`` over the solves both
    digests hold, old -> new."""

    def group(key):
        name, _, mode = key.split("/")
        return f"{name}/{mode}"

    both = new["solves"].keys() & old["solves"].keys()
    lines = []
    for each in sorted({group(key) for key in changed}):
        keys = [key for key in both if group(key) == each]
        sums = [
            f"{count} {sum(old['solves'][key][count] for key in keys)} -> "
            f"{sum(new['solves'][key][count] for key in keys)}"
            for count in ("iterations", "rank1_calls")
        ]
        lines.append(f"{each}: summed over {len(keys)} solves: {', '.join(sums)}")
    return lines


def diff(new: dict, old: dict) -> tuple[list[str], int]:
    """Report lines on how the digest ``new`` differs from ``old`` over
    the workloads ``new`` holds, and the number of those solves whose
    arrays, events or counts differ or that one digest lacks."""
    lines = []
    changed = []
    probe_gaps = []
    moved = {column: 0 for column in COLUMNS}
    worst = {column: 0.0 for column in COLUMNS}
    compared = {workload(key) for key in new["solves"]}
    left_out = sorted({workload(key) for key in old["solves"]} - compared)
    if left_out:
        lines.append(f"not compared, only in the old digest: {', '.join(left_out)}")
    old_solves = {key: v for key, v in old["solves"].items() if workload(key) in compared}
    for key in sorted(old_solves.keys() | new["solves"].keys()):
        a, b = old_solves.get(key), new["solves"].get(key)
        if a is None or b is None:
            lines.append(f"{key}: only in the {'new' if a is None else 'old'} digest")
            changed.append(key)
            continue
        differs = [f for f in ("iterations", *COUNTED, "events") if a[f] != b[f]]
        for field in differs:
            lines.append(f"{key}: {field} {a[field]!r} -> {b[field]!r}")
        if a["sha256"] != b["sha256"]:
            lines.append(f"{key}: arrays or events differ")
            differs.append("sha256")
            probe_gaps.append(probe_gap(b, a))
        if differs:
            changed.append(key)
        for column in COLUMNS:
            rows_a, rows_b = a[column], b[column]
            if rows_a == rows_b:
                continue
            moved[column] += 1
            if len(rows_a) != len(rows_b):
                lines.append(f"{key}: {column} has {len(rows_a)} -> {len(rows_b)} rows")
                worst[column] = float("inf")
                continue
            gap = max(relative_gap(y, x) for x, y in zip(rows_a, rows_b))
            worst[column] = max(worst[column], gap)
    total = len(old_solves.keys() | new["solves"].keys())
    same = total - len(changed)
    lines.append(f"{same} of {total} solves with identical arrays, events and counts")
    if probe_gaps:
        known = [gap for gap in probe_gaps if gap is not None]
        probe_worst = f"{max(known):.3g}" if known else "not recorded"
        lines.append(
            f"final probe: worst relative difference {probe_worst} over the "
            f"{len(probe_gaps)} solves whose arrays or events differ"
        )
    for column in COLUMNS:
        lines.append(
            f"{column}: {total - moved[column]} of {total} solves identical; "
            f"worst per-row relative difference {worst[column]:.3g}"
        )
    lines.extend(mode_sums(new, old, changed))
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
    against = json.loads(Path(args.against).read_text())
    if current.get("seed") != against.get("seed"):
        print(
            f"error: the digests are of different seeds: {current.get('seed')} "
            f"against {against.get('seed')}",
            file=sys.stderr,
        )
        return 2
    lines, changed = diff(current, against)
    print("\n".join(lines))
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
