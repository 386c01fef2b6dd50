"""Bit-exact file IO: NPY v1.0 arrays, JSON documents, metrics CSV.

All writes go to a temporary file in the destination directory and are
renamed into place, so readers never observe partial files. Arrays are
stored C-ordered in the NPY version 1.0 layout; the metrics CSV uses
'.' decimals and 17 significant digits so float64 values round-trip.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
from typing import Callable

import numpy as np
from numpy.lib import format as npy_format

from .metrics import MetricsRow

CSV_HEADER = ("iter", "nrmse_probe", "data_residual", "pairwise", "wall_ms")


def _atomic_write(path: str, write_body: Callable, binary: bool) -> None:
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=os.path.basename(path) + ".tmp-")
    try:
        mode = "wb" if binary else "w"
        kwargs = {} if binary else {"encoding": "utf-8", "newline": ""}
        with os.fdopen(fd, mode, **kwargs) as fh:
            write_body(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_array(path: str, arr: np.ndarray) -> None:
    """Write an array as NPY version 1.0, C-ordered, atomically."""
    arr = np.ascontiguousarray(arr)
    _atomic_write(path, lambda fh: npy_format.write_array(fh, arr, version=(1, 0)), binary=True)


def load_array(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        try:
            return npy_format.read_array(fh, allow_pickle=False)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc


def save_json(path: str, doc: dict) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    _atomic_write(path, lambda fh: fh.write(text), binary=False)


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object at top level")
    return doc


def _format_value(value: float) -> str:
    return f"{value:.17g}"


def write_metrics_csv(path: str, rows: list[MetricsRow]) -> None:
    """Write convergence metrics, one CSV row per metrics row."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow(
            [
                row.iter,
                "" if row.nrmse_probe is None else _format_value(row.nrmse_probe),
                _format_value(row.data_residual),
                _format_value(row.pairwise),
                _format_value(row.wall_ms),
            ]
        )
    text = buffer.getvalue()
    _atomic_write(path, lambda fh: fh.write(text), binary=False)


def read_metrics_csv(path: str) -> list[MetricsRow]:
    """Read a convergence CSV back into rows, validating the invariants:
    known header, strictly increasing iterations, finite values."""
    rows: list[MetricsRow] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        # Decoded whole, so a file that is not UTF-8 fails here, with its
        # path, and not part way through the rows.
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    reader = csv.reader(lines)
    header = next(reader, None)
    if header != list(CSV_HEADER):
        raise ValueError(f"{path}: unexpected header {header!r}")
    previous_iter = None
    for record in reader:
        if len(record) != len(CSV_HEADER):
            raise ValueError(f"{path}: malformed row {record!r}")
        try:
            iteration = int(record[0])
            nrmse = None if record[1] == "" else float(record[1])
            values = [float(field) for field in record[2:]]
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        if previous_iter is not None and iteration <= previous_iter:
            raise ValueError(f"{path}: iterations not strictly increasing at {iteration}")
        previous_iter = iteration
        if any(not math.isfinite(v) for v in values) or (
            nrmse is not None and not math.isfinite(nrmse)
        ):
            raise ValueError(f"{path}: non-finite value in row {record!r}")
        rows.append(
            MetricsRow(
                iter=iteration,
                nrmse_probe=nrmse,
                data_residual=values[0],
                pairwise=values[1],
                wall_ms=values[2],
            )
        )
    return rows
