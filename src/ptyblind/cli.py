"""Command-line driver: simulate | reconstruct | compare.

Configuration is a single strict JSON document; unknown keys anywhere
are an error, so typos in experiment sweeps fail loudly instead of
silently falling back to defaults. The ``phantom``, ``probe``,
``perturbation`` and ``solver`` sections are read from the fields of
their dataclasses: each field is a key, its annotation is the type its
value must have, and a field without a default is a required key.
``--seed`` overrides every RNG seed the invoked command consumes, which
is handy for sweep scripts.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import partial
from typing import Optional, get_args, get_type_hints

import numpy as np

from .npyio import load_array, load_json, read_metrics_csv, save_array, save_json, write_metrics_csv
from .operators import ScanGeometry
from .solver import SolverConfig, run_reconstruction
from .synth import PhantomSpec, ProbeSpec, make_probe, make_raster_geometry, make_test_object, perturb_probe, simulate_data

OBJECT_FILE = "object.npy"
PROBE_TRUE_FILE = "probe_true.npy"
AMPLITUDES_FILE = "amplitudes.npy"
GEOMETRY_FILE = "geometry.json"
PROBE_EST_FILE = "probe_est.npy"
OBJECT_EST_FILE = "object_est.npy"
CONVERGENCE_FILE = "convergence.csv"


@dataclass
class PerturbationSpec:
    """How to degrade the true probe into the initial estimate."""

    blur_sigma_px: float = 0.0
    noise_level: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class RunConfig:
    """Parsed experiment configuration. The scan ``geometry`` is built
    when the config is parsed; the other sections are optional, and
    each command checks for the ones it needs."""

    geometry: ScanGeometry
    phantom: Optional[PhantomSpec] = None
    probe: Optional[ProbeSpec] = None
    perturbation: Optional[PerturbationSpec] = None
    solver: SolverConfig = field(default_factory=SolverConfig)
    output_dir: Optional[str] = None


def _check_keys(section: dict, allowed: tuple, path: str) -> None:
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ValueError(
            f"config {path}: unknown key(s) {unknown}; allowed keys: {sorted(allowed)}"
        )


def _section(doc: dict, name: str) -> Optional[dict]:
    if name not in doc:
        return None
    value = doc[name]
    if not isinstance(value, dict):
        raise ValueError(f"config {name}: expected an object, got {type(value).__name__}")
    return value


# How error messages name each value type a config field can have.
_EXPECTED = {str: "a string", int: "an integer", float: "a number"}


def _get(section: dict, key: str, kind: type, path: str, required: bool = False):
    """The value of ``key`` checked against ``kind`` (``str``, ``int`` or
    ``float``), or ``None`` when the key is absent.

    Booleans are not integers or numbers here, although Python counts
    them as such, and a number may be written as an integer.
    """
    if key not in section:
        if required:
            raise ValueError(f"config {path}: missing required key '{key}'")
        return None
    value = section[key]
    accepted = (int, float) if kind is float else kind
    if not isinstance(value, accepted) or isinstance(value, bool):
        raise ValueError(f"config {path}.{key}: expected {_EXPECTED[kind]}, got {value!r}")
    try:
        return float(value) if kind is float else value
    except OverflowError:
        raise ValueError(f"config {path}.{key}: integer too large for a number") from None


def _is_int_pair(value) -> bool:
    """Whether ``value`` is a JSON list of two integers (not booleans)."""
    return isinstance(value, list) and len(value) == 2 and all(
        isinstance(v, int) and not isinstance(v, bool) for v in value
    )


def _parse_geometry(doc: dict) -> ScanGeometry:
    """The scan the geometry section describes. A value the library
    rejects is named by the section, as a key of the wrong type is."""
    section = _section(doc, "geometry")
    if section is None:
        raise ValueError("config: missing required section 'geometry'")
    _check_keys(section, ("n", "m", "step", "grid", "positions"), "geometry")
    n = _get(section, "n", int, "geometry", required=True)
    m = _get(section, "m", int, "geometry", required=True)
    has_raster = "step" in section or "grid" in section
    has_explicit = "positions" in section
    if has_raster == has_explicit:
        raise ValueError(
            "config geometry: give either ('step' and 'grid') or 'positions', not both/neither"
        )
    if has_raster:
        step = _get(section, "step", int, "geometry", required=True)
        grid = section.get("grid")
        if not _is_int_pair(grid):
            raise ValueError("config geometry.grid: expected a pair of integers, e.g. [13, 13]")
        build = partial(make_raster_geometry, n, m, step, (grid[0], grid[1]))
    else:
        positions = section["positions"]
        if not isinstance(positions, list) or not positions:
            raise ValueError("config geometry.positions: expected a non-empty list of [row, col]")
        parsed = []
        for i, pos in enumerate(positions):
            if not _is_int_pair(pos):
                raise ValueError(
                    f"config geometry.positions[{i}]: expected [row, col] integers, got {pos!r}"
                )
            parsed.append((pos[0], pos[1]))
        build = partial(ScanGeometry, n, m, parsed)
    try:
        return build()
    except (ValueError, OverflowError) as exc:
        # OverflowError: an integer too large for an int64 offset.
        raise ValueError(f"config geometry: {exc}") from exc


# Config sections built from a dataclass: its class, and the fields the
# geometry supplies rather than the section.
_SECTIONS = {
    "phantom": (PhantomSpec, ("n",)),
    "probe": (ProbeSpec, ("m",)),
    "perturbation": (PerturbationSpec, ()),
    "solver": (SolverConfig, ()),
}


def _parse_section(section: dict, path: str, cls: type, supplied: dict):
    """Build ``cls`` from a config section, one key per field.

    Each field's type annotation gives the type its value must have
    (``Optional[X]`` reads as ``X``: null is no value), and a field
    without a default is a required key.
    """
    hints = get_type_hints(cls)
    keys = [f for f in fields(cls) if f.name not in supplied]
    _check_keys(section, tuple(f.name for f in keys), path)
    kwargs = dict(supplied)
    for f in keys:
        kind = next((a for a in get_args(hints[f.name]) if a is not type(None)), hints[f.name])
        required = f.default is MISSING and f.default_factory is MISSING
        value = _get(section, f.name, kind, path, required)
        if value is not None:
            kwargs[f.name] = value
    try:
        return cls(**kwargs)
    except ValueError as exc:
        # A value the class itself rejects, named by its section.
        raise ValueError(f"config {path}: {exc}") from exc


def parse_run_config(doc: dict) -> RunConfig:
    """Validate a configuration document strictly and build a RunConfig."""
    if not isinstance(doc, dict):
        raise ValueError("config: expected a JSON object at top level")
    _check_keys(doc, ("geometry", *_SECTIONS, "output_dir"), "(top level)")
    cfg = RunConfig(_parse_geometry(doc))
    for name, (cls, from_geometry) in _SECTIONS.items():
        section = _section(doc, name)
        if section is not None:
            supplied = {key: getattr(cfg.geometry, key) for key in from_geometry}
            setattr(cfg, name, _parse_section(section, name, cls, supplied))

    cfg.output_dir = _get(doc, "output_dir", str, "(top level)")
    return cfg


@contextmanager
def _naming_file(path: str):
    """Prefix a config error raised inside with the config's ``path``."""
    try:
        yield
    except ValueError as exc:
        message = str(exc)
        if message.startswith("config"):
            raise ValueError(f"{path}: {message}") from exc
        raise


@contextmanager
def _fits_in_memory(geom: ScanGeometry):
    """Report a MemoryError of the arrays the geometry sizes, the object
    first, as a config error."""
    try:
        yield
    except MemoryError as exc:
        raise ValueError(
            f"config geometry: n={geom.n}, m={geom.m}, K={geom.K}: the {geom.n}x{geom.n} "
            f"object and its {geom.K} frames of {geom.m}x{geom.m} pixels do not fit in memory"
        ) from exc


def load_run_config(path: str) -> RunConfig:
    with _naming_file(path):
        return parse_run_config(load_json(path))


def _resolve_out_dir(args_out: Optional[str], cfg: RunConfig) -> str:
    out = args_out or cfg.output_dir
    if out is None:
        raise ValueError("no output directory: pass --out or set output_dir in the config")
    os.makedirs(out, exist_ok=True)
    return out


def cmd_simulate(cfg: RunConfig, out_dir: str) -> int:
    """Generate a dataset: phantom, true probe, amplitudes, geometry."""
    if cfg.phantom is None or cfg.probe is None:
        raise ValueError("simulate requires 'phantom' and 'probe' config sections")
    geom = cfg.geometry
    with _fits_in_memory(geom):
        obj = make_test_object(cfg.phantom)
        probe = make_probe(cfg.probe)
        amplitudes = simulate_data(obj, probe, geom)

    save_array(os.path.join(out_dir, OBJECT_FILE), obj.astype(np.complex128))
    save_array(os.path.join(out_dir, PROBE_TRUE_FILE), probe.astype(np.complex128))
    save_array(os.path.join(out_dir, AMPLITUDES_FILE), amplitudes.astype(np.float64))
    save_json(
        os.path.join(out_dir, GEOMETRY_FILE),
        {"n": geom.n, "m": geom.m, "positions": geom.positions.tolist()},
    )
    dc = float(abs(obj.sum()) ** 2 / (geom.n**2 * np.linalg.norm(obj) ** 2))
    print(
        f"simulated dataset: K={geom.K} frames of {geom.m}x{geom.m}, "
        f"object {geom.n}x{geom.n}, dc_fraction={dc:.6f} -> {out_dir}"
    )
    return 0


def _check_dataset_geometry(stored: dict, geom: ScanGeometry, path: str) -> None:
    expected = {"n": geom.n, "m": geom.m, "positions": geom.positions.tolist()}
    for key in ("n", "m"):
        if stored.get(key) != expected[key]:
            raise ValueError(
                f"{path}: dataset {key}={stored.get(key)} does not match config {key}={expected[key]}"
            )
    if stored.get("positions") != expected["positions"]:
        raise ValueError(f"{path}: dataset scan positions do not match the config geometry")


def cmd_reconstruct(cfg: RunConfig, dataset_dir: str, out_dir: str) -> int:
    """Run the reconstruction against a simulated dataset."""
    geom = cfg.geometry
    geometry_path = os.path.join(dataset_dir, GEOMETRY_FILE)
    _check_dataset_geometry(load_json(geometry_path), geom, geometry_path)
    amplitudes = load_array(os.path.join(dataset_dir, AMPLITUDES_FILE))
    probe_true = load_array(os.path.join(dataset_dir, PROBE_TRUE_FILE))

    pert = cfg.perturbation or PerturbationSpec()
    probe_init = perturb_probe(probe_true, pert.blur_sigma_px, pert.noise_level, pert.seed)
    with _fits_in_memory(geom):
        history = run_reconstruction(
            amplitudes, geom, probe_init, cfg.solver, probe_true=probe_true
        )

    save_array(os.path.join(out_dir, PROBE_EST_FILE), history.probe.astype(np.complex128))
    save_array(os.path.join(out_dir, OBJECT_EST_FILE), history.object_image.astype(np.complex128))
    write_metrics_csv(os.path.join(out_dir, CONVERGENCE_FILE), history.rows)
    for event in history.events:
        print(f"note: {event}")
    final = history.rows[-1]
    nrmse_part = "" if final.nrmse_probe is None else f", nrmse_probe={final.nrmse_probe:.3e}"
    print(
        f"reconstruction finished: {final.iter} iterations, "
        f"data_residual={final.data_residual:.3e}{nrmse_part} -> {out_dir}"
    )
    return 0


def _first_iteration_reaching(path: str, threshold: float) -> Optional[int]:
    rows = read_metrics_csv(path)
    if [row.iter for row in rows] != list(range(len(rows))):
        # A log with gaps hides the first iteration that reached the threshold.
        raise ValueError(f"{path}: iterations have gaps; compare needs every iteration")
    rows = [row for row in rows if row.nrmse_probe is not None]
    if not rows:
        raise ValueError(f"{path}: no nrmse_probe values present")
    for row in rows:
        if row.nrmse_probe <= threshold:
            return row.iter
    return None


def cmd_compare(csv_a: str, csv_b: str, threshold: float) -> int:
    """Compare two convergence logs: first iteration to reach the
    threshold for each, their ratio, and whether run A needs at most
    half the iterations of run B (exit status 0 when it does)."""
    first_a = _first_iteration_reaching(csv_a, threshold)
    first_b = _first_iteration_reaching(csv_b, threshold)
    print(f"A {csv_a}: " + ("not reached" if first_a is None else f"first iteration {first_a}"))
    print(f"B {csv_b}: " + ("not reached" if first_b is None else f"first iteration {first_b}"))
    if first_a is None and first_b is None:
        raise ValueError(f"neither run reaches nrmse_probe <= {threshold:g}")
    if first_a is None:
        print("speedup ratio (A/B): n/a")
        return 1
    if first_b is None:
        print("speedup ratio (A/B): n/a (B never reaches the threshold)")
        return 0
    if first_b > 0:
        ratio = first_a / first_b
    else:
        ratio = 1.0 if first_a == 0 else float("inf")
    print(f"speedup ratio (A/B): {ratio:.6g}")
    return 0 if 2 * first_a <= first_b else 1


def _seed(text: str) -> int:
    """A ``--seed`` value: a non-negative integer, as every seed is."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _apply_seed_override(cfg: RunConfig, seed: Optional[int]) -> RunConfig:
    if seed is None:
        return cfg
    if cfg.phantom is not None:
        cfg.phantom = replace(cfg.phantom, texture_seed=seed)
    if cfg.perturbation is not None:
        cfg.perturbation = replace(cfg.perturbation, seed=seed)
    return cfg


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ptyblind",
        description="Blind ptychographic reconstruction: simulate, reconstruct, compare.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic dataset")
    p_sim.add_argument("--config", required=True, help="JSON configuration file")
    p_sim.add_argument("--out", help="output directory (default: config output_dir)")
    p_sim.add_argument("--seed", type=_seed, help="override every RNG seed in the config")

    p_rec = sub.add_parser("reconstruct", help="reconstruct from a simulated dataset")
    p_rec.add_argument("--config", required=True, help="JSON configuration file")
    p_rec.add_argument("--dataset", required=True, help="dataset directory from 'simulate'")
    p_rec.add_argument("--out", help="output directory (default: config output_dir)")
    p_rec.add_argument("--seed", type=_seed, help="override every RNG seed in the config")

    p_cmp = sub.add_parser("compare", help="compare two convergence CSV logs")
    p_cmp.add_argument("csv_a", help="convergence CSV of run A")
    p_cmp.add_argument("csv_b", help="convergence CSV of run B")
    p_cmp.add_argument("--threshold", type=float, required=True, help="probe-NRMSE threshold")

    args = parser.parse_args(argv)
    if args.command == "compare" and not args.threshold >= 0.0:
        # No probe error reaches a NaN threshold or a negative one.
        p_cmp.error(f"argument --threshold: expected a number >= 0, got {args.threshold}")
    try:
        if args.command == "compare":
            return cmd_compare(args.csv_a, args.csv_b, args.threshold)
        cfg = _apply_seed_override(load_run_config(args.config), args.seed)
        out_dir = _resolve_out_dir(args.out, cfg)
        with _naming_file(args.config):
            if args.command == "simulate":
                return cmd_simulate(cfg, out_dir)
            return cmd_reconstruct(cfg, args.dataset, out_dir)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
