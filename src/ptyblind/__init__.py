"""Blind ptychographic reconstruction with transparency-accelerated
probe retrieval.

Submodules: ``operators`` (matrix-free structured operators),
``fourier`` (batched unitary frame DFT), ``solver`` (reconstruction
updates and the outer loop), ``metrics`` (probe NRMSE, data residual),
``synth`` (phantoms, probes, scan geometries, forward simulation),
``npyio`` (bit-exact file IO), and ``cli`` (the ``ptyblind`` command).
"""

from .fourier import frame_dft
from .metrics import MetricsRow, data_residual, nrmse_probe
from .operators import (
    ScanGeometry,
    coverage_maps,
    embed_add_frames,
    extract_frames,
    illuminate,
    illuminate_adjoint,
)
from .solver import (
    DegenerateInputError,
    History,
    SolverConfig,
    center_probe,
    pairwise_discrepancy,
    run_reconstruction,
    shift_consistency,
    transparency_framewise,
    transparency_global,
    update_object,
    update_probe_power,
    update_probe_rank1,
    update_probe_standard,
)
from .synth import (
    PhantomSpec,
    ProbeSpec,
    make_probe,
    make_raster_geometry,
    make_test_object,
    perturb_probe,
    simulate_data,
)

__version__ = "0.1.0"

__all__ = [
    "DegenerateInputError",
    "History",
    "MetricsRow",
    "PhantomSpec",
    "ProbeSpec",
    "ScanGeometry",
    "SolverConfig",
    "center_probe",
    "coverage_maps",
    "data_residual",
    "embed_add_frames",
    "extract_frames",
    "frame_dft",
    "illuminate",
    "illuminate_adjoint",
    "make_probe",
    "make_raster_geometry",
    "make_test_object",
    "nrmse_probe",
    "pairwise_discrepancy",
    "perturb_probe",
    "run_reconstruction",
    "shift_consistency",
    "simulate_data",
    "transparency_framewise",
    "transparency_global",
    "update_object",
    "update_probe_power",
    "update_probe_rank1",
    "update_probe_standard",
    "__version__",
]
