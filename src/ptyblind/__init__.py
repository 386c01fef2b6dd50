"""Blind ptychographic reconstruction with transparency-accelerated
probe retrieval.

Submodules: ``operators`` (matrix-free structured operators),
``fourier`` (batched unitary frame DFT and the magnitude projection),
``solver`` (reconstruction updates and the outer loop), ``metrics``
(probe NRMSE, data residual), ``synth`` (phantoms, probes, scan
geometries, forward simulation), ``npyio`` (bit-exact file IO), and
``cli`` (the ``ptyblind`` command).
"""

from .fourier import frame_dft, frame_idft, magnitude_project, spectrum_phase
from .metrics import MetricsRow, data_residual, nrmse_probe
from .operators import (
    CoverageMaps,
    ScanGeometry,
    coverage_maps,
    dense_operators,
    embed_add_frames,
    extract_frames,
    illuminate,
    illuminate_adjoint,
    replicate_probe,
    sum_frames,
)
from .solver import (
    DegenerateInputError,
    History,
    SolverConfig,
    TransparencyEstimate,
    build_overlap_matrix,
    center_probe,
    frame_consistency_project,
    pairwise_discrepancy,
    run_reconstruction,
    shift_consistency,
    transparency_framewise,
    transparency_global,
    update_frames,
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
    "CoverageMaps",
    "DegenerateInputError",
    "History",
    "MetricsRow",
    "PhantomSpec",
    "ProbeSpec",
    "ScanGeometry",
    "SolverConfig",
    "TransparencyEstimate",
    "build_overlap_matrix",
    "center_probe",
    "coverage_maps",
    "data_residual",
    "dense_operators",
    "embed_add_frames",
    "extract_frames",
    "frame_consistency_project",
    "frame_dft",
    "frame_idft",
    "illuminate",
    "illuminate_adjoint",
    "magnitude_project",
    "make_probe",
    "make_raster_geometry",
    "make_test_object",
    "nrmse_probe",
    "pairwise_discrepancy",
    "perturb_probe",
    "replicate_probe",
    "run_reconstruction",
    "shift_consistency",
    "simulate_data",
    "spectrum_phase",
    "sum_frames",
    "transparency_framewise",
    "transparency_global",
    "update_frames",
    "update_object",
    "update_probe_power",
    "update_probe_rank1",
    "update_probe_standard",
    "__version__",
]
