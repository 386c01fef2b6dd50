"""Blind ptychographic reconstruction with transparency-accelerated
probe retrieval.

Submodules: ``operators`` (matrix-free structured operators),
``fourier`` (batched unitary frame DFT), ``solver`` (reconstruction
updates and the outer loop), the private ``_passes`` (the frame-pass
engine the solver's per-frame work runs in: chunks, thread pool,
scratch and the scatters onto the object), ``metrics`` (probe NRMSE,
metrics rows), ``synth`` (phantoms, probes, scan geometries, forward
simulation), ``npyio`` (bit-exact file IO), and ``cli`` (the
``ptyblind`` command).
"""

from .fourier import frame_dft
from .metrics import MetricsRow, nrmse_probe
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
    run_reconstruction,
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
    "embed_add_frames",
    "extract_frames",
    "frame_dft",
    "illuminate",
    "illuminate_adjoint",
    "make_probe",
    "make_raster_geometry",
    "make_test_object",
    "nrmse_probe",
    "perturb_probe",
    "run_reconstruction",
    "simulate_data",
    "__version__",
]
