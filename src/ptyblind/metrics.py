"""Reconstruction diagnostics: probe error and data feasibility gap."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fourier import frame_dft


@dataclass
class MetricsRow:
    """One recorded iteration of a reconstruction run."""

    iter: int
    nrmse_probe: Optional[float]
    data_residual: float
    pairwise: float
    wall_ms: float


def nrmse_probe(probe_est: np.ndarray, probe_true: np.ndarray) -> float:
    """Probe error after the best single complex rescaling.

    Minimizes ||c * probe_est - probe_true|| over complex c (closed
    form: c is the projection coefficient of the truth onto the
    estimate) and normalizes by ||probe_true||, making the metric
    invariant to the global scale/phase ambiguity. Gross translations
    are not searched; probe centering is responsible for those.
    """
    est = np.asarray(probe_est)
    true = np.asarray(probe_true)
    norm_est_sq = np.vdot(est, est).real
    norm_true = np.linalg.norm(true)
    if norm_true == 0.0 or norm_est_sq == 0.0:
        raise ValueError("nrmse_probe requires nonzero probes")
    c = np.vdot(est, true) / norm_est_sq
    return float(np.linalg.norm(c * est - true) / norm_true)


def _relative_gap(misfit_norm, amplitude_norm) -> float:
    """``misfit_norm / amplitude_norm``; against all-zero data a zero
    misfit reads 0 and any other inf."""
    if amplitude_norm == 0.0:
        return 0.0 if misfit_norm == 0.0 else float("inf")
    return float(misfit_norm / amplitude_norm)


def data_residual(frames: np.ndarray, amplitudes: np.ndarray) -> float:
    """Relative gap between frame spectra magnitudes and measured data."""
    amplitudes = np.asarray(amplitudes)
    gap = np.linalg.norm(np.abs(frame_dft(frames)) - amplitudes)
    return _relative_gap(gap, np.linalg.norm(amplitudes))
