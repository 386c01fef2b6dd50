"""The start frames of a run without ``frames_init`` against the frame
pass on a unit object, the route they are defined by.

Every window of a unit object is the probe, so the start takes the
probe's spectrum once instead of K times. The oracle here runs the full
frame update (``_passes._frame_update``) on an (n, n) object of ones;
the start must give its frames, their adjoint accumulation and
intensity canvas, and a run with no iterations its row 0 and object,
byte for byte; the adjoint and the canvas also those of
``illuminate_adjoint`` and ``embed_add_frames`` on the frames.
"""

import numpy as np
import pytest
from conftest import rand_complex
from test_loop_oracle import wrapping_instance

from ptyblind import (
    ScanGeometry,
    SolverConfig,
    _passes,
    embed_add_frames,
    illuminate_adjoint,
    run_reconstruction,
    solver,
)
from ptyblind.synth import PhantomSpec, ProbeSpec, make_probe, make_test_object, simulate_data


def unit_object_start(probe, amplitudes, geom, work):
    """The frame update on a unit object: the frames it writes, their
    adjoint accumulation and their intensity canvas."""
    frames = np.empty(amplitudes.shape, dtype=np.complex128)
    ones = np.ones((geom.n, geom.n), dtype=np.complex128)
    _, adjoint, canvas = _passes._frame_update(ones, probe, amplitudes, geom, work, frames)
    return frames, adjoint, canvas


def random_case(m, K, probe, seed):
    rng = np.random.default_rng(seed)
    n = 3 * m
    # Positions anywhere on the object, so some frames wrap.
    geom = ScanGeometry(n=n, m=m, positions=rng.integers(0, n, size=(K, 2)))
    return geom, probe, rng.uniform(0.0, 2.0, (K, m, m))


def case(name):
    """Geometry, start probe and amplitudes of the named case."""
    rng = np.random.default_rng(11)
    if name == "wrapping raster":
        geom, _, init, amps = wrapping_instance()
        return geom, init, amps
    if name == "m = 7":
        probe = make_probe(ProbeSpec(m=7, aperture_radius_px=3.0, defocus_phase_strength=0.5))
        geom, _, _ = random_case(7, 17, probe, 5)
        obj = make_test_object(PhantomSpec(n=geom.n, dc_fraction=0.98, texture_seed=1))
        return geom, 0.9 * probe, simulate_data(obj, probe, geom)
    if name == "K = 1":
        return random_case(8, 1, rand_complex(rng, 8, 8), 6)
    if name == "zero bin":
        # Constant rows: the spectrum is exactly zero off its first column.
        probe = np.repeat(rand_complex(rng, 8, 1), 8, axis=1)
        assert (np.abs(np.fft.fft2(probe, norm="ortho")) == 0.0).any()
        return random_case(8, 13, probe, 7)
    probe = rand_complex(rng, 8, 8)
    probe.real[::2, ::3] = -0.0
    probe.imag[1::2, ::2] = -0.0
    probe[0, 0] = complex(-0.0, -0.0)
    return random_case(8, 13, probe, 8)


CASES = ["wrapping raster", "m = 7", "K = 1", "zero bin", "negative zero"]


@pytest.fixture(params=[_passes._CHUNK_BYTES, 1], ids=["one chunk", "chunked"])
def chunk_bytes(request, monkeypatch):
    monkeypatch.setattr(_passes, "_CHUNK_BYTES", request.param)
    return request.param


@pytest.mark.parametrize("name", CASES)
def test_start_frames_match_the_unit_object_pass_byte_for_byte(chunk_bytes, name):
    geom, probe, amps = case(name)
    probe = np.array(probe, dtype=np.complex128)
    if name == "negative zero":
        zeros = np.concatenate([probe.real[probe.real == 0], probe.imag[probe.imag == 0]])
        assert np.signbit(zeros).any()
    work = _passes._Workspace(geom)
    if chunk_bytes == 1 and geom.K > 3:
        assert len(work.edges) > 2
    want, want_adjoint, want_canvas = unit_object_start(probe, amps, geom, work)
    got, adjoint, canvas = _passes._start_frames(probe, amps, geom, work)
    assert (got.dtype, got.shape, got.flags.c_contiguous) == (want.dtype, want.shape, True)
    assert got.tobytes() == want.tobytes()
    assert adjoint.tobytes() == want_adjoint.tobytes()
    assert canvas.tobytes() == want_canvas.tobytes()
    assert adjoint.tobytes() == illuminate_adjoint(got, probe, geom).tobytes()
    assert canvas.tobytes() == embed_add_frames(np.abs(got) ** 2, geom).tobytes()


@pytest.mark.parametrize("name", CASES)
def test_run_without_iterations_matches_the_unit_object_start(monkeypatch, chunk_bytes, name):
    geom, probe, amps = case(name)
    cfg = SolverConfig(probe_mode="standard", max_iters=0)

    def outcome():
        history = run_reconstruction(amps, geom, probe, cfg, probe_true=probe)
        rows = [(r.iter, r.nrmse_probe, r.data_residual, r.pairwise) for r in history.rows]
        arrays = (history.probe, history.object_image, history.frames)
        return rows, [(a.dtype, a.tobytes()) for a in arrays]

    got = outcome()
    monkeypatch.setattr(solver, "_start_frames", unit_object_start)
    assert got == outcome()
    assert len(got[0]) == 1
