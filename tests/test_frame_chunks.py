"""The frame-chunked passes: chunk edges, bit-identity of a run and of
each chunked step with the one-chunk call, and what worker threads may
and may not do.

Shrinking ``fourier._CHUNK_BYTES`` splits even small stacks into many
chunks that run on the thread pool; every outcome must stay byte-equal
to the run that handles the whole stack at once on the calling thread.
"""

import inspect
import os
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from conftest import divided_spectra, frame_idft, rand_complex, step_inputs
from test_loop_oracle import MODES, wrapping_instance

from ptyblind import (
    ScanGeometry,
    SolverConfig,
    fourier,
    frame_dft,
    illuminate,
    metrics,
    operators,
    run_reconstruction,
    solver,
)
from ptyblind.synth import PhantomSpec, ProbeSpec, make_probe, make_test_object, simulate_data


def outcome(history):
    rows = [(r.iter, r.nrmse_probe, r.data_residual, r.pairwise) for r in history.rows]
    arrays = [(a.dtype, a.tobytes()) for a in (history.probe, history.object_image, history.frames)]
    return rows, history.events, arrays


def record_chunks(monkeypatch):
    """Record (lo, hi, on the main thread) of every chunk the solver runs."""
    chunks = []
    real = solver._over_frames

    def spy(work, edges):
        def recorded(lo, hi):
            chunks.append((lo, hi, threading.current_thread() is threading.main_thread()))
            work(lo, hi)

        real(recorded, edges)

    monkeypatch.setattr(solver, "_over_frames", spy)
    return chunks


@pytest.mark.parametrize("mode", MODES)
def test_chunked_run_matches_one_chunk_run_byte_for_byte(monkeypatch, mode):
    geom, probe, init, amps = wrapping_instance()
    cfg = SolverConfig(probe_mode=mode, max_iters=30)
    whole = outcome(run_reconstruction(amps, geom, init, cfg, probe_true=probe))
    monkeypatch.setattr(fourier, "_CHUNK_BYTES", 1)
    chunks = record_chunks(monkeypatch)
    chunked = outcome(run_reconstruction(amps, geom, init, cfg, probe_true=probe))
    assert chunked == whole
    assert chunks and not any(on_main for _, _, on_main in chunks)


def chunk_edges(count, frame_bytes):
    edges = fourier._frame_edges(count, frame_bytes)
    return list(zip(edges, edges[1:]))


@pytest.mark.parametrize("chunk_bytes", [1, fourier._CHUNK_BYTES])
def test_chunks_tile_the_stack_and_never_hold_one_frame(monkeypatch, chunk_bytes):
    monkeypatch.setattr(fourier, "_CHUNK_BYTES", chunk_bytes)
    frame_bytes = 16 * 128 * 128
    for count in range(1, 100):
        edges = chunk_edges(count, frame_bytes)
        assert edges[0][0] == 0 and edges[-1][1] == count
        assert all(a[1] == b[0] for a, b in zip(edges, edges[1:]))
        sizes = [hi - lo for lo, hi in edges]
        assert len(sizes) == 1 or min(sizes) >= 2, (count, sizes)


def test_chunked_run_at_frame_size_128_matches_one_chunk_run(monkeypatch):
    # Five frames in chunks of at least two: the trailing chunk takes
    # three frames instead of leaving one alone.
    positions = [(0, 0), (0, 9), (9, 0), (9, 9), (4, 5)]
    geom = ScanGeometry(n=140, m=128, positions=positions)
    rng = np.random.default_rng(3)
    obj = 1.0 + 0.05 * (rng.normal(size=(140, 140)) + 1j * rng.normal(size=(140, 140)))
    probe = make_probe(ProbeSpec(m=128, aperture_radius_px=48.0, defocus_phase_strength=1.0))
    amps = simulate_data(obj, probe, geom)
    monkeypatch.setattr(solver, "RANK1_CADENCE", 1)
    monkeypatch.setattr(solver, "RANK1_GATE", 0.0)
    cfg = SolverConfig(probe_mode="rank1_global", max_iters=2)
    whole = outcome(run_reconstruction(amps, geom, probe * 0.9, cfg, probe_true=probe))
    monkeypatch.setattr(fourier, "_CHUNK_BYTES", 1)
    chunks = record_chunks(monkeypatch)
    assert outcome(run_reconstruction(amps, geom, probe * 0.9, cfg, probe_true=probe)) == whole
    assert sorted({(lo, hi) for lo, hi, _ in chunks}) == [(0, 2), (2, 5)]


def step_case(m):
    """Frames, object and probe of a weak-contrast scan whose frames are
    perturbed off consistency, so every step has work to do."""
    if m == 8:
        geom = wrapping_instance()[0]
    else:
        # An odd frame size, so no chunk is a whole number of vectors.
        rng = np.random.default_rng(5)
        geom = ScanGeometry(n=23, m=m, positions=rng.integers(0, 23, size=(17, 2)))
    obj = make_test_object(PhantomSpec(n=geom.n, dc_fraction=0.98, texture_seed=1))
    probe = make_probe(ProbeSpec(m=m, aperture_radius_px=m / 2 - 0.5, defocus_phase_strength=0.5))
    frames = illuminate(obj, probe, geom)
    frames += 0.01 * rand_complex(np.random.default_rng(6), *frames.shape)
    return geom, obj, probe, frames


STEPS = [
    "update_probe_standard",
    "update_probe_power",
    "_intensity_canvas",
    "shift_consistency/global",
    "shift_consistency/framewise",
    "shift_consistency/framewise/closed-form",
    "update_probe_rank1/global",
    "update_probe_rank1/framewise",
]


def formed_terms(*args):
    raise AssertionError("the closed-form gate formed the per-frame terms")


def call_step(step, geom, obj, probe, frames, inputs):
    """Call the named step; a ``/global`` or ``/framewise`` suffix picks
    the form of the transparency it is given, and a further
    ``/closed-form`` scores a gate on its closed form."""
    coverage, adjoint, canvas, work = inputs
    if step == "update_probe_standard":
        return solver.update_probe_standard(frames, obj, geom, work)
    if step == "update_probe_power":
        return solver.update_probe_power(frames, geom, adjoint, canvas, work)
    if step == "_intensity_canvas":
        return solver._intensity_canvas(frames, geom, work)
    name, kind, *closed_form = step.split("/")
    if kind == "global":
        factor = solver.transparency_global(adjoint, probe, geom)
    else:
        factor = solver.transparency_framewise(frames, probe, solver.build_overlap_matrix(geom))
    if name == "update_probe_rank1":
        return solver.update_probe_rank1(frames, probe, geom, factor, *inputs)
    if closed_form:
        # The per-frame closed form's own pass, for its sums over the
        # coverage-weighted frames; it forms no per-frame terms.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "_rank1_terms", formed_terms)
            return solver.shift_consistency(frames, probe, geom, factor, *inputs)
    # Each gate scores on its shifted stack where the closed-form weight
    # is unusable, as with a NaN canvas: the global gate weighs that
    # stack, and the per-frame gate forms its terms.
    inputs = (coverage, adjoint, np.full_like(canvas, np.nan), work)
    return solver.shift_consistency(frames, probe, geom, factor, *inputs)


@pytest.mark.parametrize("m", [8, 7])
@pytest.mark.parametrize("step", STEPS)
def test_chunked_step_matches_one_chunk_step_byte_for_byte(monkeypatch, step, m):
    geom, obj, probe, frames = step_case(m)
    inputs = step_inputs(frames, probe, geom)
    assert len(inputs.work.edges) == 2
    whole = np.asarray(call_step(step, geom, obj, probe, frames, inputs))
    monkeypatch.setattr(fourier, "_CHUNK_BYTES", 1)
    inputs = step_inputs(frames, probe, geom)
    chunks = record_chunks(monkeypatch)
    chunked = np.asarray(call_step(step, geom, obj, probe, frames, inputs))
    assert (chunked.dtype, chunked.tobytes()) == (whole.dtype, whole.tobytes())
    assert len({(lo, hi) for lo, hi, _ in chunks}) == len(inputs.work.edges) - 1 > 1
    assert not any(on_main for _, _, on_main in chunks)


def test_public_functions_run_on_the_calling_thread_only(monkeypatch):
    threads = []
    for module in (operators, fourier, solver, metrics):
        for name, fn in list(vars(module).items()):
            if name.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ != module.__name__:
                continue

            def spy(*args, _fn=fn, **kwargs):
                threads.append((_fn.__name__, threading.current_thread()))
                return _fn(*args, **kwargs)

            for loaded in [m for key, m in sys.modules.items() if key.startswith("ptyblind")]:
                for attr, value in list(vars(loaded).items()):
                    if value is fn:
                        monkeypatch.setattr(loaded, attr, spy)
    monkeypatch.setattr(fourier, "_CHUNK_BYTES", 1)
    chunks = record_chunks(monkeypatch)
    geom, probe, init, amps = wrapping_instance()
    for mode in MODES:
        solver.run_reconstruction(amps, geom, init, SolverConfig(probe_mode=mode, max_iters=6))
    fourier.frame_dft(amps)
    assert chunks and not any(on_main for _, _, on_main in chunks)
    names = {name for name, _ in threads}
    assert {"run_reconstruction", "update_object", "embed_add_frames", "frame_dft"} <= names
    assert {thread for _, thread in threads} == {threading.main_thread()}


def test_chunk_error_surfaces_with_iteration_after_every_chunk_finished(monkeypatch):
    geom, probe, init, amps = wrapping_instance()
    monkeypatch.setattr(fourier, "_CHUNK_BYTES", 1)
    per_pass = len(chunk_edges(geom.K, 16 * geom.m**2))
    assert per_pass > 2
    calls, finished = [], []
    lock = threading.Lock()
    real = solver._impose_amplitudes

    def faulty(*args):
        # The transparent start is the first projecting pass; fail one
        # chunk of the second, which is iteration 1's frame update.
        with lock:
            calls.append(None)
            call = len(calls)
        if call == per_pass + 1:
            raise ValueError("chunk failed")
        time.sleep(0.002)
        real(*args)
        with lock:
            finished.append(call)

    monkeypatch.setattr(solver, "_impose_amplitudes", faulty)
    with pytest.raises(ValueError, match="^iteration 1: chunk failed$"):
        run_reconstruction(amps, geom, init, SolverConfig(probe_mode="power", max_iters=3))
    assert len(calls) == 2 * per_pass
    assert sorted(finished) == [c for c in range(1, 2 * per_pass + 1) if c != per_pass + 1]


@pytest.mark.parametrize(("chunk_bytes", "chunks"), [(fourier._CHUNK_BYTES, 1), (1, 8)])
def test_projecting_pass_matches_complex_division_byte_for_byte(monkeypatch, chunk_bytes, chunks):
    """The frame update's reciprocal magnitudes give the bytes of the
    complex division, zero bins and magnitudes from 1e-300 to 1e300
    included, and divide by no zero. Without frames (row 0) the pass
    gives the misfit of the broadcast illumination, bit for bit."""
    monkeypatch.setattr(fourier, "_CHUNK_BYTES", chunk_bytes)
    rng = np.random.default_rng(7)
    m, side = 8, 4
    offsets = np.arange(side) * m
    positions = np.stack(np.meshgrid(offsets, offsets, indexing="ij"), axis=-1).reshape(-1, 2)
    geom = ScanGeometry(n=side * m, m=m, positions=positions)
    # Rows of the probe are constant, so a window constant along its rows
    # has exactly-zero bins off the first column; frame 5 is all zero.
    probe = np.repeat(rand_complex(rng, m, 1), m, axis=1)
    obj = rand_complex(rng, geom.n, geom.n)
    for k, scale in enumerate(np.logspace(-300, 300, geom.K)):
        r, c = positions[k]
        obj[r : r + m, c : c + m] *= scale
    for k in (3, 9, 12):
        r, c = positions[k]
        obj[r : r + m, c : c + m] = obj[r : r + m, c : c + 1]
    r, c = positions[5]
    obj[r : r + m, c : c + m] = 0.0
    work = solver._Workspace(geom)
    assert len(work.edges) == chunks + 1
    frames = np.empty((geom.K, m, m), dtype=np.complex128)
    with np.errstate(all="raise"):
        spectra = frame_dft(illuminate(obj, probe, geom))
        magnitudes = np.abs(spectra)
        # Amplitudes equal the magnitudes above 1e150, where the squared
        # misfit would overflow the misfit norm.
        amps = np.where(magnitudes > 1e150, magnitudes, rng.uniform(0.0, 2.0, magnitudes.shape))
        assert (magnitudes[[3, 9, 12]] == 0.0).sum() == 3 * m * (m - 1)
        assert (magnitudes[5] == 0.0).all()
        assert 0.0 < magnitudes[magnitudes > 0].min() < 1e-299
        assert 1e299 < magnitudes.max() < 1e301
        want = frame_idft(divided_spectra(spectra, amps))
        row0 = solver._magnitude_pass(obj, probe, amps, geom, work, None)
        misfit = solver._magnitude_pass(obj, probe, amps, geom, work, frames)
    assert row0 == np.linalg.norm(np.abs(frame_dft(illuminate(obj, probe, geom))) - amps)
    assert frames.tobytes() == want.tobytes()
    assert work.stack.tobytes() == (np.conj(probe) * want).tobytes()
    assert misfit == np.linalg.norm(magnitudes - amps)
    assert work._spare is None


def test_chunks_run_under_the_callers_numpy_error_state(monkeypatch):
    monkeypatch.setattr(fourier, "_CHUNK_BYTES", 1)
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            fourier.frame_dft(np.full((6, 8, 8), 1e308))


def test_concurrent_callers_start_one_pool(monkeypatch):
    monkeypatch.setattr(fourier, "_CHUNK_BYTES", 1)
    monkeypatch.setattr(fourier, "_POOL", None)
    pools = []

    def start(*args, **kwargs):
        pools.append(ThreadPoolExecutor(*args, **kwargs))
        return pools[-1]

    monkeypatch.setattr(fourier, "ThreadPoolExecutor", start)
    stacks = [np.random.default_rng(seed).normal(size=(7, 8, 8)) for seed in range(8)]
    want = [np.fft.fft2(stack, norm="ortho").tobytes() for stack in stacks]
    got = [None] * len(stacks)

    def call(i):
        got[i] = fourier.frame_dft(stacks[i]).tobytes()

    threads = [threading.Thread(target=call, args=(i,)) for i in range(len(stacks))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=20)
    finally:
        sys.setswitchinterval(interval)
        for pool in pools:
            pool.shutdown()
    assert not any(thread.is_alive() for thread in threads)
    assert got == want
    assert len(pools) == 1


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_gets_a_working_pool(monkeypatch):
    monkeypatch.setattr(fourier, "_CHUNK_BYTES", 1)
    stack = np.ones((6, 8, 8))
    want = fourier.frame_dft(stack).tobytes()  # the pool's threads now run
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            signal.alarm(20)  # a child without pool threads would wait forever
            code = 0 if fourier.frame_dft(stack).tobytes() == want else 2
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0, status
