"""The frame-chunked passes: chunk edges, bit-identity of a run and of
each chunked step with the one-chunk call, and what worker threads may
and may not do.

Shrinking ``_passes._CHUNK_BYTES`` splits even small stacks into many
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
from conftest import divided_spectra, frame_idft, misfit_norm, rand_complex, step_inputs
from test_loop_oracle import MODES, wrapping_instance

from ptyblind import (
    ScanGeometry,
    SolverConfig,
    _passes,
    fourier,
    frame_dft,
    illuminate,
    metrics,
    operators,
    run_reconstruction,
    solver,
)
from ptyblind.synth import (
    PhantomSpec,
    ProbeSpec,
    make_probe,
    make_raster_geometry,
    make_test_object,
    simulate_data,
)


def outcome(history):
    rows = [(r.iter, r.nrmse_probe, r.data_residual, r.pairwise) for r in history.rows]
    arrays = [(a.dtype, a.tobytes()) for a in (history.probe, history.object_image, history.frames)]
    return rows, history.events, arrays


def record_chunks(monkeypatch):
    """Record (lo, hi, on the main thread) of every chunk the solver runs."""
    chunks = []
    real = _passes._over_frames

    def spy(work, edges, tail=None):
        def recorded(lo, hi):
            chunks.append((lo, hi, threading.current_thread() is threading.main_thread()))
            work(lo, hi)

        real(recorded, edges, tail)

    monkeypatch.setattr(_passes, "_over_frames", spy)
    return chunks


@pytest.mark.parametrize("mode", MODES)
def test_chunked_run_matches_one_chunk_run_byte_for_byte(monkeypatch, mode):
    geom, probe, init, amps = wrapping_instance()
    cfg = SolverConfig(probe_mode=mode, max_iters=30)
    whole = outcome(run_reconstruction(amps, geom, init, cfg, probe_true=probe))
    monkeypatch.setattr(_passes, "_CHUNK_BYTES", 1)
    chunks = record_chunks(monkeypatch)
    chunked = outcome(run_reconstruction(amps, geom, init, cfg, probe_true=probe))
    assert chunked == whole
    assert chunks and not any(on_main for _, _, on_main in chunks)


def chunk_edges(count, frame_bytes):
    edges = _passes._frame_edges(count, frame_bytes)
    return list(zip(edges, edges[1:]))


@pytest.mark.parametrize("chunk_bytes", [1, _passes._CHUNK_BYTES])
def test_chunks_tile_the_stack_and_never_hold_one_frame(monkeypatch, chunk_bytes):
    monkeypatch.setattr(_passes, "_CHUNK_BYTES", chunk_bytes)
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
    monkeypatch.setattr(_passes, "_CHUNK_BYTES", 1)
    chunks = record_chunks(monkeypatch)
    assert outcome(run_reconstruction(amps, geom, probe * 0.9, cfg, probe_true=probe)) == whole
    assert sorted({(lo, hi) for lo, hi, _ in chunks}) == [(0, 2), (2, 5)]


def windowed_instance():
    """A weak-contrast scan of 64 px frames on an 80 px object, shifted
    so that frames wrap in one axis and in both."""
    offsets = np.array([0, 6, 12])
    grid = np.stack(np.meshgrid(offsets, offsets, indexing="ij"), axis=-1).reshape(-1, 2)
    geom = ScanGeometry(n=80, m=64, positions=grid + (10, 14))
    assert {len(rects) for rects in geom.window_slices} == {1, 2, 4}
    obj = make_test_object(PhantomSpec(n=80, dc_fraction=0.95, texture_seed=2))
    probe = make_probe(ProbeSpec(m=64, aperture_radius_px=24.0, defocus_phase_strength=0.5))
    return geom, probe, simulate_data(obj, probe, geom)


def count_window_adds(monkeypatch):
    counts = []
    real = _passes._add_windows

    def counted(*args):
        counts.append(None)
        real(*args)

    monkeypatch.setattr(_passes, "_add_windows", counted)
    return counts


@pytest.mark.parametrize("chunk_bytes", [_passes._CHUNK_BYTES, 1], ids=["one chunk", "chunked"])
@pytest.mark.parametrize("mode", MODES)
def test_window_scatter_run_matches_the_stack_scatter_run(monkeypatch, mode, chunk_bytes):
    """Frames of 64 px scatter onto the object by windows, as each chunk
    finishes; with the window size out of reach the same run adds each
    chunk by np.add.at, with the same bits."""
    geom, probe, amps = windowed_instance()
    monkeypatch.setattr(_passes, "_CHUNK_BYTES", chunk_bytes)
    # A shifted step wherever the gate scores 0 or more and the step is
    # not degenerate.
    monkeypatch.setattr(solver, "RANK1_CADENCE", 1)
    monkeypatch.setattr(solver, "RANK1_GATE", 0.0)
    cfg = SolverConfig(probe_mode=mode, max_iters=4)
    adds = count_window_adds(monkeypatch)
    chunks = record_chunks(monkeypatch)
    shifted = []
    step = solver.update_probe_rank1

    def counted_step(*args):
        result = step(*args)
        shifted.append(None)
        return result

    monkeypatch.setattr(solver, "update_probe_rank1", counted_step)
    windowed = outcome(run_reconstruction(amps, geom, 0.9 * probe, cfg, probe_true=probe))
    # Per chunk, two adds for each frame pass (the start and four
    # iterations), and none for a shifted step; one coverage per probe.
    passes = len({(lo, hi) for lo, hi, _ in chunks})
    assert passes == (1 if chunk_bytes > 1 else geom.K // 2)
    assert len(adds) == 2 * 5 * passes + 5
    monkeypatch.setattr(_passes, "_WINDOW_PX", geom.m + 1)
    del adds[:]
    assert outcome(run_reconstruction(amps, geom, 0.9 * probe, cfg, probe_true=probe)) == windowed
    assert not adds
    if mode.startswith("rank1"):
        assert windowed[1] and shifted


def test_window_scatter_run_from_given_frames_matches_the_stack_scatter_run(monkeypatch):
    geom, probe, amps = windowed_instance()
    monkeypatch.setattr(_passes, "_CHUNK_BYTES", 1)
    frames = frame_idft(amps * np.exp(1j * np.random.default_rng(4).uniform(0, 6.3, amps.shape)))
    cfg = SolverConfig(probe_mode="power", max_iters=3)

    def run():
        return outcome(run_reconstruction(amps, geom, probe, cfg, probe_true=probe, frames_init=frames))

    windowed = run()
    monkeypatch.setattr(_passes, "_WINDOW_PX", geom.m + 1)
    assert run() == windowed


@pytest.mark.parametrize("mode", ["rank1_global", "rank1_framewise"])
def test_a_shifted_step_on_the_window_route_matches_the_stack_scatter(monkeypatch, mode):
    """Started from the true frames, as criterion 4 is, a run of 64 px
    frames on a wrapping 16 px raster scatters its given frames by window
    adds and takes a shifted step at iteration 1 under the default gate
    and cadence; the same run with the window size out of reach adds
    each chunk by np.add.at, with the same bits."""
    geom = make_raster_geometry(n=128, m=64, step=16, grid=(8, 8))
    assert {len(rects) for rects in geom.window_slices} == {1, 2, 4}
    obj = make_test_object(PhantomSpec(n=128, dc_fraction=0.5, texture_seed=4))
    probe = make_probe(ProbeSpec(m=64, aperture_radius_px=24.0, defocus_phase_strength=0.5))
    amps = simulate_data(obj, probe, geom)
    cfg = SolverConfig(probe_mode=mode, max_iters=2)
    adjoints = []

    def recorded(name):
        call = getattr(_passes, name)

        def recording(*args):
            adjoints.append((name, _passes._by_windows(geom)))
            return call(*args)

        return recording

    monkeypatch.setattr(solver, "_stack_images", recorded("_stack_images"))

    def run():
        frames = illuminate(obj, probe, geom)
        history = run_reconstruction(amps, geom, probe, cfg, probe_true=probe, frames_init=frames)
        return outcome(history)

    windowed = run()
    assert windowed[1][0].startswith("iteration 1: transparency shift engaged")
    # The start from the given frames, by windows.
    assert adjoints == [("_stack_images", True)]
    monkeypatch.setattr(_passes, "_WINDOW_PX", geom.m + 1)
    del adjoints[:]
    assert run() == windowed
    assert adjoints == [("_stack_images", False)]


def over_frames_log(edges, fail=(), delay=lambda i: 0.0):
    """Run ``_passes._over_frames`` with a tail over ``edges`` and return
    its events, in order: ("work", lo, on the main thread) as a chunk's
    work finishes and ("tail", lo, on the main thread) as its tail runs,
    and the exception it raised. Chunk ``i`` first sleeps ``delay(i)``
    seconds; the chunks starting at ``fail`` then raise."""
    events = []
    lock = threading.Lock()

    def log(kind, lo):
        with lock:
            events.append((kind, lo, threading.current_thread() is threading.main_thread()))

    def work(lo, hi):
        time.sleep(delay(edges.index(lo)))
        if lo in fail:
            raise ValueError(f"chunk {lo} failed")
        log("work", lo)

    try:
        _passes._over_frames(work, edges, lambda lo, hi: log("tail", lo))
    except ValueError as exc:
        return events, exc
    return events, None


def test_tails_run_on_the_calling_thread_in_chunk_order_after_their_chunk():
    edges = [0, 2, 4, 6, 8, 10, 12]
    # Later chunks finish first.
    events, error = over_frames_log(edges, delay=lambda i: 0.002 * (len(edges) - i))
    assert error is None
    tails = [(lo, main) for kind, lo, main in events if kind == "tail"]
    assert tails == [(lo, True) for lo in edges[:-1]]
    assert sorted(lo for kind, lo, main in events if kind == "work" and not main) == edges[:-1]
    for lo in edges[:-1]:
        assert events.index(("tail", lo, True)) > [e[:2] for e in events].index(("work", lo))


def test_a_single_chunk_runs_its_work_then_its_tail():
    events, error = over_frames_log([0, 5])
    assert error is None
    assert events == [("work", 0, True), ("tail", 0, True)]


def test_no_tail_runs_at_or_after_a_failed_chunk_and_the_first_error_waits_for_every_chunk():
    edges = [0, 2, 4, 6, 8, 10, 12]
    # Chunks 4 and 8 fail; later chunks take longer.
    events, error = over_frames_log(edges, fail=(4, 8), delay=lambda i: 0.003 * i)
    assert str(error) == "chunk 4 failed"
    assert [lo for kind, lo, _ in events if kind == "tail"] == [0, 2]
    assert sorted(lo for kind, lo, _ in events if kind == "work") == [0, 2, 6, 10]


def test_tails_read_finished_chunks_under_fast_thread_switching(monkeypatch):
    # More workers than cores, and threads switched every microsecond: a
    # tail that ran before its chunk's writes had all landed would copy
    # zeros.
    monkeypatch.setattr(_passes, "_POOL", None)
    workers = 4 * _passes._usable_cores()
    monkeypatch.setattr(_passes, "_usable_cores", lambda: workers)
    edges = list(range(0, 65, 2))
    stack, seen = np.zeros((64, 4, 4)), np.zeros((64, 4, 4))

    def work(lo, hi):
        for k in range(lo, hi):
            for row in range(4):
                stack[k, row] = k + 1

    def tail(lo, hi):
        seen[lo:hi] = stack[lo:hi]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            stack[...] = seen[...] = 0.0
            _passes._over_frames(work, edges, tail)
            assert (seen == np.arange(1.0, 65.0)[:, None, None]).all()
    finally:
        sys.setswitchinterval(interval)
        if _passes._POOL is not None:
            _passes._POOL.shutdown()


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
    "_stack_images",
    "shift_consistency/framewise",
    "update_probe_rank1/global",
    "update_probe_rank1/framewise",
]


def call_step(step, geom, obj, probe, frames, inputs):
    """Call the named step; a ``/global`` or ``/framewise`` suffix picks
    the form of the transparency it is given. The global gate is left
    out: it reads (n, n) images only, and no frame chunk."""
    coverage, adjoint, canvas, work = inputs
    if step == "update_probe_standard":
        return solver.update_probe_standard(frames, obj, geom, work)
    if step == "update_probe_power":
        return solver.update_probe_power(frames, geom, adjoint, canvas, work)
    if step == "_stack_images":
        # Both images, the complex adjoint and the float64 canvas, which
        # a complex array holds exactly.
        return _passes._stack_images(frames, probe, geom, work)
    name, kind = step.split("/")
    if kind == "global":
        factor = solver.transparency_global(adjoint, probe, geom)
    else:
        factor = solver.transparency_framewise(frames, probe, geom)
    if name == "update_probe_rank1":
        return solver.update_probe_rank1(frames, probe, geom, factor, *inputs)
    # The per-frame gate's own pass, for its sums over the
    # coverage-weighted frames.
    return solver.shift_consistency(frames, probe, geom, factor, *inputs)


@pytest.mark.parametrize("m", [8, 7])
@pytest.mark.parametrize("step", STEPS)
def test_chunked_step_matches_one_chunk_step_byte_for_byte(monkeypatch, step, m):
    geom, obj, probe, frames = step_case(m)
    inputs = step_inputs(frames, probe, geom)
    assert len(inputs.work.edges) == 2
    whole = np.asarray(call_step(step, geom, obj, probe, frames, inputs))
    monkeypatch.setattr(_passes, "_CHUNK_BYTES", 1)
    inputs = step_inputs(frames, probe, geom)
    chunks = record_chunks(monkeypatch)
    chunked = np.asarray(call_step(step, geom, obj, probe, frames, inputs))
    assert (chunked.dtype, chunked.tobytes()) == (whole.dtype, whole.tobytes())
    assert len({(lo, hi) for lo, hi, _ in chunks}) == len(inputs.work.edges) - 1 > 1
    assert not any(on_main for _, _, on_main in chunks)


def slot_case():
    """169 random frames of 64 px on a wrapping 128 px raster, with a
    random complex and a random positive image and per-frame factors
    for the engine's sums."""
    rng = np.random.default_rng(11)
    raster = make_raster_geometry(n=128, m=64, step=6, grid=(13, 13))
    geom = ScanGeometry(n=128, m=64, positions=raster.positions + 30)
    frames, probe = rand_complex(rng, geom.K, 64, 64), rand_complex(rng, 64, 64)
    image, weights = rand_complex(rng, 128, 128), rng.uniform(0.5, 2.0, (128, 128))
    return geom, frames, probe, image, weights, rand_complex(rng, geom.K)


# Chunk bytes of each layout of the 169 frames, at two usable cores: one
# chunk; three chunks of 56 and 57 frames, each in a slot of its own; and
# 42 chunks of four and five frames, three of them in flight.
SLOT_LAYOUTS = {
    "one chunk": (2**40, 1, 1),
    "a slot per chunk": (56 * 64**2 * 16, 3, 3),
    "more chunks than slots": (4 * 64**2 * 16, 42, 3),
}


def slot_work(monkeypatch, geom, layout):
    """A workspace for ``geom`` chunked as ``layout`` at two usable cores."""
    chunk_bytes, chunks, ahead = SLOT_LAYOUTS[layout]
    monkeypatch.setattr(_passes, "_CHUNK_BYTES", chunk_bytes)
    monkeypatch.setattr(_passes, "_usable_cores", lambda: 2)
    work = _passes._Workspace(geom)
    assert (len(work.edges) - 1, _passes._in_flight(chunks)) == (chunks, ahead)
    return work


def engine_call(name, work):
    """Call the engine function ``name`` on :func:`slot_case`'s inputs."""
    geom, frames, probe, image, weights, factors = slot_case()
    amplitudes = np.abs(frames)
    if name == "_shifted_sums":
        return _passes._shifted_sums(frames, geom, image, weights, work)
    if name == "_framewise_shifted_sums":
        canvas = 4.0 * weights
        return _passes._framewise_shifted_sums(
            frames, probe, geom, factors, weights, image, canvas, work
        )
    if name == "_stack_images":
        return _passes._stack_images(frames, probe, geom, work)
    if name == "_gathered_terms":
        return _passes._gathered_terms(frames, geom, image, weights, work)
    if name == "_window_sums":
        return _passes._window_sums(frames, probe, geom, weights, image, work)
    if name == "_start_frames":
        return _passes._start_frames(probe, amplitudes, geom, work)
    return _passes._frame_update(image, probe, amplitudes, geom, work, frames)


def engine_sums(monkeypatch, name, layout):
    work = slot_work(monkeypatch, slot_case()[0], layout)
    if name != "_magnitude_pass":
        return engine_call(name, work)
    # Row 0's misfit norm and the frame update's, against the frames'
    # magnitudes as amplitudes.
    geom, frames, probe, image, weights, factors = slot_case()
    amplitudes = np.abs(frames)
    row0 = _passes._magnitude_pass(image, probe, amplitudes, geom, work, None)
    updated = np.empty_like(frames)
    return row0, _passes._magnitude_pass(image, probe, amplitudes, geom, work, updated)


def frame_order_sums(name):
    """What the engine's passes sum, from whole stacks: each sum over the
    frames in frame order (``sum(axis=0)``); ``alpha``, ``beta`` and
    ``gamma`` reduced frame by frame with ``vecdot``, the first and last
    against ``|p|**2``; and the misfit norm from each frame's squared
    misfit so reduced."""
    geom, frames, probe, image, weights, factors = slot_case()
    if name == "_magnitude_pass":
        magnitudes = np.abs(frame_dft(illuminate(image, probe, geom)))
        return (misfit_norm(magnitudes, np.abs(frames)),) * 2
    windows = operators.extract_frames(image, geom)
    coverage = operators.extract_frames(weights, geom)
    intensity = np.abs(probe).reshape(-1) ** 2
    alpha = np.vecdot(intensity, windows.reshape(geom.K, -1))
    gamma = np.vecdot(intensity, coverage.reshape(geom.K, -1))
    if name == "_window_sums":
        weighted = operators.extract_frames(weights.astype(np.complex128), geom) * frames
        return alpha, np.vecdot(probe.reshape(-1), weighted.reshape(geom.K, -1)), gamma
    if name == "_shifted_sums":
        conj_windows = operators.extract_frames(np.conj(image), geom)
        return (conj_windows * frames).sum(axis=0), conj_windows.sum(axis=0), coverage.sum(axis=0)
    fcol = factors[:, None, None]
    windows.real -= fcol.real * coverage
    windows.imag -= fcol.imag * coverage
    crossed = np.array([np.multiply(w, np.conj(t)) for w, t in zip(windows, factors)])
    canvas_terms = 4.0 * coverage - coverage * np.abs(fcol) ** 2
    products = (np.conj(windows) * frames).sum(axis=0)
    return products, crossed.sum(axis=0), canvas_terms.sum(axis=0), alpha, gamma


@pytest.mark.parametrize("layout", SLOT_LAYOUTS)
@pytest.mark.parametrize(
    "name", ["_window_sums", "_framewise_shifted_sums", "_shifted_sums", "_magnitude_pass"]
)
def test_the_steps_sums_over_chunk_slots_are_frame_order_sums(monkeypatch, name, layout):
    # A BLAS product over a stack's rows, or a sum over a chunk at once,
    # rounds other than the frame by frame reduction and the frame-order
    # sum, which no chunking changes.
    got = engine_sums(monkeypatch, name, layout)
    want = frame_order_sums(name)
    sums = {"_magnitude_pass": 2, "_framewise_shifted_sums": 5}.get(name, 3)
    assert len(got) == len(want) == sums
    for a, b in zip(got, want):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    if name == "_framewise_shifted_sums":
        # The step weighs the shifted stack from its gate's own bits.
        alpha, _, gamma = engine_sums(monkeypatch, "_window_sums", layout)
        assert got[3].tobytes() == alpha.tobytes() and got[4].tobytes() == gamma.tobytes()


@pytest.mark.parametrize("shape", [(169, 16, 16), (16, 128, 128), (3, 8, 8)])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_a_stacks_sum_over_its_frames_adds_them_in_order_onto_zeros(shape, dtype):
    """The engine's tails rely on numpy summing a stack over its frames
    as frame-by-frame adds onto zeros: they sum a chunk with
    ``sum(axis=0)`` and add later frames, or add every frame onto an
    accumulator of zeros, and both must give the whole stack's bits."""
    rng = np.random.default_rng(21)

    def spread():
        return rng.standard_normal(shape) * 10.0 ** rng.uniform(-12.0, 12.0, shape)

    stack = spread() if dtype is np.float64 else spread() + 1j * spread()

    def added(frames):
        total = np.zeros(shape[1:], dtype=dtype)
        for frame in frames:
            np.add(total, frame, out=total)
        return total.tobytes()

    assert stack.sum(axis=0).tobytes() == added(stack)
    # The values round differently in another order.
    assert added(stack[::-1]) != added(stack)
    # A stack of -0.0 sums to +0.0: the sum starts at zeros, not at a
    # copy of the first frame.
    negative = np.full(shape, complex(-0.0, -0.0) if dtype is np.complex128 else -0.0)
    assert np.signbit(negative.view(np.float64)).all()
    assert not np.signbit(negative.sum(axis=0).view(np.float64)).any()


@pytest.mark.parametrize("layout", ["one chunk", "more chunks than slots"])
@pytest.mark.parametrize(
    "name",
    [
        "_shifted_sums", "_framewise_shifted_sums", "_stack_images",
        "_gathered_terms", "_window_sums", "_frame_update", "_start_frames",
    ],
)
def test_each_engine_call_is_one_pass_over_the_frames(monkeypatch, name, layout):
    # Each stage reads the frames once: a shifted step gathers or forms
    # its shifted windows once, and a given stack's adjoint and canvas
    # come from one pass.
    work = slot_work(monkeypatch, slot_case()[0], layout)
    passes = []
    over_frames = _passes._over_frames

    def counted(chunk, edges, tail=None):
        passes.append(edges)
        over_frames(chunk, edges, tail)

    monkeypatch.setattr(_passes, "_over_frames", counted)
    engine_call(name, work)
    assert passes == [work.edges]


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
    # And the engine's scatter of each chunk, which runs in a pass's tail.
    add = _passes._add_frames

    def add_spy(*args):
        threads.append(("_add_frames", threading.current_thread()))
        add(*args)

    monkeypatch.setattr(_passes, "_add_frames", add_spy)
    monkeypatch.setattr(_passes, "_CHUNK_BYTES", 1)
    chunks = record_chunks(monkeypatch)
    geom, probe, init, amps = wrapping_instance()
    for mode in MODES:
        solver.run_reconstruction(amps, geom, init, SolverConfig(probe_mode=mode, max_iters=6))
    fourier.frame_dft(amps)
    assert chunks and not any(on_main for _, _, on_main in chunks)
    names = {name for name, _ in threads}
    assert {"run_reconstruction", "update_object", "_add_frames", "frame_dft"} <= names
    assert {thread for _, thread in threads} == {threading.main_thread()}


def test_chunk_error_surfaces_with_iteration_after_every_chunk_finished(monkeypatch):
    geom, probe, init, amps = wrapping_instance()
    monkeypatch.setattr(_passes, "_CHUNK_BYTES", 1)
    per_pass = len(chunk_edges(geom.K, 16 * geom.m**2))
    assert per_pass > 2
    calls, finished = [], []
    lock = threading.Lock()
    real = _passes._impose_amplitudes

    def faulty(*args):
        # The start takes the probe's phases once, on the calling thread;
        # every later call is one chunk of a projecting pass. Fail one
        # chunk of the first, which is iteration 1's frame update.
        with lock:
            calls.append(None)
            call = len(calls)
        if call == 2:
            raise ValueError("chunk failed")
        time.sleep(0.002)
        real(*args)
        with lock:
            finished.append(call)

    monkeypatch.setattr(_passes, "_impose_amplitudes", faulty)
    with pytest.raises(ValueError, match="^iteration 1: chunk failed$"):
        run_reconstruction(amps, geom, init, SolverConfig(probe_mode="power", max_iters=3))
    assert len(calls) == 1 + per_pass
    assert sorted(finished) == [c for c in range(1, per_pass + 2) if c != 2]


@pytest.mark.parametrize(("chunk_bytes", "chunks"), [(_passes._CHUNK_BYTES, 1), (1, 8)])
def test_projecting_pass_matches_complex_division_byte_for_byte(monkeypatch, chunk_bytes, chunks):
    """The frame update's reciprocal magnitudes give the bytes of the
    complex division, zero bins and magnitudes from 1e-300 to 1e300
    included, and divide by no zero. Without frames (row 0) the pass
    gives the misfit of the broadcast illumination, bit for bit. The
    frame update with its tail gives the same frames and their adjoint
    accumulation and intensity canvas; the intensities of the largest
    frames overflow there, as they do in ``embed_add_frames``."""
    monkeypatch.setattr(_passes, "_CHUNK_BYTES", chunk_bytes)
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
    work = _passes._Workspace(geom)
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
        row0 = _passes._magnitude_pass(obj, probe, amps, geom, work, None)
        misfit = _passes._magnitude_pass(obj, probe, amps, geom, work, frames)
    assert row0 == misfit_norm(np.abs(frame_dft(illuminate(obj, probe, geom))), amps)
    assert frames.tobytes() == want.tobytes()
    assert misfit == misfit_norm(magnitudes, amps)
    updated = np.empty_like(frames)
    with np.errstate(divide="raise", invalid="raise", over="ignore", under="ignore"):
        got = _passes._frame_update(obj, probe, amps, geom, work, updated)
        canvas = operators.embed_add_frames(np.abs(want) ** 2, geom)
    assert updated.tobytes() == want.tobytes()
    assert got[0] == misfit
    assert got[1].tobytes() == operators.illuminate_adjoint(want, probe, geom).tobytes()
    assert got[2].tobytes() == canvas.tobytes()


def test_chunks_run_under_the_callers_numpy_error_state(monkeypatch):
    monkeypatch.setattr(_passes, "_CHUNK_BYTES", 1)
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            fourier.frame_dft(np.full((6, 8, 8), 1e308))


def test_concurrent_callers_start_one_pool(monkeypatch):
    monkeypatch.setattr(_passes, "_CHUNK_BYTES", 1)
    monkeypatch.setattr(_passes, "_POOL", None)
    pools = []

    def start(*args, **kwargs):
        pools.append(ThreadPoolExecutor(*args, **kwargs))
        return pools[-1]

    monkeypatch.setattr(_passes, "ThreadPoolExecutor", start)
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
    monkeypatch.setattr(_passes, "_CHUNK_BYTES", 1)
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
