"""Frame-sized allocations of the reconstruction loop.

A run allocates its frame-sized stacks once; after the first iteration
no step allocates a transient frame-sized array. Every transient
allocation and free of that size made glibc grow and trim its heap,
which made a 64 px framewise iteration up to 30% slower. The traced
memory is sampled at every metrics row: the peak between two rows, less
the larger of the memory in use at either row, must stay below one
float64 frame stack, on an instance where that stack is about four
(n, n) complex images and on one where it is ten. The memory in use
holds the frames and the run's scratch: a block of complex chunk slots
and one float64 block of two sets of float64 chunk slots. Where every
chunk has slots of its own, the complex slots are a complex stack and
the float64 block two float64 stacks; a stack of more chunks than a pass
keeps in flight has slots for each of those only, and then holds no
frame-sized array, complex or float64, whatever the frame size. No gate
or shifted step forms a shifted stack, so a rank-1 run holds no more
frame-sized stacks than a ``power`` run.
"""

import threading
import time
import tracemalloc

import numpy as np
import pytest
from test_loop_oracle import MODES, wrapping_instance

from ptyblind import ScanGeometry, SolverConfig, _passes, run_reconstruction, solver
from ptyblind.synth import (
    PhantomSpec,
    ProbeSpec,
    make_probe,
    make_raster_geometry,
    make_test_object,
    perturb_probe,
    simulate_data,
)

# Chunk bytes of four 64 px complex frames.
FOUR_FRAMES = 4 * 64**2 * np.dtype(np.complex128).itemsize


def traced_run(monkeypatch, amps, geom, init, cfg, probe_true):
    """Run with tracemalloc on; returns the transient peak between each
    pair of consecutive rows, the memory in use at each row and the
    number of shifted-step calls."""
    samples = []
    nrmse = solver.nrmse_probe
    rank1 = solver.update_probe_rank1
    calls = [0]

    def sampled_nrmse(estimate, truth):
        samples.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        return nrmse(estimate, truth)

    def counted_rank1(*args, **kwargs):
        calls[0] += 1
        return rank1(*args, **kwargs)

    monkeypatch.setattr(solver, "nrmse_probe", sampled_nrmse)
    monkeypatch.setattr(solver, "update_probe_rank1", counted_rank1)
    tracemalloc.start()
    try:
        history = run_reconstruction(amps, geom, init, cfg, probe_true=probe_true)
    finally:
        tracemalloc.stop()
    transient = [
        peak - max(before, after) for (before, _), (after, peak) in zip(samples, samples[1:])
    ]
    assert len(transient) == len(history.rows) - 1
    return transient, [current for current, _ in samples], calls[0]


def recorded_workspaces(monkeypatch):
    """The workspaces of the runs made while the test runs."""
    workspaces = []

    class Recorded(solver._Workspace):
        def __init__(self, *args):
            super().__init__(*args)
            workspaces.append(self)

    monkeypatch.setattr(solver, "_Workspace", Recorded)
    return workspaces


def frame_stack_bytes(geom):
    return geom.K * geom.m**2 * np.dtype(np.float64).itemsize


def pool_instance():
    """144 frames of 64 px on a 128 px object, two chunks by default."""
    geom = make_raster_geometry(n=128, m=64, step=6, grid=(12, 12))
    geom = ScanGeometry(n=128, m=64, positions=geom.positions + 3)
    obj = make_test_object(PhantomSpec(n=128, dc_fraction=0.98, texture_seed=2))
    probe = make_probe(ProbeSpec(m=64, aperture_radius_px=24.0, defocus_phase_strength=0.5))
    init = perturb_probe(probe, blur_sigma_px=2.0, noise_level=0.05, seed=3)
    return geom, probe, init, simulate_data(obj, probe, geom)


def more_chunks_than_slots(monkeypatch):
    """Chunks of four frames, and three of them in flight."""
    monkeypatch.setattr(_passes, "_CHUNK_BYTES", FOUR_FRAMES)
    monkeypatch.setattr(_passes, "_usable_cores", lambda: 2)


def assert_slots(sets, block, chunks, ahead):
    """``sets`` of slots, one slot per chunk in each, are views of
    ``block``, a stack of frames or, for several sets, one stack per
    set: set j lies in the j-th, and each slot is its chunk's height.
    Chunks ``ahead`` apart share a slot as tall as the tallest chunk it
    takes, the slots of ``ahead`` chunks in a row do not overlap, and
    the block has no frame that no slot uses. With a slot per chunk,
    each starts at its chunk's first frame in its set's stack."""
    frame = block[(0,) * (block.ndim - 2)].nbytes
    height = block.shape[-3]
    assert block.shape[:-3] == (() if len(sets) == 1 else (len(sets),))

    def first(array):
        # The frame of the block an array starts at.
        return (array.ctypes.data - block.ctypes.data) // frame

    used = np.zeros(len(sets) * height, dtype=int)
    for j, slots in enumerate(sets):
        for slot, (lo, hi) in zip(slots, chunks, strict=True):
            assert slot.base is block and slot.shape == (hi - lo, *block.shape[-2:])
            assert slot.flags.c_contiguous
        if ahead == len(chunks):
            assert [first(slot) for slot in slots] == [j * height + lo for lo, _ in chunks]
        for i in range(ahead, len(chunks)):
            assert first(slots[i]) == first(slots[i - ahead])
        for i in range(ahead):
            tallest = max(len(slot) for slot in slots[i::ahead])
            assert j * height <= first(slots[i]) <= (j + 1) * height - tallest
            used[first(slots[i]) : first(slots[i]) + tallest] += 1
    assert (used == 1).all()


def float_block(work):
    """The float64 block of a workspace's float64 chunk slots."""
    return work.slot(0).base


def assert_scratch_layout(work, geom):
    """The workspace holds a complex block of chunk slots, ``stack``, one
    float64 block of two sets of float64 chunk slots and the length-K
    squared misfits, and no other frame-sized array. Every kind of slot
    takes ``ahead`` chunks in flight, so with more chunks than ``ahead``
    no array is frame-sized, complex or float64. Where every chunk has a
    slot, ``stack`` is the whole complex stack and the float64 block,
    likewise, two float64 stacks."""
    shape = (geom.K, geom.m, geom.m)
    chunks = list(zip(work.edges, work.edges[1:]))
    ahead = _passes._in_flight(len(chunks))
    assert ahead == min(len(chunks), _passes._usable_cores() + 1)
    sliced = ahead < len(chunks)
    arrays = {name: value for name, value in vars(work).items() if isinstance(value, np.ndarray)}
    arrays["float64 slots"] = float_block(work)
    frame_sized = [name for name, value in arrays.items() if value.nbytes >= frame_stack_bytes(geom)]
    assert sorted(frame_sized) == ([] if sliced else ["float64 slots", "stack"])
    assert work.stack.dtype == np.complex128 and work.stack.flags.c_contiguous
    assert work.stack.base is None
    if not sliced:
        assert work.stack.shape == shape
    assert_slots([[work.scratch(lo) for lo, _ in chunks]], work.stack, chunks, ahead)
    block = float_block(work)
    assert block.dtype == np.float64 and block.flags.c_contiguous and block.base is None
    assert block.shape == (2, *work.stack.shape)
    sets = [[work.slot(lo, which) for lo, _ in chunks] for which in (0, 1)]
    assert_slots(sets, block, chunks, ahead)
    assert work.misfit.dtype == np.float64 and work.misfit.shape == (geom.K,)
    if ahead == len(chunks):
        assert block.nbytes == 2 * frame_stack_bytes(geom)


@pytest.mark.parametrize("mode", MODES)
def test_no_frame_sized_transient_after_first_iteration(monkeypatch, mode):
    geom, probe, init, amps = wrapping_instance()
    cfg = SolverConfig(probe_mode=mode, max_iters=30)
    transient, _, shifts = traced_run(monkeypatch, amps, geom, init, cfg, probe)
    if mode.startswith("rank1"):
        assert shifts >= 2
    # From row 2 on: the first iteration allocates the run's stacks.
    assert max(transient[1:]) < frame_stack_bytes(geom), transient


def dense_instance():
    """The wrapping instance's object under 81 frames of 16 px at a
    2 px step: a float64 frame stack is ten (n, n) complex images."""
    raster = make_raster_geometry(n=32, m=16, step=2, grid=(9, 9))
    geom = ScanGeometry(n=32, m=16, positions=raster.positions + 5)
    obj = make_test_object(PhantomSpec(n=32, dc_fraction=0.98, texture_seed=0))
    probe = make_probe(ProbeSpec(m=16, aperture_radius_px=6.0, defocus_phase_strength=0.5))
    init = perturb_probe(probe, blur_sigma_px=1.0, noise_level=0.05, seed=1)
    return geom, probe, init, simulate_data(obj, probe, geom)


@pytest.mark.parametrize("mode", MODES)
def test_no_frame_sized_transient_where_a_stack_outweighs_the_images(monkeypatch, mode):
    # On the wrapping instance one float64 stack is about four complex
    # images, which an iteration's image-sized temporaries come near.
    geom, probe, init, amps = dense_instance()
    image = geom.n**2 * np.dtype(np.complex128).itemsize
    assert frame_stack_bytes(geom) >= 4 * image
    cfg = SolverConfig(probe_mode=mode, max_iters=30)
    transient, _, shifts = traced_run(monkeypatch, amps, geom, init, cfg, probe)
    if mode.startswith("rank1"):
        assert shifts >= 2
    assert max(transient[1:]) < frame_stack_bytes(geom), transient


@pytest.mark.parametrize("layout", ["a slot per chunk", "more chunks than slots"])
@pytest.mark.parametrize("mode", MODES)
def test_no_frame_sized_transient_on_the_pool(monkeypatch, mode, layout):
    geom, probe, init, amps = pool_instance()
    if layout == "more chunks than slots":
        more_chunks_than_slots(monkeypatch)
    monkeypatch.setattr(solver, "RANK1_CADENCE", 1)
    cfg = SolverConfig(probe_mode=mode, max_iters=5)
    workspaces = recorded_workspaces(monkeypatch)
    transient, in_use, shifts = traced_run(monkeypatch, amps, geom, init, cfg, probe)
    assert max(transient[1:]) < frame_stack_bytes(geom), transient
    assert shifts == (1 if mode.startswith("rank1") else 0)
    (work,) = workspaces
    assert_scratch_layout(work, geom)
    chunks = len(work.edges) - 1
    assert (chunks, _passes._in_flight(chunks)) == ((2, 2) if layout == "a slot per chunk" else (36, 3))
    # The frames are two float64 stacks, and the two blocks hold the
    # rest; the images and the small arrays fit in half of one more
    # stack.
    held = 2 * frame_stack_bytes(geom) + work.stack.nbytes + float_block(work).nbytes
    assert max(in_use) < held + frame_stack_bytes(geom) // 2, (in_use, held)
    if layout == "more chunks than slots":
        # Twelve frames of slots in each of the three sets against the
        # 144 of a stack: the frames and the slots make 2.33 stacks.
        assert work.stack.nbytes == 2 * frame_stack_bytes(geom) * 12 // 144
        assert float_block(work).nbytes == frame_stack_bytes(geom) * 2 * 12 // 144
        assert max(in_use) < 2.75 * frame_stack_bytes(geom), in_use


@pytest.mark.parametrize("mode", ["rank1_global", "rank1_framewise"])
def test_a_shifting_run_holds_only_the_frames_and_two_scratch_stacks(mode):
    # At its rows the rank-1 run, global or per-frame, holds no more
    # than the most a power run holds: a shifted stack would add two
    # float64 frame stacks.
    geom, probe, init, amps = wrapping_instance()
    held = {}
    for run in ("power", mode):
        with pytest.MonkeyPatch.context() as patch:
            workspaces = recorded_workspaces(patch)
            cfg = SolverConfig(probe_mode=run, max_iters=30)
            _, in_use, shifts = traced_run(patch, amps, geom, init, cfg, probe)
        (work,) = workspaces
        assert_scratch_layout(work, geom)
        held[run] = max(in_use)
    assert shifts >= 2
    assert held[mode] < held["power"] + frame_stack_bytes(geom) // 2, held


def outcome(history):
    rows = [(r.iter, r.nrmse_probe, r.data_residual, r.pairwise) for r in history.rows]
    arrays = [(a.dtype, a.tobytes()) for a in (history.probe, history.object_image, history.frames)]
    return rows, history.events, arrays


@pytest.mark.parametrize("mode", ["standard", "rank1_framewise"])
def test_a_run_of_more_chunks_than_slots_matches_the_one_chunk_run_byte_for_byte(monkeypatch, mode):
    geom, probe, init, amps = pool_instance()
    # A shifted step at every other iteration.
    monkeypatch.setattr(solver, "RANK1_CADENCE", 1)
    monkeypatch.setattr(solver, "RANK1_GATE", 0.0)
    cfg = SolverConfig(probe_mode=mode, max_iters=4)
    monkeypatch.setattr(_passes, "_CHUNK_BYTES", 2 * frame_stack_bytes(geom))
    whole = outcome(run_reconstruction(amps, geom, init, cfg, probe_true=probe))
    more_chunks_than_slots(monkeypatch)
    workspaces = recorded_workspaces(monkeypatch)
    shifted = []
    rank1 = solver.update_probe_rank1
    monkeypatch.setattr(solver, "update_probe_rank1", lambda *a: shifted.append(None) or rank1(*a))
    assert outcome(run_reconstruction(amps, geom, init, cfg, probe_true=probe)) == whole
    (work,) = workspaces
    assert _passes._in_flight(len(work.edges) - 1) < len(work.edges) - 1
    assert len(shifted) == (2 if mode == "rank1_framewise" else 0)


@pytest.mark.parametrize("mode", ["standard", "rank1_framewise"])
def test_a_small_frame_run_of_more_chunks_than_slots_holds_slots_and_matches_one_chunk(
    monkeypatch, mode
):
    # Frames of 16 px, added by np.add.at, in 20 chunks of four and five
    # frames with three in flight: the complex scratch is three chunks
    # of slots, as it is for frames added by windows.
    geom, probe, init, amps = dense_instance()
    assert geom.m < _passes._WINDOW_PX
    monkeypatch.setattr(solver, "RANK1_CADENCE", 1)
    monkeypatch.setattr(solver, "RANK1_GATE", 0.0)
    cfg = SolverConfig(probe_mode=mode, max_iters=4)
    whole = outcome(run_reconstruction(amps, geom, init, cfg, probe_true=probe))
    monkeypatch.setattr(_passes, "_CHUNK_BYTES", 4 * geom.m**2 * np.dtype(np.complex128).itemsize)
    monkeypatch.setattr(_passes, "_usable_cores", lambda: 2)
    workspaces = recorded_workspaces(monkeypatch)
    shifted = []
    rank1 = solver.update_probe_rank1
    monkeypatch.setattr(solver, "update_probe_rank1", lambda *a: shifted.append(None) or rank1(*a))
    assert outcome(run_reconstruction(amps, geom, init, cfg, probe_true=probe)) == whole
    (work,) = workspaces
    chunks = len(work.edges) - 1
    assert (chunks, _passes._in_flight(chunks)) == (20, 3)
    assert_scratch_layout(work, geom)
    # Slots of four, four and five frames against the 81 of a stack.
    assert work.stack.nbytes == 2 * frame_stack_bytes(geom) * 13 // 81
    assert len(shifted) == (2 if mode == "rank1_framewise" else 0)


def over_frames_events(monkeypatch, edges, ahead, tail=True):
    """Run ``_passes._over_frames`` over ``edges`` with at most ``ahead``
    chunks in flight, later chunks finishing first, and return its events
    in order: ("start", i) as chunk i's work starts, ("done", i) as it
    ends and ("tail", i) as its tail runs."""
    monkeypatch.setattr(_passes, "_in_flight", lambda chunks: min(chunks, ahead))
    events, lock = [], threading.Lock()

    def log(kind, lo):
        with lock:
            events.append((kind, edges.index(lo)))

    def work(lo, hi):
        log("start", lo)
        time.sleep(0.001 * (len(edges) - edges.index(lo)))
        log("done", lo)

    _passes._over_frames(work, edges, (lambda lo, hi: log("tail", lo)) if tail else None)
    return events


@pytest.mark.parametrize("tail", [True, False], ids=["tail", "no tail"])
@pytest.mark.parametrize("ahead", [1, 2, 3])
def test_chunk_i_starts_only_after_chunk_i_minus_ahead_has_run_its_tail(monkeypatch, ahead, tail):
    edges = list(range(0, 21, 2))
    events = over_frames_events(monkeypatch, edges, ahead, tail)
    chunks = len(edges) - 1
    release = "tail" if tail else "done"
    for kind in ("start", "done") + (("tail",) if tail else ()):
        assert sorted(i for k, i in events if k == kind) == list(range(chunks))
    if tail:
        assert [i for k, i in events if k == "tail"] == list(range(chunks))
    for i in range(ahead, chunks):
        assert events.index((release, i - ahead)) < events.index(("start", i))
    # Never more than ``ahead`` chunks between their start and release.
    in_flight = 0
    for kind, _ in events:
        in_flight += {"start": 1, release: -1}.get(kind, 0)
        assert in_flight <= ahead


@pytest.mark.parametrize("mode", MODES)
def test_no_chunk_writes_its_slot_before_the_chunk_before_it_there_has_run_its_tail(
    monkeypatch, mode
):
    """In a run of more chunks than slots, every pass keeps ``ahead``
    chunks in flight, so in a pass that uses slots, complex or float64,
    chunk i starts only after chunk i - ahead, whose slots it takes, has
    been through its tail (or, in a pass without one, has finished)."""
    geom, probe, init, amps = pool_instance()
    more_chunks_than_slots(monkeypatch)
    monkeypatch.setattr(solver, "RANK1_CADENCE", 1)
    monkeypatch.setattr(solver, "RANK1_GATE", 0.0)
    passes, current, lock = [], [None], threading.Lock()

    class Logged(solver._Workspace):
        def logged(self, lo):
            if current[0] is not None:
                with lock:
                    current[0].append(("slot", lo))

        def slot(self, lo, which=0):
            self.logged(lo)
            return super().slot(lo, which)

        def scratch(self, lo):
            self.logged(lo)
            return super().scratch(lo)

    monkeypatch.setattr(solver, "_Workspace", Logged)
    real = _passes._over_frames

    def spy(work, edges, tail=None):
        events = current[0] = []

        def log(kind, lo):
            with lock:
                events.append((kind, lo))

        def logged_work(lo, hi):
            log("start", lo)
            work(lo, hi)
            log("done", lo)

        def logged_tail(lo, hi):
            tail(lo, hi)
            log("tail", lo)

        try:
            real(logged_work, edges, None if tail is None else logged_tail)
        finally:
            current[0] = None
        passes.append((edges, tail is not None, _passes._in_flight(len(edges) - 1), events))

    monkeypatch.setattr(_passes, "_over_frames", spy)
    run_reconstruction(amps, geom, init, SolverConfig(probe_mode=mode, max_iters=3), probe_true=probe)
    slotted = [p for p in passes if any(kind == "slot" for kind, _ in p[3])]
    # Row 0, the start, three frame updates and three probe steps, where
    # each of the two shifted steps takes one pass and each per-frame
    # gate one. The object coverage of 64 px frames adds the broadcast
    # ``|p|**2`` and takes no slot.
    assert len(slotted) == {"rank1_framewise": 10}.get(mode, 8)
    for edges, has_tail, ahead, events in slotted:
        assert ahead == 3 < len(edges) - 1
        release = "tail" if has_tail else "done"
        for i in range(ahead, len(edges) - 1):
            assert events.index((release, edges[i - ahead])) < events.index(("start", edges[i]))
