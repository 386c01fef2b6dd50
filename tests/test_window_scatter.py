"""The frame-pass engine's adds of frames onto the object, byte for
byte against ``embed_add_frames``, and its object coverage against
``coverage_maps``, by window adds and by ``np.add.at``.

Frames of at least ``_passes._WINDOW_PX`` a side are added onto an
(n, n) image window by window, one to four rectangles a frame, in frame
order; smaller ones by one ``np.add.at`` per chunk. Each pixel must
receive its frames in the order of ``embed_add_frames``, starting from
0.0, so every sum keeps its bits. Frame values spread over 16 decades,
so any other order of the additions shows in the last bits.
"""

import numpy as np
import pytest
from conftest import rand_complex

from ptyblind import ScanGeometry, _passes, coverage_maps, embed_add_frames, make_raster_geometry
from ptyblind._passes import _Workspace, _add_windows, _object_coverage


def raster(n, m, offsets, shift=(0, 0)):
    grid = np.stack(np.meshgrid(offsets, offsets, indexing="ij"), axis=-1).reshape(-1, 2)
    return ScanGeometry(n=n, m=m, positions=grid + np.asarray(shift))


GEOMETRIES = {
    "64 px raster": (raster(96, 64, [0, 8, 16]), {1}),
    # Offsets 8 and 16 run past the edge: a frame splits in two where
    # one of its offsets does and in four where both do.
    "raster wraps": (raster(72, 64, [0, 8, 16]), {1, 2, 4}),
    "both wrap": (raster(80, 64, [0, 8, 16], shift=(20, 20)), {4}),
    "row wraps": (ScanGeometry(n=80, m=64, positions=[(30, 0), (40, 8), (70, 16)]), {2}),
    "m = n": (raster(64, 64, [0, 8, 16]), {1, 2, 4}),
    "K = 1": (ScanGeometry(n=70, m=64, positions=[(33, 51)]), {4}),
}


def spread_stack(rng, geom, dtype):
    """A random stack whose frames differ in scale by up to 16 decades."""
    shape = (geom.K, geom.m, geom.m)
    values = rand_complex(rng, *shape) if dtype == complex else rng.normal(size=shape)
    return values * np.logspace(-8, 8, geom.K)[rng.permutation(geom.K), None, None]


@pytest.mark.parametrize("name", GEOMETRIES)
def test_window_slices_cover_each_frames_indices(name):
    geom, counts = GEOMETRIES[name]
    flat = np.arange(geom.n * geom.n).reshape(geom.n, geom.n)
    seen = set()
    for k, rects in enumerate(geom.window_slices):
        seen.add(len(rects))
        covered = np.full((geom.m, geom.m), -1)
        for target, source in rects:
            assert (covered[source] == -1).all()
            covered[source] = flat[target]
        assert (covered == geom.frame_indices[k]).all()
    assert seen == counts


# The engine's other add: the wrapping raster with the window size out
# of reach, added by ``np.add.at`` in the run's chunks of two frames or
# more.
ADD_AT = "raster wraps, np.add.at by chunks"


@pytest.mark.parametrize("dtype", [complex, float])
@pytest.mark.parametrize("name", [*GEOMETRIES, ADD_AT])
def test_window_adds_match_embed_add_frames_byte_for_byte(rng, monkeypatch, name, dtype):
    if name == ADD_AT:
        geom, _ = GEOMETRIES["raster wraps"]
        monkeypatch.setattr(_passes, "_WINDOW_PX", geom.m + 1)
        monkeypatch.setattr(_passes, "_CHUNK_BYTES", 1)
        add, edges = _passes._add_frames, _Workspace(geom).edges
        assert len(edges) - 1 == geom.K // 2
    else:
        geom, _ = GEOMETRIES[name]
        add, edges = _add_windows, sorted({0, geom.K // 3, 2 * geom.K // 3, geom.K})
    stack = spread_stack(rng, geom, dtype)
    want = embed_add_frames(stack, geom)
    whole = np.zeros_like(want)
    add(whole, stack, geom, 0)
    assert (whole.dtype, whole.tobytes()) == (want.dtype, want.tobytes())
    # In ascending runs of frames, as a pass's tail adds its chunks.
    runs = np.zeros_like(want)
    for lo, hi in zip(edges, edges[1:]):
        add(runs, stack[lo:hi], geom, lo)
    assert runs.tobytes() == want.tobytes()


# Both adds of the engine's coverage: criterion 6's 16 px raster adds by
# ``np.add.at``, in one chunk and in chunks of two frames or more, and
# 64 px frames add windows.
COVERAGE_GEOMETRIES = {
    "m = 16": make_raster_geometry(n=64, m=16, step=4, grid=(13, 13)),
    "m = 16, chunked": make_raster_geometry(n=64, m=16, step=4, grid=(13, 13)),
    **{name: geom for name, (geom, _) in GEOMETRIES.items()},
}


@pytest.mark.parametrize("name", COVERAGE_GEOMETRIES)
def test_engine_object_coverage_matches_coverage_maps(rng, monkeypatch, name):
    if name.endswith("chunked"):
        monkeypatch.setattr(_passes, "_CHUNK_BYTES", 1)
    geom = COVERAGE_GEOMETRIES[name]
    probe = rand_complex(rng, geom.m, geom.m) * np.logspace(-4, 4, geom.m)[:, None]
    assert _passes._by_windows(geom) == (geom.m == 64)
    got = _object_coverage(probe, geom, _Workspace(geom))
    want = coverage_maps(probe, geom).object_coverage
    assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())


def test_only_frames_of_the_window_size_and_up_add_by_windows(monkeypatch):
    assert not _passes._by_windows(ScanGeometry(n=64, m=_passes._WINDOW_PX - 1, positions=[(0, 0)]))
    assert _passes._by_windows(ScanGeometry(n=64, m=_passes._WINDOW_PX, positions=[(0, 0)]))
    monkeypatch.setattr(_passes, "_WINDOW_PX", 65)
    assert not _passes._by_windows(ScanGeometry(n=64, m=64, positions=[(0, 0)]))
