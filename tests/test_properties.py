"""Property tests over random scan geometries.

Hypothesis draws the object size n, the frame size m <= n, the frame
count K >= 1 and integer scan positions anywhere in [-3n, 3n], so
frames wrap around the object edge and may coincide; the ``example``
cases pin m = n and K = 1. Array values come from a numpy generator
seeded by the drawn ``seed``. The runs are derandomized and keep no
example database, so the suite stays deterministic; ``conftest``
keeps Hypothesis's other files out of the working tree.
"""

import numpy as np
from conftest import magnitude_project, rand_complex, step_inputs
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ptyblind import (
    ScanGeometry,
    embed_add_frames,
    extract_frames,
    frame_dft,
    illuminate,
    illuminate_adjoint,
)
from ptyblind.solver import (
    build_overlap_matrix,
    transparency_framewise,
    transparency_global,
    update_probe_power,
    update_probe_rank1,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)
SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def geometries(draw, max_n=9, max_k=6):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, n))
    k = draw(st.integers(1, max_k))
    offset = st.integers(-3 * n, 3 * n)
    positions = draw(st.lists(st.tuples(offset, offset), min_size=k, max_size=k))
    return ScanGeometry(n=n, m=m, positions=np.array(positions, dtype=np.int64))


# m = n with a wrapping position, and a single frame.
EDGE_GEOMETRIES = (
    ScanGeometry(n=5, m=5, positions=np.array([[0, 0], [-2, 7], [3, 3]])),
    ScanGeometry(n=7, m=3, positions=np.array([[6, -1]])),
)


def with_edge_cases(**drawn):
    """Add every edge geometry as an explicit example, with ``drawn``
    as the test's other arguments."""
    def decorate(test):
        for geom in EDGE_GEOMETRIES:
            test = example(geom=geom, seed=1, **drawn)(test)
        return test

    return decorate


def inner(a, b):
    return np.vdot(a, b)


def close(a, b, scale):
    return abs(a - b) <= 1e-12 * scale


@PROPERTY
@given(geom=geometries(), seed=SEEDS)
@with_edge_cases()
def test_extract_and_embed_are_adjoint(geom, seed):
    rng = np.random.default_rng(seed)
    obj = rand_complex(rng, geom.n, geom.n)
    frames = rand_complex(rng, geom.K, geom.m, geom.m)
    lhs = inner(extract_frames(obj, geom), frames)
    rhs = inner(obj, embed_add_frames(frames, geom))
    assert close(lhs, rhs, np.linalg.norm(obj) * np.linalg.norm(frames) * geom.K)


@PROPERTY
@given(geom=geometries(), seed=SEEDS)
@with_edge_cases()
def test_illuminate_and_its_adjoint_are_adjoint(geom, seed):
    rng = np.random.default_rng(seed)
    obj = rand_complex(rng, geom.n, geom.n)
    probe = rand_complex(rng, geom.m, geom.m)
    frames = rand_complex(rng, geom.K, geom.m, geom.m)
    lhs = inner(illuminate(obj, probe, geom), frames)
    rhs = inner(obj, illuminate_adjoint(frames, probe, geom))
    scale = np.linalg.norm(obj) * np.abs(probe).max() * np.linalg.norm(frames) * geom.K
    assert close(lhs, rhs, scale)


@PROPERTY
@given(k=st.integers(1, 6), m=st.integers(1, 8), zeros=st.integers(0, 6), seed=SEEDS)
def test_magnitude_projection_is_idempotent(k, m, zeros, seed):
    rng = np.random.default_rng(seed)
    frames = rand_complex(rng, k, m, m)
    frames[:zeros] = 0.0  # all-zero spectra take phase 1
    amplitudes = np.abs(rand_complex(rng, k, m, m))
    once = magnitude_project(frames, amplitudes)
    twice = magnitude_project(once, amplitudes)
    scale = np.linalg.norm(amplitudes)
    assert np.linalg.norm(np.abs(frame_dft(once)) - amplitudes) <= 1e-12 * scale
    assert np.linalg.norm(twice - once) <= 1e-12 * scale


def consistent_pair(geom, seed):
    """A random probe and the frames a random object gives under it."""
    rng = np.random.default_rng(seed)
    probe = rand_complex(rng, geom.m, geom.m)
    return probe, illuminate(rand_complex(rng, geom.n, geom.n), probe, geom), rng


def assert_fixed(stepped, probe):
    assert np.linalg.norm(stepped - probe) <= 1e-9 * np.linalg.norm(probe)


@PROPERTY
@given(geom=geometries(), seed=SEEDS)
@with_edge_cases()
def test_true_probe_is_a_fixed_point_of_the_power_step(geom, seed):
    probe, frames, _ = consistent_pair(geom, seed)
    assert_fixed(update_probe_power(frames, geom, *step_inputs(frames, probe, geom)[1:]), probe)


@PROPERTY
@given(geom=geometries(), seed=SEEDS, per_frame=st.booleans(), estimated=st.booleans())
@with_edge_cases(per_frame=False, estimated=True)
@with_edge_cases(per_frame=True, estimated=True)
def test_true_probe_is_a_fixed_point_of_the_shifted_step(geom, seed, per_frame, estimated):
    # Any factors keep a consistent stack consistent, frame by frame.
    # The estimators remove a single-pixel frame entirely, which is the
    # documented degenerate case, so they are drawn only for m >= 2.
    assume(geom.m >= 2 or not estimated)
    probe, frames, rng = consistent_pair(geom, seed)
    if estimated and per_frame:
        transparency = transparency_framewise(frames, probe, build_overlap_matrix(geom))
    elif estimated:
        transparency = transparency_global(illuminate_adjoint(frames, probe, geom), probe, geom)
    elif per_frame:
        transparency = rand_complex(rng, geom.K)
    else:
        transparency = complex(rand_complex(rng, 1)[0])
    inputs = step_inputs(frames, probe, geom)
    assert_fixed(update_probe_rank1(frames, probe, geom, transparency, *inputs), probe)
