"""Structured-operator tests against dense constructions and adjoint
identities."""

import numpy as np
import pytest

from ptyblind import (
    ScanGeometry,
    coverage_maps,
    embed_add_frames,
    extract_frames,
    illuminate,
    illuminate_adjoint,
)
from ptyblind.operators import replicate_probe

from conftest import (
    dense_extract_matrix,
    dense_illuminate_matrix,
    dense_replicate_matrix,
    rand_complex,
    random_geometry,
    stack_to_vec,
    vec_to_stack,
)


def test_extract_single_pixel_window():
    geom = ScanGeometry(n=2, m=1, positions=[(0, 0)])
    psi = np.array([[1 + 2j, 3.0], [4.0, 5.0]])
    assert extract_frames(psi, geom).tolist() == [[[1 + 2j]]]


def test_extract_full_window_is_identity():
    geom = ScanGeometry(n=3, m=3, positions=[(0, 0)])
    psi = np.arange(9.0).reshape(3, 3) + 0j
    np.testing.assert_array_equal(extract_frames(psi, geom)[0], psi)


def test_extract_matches_dense_oracle(rng):
    geom = random_geometry(rng, n=4, m=2, K=3)
    psi = rand_complex(rng, 4, 4)
    want = vec_to_stack(dense_extract_matrix(geom) @ psi.reshape(-1), geom)
    np.testing.assert_allclose(extract_frames(psi, geom), want, rtol=0, atol=1e-13)


def test_extract_wraps_circularly(rng):
    geom = ScanGeometry(n=5, m=3, positions=[(4, 3)])
    psi = rand_complex(rng, 5, 5)
    want = np.roll(psi, (-4, -3), axis=(0, 1))[:3, :3]
    np.testing.assert_array_equal(extract_frames(psi, geom)[0], want)


def test_positions_shifted_by_n_are_equivalent(rng):
    psi = rand_complex(rng, 6, 6)
    a = extract_frames(psi, ScanGeometry(n=6, m=2, positions=[(1, 2)]))
    b = extract_frames(psi, ScanGeometry(n=6, m=2, positions=[(7, 8)]))
    np.testing.assert_array_equal(a, b)


def test_embed_identity_and_overlap_doubling():
    geom1 = ScanGeometry(n=3, m=3, positions=[(0, 0)])
    frame = np.ones((1, 3, 3), dtype=complex)
    np.testing.assert_array_equal(embed_add_frames(frame, geom1), frame[0])

    geom2 = ScanGeometry(n=4, m=2, positions=[(1, 1), (1, 1)])
    out = embed_add_frames(np.ones((2, 2, 2), dtype=complex), geom2)
    want = np.zeros((4, 4), dtype=complex)
    want[1:3, 1:3] = 2.0
    np.testing.assert_array_equal(out, want)


def test_complex_embed_sums_each_part_in_frame_order(rng):
    # Reference: one bincount per part, each summing in frame order.
    for n, m, K in [(7, 3, 9), (16, 16, 3), (12, 5, 40)]:
        geom = random_geometry(rng, n, m, K)
        idx = geom.frame_indices.reshape(-1)
        for dtype in (np.complex128, np.complex64):
            frames = rand_complex(rng, K, m, m).astype(dtype)
            parts = [
                np.bincount(idx, weights=part.reshape(-1), minlength=n * n)
                for part in (frames.real, frames.imag)
            ]
            got = embed_add_frames(frames, geom)
            assert got.dtype == np.complex128
            assert got.real.tobytes() == parts[0].reshape(n, n).tobytes()
            assert got.imag.tobytes() == parts[1].reshape(n, n).tobytes()


def part_sums_in_frame_order(frames, geom):
    """The complex scatter-add as one bincount per part."""
    idx = geom.frame_indices.reshape(-1)
    n = geom.n
    real, imag = (
        np.bincount(idx, weights=part.reshape(-1), minlength=n * n).reshape(n, n)
        for part in (frames.real, frames.imag)
    )
    return real, imag


@pytest.mark.parametrize(
    "case",
    ["wrapping offsets", "frame as large as object", "one frame", "non-contiguous stack"],
)
def test_complex_embed_matches_part_sums_on_edge_layouts(rng, case):
    if case == "wrapping offsets":
        # Every offset is at least n - m, so every frame wraps an edge.
        geom = ScanGeometry(n=9, m=4, positions=[(5, 7), (8, 8), (6, 5), (7, 6), (8, 5)])
        frames = rand_complex(rng, 5, 4, 4)
    elif case == "frame as large as object":
        geom = random_geometry(rng, n=6, m=6, K=4)
        frames = rand_complex(rng, 4, 6, 6)
    elif case == "one frame":
        geom = ScanGeometry(n=7, m=3, positions=[(5, 6)])
        frames = rand_complex(rng, 1, 3, 3)
    else:
        geom = random_geometry(rng, n=10, m=4, K=6)
        frames = rand_complex(rng, 6, 4, 8)[:, :, ::2]
        assert not frames.flags.c_contiguous
    real, imag = part_sums_in_frame_order(frames, geom)
    got = embed_add_frames(frames, geom)
    assert got.dtype == np.complex128
    assert got.real.tobytes() == real.tobytes()
    assert got.imag.tobytes() == imag.tobytes()


def test_embed_matches_dense_adjoint(rng):
    geom = random_geometry(rng, n=4, m=2, K=3)
    stack = rand_complex(rng, 3, 2, 2)
    want = (dense_extract_matrix(geom).T @ stack_to_vec(stack)).reshape(4, 4)
    np.testing.assert_allclose(embed_add_frames(stack, geom), want, rtol=0, atol=1e-13)


def test_extract_embed_adjoint_identity(rng):
    geom = random_geometry(rng, n=7, m=3, K=5)
    psi = rand_complex(rng, 7, 7)
    stack = rand_complex(rng, 5, 3, 3)
    lhs = np.vdot(stack, extract_frames(psi, geom))
    rhs = np.vdot(embed_add_frames(stack, geom), psi)
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_replicate_and_sum(rng):
    geom = random_geometry(rng, n=6, m=3, K=4)
    w = rand_complex(rng, 3, 3)
    stack = replicate_probe(w, geom)
    assert stack.shape == (4, 3, 3)
    for i in range(4):
        np.testing.assert_array_equal(stack[i], w)
    want = vec_to_stack(dense_replicate_matrix(geom) @ w.reshape(-1), geom)
    np.testing.assert_allclose(stack, want, rtol=0, atol=0)
    np.testing.assert_allclose(stack.sum(axis=0), 4 * w, rtol=1e-13)


def test_sum_frames_is_replicate_adjoint(rng):
    geom = random_geometry(rng, n=6, m=3, K=4)
    w = rand_complex(rng, 3, 3)
    stack = rand_complex(rng, 4, 3, 3)
    lhs = np.vdot(stack, replicate_probe(w, geom))
    rhs = np.vdot(stack.sum(axis=0), w)
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_illuminate_matches_dense(rng):
    geom = random_geometry(rng, n=5, m=3, K=4)
    w = rand_complex(rng, 3, 3)
    psi = rand_complex(rng, 5, 5)
    want = vec_to_stack(dense_illuminate_matrix(w, geom) @ psi.reshape(-1), geom)
    got = illuminate(psi, w, geom)
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_illuminate_adjoint_matches_dense(rng):
    geom = random_geometry(rng, n=5, m=3, K=4)
    w = rand_complex(rng, 3, 3)
    stack = rand_complex(rng, 4, 3, 3)
    Q = dense_illuminate_matrix(w, geom)
    want = (Q.conj().T @ stack_to_vec(stack)).reshape(5, 5)
    np.testing.assert_allclose(illuminate_adjoint(stack, w, geom), want, rtol=1e-12)


def test_illuminate_adjoint_identity(rng):
    geom = random_geometry(rng, n=8, m=4, K=6)
    w = rand_complex(rng, 4, 4)
    psi = rand_complex(rng, 8, 8)
    stack = rand_complex(rng, 6, 4, 4)
    lhs = np.vdot(stack, illuminate(psi, w, geom))
    rhs = np.vdot(illuminate_adjoint(stack, w, geom), psi)
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_coverage_maps_match_dense(rng):
    geom = random_geometry(rng, n=5, m=3, K=4)
    w = rand_complex(rng, 3, 3)
    Q = dense_illuminate_matrix(w, geom)
    cov = coverage_maps(w, geom)
    object_want = np.real(np.diag(Q.conj().T @ Q)).reshape(5, 5)
    np.testing.assert_allclose(cov.object_coverage, object_want, rtol=1e-12)
    frame_want = vec_to_stack(
        dense_extract_matrix(geom) @ object_want.reshape(-1), geom
    )
    np.testing.assert_allclose(cov.frame_coverage, frame_want, rtol=1e-12)


def test_geometry_validation():
    with pytest.raises(ValueError):
        ScanGeometry(n=4, m=5, positions=[(0, 0)])
    with pytest.raises(ValueError):
        ScanGeometry(n=4, m=2, positions=np.zeros((0, 2), dtype=int))
    with pytest.raises(ValueError):
        ScanGeometry(n=0, m=0, positions=[(0, 0)])


@pytest.mark.parametrize("bad", [(2.7, 1.0), (2.0, 1.5), (-0.5, 3.0)])
def test_fractional_positions_are_rejected(bad):
    with pytest.raises(ValueError, match=r"^positions\[1\] = .* is not a pair of finite integer"):
        ScanGeometry(n=8, m=4, positions=[(0.0, 4.0), bad])


@pytest.mark.parametrize("bad", [(np.nan, 0.0), (0.0, np.inf), (-np.inf, 1.0), (1e300, 0.0)])
def test_non_finite_positions_are_rejected(bad):
    with pytest.raises(ValueError, match=r"^positions\[2\] = .* is not a pair of finite integer"):
        ScanGeometry(n=8, m=4, positions=[(0, 0), (4, 4), bad])


@pytest.mark.parametrize("positions", [[(1 + 0j, 2)], [("1", "2")], [(1, None)]])
def test_non_numeric_positions_are_rejected(positions):
    with pytest.raises(ValueError, match="^positions must be integers, got dtype"):
        ScanGeometry(n=8, m=4, positions=positions)


def test_boolean_positions_are_rejected():
    # As a bool n or m is: offsets of True and False would read as 1 and 0.
    with pytest.raises(ValueError, match="^positions must be integers, got dtype bool$"):
        ScanGeometry(n=8, m=4, positions=[[True, False], [False, True]])


def test_integral_positions_give_the_int64_offsets():
    offsets = [(-9, 3), (7, 21), (0, 8)]
    want = np.mod(np.array(offsets, dtype=np.int64), 8).tobytes()
    for positions in (
        offsets,
        np.array(offsets, dtype=np.int64),
        np.array(offsets, dtype=np.int32),
        np.array(offsets, dtype=np.float64),
    ):
        got = ScanGeometry(n=8, m=4, positions=positions).positions
        assert got.dtype == np.int64 and got.tobytes() == want


def test_shape_mismatches_raise(rng):
    geom = ScanGeometry(n=4, m=2, positions=[(0, 0)])
    with pytest.raises(ValueError):
        extract_frames(np.ones((3, 3)), geom)
    with pytest.raises(ValueError):
        embed_add_frames(np.ones((2, 2, 2)), geom)
    with pytest.raises(ValueError):
        illuminate(np.ones((4, 4)), np.ones((3, 3)), geom)
