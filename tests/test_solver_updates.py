"""Object/probe/frame update tests against dense least-squares oracles."""

import numpy as np
import pytest

from ptyblind import (
    DegenerateInputError,
    ScanGeometry,
    center_probe,
    extract_frames,
    illuminate,
)
from ptyblind.solver import (
    EPSILON_REL,
    pairwise_discrepancy,
    update_object,
    update_probe_standard,
)

from conftest import (
    dense_illuminate_matrix,
    frame_consistency_project,
    rand_complex,
    random_geometry,
    stack_to_vec,
    step_inputs,
    vec_to_stack,
)


def full_coverage_geometry(rng, n, m, K):
    """Random geometry guaranteed to cover every object pixel, so dense
    normal equations need no floor."""
    step = max(1, m // 2)
    base = [(r, c) for r in range(0, n, step) for c in range(0, n, step)]
    extra = rng.integers(0, n, size=(max(K - len(base), 0), 2)).tolist()
    return ScanGeometry(n=n, m=m, positions=base + extra)


def test_update_object_recovers_exact_object(rng):
    geom = full_coverage_geometry(rng, n=6, m=3, K=0)
    w = rand_complex(rng, 3, 3) + 2.0
    psi = rand_complex(rng, 6, 6)
    frames = illuminate(psi, w, geom)
    got = update_object(*step_inputs(frames, w, geom)[:2], w)
    np.testing.assert_allclose(got, psi, rtol=1e-10)


def test_update_object_single_full_frame_unit_probe(rng):
    geom = ScanGeometry(n=4, m=4, positions=[(0, 0)])
    frames = rand_complex(rng, 1, 4, 4)
    probe = np.ones((4, 4), dtype=complex)
    got = update_object(*step_inputs(frames, probe, geom)[:2], probe)
    np.testing.assert_allclose(got, frames[0], atol=1e-13)


def test_update_object_matches_dense_normal_equations(rng):
    geom = full_coverage_geometry(rng, n=5, m=3, K=2)
    w = rand_complex(rng, 3, 3)
    frames = rand_complex(rng, geom.K, 3, 3)
    Q = dense_illuminate_matrix(w, geom)
    gram = Q.conj().T @ Q
    want = np.linalg.solve(gram, Q.conj().T @ stack_to_vec(frames)).reshape(5, 5)
    got = update_object(*step_inputs(frames, w, geom)[:2], w)
    np.testing.assert_allclose(got, want, rtol=1e-10)


def test_update_object_zero_probe_raises(rng):
    geom = random_geometry(rng, n=4, m=2, K=2)
    with pytest.raises(DegenerateInputError, match="^probe is identically zero: object coverage"):
        probe = np.zeros((2, 2), dtype=complex)
        update_object(*step_inputs(np.ones((2, 2, 2), dtype=complex), probe, geom)[:2], probe)


@pytest.mark.parametrize("frame_scale", [1.0, np.ldexp(1.0, -600)])
def test_update_object_underflowed_probe_says_so(rng, frame_scale):
    # |probe|**2 underflows to zero; with frames scaled down as well, so
    # does the accumulation conj(probe) f, but the probe is not zero.
    geom = random_geometry(rng, n=4, m=2, K=2)
    probe = np.full((2, 2), np.ldexp(1.0, -600), dtype=complex)
    frames = np.full((2, 2, 2), frame_scale, dtype=complex)
    coverage, adjoint = step_inputs(frames, probe, geom)[:2]
    assert not coverage.any() and adjoint.any() == (frame_scale == 1.0)
    with pytest.raises(DegenerateInputError, match="^probe intensity underflowed to zero: object"):
        update_object(coverage, adjoint, probe)


def test_update_object_uncovered_pixels_are_zero(rng):
    geom = ScanGeometry(n=4, m=2, positions=[(0, 0)])
    frames = rand_complex(rng, 1, 2, 2)
    probe = np.ones((2, 2), dtype=complex)
    got = update_object(*step_inputs(frames, probe, geom)[:2], probe)
    assert np.all(got[2:, :] == 0) and np.all(got[:, 2:] == 0)


def test_update_probe_standard_pure_average(rng):
    geom = random_geometry(rng, n=6, m=3, K=4)
    frames = rand_complex(rng, 4, 3, 3)
    work = step_inputs(frames, np.ones((3, 3), dtype=complex), geom).work
    got = update_probe_standard(frames, np.ones((6, 6), dtype=complex), geom, work)
    np.testing.assert_allclose(got, frames.sum(axis=0) / 4.0, rtol=1e-12)


def test_update_probe_standard_fixed_point(rng):
    geom = random_geometry(rng, n=6, m=3, K=5)
    w = rand_complex(rng, 3, 3)
    psi = rand_complex(rng, 6, 6) + 2.0
    frames = illuminate(psi, w, geom)
    got = update_probe_standard(frames, psi, geom, step_inputs(frames, w, geom).work)
    np.testing.assert_allclose(got, w, rtol=1e-12)


def test_update_probe_standard_matches_dense_per_pixel_lsq(rng):
    geom = random_geometry(rng, n=5, m=3, K=4)
    psi = rand_complex(rng, 5, 5) + 1.5
    frames = rand_complex(rng, 4, 3, 3)
    views = extract_frames(psi, geom)
    want = np.empty((3, 3), dtype=complex)
    for r in range(3):
        for c in range(3):
            column = views[:, r, c]
            want[r, c] = np.vdot(column, frames[:, r, c]) / np.vdot(column, column)
    work = step_inputs(frames, np.ones((3, 3), dtype=complex), geom).work
    got = update_probe_standard(frames, psi, geom, work)
    np.testing.assert_allclose(got, want, rtol=1e-11)


@pytest.mark.parametrize("n, m, K", [(6, 3, 5), (23, 7, 17), (64, 16, 169)])
def test_update_probe_standard_returns_the_bytes_of_the_view_side_formula(rng, n, m, K):
    # The step gathers the intensity of the object image; the view-side
    # formula takes the intensity of every gathered view. Both are
    # elementwise, so they must agree bit for bit, odd sizes included.
    geom = random_geometry(rng, n, m, K)
    psi = rand_complex(rng, n, n) + 1.5
    frames = rand_complex(rng, K, m, m)
    views = extract_frames(psi, geom)
    num = (np.conj(views) * frames).sum(axis=0)
    den = (np.abs(views) ** 2).sum(axis=0)
    want = num / np.maximum(den, EPSILON_REL * den.max())
    got = update_probe_standard(frames, psi, geom, step_inputs(frames, psi[:m, :m], geom).work)
    assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())


def test_update_probe_standard_zero_object_raises(rng):
    geom = random_geometry(rng, n=4, m=2, K=2)
    with pytest.raises(DegenerateInputError, match="^object is identically zero: probe update"):
        frames = np.ones((2, 2, 2), dtype=complex)
        work = step_inputs(frames, np.ones((2, 2), dtype=complex), geom).work
        update_probe_standard(frames, np.zeros((4, 4)), geom, work)


def test_projector_leaves_consistent_stacks(rng):
    geom = random_geometry(rng, n=6, m=3, K=4)
    w = rand_complex(rng, 3, 3)
    frames = illuminate(rand_complex(rng, 6, 6), w, geom)
    np.testing.assert_allclose(
        frame_consistency_project(frames, w, geom), frames, rtol=1e-11
    )


def test_projector_idempotent(rng):
    geom = random_geometry(rng, n=6, m=3, K=4)
    w = rand_complex(rng, 3, 3)
    frames = rand_complex(rng, 4, 3, 3)
    once = frame_consistency_project(frames, w, geom)
    twice = frame_consistency_project(once, w, geom)
    assert np.linalg.norm(twice - once) <= 1e-10 * np.linalg.norm(once)


def test_projector_matches_dense_projection(rng):
    geom = full_coverage_geometry(rng, n=5, m=3, K=2)
    w = rand_complex(rng, 3, 3)
    frames = rand_complex(rng, geom.K, 3, 3)
    Q = dense_illuminate_matrix(w, geom)
    gram_inv = np.linalg.inv(Q.conj().T @ Q)
    want = vec_to_stack(Q @ (gram_inv @ (Q.conj().T @ stack_to_vec(frames))), geom)
    got = frame_consistency_project(frames, w, geom)
    np.testing.assert_allclose(got, want, rtol=1e-10)


def test_projector_never_increases_discrepancy(rng):
    geom = random_geometry(rng, n=6, m=3, K=4)
    w = rand_complex(rng, 3, 3)
    for _ in range(10):
        frames = rand_complex(rng, 4, 3, 3)
        before = pairwise_discrepancy(*step_inputs(frames, w, geom)[:3])
        once = frame_consistency_project(frames, w, geom)
        after = pairwise_discrepancy(*step_inputs(once, w, geom)[:3])
        assert after <= before * (1 + 1e-12) + 1e-12


def test_center_probe_centered_input_is_fixed():
    m = 7
    rr, cc = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    blob = np.exp(-((rr - 3) ** 2 + (cc - 3) ** 2) / 2.0).astype(complex)
    centered, shift = center_probe(blob)
    assert shift.tolist() == [0, 0]
    np.testing.assert_array_equal(centered, blob)


def test_center_probe_undoes_circular_shift():
    m = 8
    rr, cc = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    blob = np.exp(-((rr - 3.5) ** 2 + (cc - 3.5) ** 2) / 3.0).astype(complex)
    blob, _ = center_probe(blob)
    moved = np.roll(blob, (2, 3), axis=(0, 1))
    recovered, shift = center_probe(moved)
    assert shift.tolist() == [-2, -3]
    np.testing.assert_allclose(recovered, blob, atol=1e-12)


def test_center_probe_random_blob_lands_within_one_pixel(rng):
    m = 9
    rr, cc = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    for _ in range(10):
        r0, c0 = rng.uniform(0, m, size=2)
        blob = np.exp(
            -(((rr - r0 + m / 2) % m - m / 2) ** 2 + ((cc - c0 + m / 2) % m - m / 2) ** 2)
            / 2.5
        ).astype(complex)
        centered, _ = center_probe(blob)
        intensity = np.abs(centered) ** 2
        target = (m - 1) / 2.0
        for axis in range(2):
            marginal = intensity.sum(axis=1 - axis)
            harmonic = np.sum(marginal * np.exp(2j * np.pi * np.arange(m) / m))
            com = (np.angle(harmonic) * m / (2 * np.pi)) % m
            dist = abs((com - target + m / 2) % m - m / 2)
            assert dist <= 1.0


def test_center_probe_zero_raises():
    with pytest.raises(ValueError, match="^cannot center the probe: probe is identically zero$"):
        center_probe(np.zeros((4, 4), dtype=complex))


def test_center_probe_underflowed_probe_says_so():
    message = "^cannot center the probe: probe intensity underflowed to zero$"
    with pytest.raises(ValueError, match=message):
        center_probe(np.full((4, 4), 1e-170))
