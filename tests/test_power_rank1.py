"""Power probe step, transparency estimators, and the shifted update.

The power step is checked against explicitly assembled probe-space
matrices (conftest.dense_power_matrices), the pairwise discrepancy
against a literal double sum over co-located frame pixels, and the
transparency-shifted update against its complementary arithmetic
route plus hand-computed averages. The per-frame transparency's
separable neighbour sums are checked against the dense K x K overlap
oracle (conftest.build_overlap_matrix) and, on a 10^4-frame scan, where
that matrix would not fit, against brute-force neighbourhoods.
"""

import tracemalloc

import numpy as np
import pytest
from conftest import (
    build_overlap_matrix,
    dense_power_matrices,
    step_inputs,
    rand_complex,
    random_geometry,
    stack_formed_step,
    stack_scored_framewise_gate,
    stack_scored_gate,
    uniform_shift_terms,
    update_probe_rank1_expanded,
)
from test_loop_oracle import wrapping_instance

from ptyblind import (
    DegenerateInputError,
    _passes,
    ScanGeometry,
    SolverConfig,
    embed_add_frames,
    extract_frames,
    illuminate,
    illuminate_adjoint,
    make_raster_geometry,
    operators,
    run_reconstruction,
    solver,
)
from ptyblind.metrics import nrmse_probe
from ptyblind.operators import replicate_probe
from ptyblind.solver import (
    pairwise_discrepancy,
    shift_consistency,
    transparency_framewise,
    transparency_global,
    update_probe_power,
    update_probe_rank1,
)
from ptyblind.synth import (
    PhantomSpec,
    ProbeSpec,
    make_probe,
    make_test_object,
    perturb_probe,
    simulate_data,
)

FORMS = pytest.mark.parametrize("form", ["global", "framewise"])


def consistent_instance(rng, n, m, K):
    geom = random_geometry(rng, n, m, K)
    probe = rand_complex(rng, m, m)
    obj = rand_complex(rng, n, n)
    return geom, probe, obj, illuminate(obj, probe, geom)


def brute_pairwise(frames, probe, geom):
    """Ordered double sum of |w_p z_i(q) - w_q z_j(p)|^2 over every pair
    of frame pixels landing on the same object pixel."""
    n, m = geom.n, geom.m
    hits = {}
    for i in range(geom.K):
        r0, c0 = (int(v) for v in geom.positions[i])
        for r in range(m):
            for c in range(m):
                hits.setdefault((((r0 + r) % n), ((c0 + c) % n)), []).append((i, r, c))
    total = 0.0
    for colocated in hits.values():
        for (i, r, c) in colocated:
            for (j, rr, cc) in colocated:
                total += (
                    abs(probe[rr, cc] * frames[i, r, c] - probe[r, c] * frames[j, rr, cc]) ** 2
                )
    return total


class TestPairwiseDiscrepancy:
    def test_matches_brute_force_double_sum(self, rng):
        # the matrix-free form counts each unordered pair once, the
        # literal double sum counts both orders
        for _ in range(5):
            geom = random_geometry(rng, 6, 3, 4)
            frames = rand_complex(rng, geom.K, 3, 3)
            probe = rand_complex(rng, 3, 3)
            brute = brute_pairwise(frames, probe, geom)
            fast = pairwise_discrepancy(*step_inputs(frames, probe, geom)[:3])
            assert brute == pytest.approx(2.0 * fast, rel=1e-10)

    def test_zero_on_consistent_stack(self, rng):
        for _ in range(5):
            geom, probe, obj, frames = consistent_instance(rng, 6, 3, 4)
            value = pairwise_discrepancy(*step_inputs(frames, probe, geom)[:3])
            scale = np.linalg.norm(frames) ** 2 * float(np.abs(probe).max() ** 2) * geom.K
            assert value <= 1e-12 * scale


class TestPowerStep:
    def test_matches_dense_pencil(self, rng):
        # oracle: numerator is the explicit Hermitian coupling matrix
        # applied to the probe, denominator the explicit diagonal
        for _ in range(4):
            geom = random_geometry(rng, 8, 4, 6)
            frames = rand_complex(rng, geom.K, 4, 4)
            probe = rand_complex(rng, 4, 4)
            D, A = dense_power_matrices(frames, geom)
            expected = ((A @ probe.reshape(-1)) / D).reshape(4, 4)
            got = update_probe_power(frames, geom, *step_inputs(frames, probe, geom)[1:])
            assert np.linalg.norm(got - expected) <= 1e-11 * np.linalg.norm(expected)

    def test_pencil_difference_is_positive_semidefinite(self, rng):
        for _ in range(4):
            geom = random_geometry(rng, 8, 4, 6)
            frames = rand_complex(rng, geom.K, 4, 4)
            D, A = dense_power_matrices(frames, geom)
            gap = np.linalg.eigvalsh(np.diag(D) - A)
            assert gap.min() >= -1e-10 * D.max()

    def test_fixed_point_on_consistent_frames(self, rng):
        for _ in range(5):
            geom, probe, obj, frames = consistent_instance(rng, 8, 4, 10)
            stepped = update_probe_power(frames, geom, *step_inputs(frames, probe, geom)[1:])
            assert np.linalg.norm(stepped - probe) <= 1e-10 * np.linalg.norm(probe)

    def test_scale_equivariance(self, rng):
        geom = random_geometry(rng, 8, 4, 6)
        frames = rand_complex(rng, geom.K, 4, 4)
        probe = rand_complex(rng, 4, 4)
        c = complex(rand_complex(rng, 1)[0])
        direct = update_probe_power(frames, geom, *step_inputs(frames, c * probe, geom)[1:])
        scaled = c * update_probe_power(frames, geom, *step_inputs(frames, probe, geom)[1:])
        assert np.linalg.norm(direct - scaled) <= 1e-12 * np.linalg.norm(scaled)

    def test_spectrum_on_the_acceptance_instance_keeps_its_gap(self):
        # Criterion 6's instance at consistent frames: the step ``A / D``
        # keeps one unit eigenvalue per gauge class of the 4 px raster
        # (the probe times any function periodic on the scan lattice
        # gives the same frames) and contracts the rest by 0.0688 or
        # less, so weak contrast leaves the step a wide gap.
        geom = make_raster_geometry(n=64, m=16, step=4, grid=(13, 13))
        obj = make_test_object(PhantomSpec(n=64, dc_fraction=0.99, texture_seed=0))
        probe = make_probe(ProbeSpec(m=16, aperture_radius_px=7.5, defocus_phase_strength=0.5))
        D, A = dense_power_matrices(illuminate(obj, probe, geom), geom)
        eigenvalues = np.linalg.eigvals(A / D[:, None])
        assert int((np.abs(eigenvalues - 1.0) <= 1e-8).sum()) == 16
        assert np.sort(np.abs(eigenvalues))[::-1][16] < 0.1

    def test_iteration_recovers_probe_from_consistent_frames(self, rng):
        # the pencil of a consistent stack should pin the probe up to
        # scale; verify the kernel really is one-dimensional before
        # asserting convergence of the locked iteration
        geom = ScanGeometry(n=12, m=4, positions=rng.integers(0, 12, size=(24, 2)))
        probe_true = rand_complex(rng, 4, 4)
        frames = illuminate(rand_complex(rng, 12, 12), probe_true, geom)
        D, A = dense_power_matrices(frames, geom)
        sym = np.diag(1.0 / np.sqrt(D)) @ A @ np.diag(1.0 / np.sqrt(D))
        spectrum = np.linalg.eigvalsh(sym)
        assert int((spectrum > 1 - 1e-9).sum()) == 1
        probe = rand_complex(rng, 4, 4)
        lock = np.linalg.norm(probe_true)
        for _ in range(100):
            probe = update_probe_power(frames, geom, *step_inputs(frames, probe, geom)[1:])
            probe *= lock / np.linalg.norm(probe)
        assert nrmse_probe(probe, probe_true) <= 1e-6

    def test_zero_stack_raises(self, rng):
        geom = random_geometry(rng, 8, 4, 6)
        probe = rand_complex(rng, 4, 4)
        with pytest.raises(DegenerateInputError, match="^frame stack is identically zero: power"):
            frames = np.zeros((geom.K, 4, 4), dtype=complex)
            update_probe_power(frames, geom, *step_inputs(frames, probe, geom)[1:])


def record_scatters(monkeypatch):
    """The dtypes of the frames scattered while the test runs, by
    ``embed_add_frames`` or chunk by chunk by the frame-pass engine's
    ``_add_frames``."""
    scattered = []
    scatter, add = operators.embed_add_frames, _passes._add_frames

    def recorded(frames, geom):
        scattered.append(np.asarray(frames).dtype)
        return scatter(frames, geom)

    def added(image, frames, geom, lo):
        scattered.append(np.asarray(frames).dtype)
        add(image, frames, geom, lo)

    monkeypatch.setattr(operators, "embed_add_frames", recorded)
    monkeypatch.setattr(_passes, "_add_frames", added)
    return scattered


class TestIntensityCanvas:
    def test_power_step_and_per_frame_terms_scatter_no_real_stack(self, rng, monkeypatch):
        # Both read the canvas they are handed instead of scattering the
        # stack intensity again.
        geom = random_geometry(rng, 8, 4, 6)
        frames = rand_complex(rng, geom.K, 4, 4)
        probe = rand_complex(rng, 4, 4)
        inputs = step_inputs(frames, probe, geom)
        factors = transparency_framewise(frames, probe, geom)
        scattered = record_scatters(monkeypatch)
        update_probe_power(frames, geom, *inputs[1:])
        # The per-frame step forms its sums with _framewise_shifted_sums.
        update_probe_rank1(frames, probe, geom, factors, *inputs)
        assert not [dtype for dtype in scattered if dtype.kind == "f"]

    def test_a_global_shifted_step_above_the_floor_scatters_nothing(self, rng, monkeypatch):
        # The step reads the shifted canvas from (n, n) images.
        geom, probe, frames, inputs, transparency = weak_global_case(rng, 1e-1)
        scattered = record_scatters(monkeypatch)
        update_probe_rank1(frames, probe, geom, transparency, *inputs)
        assert scattered == []


def weak_global_case(rng, contrast):
    """A consistent stack of an object with the given contrast about a
    constant, its step inputs and its global transparency."""
    geom = raster(32, 8, 3, (8, 8))
    probe = rand_complex(rng, 8, 8)
    frames = illuminate(0.8 - 0.3j + contrast * rand_complex(rng, 32, 32), probe, geom)
    inputs = step_inputs(frames, probe, geom)
    return geom, probe, frames, inputs, transparency_global(inputs.adjoint, probe, geom)


class TestTransparencyGlobal:
    def test_recovers_pure_transparency_factor(self, rng):
        geom = random_geometry(rng, 8, 4, 6)
        probe = rand_complex(rng, 4, 4)
        c = complex(rand_complex(rng, 1)[0])
        frames = c * replicate_probe(probe, geom)
        got = transparency_global(illuminate_adjoint(frames, probe, geom), probe, geom)
        assert abs(got - c) <= 1e-14 * abs(c)

    def test_zero_for_frames_orthogonal_to_probe(self, rng):
        geom = random_geometry(rng, 8, 4, 6)
        probe = rand_complex(rng, 4, 4)
        raw = rand_complex(rng, 6, 4, 4)
        coeff = np.tensordot(np.conj(probe), raw, axes=([0, 1], [1, 2]))
        frames = raw - coeff[:, None, None] * probe / np.vdot(probe, probe).real
        adjoint = illuminate_adjoint(frames, probe, geom)
        assert abs(transparency_global(adjoint, probe, geom)) <= 1e-12

    def test_matches_definition(self, rng):
        geom = random_geometry(rng, 8, 4, 6)
        probe = rand_complex(rng, 4, 4)
        frames = rand_complex(rng, 6, 4, 4)
        expected = sum(np.vdot(probe, f) for f in frames) / (6 * np.vdot(probe, probe).real)
        adjoint = illuminate_adjoint(frames, probe, geom)
        assert transparency_global(adjoint, probe, geom) == pytest.approx(expected, rel=1e-13)

    def test_zero_probe_raises(self, rng):
        geom = random_geometry(rng, 8, 4, 6)
        with pytest.raises(ValueError, match="^probe is identically zero$"):
            transparency_global(rand_complex(rng, 8, 8), np.zeros((4, 4), dtype=complex), geom)

    def test_underflowed_probe_says_so(self, rng):
        geom = random_geometry(rng, 8, 4, 6)
        probe = np.full((4, 4), 1e-170, dtype=complex)
        with pytest.raises(ValueError, match="^probe intensity underflowed to zero$"):
            transparency_global(rand_complex(rng, 8, 8), probe, geom)


def pixel_sets(geom):
    """Each frame's set of wrapped object pixels."""
    n, m = geom.n, geom.m
    return [
        {((int(r0) + r) % n, (int(c0) + c) % n) for r in range(m) for c in range(m)}
        for r0, c0 in geom.positions
    ]


def neighbourhood_average(frames, probe, geom):
    """Each frame's mean of ``<p, f_j> / ||p||^2`` over the frames whose
    pixel sets meet its own, frame by frame."""
    sets = pixel_sets(geom)
    inner = [np.vdot(probe, f) / np.vdot(probe, probe).real for f in frames]
    return np.array(
        [np.mean([inner[j] for j in range(geom.K) if sets[i] & sets[j]]) for i in range(geom.K)]
    )


class TestTransparencyFramewise:
    def test_disjoint_frames_give_self_average(self, rng):
        geom = raster(16, 4, 4, (4, 3))
        probe = rand_complex(rng, 4, 4)
        frames = rand_complex(rng, geom.K, 4, 4)
        got = transparency_framewise(frames, probe, geom)
        expected = np.array([np.vdot(probe, f) for f in frames]) / np.vdot(probe, probe).real
        assert np.allclose(got, expected, rtol=1e-13, atol=0)

    def test_frames_that_all_overlap_reduce_to_global(self, rng):
        # 2m - 1 >= n: every pair of windows shares a pixel.
        geom = random_geometry(rng, 8, 5, 5)
        assert build_overlap_matrix(geom).all()
        probe = rand_complex(rng, 5, 5)
        frames = rand_complex(rng, geom.K, 5, 5)
        got = transparency_framewise(frames, probe, geom)
        want = transparency_global(illuminate_adjoint(frames, probe, geom), probe, geom)
        assert np.allclose(got, np.full(geom.K, want), rtol=1e-13, atol=0)

    def test_matches_neighbourhood_average_on_random_positions(self, rng):
        for _ in range(5):
            geom = random_geometry(rng, 12, 4, 9)
            probe = rand_complex(rng, 4, 4)
            frames = rand_complex(rng, geom.K, 4, 4)
            got = transparency_framewise(frames, probe, geom)
            want = neighbourhood_average(frames, probe, geom)
            assert np.allclose(got, want, rtol=1e-12, atol=0)

    def test_zero_probe_raises(self, rng):
        geom = random_geometry(rng, 8, 4, 6)
        frames = rand_complex(rng, geom.K, 4, 4)
        with pytest.raises(ValueError, match="^probe is identically zero$"):
            transparency_framewise(frames, np.zeros((4, 4), dtype=complex), geom)

    def test_underflowed_probe_says_so(self, rng):
        geom = random_geometry(rng, 8, 4, 6)
        frames = rand_complex(rng, geom.K, 4, 4)
        with pytest.raises(ValueError, match="^probe intensity underflowed to zero$"):
            transparency_framewise(frames, np.full((4, 4), 1e-170, dtype=complex), geom)

    @pytest.mark.parametrize("offset", [0, 3], ids=["raster", "shifted raster"])
    def test_a_ten_thousand_frame_scan_needs_no_k_by_k_matrix(self, offset):
        # K = 10**4: the dense complex overlap matrix would be 1.6 GB. The
        # last row and column of windows wrap in both rasters.
        geom = raster(400, 8, 4, (100, 100), offset=offset)
        rng = np.random.default_rng(7)
        probe = rand_complex(rng, 8, 8)
        frames = rand_complex(rng, geom.K, 8, 8)
        tracemalloc.start()
        try:
            got = transparency_framewise(frames, probe, geom)
            transient = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert transient < 2 * 2**20, transient
        # Brute force on sampled frames, the corners and the last row
        # and column among them, whose windows wrap: a frame's
        # neighbours are the windows that meet its pixels.
        n, m = geom.n, geom.m
        span = np.arange(m)
        rows = (geom.positions[:, :1] + span) % n
        cols = (geom.positions[:, 1:] + span) % n
        inner = frames.reshape(geom.K, -1) @ np.conj(probe).reshape(-1)
        inner /= np.vdot(probe, probe).real
        sampled = np.concatenate([[0, 99, 9900, 9999, 5050], rng.choice(geom.K, 15, replace=False)])
        for k in sampled:
            mask = np.zeros((n, n), dtype=bool)
            mask[np.ix_(rows[k], cols[k])] = True
            near = mask[rows[:, :, None], cols[:, None, :]].any(axis=(1, 2))
            want = inner[near].mean()
            assert abs(got[k] - want) <= 1e-12 * abs(want), k


class TestOverlapMatrix:
    """The dense oracle ``conftest.build_overlap_matrix``."""

    def test_single_frame(self):
        geom = ScanGeometry(n=8, m=3, positions=np.array([[2, 5]]))
        assert build_overlap_matrix(geom).tolist() == [[1]]

    def test_disjoint_pair(self):
        geom = ScanGeometry(n=10, m=3, positions=np.array([[0, 0], [5, 5]]))
        assert build_overlap_matrix(geom).tolist() == [[1, 0], [0, 1]]

    def test_matches_pixel_set_intersection(self, rng):
        # oracle: materialize each frame's wrapped pixel set and
        # intersect them pair by pair
        raster_positions = [(r, c) for r in range(0, 10, 2) for c in range(0, 10, 2)]
        for positions in (np.array(raster_positions), rng.integers(0, 10, size=(9, 2))):
            geom = ScanGeometry(n=10, m=3, positions=positions)
            sets = pixel_sets(geom)
            expected = [
                [1 if sets[i] & sets[j] else 0 for j in range(geom.K)] for i in range(geom.K)
            ]
            assert build_overlap_matrix(geom).tolist() == expected


NEIGHBOURHOOD_GEOMETRIES = {
    "weak64": lambda rng: raster(64, 16, 4, (13, 13)),
    "noisy_wrap64": lambda rng: raster(64, 16, 4, (13, 13), offset=6),
    # 2m - 1 >= n on both axes: every frame is every frame's neighbour.
    "large223": lambda rng: raster(223, 128, 5, (20, 20)),
    "coincident": lambda rng: ScanGeometry(n=16, m=4, positions=np.array([[3, 5]] * 4 + [[9, 1]] * 3)),
    "random": lambda rng: random_geometry(rng, 20, 5, 40),
    "one frame": lambda rng: ScanGeometry(n=8, m=3, positions=np.array([[2, 5]])),
}


class TestNeighbourhoods:
    """The separable neighbour sums and counts against the dense oracle."""

    @pytest.mark.parametrize("name", NEIGHBOURHOOD_GEOMETRIES)
    def test_counts_are_the_oracle_row_sums(self, rng, name):
        geom = NEIGHBOURHOOD_GEOMETRIES[name](rng)
        counts = geom._neighbourhoods.counts
        assert counts.dtype == np.int64
        assert counts.tolist() == build_overlap_matrix(geom).sum(axis=1).tolist()

    @pytest.mark.parametrize("name", NEIGHBOURHOOD_GEOMETRIES)
    def test_sums_match_the_oracle_product(self, rng, name):
        geom = NEIGHBOURHOOD_GEOMETRIES[name](rng)
        oracle = build_overlap_matrix(geom).astype(np.complex128)
        for values in (rand_complex(rng, geom.K), rng.normal(size=geom.K)):
            got = geom._neighbourhoods.sums(values)
            want = oracle @ values
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), name

    def test_axis_relations_are_as_small_as_the_distinct_offsets(self, rng):
        hood = raster(64, 16, 4, (13, 13))._neighbourhoods
        assert hood.row_overlap.shape == hood.col_overlap.shape == (13, 13)
        # 400 frames on a 20 px object: no relation outgrows (n, n).
        geom = random_geometry(rng, 20, 5, 400)
        hood = geom._neighbourhoods
        for relation, axis in ((hood.row_overlap, 0), (hood.col_overlap, 1)):
            distinct = len(np.unique(geom.positions[:, axis]))
            assert relation.shape == (distinct, distinct) and distinct <= geom.n
        assert hood.cells.shape == hood.counts.shape == (geom.K,)


class TestRank1Update:
    def test_zero_factor_reduces_to_power_global(self, rng):
        geom = random_geometry(rng, 8, 4, 6)
        frames = rand_complex(rng, geom.K, 4, 4)
        probe = rand_complex(rng, 4, 4)
        got = rank1_step(frames, probe, geom, 0.0)
        want = update_probe_power(frames, geom, *step_inputs(frames, probe, geom)[1:])
        assert got.tobytes() == want.tobytes()

    def test_zero_factor_reduces_to_power_framewise(self, rng):
        # Byte for byte: the closed form adds and subtracts exact zeros.
        geom = random_geometry(rng, 8, 4, 6)
        frames = rand_complex(rng, geom.K, 4, 4)
        probe = rand_complex(rng, 4, 4)
        got = rank1_step(frames, probe, geom, np.zeros(geom.K, dtype=complex))
        want = update_probe_power(frames, geom, *step_inputs(frames, probe, geom)[1:])
        assert got.tobytes() == want.tobytes()

    def test_production_and_expanded_paths_agree(self, rng):
        for trial in range(30):
            geom = random_geometry(rng, 8, 3, 5)
            frames = rand_complex(rng, geom.K, 3, 3)
            probe = rand_complex(rng, 3, 3)
            if trial % 2:
                transparency = complex(rand_complex(rng, 1)[0])
            else:
                transparency = rand_complex(rng, geom.K)
            inputs = step_inputs(frames, probe, geom)
            fast = update_probe_rank1(frames, probe, geom, transparency, *inputs)
            slow = update_probe_rank1_expanded(frames, probe, geom, transparency)
            assert np.linalg.norm(fast - slow) <= 1e-11 * np.linalg.norm(fast)

    def test_fixed_point_at_true_pair_global(self, rng):
        for _ in range(3):
            geom, probe, obj, frames = consistent_instance(rng, 8, 4, 10)
            transparency = estimated_transparency(frames, probe, geom, "global")
            stepped = rank1_step(frames, probe, geom, transparency)
            assert np.linalg.norm(stepped - probe) <= 1e-10 * np.linalg.norm(probe)

    def test_fixed_point_at_true_pair_framewise(self, rng):
        # per-frame factors may all differ; the distributed form must
        # still hold the true probe in place
        for _ in range(3):
            geom, probe, obj, frames = consistent_instance(rng, 8, 4, 10)
            factors = estimated_transparency(frames, probe, geom, "framewise")
            stepped = rank1_step(frames, probe, geom, factors)
            assert np.linalg.norm(stepped - probe) <= 1e-10 * np.linalg.norm(probe)
            expanded = update_probe_rank1_expanded(frames, probe, geom, factors)
            assert np.linalg.norm(expanded - probe) <= 1e-10 * np.linalg.norm(probe)

    def test_constant_object_raises_documented_error(self, rng):
        geom = random_geometry(rng, 8, 4, 6)
        probe = rand_complex(rng, 4, 4)
        c = complex(rand_complex(rng, 1)[0])
        frames = c * replicate_probe(probe, geom)
        inputs = step_inputs(frames, probe, geom)
        with pytest.raises(DegenerateInputError):
            update_probe_rank1(frames, probe, geom, c, *inputs)
        factors = np.full(geom.K, c)
        with pytest.raises(DegenerateInputError):
            update_probe_rank1(frames, probe, geom, factors, *inputs)


class TestTransparencyForms:
    def test_scalar_forms_take_the_global_route_with_equal_bytes(self, rng, monkeypatch):
        geom = random_geometry(rng, 8, 4, 6)
        frames = rand_complex(rng, geom.K, 4, 4)
        probe = rand_complex(rng, 4, 4)
        c = 0.6 - 0.3j

        def framewise_route(*args):
            raise AssertionError("a single factor took the per-frame route")

        monkeypatch.setattr(solver, "_framewise_shifted_sums", framewise_route)
        inputs = step_inputs(frames, probe, geom)
        steps, scores = set(), set()
        for transparency in (c, np.complex128(c), np.array(c)):
            score = shift_consistency(frames, probe, geom, transparency, *inputs)
            steps.add(update_probe_rank1(frames, probe, geom, transparency, *inputs).tobytes())
            scores.add(score)
        assert len(steps) == 1 and len(scores) == 1

    @pytest.mark.parametrize("shape", [(5,), (7,), (6, 1)])
    def test_per_frame_factors_must_have_length_k(self, rng, shape):
        geom = random_geometry(rng, 8, 4, 6)
        frames = rand_complex(rng, geom.K, 4, 4)
        probe = rand_complex(rng, 4, 4)
        factors = np.ones(shape, dtype=complex)
        inputs = step_inputs(frames, probe, geom)
        message = r"framewise transparency must have length K=6, got shape"
        with pytest.raises(ValueError, match=message):
            update_probe_rank1(frames, probe, geom, factors, *inputs)
        with pytest.raises(ValueError, match=message):
            shift_consistency(frames, probe, geom, factors, *step_inputs(frames, probe, geom))

    @FORMS
    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(1.0, -np.inf)])
    def test_a_transparency_that_is_not_finite_is_rejected_by_name(
        self, rng, monkeypatch, form, value
    ):
        geom = random_geometry(rng, 8, 4, 6)
        frames = rand_complex(rng, geom.K, 4, 4)
        probe = rand_complex(rng, 4, 4)
        transparency = value
        if form == "framewise":
            transparency = np.full(geom.K, 0.5 + 0.1j)
            transparency[3] = value
        inputs = step_inputs(frames, probe, geom)

        def any_work(*args):
            raise AssertionError("a non-finite transparency reached the closed forms")

        for kernel in ("_global_shift", "_window_sums", "_framewise_shifted_sums"):
            monkeypatch.setattr(solver, kernel, any_work)
        for step in (shift_consistency, update_probe_rank1):
            with pytest.raises(ValueError, match="^transparency is not finite$") as caught:
                step(frames, probe, geom, transparency, *inputs)
            assert type(caught.value) is ValueError


def pencil_global_consistency(frames, probe, geom, c):
    """Global gate score in its pencil form: the shifted power step's
    numerator and denominator assembled in full, then <p, num> over
    sum(den |p|^2); with that weight."""
    shifted = frames - c * probe[None, :, :]
    den = extract_frames(embed_add_frames(np.abs(shifted) ** 2, geom), geom).sum(axis=0)
    acc = illuminate_adjoint(shifted, probe, geom)
    num = (shifted * extract_frames(np.conj(acc), geom)).sum(axis=0)
    weight = float((den * np.abs(probe) ** 2).sum())
    return (float(np.vdot(probe, num).real / weight) if weight > 0.0 else 0.0), weight


class TestShiftConsistency:
    def test_global_score_matches_pencil_form(self, rng):
        for trial in range(40):
            n = int(rng.integers(4, 12))
            m = int(rng.integers(1, n + 1))
            geom = random_geometry(rng, n, m, int(rng.integers(1, 9)))
            probe = rand_complex(rng, m, m)
            if trial % 2:
                frames = rand_complex(rng, geom.K, m, m)
                c = complex(rand_complex(rng, 1)[0])
            else:
                frames = illuminate(rand_complex(rng, n, n), probe, geom)
                c = transparency_global(illuminate_adjoint(frames, probe, geom), probe, geom)
            inputs = step_inputs(frames, probe, geom)
            score = shift_consistency(frames, probe, geom, c, *inputs)
            want, weight = pencil_global_consistency(frames, probe, geom, c)
            # Below the weight floor (a shift to rounding level) the
            # gate scores 0.
            if weight >= solver._WEIGHT_FLOOR * np.vdot(inputs.coverage, inputs.canvas).real:
                assert score == pytest.approx(want, abs=1e-12)
            else:
                assert score == 0.0

    def test_equals_one_on_consistent_stack(self, rng):
        geom, probe, obj, frames = consistent_instance(rng, 8, 4, 10)
        inputs = step_inputs(frames, probe, geom)
        score = shift_consistency(frames, probe, geom, 0.7 - 0.2j, *inputs)
        assert score == pytest.approx(1.0, abs=1e-12)
        factors = transparency_framewise(frames, probe, geom)
        score = shift_consistency(frames, probe, geom, factors, *inputs)
        assert score == pytest.approx(1.0, abs=1e-12)

    def test_global_score_stays_in_unit_interval(self, rng):
        for _ in range(50):
            geom = random_geometry(rng, 8, 3, 5)
            frames = rand_complex(rng, geom.K, 3, 3)
            probe = rand_complex(rng, 3, 3)
            transparency = complex(rand_complex(rng, 1)[0])
            inputs = step_inputs(frames, probe, geom)
            score = shift_consistency(frames, probe, geom, transparency, *inputs)
            assert -1e-12 <= score <= 1.0 + 1e-12

    def test_degenerate_shift_scores_zero(self, rng):
        geom = random_geometry(rng, 8, 4, 6)
        probe = rand_complex(rng, 4, 4)
        c = 1.5 - 0.5j
        frames = c * replicate_probe(probe, geom)
        score = shift_consistency(frames, probe, geom, c, *step_inputs(frames, probe, geom))
        assert score == 0.0

    def test_noise_scores_below_consistent_data(self, rng):
        geom, probe, obj, frames = consistent_instance(rng, 8, 4, 10)
        clean_inputs = step_inputs(frames, probe, geom)
        transparency = transparency_global(clean_inputs[1], probe, geom)
        noise = rand_complex(rng, geom.K, 4, 4)
        noisy_inputs = step_inputs(noise, probe, geom)
        noisy = shift_consistency(noise, probe, geom, transparency, *noisy_inputs)
        clean = shift_consistency(frames, probe, geom, transparency, *clean_inputs)
        assert noisy < 0.9 < clean


def raster(n, m, step, grid, offset=0):
    positions = make_raster_geometry(n=n, m=m, step=step, grid=grid).positions + offset
    return ScanGeometry(n=n, m=m, positions=positions)


def gate(frames, probe, geom, per_frame=False):
    """The global or per-frame gate's score at the transparency of its
    form, and the stack-scored oracle's score at the same
    transparency."""
    inputs = step_inputs(frames, probe, geom)
    if per_frame:
        transparency = transparency_framewise(frames, probe, geom)
        oracle = stack_scored_framewise_gate
    else:
        transparency = transparency_global(inputs.adjoint, probe, geom)
        oracle = stack_scored_gate
    score = shift_consistency(frames, probe, geom, transparency, *inputs)
    return score, oracle(frames, probe, geom, transparency)


RASTERS = pytest.mark.parametrize(
    "geom",
    [raster(32, 8, 3, (8, 8)), raster(32, 8, 3, (11, 11), offset=5), raster(16, 8, 4, (3, 2))],
    ids=["non-wrapping", "wrapping", "3x2"],
)


def probe_step(frames, probe, geom, mode):
    """The loop's probe step at (frames, probe) in ``mode``, on an
    iteration the cadence allows: the new probe, whether it was shifted,
    and the events it logged."""
    coverage, adjoint, canvas, work = step_inputs(frames, probe, geom)
    state = solver._Iterate(frames, probe, coverage, adjoint, canvas, work, solver.RANK1_CADENCE)
    events = []
    cfg = SolverConfig(probe_mode=mode)
    stepped, engaged = solver._probe_step(state, None, geom, cfg, 1, events)
    return stepped, engaged, events


class TestGlobalGate:
    @RASTERS
    def test_closed_form_matches_the_stack_scored_gate(self, rng, geom):
        probe = rand_complex(rng, geom.m, geom.m)
        clean = illuminate(1.0 + 0.1 * rand_complex(rng, geom.n, geom.n), probe, geom)
        scores = []
        for noise in (0.0, 1e-3, 1e-2, 1e-1, 1.0):
            frames = clean + noise * rand_complex(rng, *clean.shape)
            score, oracle = gate(frames, probe, geom)
            assert score == pytest.approx(oracle, abs=1e-10)
            scores.append(score)
        # The stacks span the gate: accepted and rejected gates alike.
        assert max(scores) >= solver.RANK1_GATE > min(scores)


class TestFramewiseGate:
    @RASTERS
    def test_closed_form_matches_the_stack_scored_gate(self, rng, geom):
        # A diagonal phase ramp across the object, so the local
        # transparency differs from frame to frame along both axes.
        probe = rand_complex(rng, geom.m, geom.m)
        pixels = np.arange(geom.n)
        ramp = np.exp(2j * np.pi * np.add.outer(pixels, pixels) / geom.n)
        obj = ramp * (1.0 + 0.1 * rand_complex(rng, geom.n, geom.n))
        clean = illuminate(obj, probe, geom)
        scores = []
        for noise in (0.0, 1e-6, 1e-3, 1e-1, 1.0):
            draw = noise * rand_complex(rng, *clean.shape)
            for frames in (clean + draw, clean - draw):
                score, oracle = gate(frames, probe, geom, per_frame=True)
                assert score == pytest.approx(oracle, abs=1e-10)
                scores.append(score)
        # The stacks span the gate. Each frame is scored against its own
        # shifted stack, so a small draw moves the score off 1 in its
        # first order, by opposite amounts for opposite draws: one of
        # them scores above 1, by far more than the rounding.
        assert max(scores) > 1.0 + 1e-11
        assert max(scores) >= solver.RANK1_GATE > min(scores)


def residue_stack(rng, geom, probe, residue):
    """A unit residue: noise, or the stack of a random object."""
    if residue == "noise":
        return rand_complex(rng, geom.K, geom.m, geom.m)
    return illuminate(rand_complex(rng, geom.n, geom.n), probe, geom)


def transparent_stack(probe, geom):
    return (0.8 - 0.3j) * replicate_probe(probe, geom)


def stack_energy(frames, probe, geom):
    """The stack's coverage-weighted energy ``E = <C, canvas>``."""
    coverage, _, canvas, _ = step_inputs(frames, probe, geom)
    return np.vdot(coverage, canvas).real


def shifted_energy(frames, probe, geom, transparency):
    """The shifted stacks' coverage-weighted energy, ``sum(den |p|^2)``
    over the terms of ``uniform_shift_terms``, from stacks formed one by
    one."""
    factors = np.broadcast_to(np.asarray(transparency, dtype=complex), (geom.K,))
    den = uniform_shift_terms(np.asarray(frames), probe, geom, factors)[1]
    return float((den * np.abs(probe) ** 2).sum())


def nearly_transparent(rng, geom, probe, residue, fraction, form):
    """The transparent stack plus a residue scaled so that the shift by
    the transparency of ``form`` leaves ``fraction`` of the stack's
    coverage-weighted energy, and that transparency. Both transparencies
    are linear in the frames and exact on the transparent stack, so the
    shift leaves the residue shifted by its own transparency."""
    transparent, unit = transparent_stack(probe, geom), residue_stack(rng, geom, probe, residue)
    weight = shifted_energy(unit, probe, geom, estimated_transparency(unit, probe, geom, form))
    scale = np.sqrt(fraction * stack_energy(transparent, probe, geom) / weight)
    frames = transparent + scale * unit
    return frames, estimated_transparency(frames, probe, geom, form)


class TestDownToTheFloor:
    """On a nearly transparent stack the closed forms lose about
    ``log10(E / weight)`` digits, where the weight is the shifted stack's
    coverage-weighted energy and ``E`` the stack's. Down to just above
    the weight floor they still agree with the stack-formed oracles to
    1e-6, and the gate decides as the oracle does."""

    @FORMS
    @pytest.mark.parametrize("residue", ["noise", "consistent"])
    @pytest.mark.parametrize("fraction", [1e-2, 1e-4, 1e-6, 2e-8])
    def test_closed_forms_match_the_stack_oracles(self, rng, form, residue, fraction):
        geom = raster(32, 8, 3, (8, 8))
        probe = rand_complex(rng, 8, 8)
        for _ in range(2):
            frames, transparency = nearly_transparent(rng, geom, probe, residue, fraction, form)
            shifted = shifted_energy(frames, probe, geom, transparency)
            assert 0.5 < shifted / (fraction * stack_energy(frames, probe, geom)) < 2.0
            score, oracle = gate(frames, probe, geom, per_frame=form == "framewise")
            assert score == pytest.approx(oracle, abs=1e-6)
            # A consistent residue passes the gate and noise does not.
            accepted = residue == "consistent"
            assert (score >= solver.RANK1_GATE) == (oracle >= solver.RANK1_GATE) == accepted
            got = rank1_step(frames, probe, geom, transparency)
            want = stack_formed_step(frames, probe, geom, transparency)
            assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want)

    def test_a_low_contrast_solve_gates_between_the_floors(self, monkeypatch):
        # Dc fraction 0.999 on the acceptance scan: some gates of this
        # solve fall between the weight floor and 1e-3 of the stack
        # energy, where the closed forms keep 5 to 8 digits, and the
        # solve reaches NRMSE 0.1 at iteration 59.
        geom = make_raster_geometry(n=64, m=16, step=4, grid=(13, 13))
        probe = make_probe(ProbeSpec(m=16, aperture_radius_px=7.5, defocus_phase_strength=0.5))
        init = perturb_probe(probe, blur_sigma_px=2.0, noise_level=0.05, seed=2)
        spec = PhantomSpec(n=64, dc_fraction=0.999, texture_seed=1, texture_kind="piecewise")
        amps = simulate_data(make_test_object(spec), probe, geom)
        weights, in_gate = [], []
        usable, gate = solver._usable_weight, solver.shift_consistency

        def recorded(weight, energy):
            if in_gate:
                weights.append(weight / energy)
            return usable(weight, energy)

        def gated(*args):
            in_gate.append(None)
            try:
                return gate(*args)
            finally:
                in_gate.clear()

        monkeypatch.setattr(solver, "_usable_weight", recorded)
        monkeypatch.setattr(solver, "shift_consistency", gated)
        cfg = SolverConfig(probe_mode="rank1_framewise", max_iters=300, stop_nrmse=0.1)
        final = run_reconstruction(amps, geom, init, cfg, probe_true=probe).rows[-1]
        assert (final.iter, final.nrmse_probe <= 0.1) == (59, True)
        assert any(solver._WEIGHT_FLOOR <= weight < 1e-3 for weight in weights)
        assert min(weights) >= 1e-4


class TestBelowTheFloor:
    """Where the shift leaves less than ``_WEIGHT_FLOOR`` of the stack's
    coverage-weighted energy, the gates score exactly 0, the step raises
    ``DegenerateInputError`` and the loop takes the plain power step."""

    @FORMS
    @pytest.mark.parametrize("residue", ["noise", "consistent"])
    def test_gates_score_zero_and_the_step_raises(self, rng, form, residue):
        geom = raster(32, 8, 3, (8, 8))
        probe = rand_complex(rng, 8, 8)
        for _ in range(4):
            frames = transparent_stack(probe, geom) + 1e-7 * residue_stack(rng, geom, probe, residue)
            transparency = estimated_transparency(frames, probe, geom, form)
            inputs = step_inputs(frames, probe, geom)
            assert shift_consistency(frames, probe, geom, transparency, *inputs) == 0.0
            with pytest.raises(DegenerateInputError, match="^transparency shift left no usable"):
                update_probe_rank1(frames, probe, geom, transparency, *inputs)

    @FORMS
    def test_gates_score_zero_on_single_pixel_consistent_stacks(self, rng, form):
        # One frame of one pixel: its transparency is the pixel's object
        # value, and the shift leaves only rounding.
        for _ in range(20):
            geom = random_geometry(rng, 4, 1, 1)
            probe = rand_complex(rng, 1, 1)
            frames = illuminate(rand_complex(rng, 4, 4), probe, geom)
            transparency = estimated_transparency(frames, probe, geom, form)
            inputs = step_inputs(frames, probe, geom)
            assert shift_consistency(frames, probe, geom, transparency, *inputs) == 0.0

    @FORMS
    def test_gates_score_zero_on_a_nan_canvas(self, rng, form):
        geom, probe, obj, frames = consistent_instance(rng, 8, 4, 10)
        coverage, adjoint, canvas, work = step_inputs(frames, probe, geom)
        transparency = estimated_transparency(frames, probe, geom, form)
        inputs = (coverage, adjoint, np.full_like(canvas, np.nan), work)
        assert shift_consistency(frames, probe, geom, transparency, *inputs) == 0.0

    @pytest.mark.parametrize("mode", ["rank1_global", "rank1_framewise"])
    @pytest.mark.parametrize("residue", ["noise", "consistent"])
    def test_a_stack_shifted_to_rounding_level_takes_the_power_step(self, rng, mode, residue):
        geom = raster(32, 8, 3, (8, 8))
        probe = rand_complex(rng, 8, 8)
        for scale in (1e-7, 1e-14):
            frames = transparent_stack(probe, geom) + scale * residue_stack(rng, geom, probe, residue)
            stepped, engaged, events = probe_step(frames, probe, geom, mode)
            want = update_probe_power(frames, geom, *step_inputs(frames, probe, geom)[1:])
            assert stepped.tobytes() == want.tobytes()
            assert not engaged and events == []


class TestOneWeight:
    """The per-frame gate and step weigh the shifted stack by one
    helper, ``solver._framewise_shift``, from window sums with the same
    bits, so the step finds usable what its gate found usable."""

    @pytest.mark.parametrize("layout", ["one chunk", "more chunks than slots"])
    def test_the_step_weighs_the_shifted_stack_as_its_gate_did(self, monkeypatch, layout):
        geom, probe, init, amps = wrapping_instance()
        if layout != "one chunk":
            monkeypatch.setattr(_passes, "_CHUNK_BYTES", 1)
            monkeypatch.setattr(_passes, "_usable_cores", lambda: 2)
            chunks = len(_passes._frame_edges(geom.K, 16 * geom.m**2)) - 1
            assert chunks > _passes._in_flight(chunks) == 3
        calls, callers = [], []
        weigh = solver._framewise_shift

        def recorded(*args):
            weight, usable, cross, scaled = weigh(*args)
            calls.append((callers[-1], np.float64(weight).tobytes(), usable))
            return weight, usable, cross, scaled

        for name in ("shift_consistency", "update_probe_rank1"):

            def called(*args, _step=getattr(solver, name), _name=name):
                callers.append(_name)
                return _step(*args)

            monkeypatch.setattr(solver, name, called)
        monkeypatch.setattr(solver, "_framewise_shift", recorded)
        cfg = SolverConfig(probe_mode="rank1_framewise", max_iters=30)
        run_reconstruction(amps, geom, init, cfg, probe_true=probe)
        steps = [i for i, (caller, _, _) in enumerate(calls) if caller == "update_probe_rank1"]
        assert len(steps) >= 2 and len(calls) > len(steps) * 2
        for i in steps:
            assert calls[i - 1][0] == "shift_consistency"
            assert calls[i][1:] == calls[i - 1][1:] and calls[i][2]


def rank1_step(frames, probe, geom, transparency):
    """``update_probe_rank1`` on fresh step inputs."""
    return update_probe_rank1(frames, probe, geom, transparency, *step_inputs(frames, probe, geom))


def estimated_transparency(frames, probe, geom, form):
    if form == "global":
        return transparency_global(illuminate_adjoint(frames, probe, geom), probe, geom)
    return transparency_framewise(frames, probe, geom)


class TestClosedFormStep:
    """The shifted step forms no shifted stack; it is still the power
    step of the shifted stack."""

    @FORMS
    @pytest.mark.parametrize("stack", ["random", "consistent", "weak-contrast"])
    def test_matches_the_stack_formed_step(self, rng, form, stack):
        for _ in range(4):
            if stack == "random":
                geom = random_geometry(rng, 8, 4, 6)
                frames = rand_complex(rng, geom.K, 4, 4)
                probe = rand_complex(rng, 4, 4)
                transparency = rand_complex(rng, geom.K)
                if form == "global":
                    transparency = complex(transparency[0])
            else:
                if stack == "consistent":
                    geom, probe, obj, frames = consistent_instance(rng, 8, 4, 10)
                else:
                    # A residue about a tenth of the stack: the closed
                    # form loses two of its digits.
                    geom = raster(32, 8, 3, (8, 8))
                    probe = rand_complex(rng, 8, 8)
                    obj = 0.8 - 0.3j + 0.1 * rand_complex(rng, 32, 32)
                    frames = illuminate(obj, probe, geom) + 1e-2 * rand_complex(rng, geom.K, 8, 8)
                transparency = estimated_transparency(frames, probe, geom, form)
            got = rank1_step(frames, probe, geom, transparency)
            want = stack_formed_step(frames, probe, geom, transparency)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
