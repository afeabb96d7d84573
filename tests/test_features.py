"""Feature-file container, Sobol sequence, and k-means clustering."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from videograph.features import FeatureFileError, read_feature_file, write_feature_file
from videograph.kmeans import kmeans, kmeans_objective
from videograph.sobol import MAX_DIMENSION, SobolSequence, _direction_integers


class TestFeatureFile:
    def test_round_trip_is_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        original = rng.normal(size=(4, 1, 1, 8)).astype(np.float32).astype(np.float64)
        path = tmp_path / "clip.vgft"
        write_feature_file(path, original)
        loaded = read_feature_file(path)
        np.testing.assert_array_equal(loaded, original)
        path2 = tmp_path / "clip2.vgft"
        write_feature_file(path2, loaded)
        assert path.read_bytes() == path2.read_bytes()

    def test_bad_magic_names_offset_zero(self, tmp_path):
        path = tmp_path / "clip.vgft"
        write_feature_file(path, np.zeros((1, 1, 1, 2)))
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(FeatureFileError, match="offset 0"):
            read_feature_file(path)

    def test_truncation_reports_expected_vs_actual(self, tmp_path):
        path = tmp_path / "clip.vgft"
        write_feature_file(path, np.zeros((2, 1, 1, 3)))
        blob = path.read_bytes()
        path.write_bytes(blob[:-4])
        with pytest.raises(FeatureFileError, match="expected 6"):
            read_feature_file(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "clip.vgft"
        write_feature_file(path, np.zeros((1, 1, 1, 1)))
        blob = bytearray(path.read_bytes())
        blob[4] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(FeatureFileError, match="version"):
            read_feature_file(path)

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_any_single_payload_byte_corruption_detected(self, seed):
        import tempfile, os
        rng = np.random.default_rng(seed)
        arr = rng.normal(size=(2, 1, 1, 4))
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "clip.vgft")
            write_feature_file(path, arr)
            blob = bytearray(open(path, "rb").read())
            header = 22
            idx = header + int(rng.integers(len(blob) - header - 4))
            blob[idx] ^= 0xFF
            open(path, "wb").write(bytes(blob))
            with pytest.raises(FeatureFileError):
                read_feature_file(path)

    def test_non_finite_write_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="non-finite"):
            write_feature_file(tmp_path / "x.vgft", np.full((1, 1, 1, 1), np.inf))

    # a (16, 4, 4, 256) payload: N = 65536 float32 values, 256 KiB
    PAYLOAD_SHAPE = (16, 4, 4, 256)

    def test_read_holds_one_float32_copy(self, tmp_path):
        path = tmp_path / "clip.vgft"
        write_feature_file(path, np.random.default_rng(0).normal(size=self.PAYLOAD_SHAPE))
        payload = 4 * int(np.prod(self.PAYLOAD_SHAPE))
        tracemalloc.start()
        try:
            loaded = read_feature_file(path)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded.dtype == np.float32 and loaded.shape == self.PAYLOAD_SHAPE
        assert peak <= 1.5 * payload
        assert payload <= retained <= payload + 4096

    def test_write_holds_at_most_one_float32_copy(self, tmp_path):
        features = np.random.default_rng(0).normal(size=self.PAYLOAD_SHAPE)
        payload = 4 * features.size
        tracemalloc.start()
        try:
            write_feature_file(tmp_path / "clip.vgft", features)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * payload


def reference_sobol_1d(count):
    """Independent oracle: natural-order radical construction.

    The gray-code sequence at index i equals the natural-order point at
    gray(i) = i ^ (i >> 1), with x_j = XOR of direction numbers selected by
    the bits of j.
    """
    v = [1 << (31 - k) for k in range(32)]  # m_k = 1 for the first dimension
    points = []
    for i in range(1, count + 1):
        j = i ^ (i >> 1)
        acc = 0
        for bit in range(32):
            if (j >> bit) & 1:
                acc ^= v[bit]
        points.append(acc / 2.0 ** 32)
    return points


class TestSobol:
    def test_first_eight_1d_points_match_reference(self):
        seq = SobolSequence(1)
        mine = [seq.next_point()[0] for _ in range(8)]
        assert mine == reference_sobol_1d(8)
        assert mine == [0.5, 0.75, 0.25, 0.375, 0.875, 0.625, 0.125, 0.1875]

    def test_first_2d_point(self):
        assert SobolSequence(2).next_point().tolist() == [0.5, 0.5]

    @pytest.mark.parametrize("m", [2, 3, 4, 6])
    def test_first_power_of_two_block_is_the_binary_net(self, m):
        # with the zero point skipped, the first 2^m - 1 one-dimensional
        # points are exactly the dyadic grid {k / 2^m}, in bit-reversed
        # gray-code order; the next point refines to denominator 2^(m+1)
        pts = SobolSequence(1).take(2 ** m).ravel().tolist()
        assert sorted(pts[:2 ** m - 1]) == [k / 2 ** m for k in range(1, 2 ** m)]
        last = pts[-1] * 2 ** (m + 1)
        assert last == round(last) and round(last) % 2 == 1

    @given(st.integers(1, MAX_DIMENSION), st.integers(1, 200))
    @settings(max_examples=25, deadline=None)
    def test_all_coordinates_in_unit_interval(self, d, count):
        pts = SobolSequence(d).take(count)
        assert np.all((pts >= 0.0) & (pts < 1.0))

    def test_dimension_beyond_table_rejected(self):
        with pytest.raises(ValueError, match="exceeds the bundled"):
            SobolSequence(MAX_DIMENSION + 1)

    def test_matches_scipy_reference_implementation(self):
        qmc = pytest.importorskip("scipy.stats.qmc")
        for d in (1, 2, 7, 23, 64):
            ref = qmc.Sobol(d=d, scramble=False).random_base2(8)[1:]
            mine = SobolSequence(d).take(255)
            np.testing.assert_array_equal(mine, ref)

    def test_direction_integers_are_odd_scaled(self):
        # every m_k is odd, so v_k has its (31-k)-th bit set
        for dim in (0, 1, 5, 63):
            v = _direction_integers(dim)
            for k, value in enumerate(v):
                assert (int(value) >> (31 - k)) & 1 == 1


class TestKmeans:
    def test_k_equals_one_gives_global_mean(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(50, 3))
        out = kmeans(pts, 1, seed=0)
        np.testing.assert_allclose(out[0], pts.mean(axis=0), atol=1e-12)

    def test_two_blobs(self):
        rng = np.random.default_rng(1)
        blob = np.full(5, 10.0)
        pts = np.concatenate([rng.normal(0, 0.1, size=(60, 5)) + blob,
                              rng.normal(0, 0.1, size=(60, 5)) - blob])
        cents = kmeans(pts, 2, seed=3)
        cents = cents[np.argsort(cents[:, 0])]
        np.testing.assert_allclose(cents[0], -blob, atol=0.2)
        np.testing.assert_allclose(cents[1], blob, atol=0.2)

    def test_objective_non_increasing_across_iterations(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(80, 4))
        prev = np.inf
        for iters in range(1, 12):
            obj = kmeans_objective(pts, kmeans(pts, 5, seed=7, max_iters=iters))
            assert obj <= prev + 1e-9
            prev = obj

    def test_seed_stability(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(40, 2))
        np.testing.assert_array_equal(kmeans(pts, 4, seed=11), kmeans(pts, 4, seed=11))

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="M >= k"):
            kmeans(np.zeros((2, 3)), 5)
