import numpy as np
import pytest

from fedfft.fft_aggregator import EmptyVector, FftStrategy, fft_aggregate, fft_select
from fedfft.spectral import kde_density_direct, silverman_bandwidth
from fedfft.tensors import ClientUpdate, ModelWeights

LITERAL = FftStrategy(kind="literal")
KDE = FftStrategy(kind="kde")


def updates_from_matrix(mat):
    return [ClientUpdate(k, ModelWeights([row]), 1) for k, row in enumerate(np.asarray(mat, float))]


class TestFftSelect:
    def test_unanimous(self):
        for strategy in (LITERAL, KDE):
            assert fft_select(np.full(4, 3.25), strategy) == (3.25, 0)

    def test_single_value(self):
        assert fft_select(np.array([9.0]), KDE) == (9.0, 0)

    def test_empty_vector(self):
        with pytest.raises(EmptyVector):
            fft_select(np.array([]), KDE)

    def test_literal_hand_case(self):
        # bins 1..3 of sorted [1,2,3,4] have magnitudes (2.828, 2, 2.828);
        # the tie goes to bin 1, which maps to sorted value 2 held by client 1
        value, client = fft_select(np.array([1.0, 2.0, 3.0, 4.0]), LITERAL)
        assert value == 2.0
        assert client == 1

    def test_literal_include_dc_picks_bin_zero(self):
        value, _ = fft_select(np.array([1.0, 2.0, 3.0, 4.0]), FftStrategy(kind="literal", include_dc=True))
        assert value == 1.0  # bin 0 dominates for one-signed data

    def test_kde_cluster_beats_outlier(self):
        v = np.concatenate([np.linspace(-0.01, 0.01, 9), [50.0]])
        value, client = fft_select(v, KDE)
        assert -0.01 <= value <= 0.01
        assert client < 9

    def test_duplicate_values_report_lowest_client(self):
        value, client = fft_select(np.array([5.0, 1.0, 1.0, 1.0, 5.0]), KDE)
        assert value == 1.0
        assert client == 1


class TestFftAggregate:
    def test_identical_clients(self):
        ups = updates_from_matrix([[1.0, -2.0, 0.5]] * 5)
        for strategy in (LITERAL, KDE):
            assert fft_aggregate(ups, strategy) == ups[0].weights

    def test_single_client(self):
        ups = updates_from_matrix([[3.0, 4.0]])
        assert fft_aggregate(ups, KDE) == ups[0].weights

    def test_kde_rejects_constant_block_attack(self):
        rng = np.random.default_rng(0)
        benign = rng.normal(0.0, 0.01, size=(14, 6))
        mal = np.full((6, 6), 10.0)
        ups = updates_from_matrix(np.vstack([benign, mal]))
        out = fft_aggregate(ups, KDE).layers[0]
        assert np.all(out >= benign.min(axis=0))
        assert np.all(out <= benign.max(axis=0))

    def test_every_output_is_a_submitted_value(self):
        rng = np.random.default_rng(1)
        mat = rng.normal(size=(7, 9))
        ups = updates_from_matrix(mat)
        for strategy in (LITERAL, KDE):
            out = fft_aggregate(ups, strategy).layers[0]
            for i in range(9):
                assert out[i] in mat[:, i]

    def test_aggregate_matches_per_coordinate_select(self):
        rng = np.random.default_rng(2)
        mat = rng.normal(size=(6, 11))
        ups = updates_from_matrix(mat)
        for strategy in (LITERAL, KDE):
            out = fft_aggregate(ups, strategy).layers[0]
            for i in range(11):
                assert out[i] == fft_select(mat[:, i], strategy).value

    def test_extreme_outlier_does_not_raise(self):
        # a value near the top of the float range must not break the kde's
        # grid arithmetic; only support is checked, not an honest pick
        rng = np.random.default_rng(7)
        mat = rng.normal(0.0, 0.01, size=(50, 12))
        mat[3, 0] = 1e150
        mat[3, 1:4] = 1e3
        ups = updates_from_matrix(mat)
        for strategy in (LITERAL, KDE):
            out = fft_aggregate(ups, strategy).layers[0]
            for i in range(12):
                assert out[i] in mat[:, i]


class TestKdeModeProperties:
    def test_outlier_rejection_100_of_100(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            k = int(rng.integers(8, 25))
            inliers = max(int(np.ceil(0.6 * k)), 1 + k // 2)
            width = float(rng.uniform(0.01, 1.0))
            center = float(rng.normal(0.0, 5.0))
            sign = rng.choice([-1.0, 1.0])
            cluster = center + rng.uniform(-width / 2, width / 2, inliers)
            far = center + sign * (20.0 * width + rng.uniform(0, 5 * width, k - inliers))
            v = np.concatenate([cluster, far])
            value, _ = fft_select(v, KDE)
            assert cluster.min() <= value <= cluster.max()

    def test_translation_equivariance(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            v = rng.normal(size=12)
            shift = float(rng.normal(0.0, 10.0))
            base = fft_select(v, KDE).value
            moved = fft_select(v + shift, KDE).value
            h = silverman_bandwidth(v)
            grid_step = (v.max() - v.min() + 6.0 * h) / (KDE.grid_size - 1)
            assert abs(moved - (base + shift)) <= grid_step + 1e-9

    def test_determinism(self):
        rng = np.random.default_rng(5)
        mat = rng.normal(size=(9, 8))
        ups = updates_from_matrix(mat)
        a = fft_aggregate(ups, KDE)
        b = fft_aggregate(updates_from_matrix(mat), KDE)
        assert a == b

    def test_kde_mode_matches_direct_density_argmax(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            v = rng.normal(size=15)
            value, _ = fft_select(v, KDE)
            h = silverman_bandwidth(v)
            grid = np.linspace(v.min() - 3 * h, v.max() + 3 * h, KDE.grid_size)
            direct_mode = grid[int(np.argmax(kde_density_direct(v, grid)))]
            assert value == v[int(np.argmin(np.abs(v - direct_mode)))]
