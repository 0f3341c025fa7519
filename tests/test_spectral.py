import numpy as np
import pytest

from fedfft.spectral import (
    DegenerateSample,
    dft_naive,
    fft,
    kde_density,
    kde_density_direct,
    magnitudes,
)


class TestDftNaive:
    def test_length_one(self):
        assert dft_naive([3.5]).tolist() == [3.5 + 0j]

    def test_constant_signal(self):
        out = dft_naive([1.0, 1.0, 1.0, 1.0])
        assert out[0] == pytest.approx(4.0)
        assert np.allclose(out[1:], 0.0, atol=1e-12)

    def test_hand_evaluated_n4(self):
        out = dft_naive([1.0, 2.0, 3.0, 4.0])
        expected = np.array([10.0, -2.0 + 2.0j, -2.0, -2.0 - 2.0j])
        assert np.allclose(out, expected, atol=1e-12)


class TestFft:
    def test_matches_naive_all_small_lengths(self):
        rng = np.random.default_rng(0)
        for n in range(1, 129):
            x = rng.normal(size=n)
            assert np.max(np.abs(fft(x) - dft_naive(x))) < 1e-9

    def test_power_of_two_constant(self):
        out = fft(np.full(16, 2.5))
        assert out[0] == pytest.approx(40.0, abs=1e-9)
        assert np.max(np.abs(out[1:])) < 1e-9

    def test_prime_length_257(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=257)
        assert np.max(np.abs(fft(x) - dft_naive(x))) < 1e-9

    def test_linearity(self):
        rng = np.random.default_rng(2)
        for n in (5, 8, 21):
            x, y = rng.normal(size=n), rng.normal(size=n)
            a, b = 2.25, -0.75
            lhs = fft(a * x + b * y)
            rhs = a * fft(x) + b * fft(y)
            assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_parseval(self):
        rng = np.random.default_rng(3)
        for n in (7, 16, 100):
            x = rng.normal(size=n)
            time_energy = np.sum(x * x)
            freq_energy = np.sum(np.abs(fft(x)) ** 2) / n
            assert freq_energy == pytest.approx(time_energy, rel=1e-9)

    def test_leading_axes_match_naive_and_1d(self):
        rng = np.random.default_rng(7)
        for n in (1, 16, 20):
            x = rng.normal(size=(5, n))
            out = fft(x)
            assert out.shape == (5, n)
            for row, got in zip(x, out):
                assert np.max(np.abs(got - dft_naive(row))) < 1e-12
                assert np.array_equal(got, fft(row))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            fft(np.array([]))


class TestMagnitudes:
    def test_hand_value(self):
        assert magnitudes([3.0 + 4.0j]).tolist() == [5.0]

    def test_zero(self):
        assert magnitudes(np.zeros(4, dtype=complex)).tolist() == [0.0] * 4

    def test_real_input_symmetry(self):
        x = np.random.default_rng(4).normal(size=9)
        m = magnitudes(fft(x))
        for k in range(1, 9):
            assert m[k] == pytest.approx(m[9 - k], abs=1e-9)


class TestKdeDensity:
    def test_symmetric_sample_symmetric_density(self):
        sample = np.array([-2.0, -1.0, -0.25, 0.25, 1.0, 2.0])
        est = kde_density(sample, 255)
        assert np.max(np.abs(est.density - est.density[::-1])) < 1e-9

    def test_two_equal_clusters_equal_peaks(self):
        cluster = np.array([-0.05, -0.02, 0.0, 0.02, 0.05])
        sample = np.concatenate([cluster - 3.0, cluster + 3.0])
        est = kde_density(sample, 256)
        mid = len(est.grid) // 2
        left = est.density[:mid].max()
        right = est.density[mid:].max()
        assert left == pytest.approx(right, rel=1e-6)

    def test_matches_direct_sum_oracle(self):
        rng = np.random.default_rng(5)
        for trial in range(40):
            n = int(rng.integers(2, 65))
            if trial % 3 == 0:
                sample = rng.normal(0.0, rng.uniform(0.3, 3.0), n)
            elif trial % 3 == 1:
                sample = rng.uniform(-5.0, 5.0, n)
            else:
                half = max(1, n // 2)
                sample = np.concatenate(
                    [rng.normal(-2.0, 0.4, half), rng.normal(2.0, 0.4, n - half)]
                )
            if np.all(sample == sample[0]):
                continue
            est = kde_density(sample, 256)
            ref = kde_density_direct(sample, est.grid)
            assert np.max(np.abs(est.density - ref) / ref) < 1e-6

    def test_integrates_to_one(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            sample = rng.normal(size=int(rng.integers(8, 50)))
            est = kde_density(sample, 256)
            assert np.trapezoid(est.density, est.grid) == pytest.approx(1.0, abs=0.02)

    def test_degenerate_sample(self):
        with pytest.raises(DegenerateSample):
            kde_density([1.0])
        with pytest.raises(DegenerateSample):
            kde_density([2.0, 2.0, 2.0])

    def test_grid_spans_three_bandwidths(self):
        sample = np.array([0.0, 1.0, 2.0, 4.0])
        est = kde_density(sample, 128)
        assert est.grid[0] == pytest.approx(0.0 - 3.0 * est.bandwidth)
        assert est.grid[-1] == pytest.approx(4.0 + 3.0 * est.bandwidth)
