import numpy as np
import pytest

from fedfft.oracles import dft_naive
from fedfft.spectral import (
    DegenerateSample,
    fft,
    kde_density,
    silverman_bandwidth,
    sorted_silverman_bandwidth,
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
    def test_power_of_two_constant(self):
        out = fft(np.full(16, 2.5))
        assert out[0] == pytest.approx(40.0, abs=1e-9)
        assert np.max(np.abs(out[1:])) < 1e-9

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
        for rows, n in ((5, 1), (5, 16), (5, 20), (5, 50), (5, 97), (37, 50)):
            x = rng.normal(size=(rows, n))
            out = fft(x)
            assert out.shape == (rows, n)
            for row, got in zip(x, out):
                assert np.max(np.abs(got - dft_naive(row))) < 1e-12
                assert np.array_equal(got, fft(row))

    def test_out_receives_the_same_result(self):
        rng = np.random.default_rng(8)
        for shape in ((1,), (50,), (37, 50), (3, 4, 21)):
            x = rng.normal(size=shape)
            out = np.full(shape, np.nan + 0j)
            got = fft(x, out=out)
            assert got is out or np.shares_memory(got, out)
            assert np.array_equal(out, fft(x))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            fft(np.array([]))


class TestMagnitudes:
    def test_real_input_symmetry(self):
        x = np.random.default_rng(4).normal(size=9)
        m = np.abs(fft(x))
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


def percentile_silverman(sample, axis=-1):
    """Silverman's rule with the quartiles from ``np.percentile``: the oracle."""
    sample = np.asarray(sample, dtype=np.float64)
    sd = np.std(sample, axis=axis)
    q75, q25 = np.percentile(sample, [75.0, 25.0], axis=axis)
    iqr = q75 - q25
    spread = np.where(iqr > 0, np.minimum(sd, iqr / 1.34), sd)
    h = 0.9 * spread * sample.shape[axis] ** (-0.2)
    return float(h) if h.ndim == 0 else h


class TestSilvermanBandwidth:
    def test_matches_percentile_quartiles_bit_for_bit(self):
        rng = np.random.default_rng(30)
        for trial in range(3000):
            rows, n = int(rng.integers(1, 12)), int(rng.integers(1, 60))
            kind = trial % 6
            batch = rng.normal(size=(rows, n))
            if kind == 1:
                batch = np.round(batch, 1)  # ties
            elif kind == 2:
                batch[::2] = batch[::2, :1]  # unanimous rows
            elif kind == 3:
                batch[:, : n // 4] = 1.7e308 * np.sign(rng.normal(size=(rows, n // 4)))
            elif kind == 4:
                batch = rng.integers(-3, 4, size=(rows, n)) * 5e-324  # subnormals
            elif kind == 5:
                batch *= 10.0 ** rng.integers(-300, 300, size=(rows, 1))
            with np.errstate(over="ignore", invalid="ignore"):
                got = silverman_bandwidth(batch, axis=1)
                want = percentile_silverman(batch, axis=1)
                assert np.array_equal(got, want, equal_nan=True), trial
                got_t = silverman_bandwidth(batch.T, axis=0)
                assert np.array_equal(got_t, want, equal_nan=True), trial
                s = np.sort(batch, axis=1)  # the sorted entry point, as kde calls it
                got_s = sorted_silverman_bandwidth(s, np.std(s, axis=1))
                assert np.array_equal(got_s, percentile_silverman(s, axis=1), equal_nan=True), trial
                for row in batch[:2]:
                    one = silverman_bandwidth(row)
                    assert isinstance(one, float)
                    assert np.array_equal(one, percentile_silverman(row), equal_nan=True), trial
