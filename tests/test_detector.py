import math
import sys
import threading
import warnings
from statistics import NormalDist

import numpy as np
import pytest

from fedfft import detector, tensors
from fedfft.adversary import ATTACK_RANDOM_WEIGHTS, AttackSpec, apply_attack
from fedfft.detector import (
    DECISION_FEDAVG,
    DECISION_FFT,
    DetectorConfig,
    EmptySample,
    SubsetTooLarge,
    dynamic_aggregate,
    gaussian_ks_statistic,
    ks_pvalue,
    ks_statistic,
    ks_test,
    mal_test,
    _kolmogorov_sf,
)
from fedfft.fft_aggregator import FftStrategy, fft_aggregate
from fedfft.oracles import (
    floyd_held_out,
    gaussian_ks_distance,
    kolmogorov_dual_series,
    kolmogorov_series,
    ks_draw_scores,
    left_to_right_sum,
)
from fedfft.tensors import ClientUpdate, ModelWeights


def updates_from_matrix(mat, size=1):
    return [
        ClientUpdate(k, ModelWeights([row]), size)
        for k, row in enumerate(np.asarray(mat, float))
    ]


def one_stream_scores(mat, cfg, rng):
    """Scores of the columns of a (K, n) matrix, every draw from one generator."""
    uniforms = rng.random((mat.shape[1], cfg.repetitions, cfg.subset_size))
    return detector._coordinate_scores(mat.T, cfg, uniforms)


class TestKsStatistic:
    def test_identical_samples(self):
        assert ks_statistic([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_disjoint_supports(self):
        assert ks_statistic([0.0, 1.0], [10.0, 11.0]) == 1.0

    def test_hand_case(self):
        assert ks_statistic([1, 2, 3, 4], [2, 3, 4, 5]) == 0.25

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.normal(size=rng.integers(1, 10))
            b = rng.normal(size=rng.integers(1, 10))
            assert ks_statistic(a, b) == ks_statistic(b, a)

    def test_empty_sample(self):
        with pytest.raises(EmptySample):
            ks_statistic([], [1.0])


class TestKsPvalue:
    def test_zero_distance(self):
        assert ks_pvalue(0.0, 10, 10) == 1.0

    def test_full_distance_tiny_p(self):
        assert ks_pvalue(1.0, 50, 50) < 1e-10

    def test_series_value_at_lambda_1358(self):
        assert _kolmogorov_sf(1.358) == pytest.approx(0.050, abs=0.002)

    def test_monotone_in_distance(self):
        last = 1.1
        for d in np.linspace(0.0, 1.0, 21):
            p = ks_pvalue(float(d), 8, 12)
            assert p <= last + 1e-15
            last = p

    def test_clamped_to_unit_interval(self):
        for d in (0.0, 0.3, 1.0):
            assert 0.0 <= ks_pvalue(d, 3, 4) <= 1.0

    def test_ks_test_wrapper(self):
        res = ks_test([1, 2, 3, 4], [2, 3, 4, 5])
        assert res.statistic == 0.25
        assert res.p_value == ks_pvalue(0.25, 4, 4)


class TestGaussianKs:
    def test_clean_sample_close_to_own_fit(self):
        rng = np.random.default_rng(2)
        sample = rng.normal(3.0, 2.0, 200)
        d = gaussian_ks_statistic(sample, float(sample.mean()), float(sample.std()))
        assert d < 0.08

    def test_planted_mass_far_from_fit(self):
        sample = np.concatenate([np.random.default_rng(3).normal(0, 0.01, 14), np.full(6, 5.0)])
        d = gaussian_ks_statistic(sample, float(sample.mean()), float(sample.std()))
        assert d > 0.3

    def test_degenerate_sigma(self):
        assert gaussian_ks_statistic(np.array([2.0, 2.0]), 2.0, 0.0) == 0.0
        assert gaussian_ks_statistic(np.array([2.0, 3.0]), 2.0, 0.0) == 1.0
        # the same rows inside a batch, next to a regular one
        batch = np.array([[2.0, 2.0], [2.0, 3.0], [2.0, 3.0]])
        got = gaussian_ks_statistic(batch, np.array([2.0, 2.0, 2.5]), np.array([0.0, -1.0, 0.5]))
        assert got[0] == 0.0 and got[1] == 1.0
        assert got[2] == gaussian_ks_statistic(batch[2], 2.5, 0.5)

    def test_degenerate_rows_evaluate_no_cdf(self, monkeypatch):
        # math.erf runs once per value, so flat draws (all clients equal)
        # must not pay for a CDF their score does not read
        calls = []
        erf = detector._erf
        monkeypatch.setattr(detector, "_erf", lambda z: calls.append(z.size) or erf(z))
        batch = np.zeros((5, 40))
        batch[4] = np.arange(40.0)
        sigma = np.array([0.0, 0.0, -1.0, 0.0, 1.0])
        got = gaussian_ks_statistic(batch, batch.mean(axis=-1), sigma)
        assert sum(calls) == 40
        assert np.array_equal(got[:4], np.zeros(4))

    def test_batch_rows_match_1d_call(self):
        rng = np.random.default_rng(5)
        batch = rng.normal(0.0, 1.0, (6, 4, 15))
        mu = batch.mean(axis=-1)
        sigma = batch.std(axis=-1)
        got = gaussian_ks_statistic(batch, mu, sigma)
        assert got.shape == (6, 4)
        for idx in np.ndindex(6, 4):
            assert got[idx] == gaussian_ks_statistic(batch[idx], mu[idx], sigma[idx])

    def test_tied_deviations_match_1d_call_and_math_erf(self):
        # repeated values and mirrored samples give rows whose largest
        # deviation is reached at several positions
        rng = np.random.default_rng(31)
        rows = []
        for n in (2, 5, 12, 45):
            half = rng.normal(size=(n + 1) // 2)
            rows.append(np.concatenate([half, -half])[:n])
            rows.append(np.round(rng.normal(size=n)))
            rows.append(np.repeat(rng.normal(size=2), (n + 1) // 2)[:n])
            rows.append(np.where(np.arange(n) % 2 == 0, -1.0, 1.0))
        for row in rows:
            batch = np.stack([row, row[::-1], -row])
            mu = np.array([row.mean(), 0.0, -row.mean()])
            sigma = np.array([row.std(), 1.0, row.std()])
            got = gaussian_ks_statistic(batch, mu, sigma)
            for r in range(3):
                assert got[r] == gaussian_ks_statistic(batch[r], mu[r], sigma[r])
                assert got[r] == gaussian_ks_distance(batch[r], mu[r], sigma[r])


class TestKolmogorovSf:
    def test_array_matches_scalar_calls(self):
        lams = np.concatenate(
            [[0.0, 1e-4, 9.99e-4, 1e-3, 0.01, 0.3, 1.358, 3.0, 10.0], np.linspace(0.0, 2.5, 60)]
        )
        got = _kolmogorov_sf(lams)
        assert got.shape == lams.shape
        for lam, q in zip(lams, got):
            assert q == _kolmogorov_sf(float(lam))
        assert np.all(got[lams < 1e-3] == 1.0)

    def test_small_lambda_uses_theta_series(self):
        # the alternating series needs thousands of terms here; the old
        # 1,000-term cap gave 0.9113 at 0.0011 and 0.99967 at 0.002
        assert abs(_kolmogorov_sf(0.0011) - 1.0) <= 1e-15
        assert abs(_kolmogorov_sf(0.002) - 1.0) <= 1e-15
        for lam in np.concatenate([np.geomspace(1e-3, 0.49, 40), [0.499999]]):
            assert abs(_kolmogorov_sf(float(lam)) - kolmogorov_dual_series(float(lam))) <= 2e-16

    def test_large_lambda_uses_alternating_series(self):
        for lam in np.concatenate([[0.5], np.linspace(0.5, 3.0, 60)]):
            assert abs(_kolmogorov_sf(float(lam)) - max(0.0, kolmogorov_series(float(lam)))) <= 2e-16

    def test_series_agree_at_and_above_crossover(self):
        assert detector._KOLMOGOROV_CROSSOVER <= 0.5
        for lam in np.linspace(0.5, 1.5, 101):
            lam = float(lam)
            assert abs(kolmogorov_series(lam) - kolmogorov_dual_series(lam)) <= 1e-15
            assert abs(_kolmogorov_sf(lam) - kolmogorov_dual_series(lam)) <= 1e-15

    def test_nan_lambda_gives_zero(self):
        assert _kolmogorov_sf(float("nan")) == 0.0


class TestMalTest:
    def make_updates(self, rng, attack_constant=None):
        mat = rng.normal(0.0, 1.0, size=(20, 100))
        if attack_constant is not None:
            mat[:6, :] = attack_constant
        return updates_from_matrix(mat)

    def test_identical_updates_score_zero(self):
        ups = updates_from_matrix(np.ones((6, 10)))
        scores = mal_test(ups, DetectorConfig(subset_size=2), seed=0)
        assert np.all(scores == 0.0)

    def test_benign_scores_stay_below_null_bound(self):
        rng = np.random.default_rng(10)
        scores = mal_test(self.make_updates(rng), DetectorConfig(), seed=1)
        assert scores.shape == (100,)
        assert float(np.mean(scores)) <= 0.05 + 0.05

    def test_constant_block_attack_scores_high(self):
        rng = np.random.default_rng(11)
        scores = mal_test(self.make_updates(rng, attack_constant=50.0), DetectorConfig(), seed=1)
        assert float(np.mean(scores)) >= 0.5

    def test_determinism(self):
        rng = np.random.default_rng(12)
        ups = self.make_updates(rng)
        a = mal_test(ups, DetectorConfig(), seed=7)
        b = mal_test(ups, DetectorConfig(), seed=7)
        assert np.array_equal(a, b)

    def test_subset_too_large(self):
        ups = updates_from_matrix(np.random.default_rng(0).normal(size=(4, 3)))
        with pytest.raises(SubsetTooLarge):
            mal_test(ups, DetectorConfig(subset_size=4), seed=0)

    def test_scores_do_not_depend_on_chunk_size(self, monkeypatch):
        rng = np.random.default_rng(13)
        mat = rng.normal(0.0, 1.0, size=(20, 100))
        mat[:6, ::3] = 50.0  # some contaminated coordinates, so scores vary
        ups = [
            ClientUpdate(k, ModelWeights([row[:60].reshape(6, 10), row[60:]]), 1)
            for k, row in enumerate(mat)
        ]
        default = mal_test(ups, DetectorConfig(), seed=3)
        assert default.shape == (100,) and np.ptp(default) > 0
        for chunk in (1, 1 << 40):
            monkeypatch.setattr(detector, "_SCORE_CHUNK", chunk)
            assert np.array_equal(mal_test(ups, DetectorConfig(), seed=3), default)

    def test_band_matches_exact_per_draw_decisions(self):
        rng = np.random.default_rng(40)
        levels = (1e-6, 0.01, 0.05, 0.2, 0.5, 0.9, 0.97, 0.999)
        for trial in range(240):
            K = int(rng.integers(3, 61))
            cfg = DetectorConfig(
                repetitions=int(rng.integers(1, 9)),
                subset_size=int(rng.integers(1, K)),
                reject_level=levels[trial % len(levels)],
            )
            mat = fuzz_matrix(rng, trial % 8, K, int(rng.integers(1, 30)))
            seed = int(rng.integers(1 << 30))
            got = one_stream_scores(mat, cfg, np.random.default_rng(seed))
            want = ks_draw_scores(mat, cfg, np.random.default_rng(seed))
            assert np.array_equal(got, want), (trial, K, cfg)
            if trial % 8 in (0, 1, 2, 5, 6):
                # near unit scale the scaling changes no bit of any draw
                unscaled = ks_draw_scores(mat, cfg, np.random.default_rng(seed), scaled=False)
                assert np.array_equal(got, unscaled), (trial, K, cfg)
        # the grid holds levels with no band: the p-value of 6 retained values
        # never falls to 1e-6, so every bound is infinite and decides nothing
        assert np.all(np.isinf(detector._critical_band(6, 1e-6)))
        assert np.isfinite(detector._critical_band(45, 0.05)).any()

    def test_band_leaves_degenerate_draws_open(self):
        band = detector._critical_band(10, 0.05)
        row = np.array([NormalDist().inv_cdf((i + 0.5) / 10) for i in range(10)])
        far = np.concatenate([row[:-1], [np.inf]])
        s = np.stack([row, row, row, row, far, np.zeros(10), np.full(10, np.inf), np.full(10, 0.3)])
        mu = np.array([0.0] * 7 + [0.3 + 2**-54])
        sigma = np.array([1.0, 0.0, np.inf, np.nan, 1.0, 0.0, 0.0, 1e-17])
        # the band takes one column per draw, and each draw's deviations
        reject, exact = detector._band_decisions(s.T.copy(), (s - mu[:, None]).T.copy(), sigma, band)
        # rows 1 and 5 are flat (sigma 0, finite values) and row 7 unanimous
        # (finite, equal values, with its mean an ulp off): decided here, and
        # rejected exactly when their values are not all equal
        assert exact.tolist() == [False, False, True, True, True, False, True, False]
        assert reject[[0, 1, 5, 7]].tolist() == [False, True, False, False]

    @pytest.mark.parametrize("zeros", ["all", "half"])
    def test_flat_draws_skip_the_exact_path(self, monkeypatch, zeros):
        # clients that send one value on many coordinates make every draw
        # there flat; the flat rule decides those draws as the exact path does
        rng = np.random.default_rng(46)
        mat = np.zeros((50, 120))
        if zeros == "half":
            mat[:, 60:] = rng.normal(0.0, 0.05, size=(50, 60))
            mat[:20, 100:] = rng.normal(0.0, 5.0, size=(20, 20))
        cfg = DetectorConfig()
        # no p-value of 45 values falls to 1e-300: a band that decides nothing
        empty = detector._critical_band(45, 1e-300)
        assert np.array_equal(empty, np.array([[-np.inf], [np.inf], [np.inf], [-np.inf]]).repeat(45, axis=1))
        monkeypatch.setattr(detector, "_critical_band", lambda n, level: empty)
        want = one_stream_scores(mat, cfg, np.random.default_rng(8))
        monkeypatch.undo()
        seen = spy_exact_path(monkeypatch)
        got = one_stream_scores(mat, cfg, np.random.default_rng(8))
        assert sum(seen) == 0
        assert np.array_equal(got, want)
        assert np.all(got[:60] == 0.0)
        assert zeros == "all" or np.all(got[100:] == 1.0)

    def test_band_decides_default_draws(self, monkeypatch):
        rng = np.random.default_rng(41)
        mat = rng.normal(0.0, 1.0, size=(50, 200))
        mat[:10, 100:] = rng.normal(0.0, 30.0, size=(10, 100))
        seen = spy_exact_path(monkeypatch)
        scores = mal_test(updates_from_matrix(mat), DetectorConfig(), seed=2)
        assert seen == []
        assert np.all(scores[100:] == 1.0)

    @pytest.mark.parametrize("margin", [0.02, 1.0])
    def test_exact_when_band_margin_widened(self, monkeypatch, margin):
        # a wide margin leaves many draws (0.02) or every draw (1.0, no band)
        # to the exact path, which must give the same scores
        rng = np.random.default_rng(42)
        mat = rng.normal(0.0, 1.0, size=(30, 120))
        mat[:8, 40:80] = 3.0
        mat[:, 80:] = np.round(mat[:, 80:], 1)
        cfg = DetectorConfig(subset_size=4)
        default = one_stream_scores(mat, cfg, np.random.default_rng(5))
        seen = spy_exact_path(monkeypatch)
        monkeypatch.setattr(detector, "_BAND_MARGIN", margin)
        detector._critical_band.cache_clear()
        try:
            widened = one_stream_scores(mat, cfg, np.random.default_rng(5))
        finally:
            detector._critical_band.cache_clear()
        assert np.array_equal(widened, default)
        assert sum(seen) >= (120 * cfg.repetitions if margin == 1.0 else 1)

    @pytest.mark.parametrize("attack", ["one-client-at-max-float", "ten-clients-at-1e154"])
    def test_no_client_routes_draws_to_exact_path(self, monkeypatch, attack):
        # squares of these values overflow; each draw is scored at unit scale,
        # so the band still decides it
        rng = np.random.default_rng(44)
        mat = rng.normal(size=(50, 120))
        if attack == "one-client-at-max-float":
            mat[0] = 1.7e308 * np.where(rng.random(120) < 0.5, -1.0, 1.0)
        else:
            mat[:10] = rng.normal(0.0, 1e154, size=(10, 120))
        seen = spy_exact_path(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scores = mal_test(updates_from_matrix(mat), DetectorConfig(), seed=6)
        assert sum(seen) == 0
        assert np.all((scores >= 0.0) & (scores <= 1.0))

    def test_subnormal_and_near_max_draws_score_as_at_unit_scale(self):
        # small integers times 2^-1074 are exact subnormals; the scale factor
        # must stay finite and normal at both ends of the float range
        rng = np.random.default_rng(45)
        mat = rng.integers(0, 4, size=(20, 60)).astype(float)
        mat[:6, ::3] = 3.0
        cfg = DetectorConfig()
        want = one_stream_scores(mat, cfg, np.random.default_rng(7))
        assert np.ptp(want) > 0
        for factor in (2.0**-1074, 2.0**1021):
            got = one_stream_scores(mat * factor, cfg, np.random.default_rng(7))
            assert np.array_equal(got, want), factor

    def test_no_warnings_on_degenerate_columns(self):
        rng = np.random.default_rng(43)
        mat = rng.normal(size=(12, 40))
        mat[:, :10] = rng.normal(size=10)  # unanimous, the mean often an ulp off
        mat[:, 10:20] = 0.0  # sigma exactly 0
        mat[:, 20:30] = np.round(mat[:, 20:30])  # ties
        mat[:6, 30:] = 1e-300  # tied with a tiny scale
        mat[6:, 30:] = -1e-300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scores = mal_test(updates_from_matrix(mat), DetectorConfig(subset_size=3), seed=4)
        assert np.all(scores[:20] == 0.0)

    @pytest.mark.parametrize("K", [8, 12, 20, 50])
    def test_unanimous_coordinates_score_zero(self, K):
        # the mean of equal values is often an ulp off them, so sigma > 0 and
        # a Gaussian of near-zero width would reject the draw
        values = np.random.default_rng(47).normal(0.0, 0.2, 2000)
        mat = np.broadcast_to(values, (K, values.size))
        cfg = DetectorConfig(subset_size=min(5, K - 7))
        assert np.all(mal_test(updates_from_matrix(mat), cfg, seed=K) == 0.0)


class TestHeldOutDraw:
    """Each draw holds out S ranks, picked by Floyd's algorithm from S uniforms."""

    def test_holds_out_exactly_s_ranks_as_floyd_does(self):
        rng = np.random.default_rng(70)
        for k in (2, 3, 6, 13, 50, 61):
            for size in sorted({1, k // 2, k - 1}):
                u = rng.random((300, size))
                u[:5] = 0.0
                u[5:10] = 1.0 - 2.0**-53
                keep = detector._retained_mask(u, k)
                assert keep.shape == (300, k)
                assert np.all(np.count_nonzero(~keep, axis=1) == size), (k, size)
                for row, draw in zip(keep, u):
                    assert set(np.flatnonzero(~row)) == floyd_held_out(draw, k)

    def test_every_subset_equally_likely(self):
        # K = 6, S = 2: 15 subsets over 60,000 draws, 4,000 expected each; the
        # chi-square bound is the 0.999 quantile at 14 degrees of freedom
        u = np.random.default_rng(71).random((60_000, 2))
        keep = detector._retained_mask(u, 6)
        codes = np.packbits(~keep, axis=1, bitorder="little")[:, 0]
        values, counts = np.unique(codes, return_counts=True)
        assert values.size == 15
        expected = u.shape[0] / 15
        assert float(np.sum((counts - expected) ** 2 / expected)) < 36.12

    def test_largest_uniform_stays_in_range(self):
        # u * (j + 1) rounds below j + 1 for the largest double below 1, so
        # each step takes j, the top rank it may reach
        top = 1.0 - 2.0**-53
        for k in (2, 3, 7, 50, 1001, 2**20 + 3):
            for size in sorted({1, min(5, k - 1), min(k - 1, 1000)}):
                keep = detector._retained_mask(np.full((1, size), top), k)
                assert np.array_equal(np.flatnonzero(~keep[0]), np.arange(k - size, k)), (k, size)

    def test_scores_do_not_depend_on_client_order(self):
        mat = layered_matrix(np.random.default_rng(72), k=30)
        mat[:, 100:110] = np.round(mat[:, 100:110])  # ties
        cfg = DetectorConfig()
        want = mal_test(layered_updates(mat), cfg, seed=11)
        assert np.ptp(want) > 0
        rng = np.random.default_rng(73)
        for order in [np.arange(30)[::-1]] + [rng.permutation(30) for _ in range(3)]:
            got = mal_test(layered_updates(mat[order]), cfg, seed=11)
            assert np.array_equal(got, want)


def spy_exact_path(monkeypatch):
    """A list that records the draw count of every exact-path batch."""
    seen = []
    statistic = detector.gaussian_ks_statistic

    def spied(s, mu, sigma):
        seen.append(np.size(mu))
        return statistic(s, mu, sigma)

    monkeypatch.setattr(detector, "gaussian_ks_statistic", spied)
    return seen


def fuzz_matrix(rng, kind, K, P):
    """A (K, P) matrix of one of eight shapes: plain, ties, unanimous columns,
    huge and tiny scales, a planted block, small integers or a far client."""
    mat = rng.normal(size=(K, P))
    if kind == 1:
        mat = np.round(mat, 1)
    elif kind == 2:
        mat[:, ::2] = rng.normal(size=(P + 1) // 2)
    elif kind == 3:
        mat *= 1e300
    elif kind == 4:
        mat *= 1e-300
    elif kind == 5:
        mat[: K // 3] = 50.0
    elif kind == 6:
        mat = rng.integers(0, 3, size=(K, P)).astype(float)
    elif kind == 7:
        mat[0] = 1.7e308 * np.sign(rng.normal(size=P))
    return mat


LAYER_SHAPES = ((7, 13), (29,), (3, 5, 4))


def layered_matrix(rng, k=20):
    """A (K, 180) matrix of a three-layer model's coordinates, partly contaminated."""
    mat = rng.normal(0.0, 1.0, (k, 180))
    mat[: k // 3, ::3] = rng.normal(0.0, 30.0, (k // 3, 60))
    mat[:, 88:95] = mat[0, 88:95]
    return mat


def layered_updates(mat):
    template = ModelWeights([np.zeros(shape) for shape in LAYER_SHAPES])
    return [ClientUpdate(c, template.with_flat(row), 1) for c, row in enumerate(mat)]


class TestWholeModelPass:
    """mal_test scores every coordinate of the model in one pass."""

    @pytest.mark.parametrize("chunk", [1, 1400, None])
    def test_matches_each_layer_on_its_own(self, chunk, monkeypatch):
        # chunks of 1 and 1400 elements hold one and seven coordinates, so
        # they straddle every layer boundary
        if chunk is not None:
            monkeypatch.setattr(detector, "_SCORE_CHUNK", chunk)
        mat = layered_matrix(np.random.default_rng(60))
        cfg = DetectorConfig()
        edges = np.cumsum([0] + [math.prod(shape) for shape in LAYER_SHAPES])
        want = np.concatenate(
            [
                ks_draw_scores(mat[:, a:b], cfg, np.random.default_rng([9, li]))
                for li, (a, b) in enumerate(zip(edges[:-1], edges[1:]))
            ]
        )
        got = mal_test(layered_updates(mat), cfg, seed=9)
        assert np.ptp(got) > 0
        assert np.array_equal(got, want)

    def test_stale_scratch_contents_change_nothing(self):
        updates = layered_updates(layered_matrix(np.random.default_rng(61)))
        first = mal_test(updates, DetectorConfig(), seed=3)
        buffers = vars(tensors._scratch)
        for buf in buffers.values():
            buf[:] = 0xFF  # NaN as float64
        assert np.array_equal(mal_test(updates, DetectorConfig(), seed=3), first)
        assert {"ks.uniforms", "ks.sorted", "ks.keep", "ks.retained", "ks.z", "ks.square", "ks.band"} <= set(buffers)

    def test_threads_at_once_match_sequential_calls(self):
        # each thread keeps its own scratch buffers, so threads that score and
        # select at once, switching often, each get their sequential results
        sets = [layered_updates(layered_matrix(np.random.default_rng(62 + t), k=30)) for t in range(3)]

        def outputs(t):
            return mal_test(sets[t], DetectorConfig(), seed=t), fft_aggregate(sets[t], FftStrategy())

        want = [outputs(t) for t in range(3)]
        got = [[] for _ in range(3)]
        start = threading.Barrier(3)

        def work(t):
            start.wait()
            for _ in range(10):
                got[t].append(outputs(t))

        threads = [threading.Thread(target=work, args=(t,)) for t in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for t in range(3):
            assert len(got[t]) == 10
            for scores, weights in got[t]:
                assert np.array_equal(scores, want[t][0]) and weights == want[t][1]

    def test_mean_and_std_match_numpy_bit_for_bit(self):
        # sums run along the first axis, position by position; numpy adds in
        # that order too unless the other axes hold a lone element
        rng = np.random.default_rng(63)
        for trial in range(200):
            shape = (int(rng.integers(1, 50)),) + tuple(int(d) for d in rng.integers(1, 9, size=trial % 3 + 1))
            x = rng.normal(rng.normal(0.0, 10.0), rng.uniform(1e-3, 1e3), size=shape)
            if trial % 4 == 1:
                x = np.round(x)
            elif trial % 4 == 2:
                x *= 2.0 ** int(rng.integers(-1000, 1000))
            with np.errstate(all="ignore"):  # squares of 2^1000 overflow, of 2^-1000 underflow
                mu, sigma, dev = detector._mean_and_std(x)
                assert np.array_equal(dev, x - mu, equal_nan=True), trial
                if x[0].size > 1:
                    assert np.array_equal(mu, x.mean(axis=0), equal_nan=True), trial
                    assert np.array_equal(sigma, x.std(axis=0), equal_nan=True), trial
                cols = x.reshape(shape[0], -1)
                for j, col in enumerate(cols.T):
                    m = left_to_right_sum(col) / col.size
                    v = left_to_right_sum([(a - m) * (a - m) for a in col]) / col.size
                    assert mu.ravel()[j] == m or (np.isnan(m) and np.isnan(mu.ravel()[j])), trial
                    assert sigma.ravel()[j] == np.sqrt(v) or np.isnan(v), trial


class TestDynamicAggregate:
    def test_identical_updates_pick_fedavg(self):
        ups = updates_from_matrix(np.full((8, 5), 2.0))
        weights, decision, score = dynamic_aggregate(
            ups, DetectorConfig(subset_size=3), FftStrategy(), seed=0
        )
        assert decision == DECISION_FEDAVG
        assert score == 0.0
        assert weights == ups[0].weights

    def test_random_weight_attackers_trigger_fft(self):
        rng = np.random.default_rng(20)
        base = rng.normal(0.0, 0.5, 60)
        ups = updates_from_matrix(base + rng.normal(0.0, 0.01, size=(20, 60)), size=100)
        spec = AttackSpec(kind=ATTACK_RANDOM_WEIGHTS, attacker_fraction=0.3)
        attacked = apply_attack(ups, spec, set(range(6)), np.random.default_rng(21))
        _, decision, score = dynamic_aggregate(attacked, DetectorConfig(), FftStrategy(), seed=5)
        assert decision == DECISION_FFT
        assert score > 0.02

    def test_threshold_one_always_fedavg(self):
        rng = np.random.default_rng(22)
        ups = updates_from_matrix(rng.normal(size=(10, 6)) * 100.0)
        _, decision, _ = dynamic_aggregate(
            ups, DetectorConfig(subset_size=3, threshold=1.0), FftStrategy(), seed=6
        )
        assert decision == DECISION_FEDAVG

    def test_scale_invariance_of_decision(self):
        # each draw is scored at unit scale, so that a power-of-two factor
        # changes no score bit, and squares that overflow (1e154, 1e300) or
        # underflow (1e-300, 2^-1000) decide nothing
        rng = np.random.default_rng(23)
        mat = rng.normal(size=(12, 15))
        cfg = DetectorConfig(subset_size=4)
        _, base_decision, base_score = dynamic_aggregate(
            updates_from_matrix(mat), cfg, FftStrategy(), seed=9
        )
        for factor in (1.0, 2.0**-1000, 0.001, 250.0, 1e-300, 1e154, 1e300):
            _, decision, score = dynamic_aggregate(
                updates_from_matrix(mat * factor), cfg, FftStrategy(), seed=9
            )
            assert decision == base_decision, factor
            if math.frexp(factor)[0] == 0.5:
                assert score == base_score, factor
            else:
                assert score == pytest.approx(base_score, abs=1e-12), factor


class TestBlindSpot:
    @pytest.mark.parametrize("n", range(2, 12))
    def test_widest_self_fit_is_that_of_one_value_apart(self, n):
        sample = np.array([0.0] * (n - 1) + [1.0])
        got = gaussian_ks_statistic(sample, sample.mean(), sample.std())
        assert detector._widest_self_fit(n) == pytest.approx(got, rel=1e-15)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_no_random_sample_fits_itself_worse(self, n):
        # normal, heavy-tailed and tied samples, each against its own fit
        rng = np.random.default_rng(n)
        samples = np.concatenate(
            [
                rng.normal(size=(2000, n)),
                rng.standard_cauchy(size=(2000, n)),
                rng.integers(0, 3, size=(2000, n)).astype(float),
            ]
        )
        samples = samples[samples.std(axis=1) > 0.0]
        d = gaussian_ks_statistic(samples, samples.mean(axis=1), samples.std(axis=1))
        assert d.max() <= detector._widest_self_fit(n) * (1.0 + 1e-12)

    @pytest.mark.parametrize(
        "clients,subset_size,level,blind",
        [
            (3, 2, 0.05, True),
            (8, 2, 0.05, True),
            (9, 2, 0.05, False),
            (11, 5, 0.05, True),
            (12, 5, 0.05, False),
            (4, 2, 0.2, True),
            (5, 2, 0.2, True),
            (6, 2, 0.1, True),
            (8, 3, 0.2, False),
            (8, 2, 0.1, False),
        ],
    )
    def test_cannot_reject(self, clients, subset_size, level, blind):
        cfg = DetectorConfig(subset_size=subset_size, reject_level=level)
        assert cfg.cannot_reject(clients) is blind
