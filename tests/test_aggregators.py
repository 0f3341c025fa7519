import tracemalloc

import numpy as np
import pytest

from fedfft.aggregators import (
    KrumParam,
    TooFewClients,
    TrimParam,
    TrimTooLarge,
    coordinate_median,
    fed_avg,
    krum,
    krum_select,
    trimmed_mean,
)
from fedfft.tensors import ClientUpdate, EmptyUpdateSet, ModelWeights


def update(cid, values, size=1):
    return ClientUpdate(cid, ModelWeights([np.asarray(values, dtype=float)]), size)


def column(result):
    return result.layers[0].tolist()


class TestFedAvg:
    def test_identical_updates(self):
        ups = [update(k, [1.0, -2.0], size=3) for k in range(4)]
        assert fed_avg(ups) == ups[0].weights

    def test_size_weighted_hand_case(self):
        ups = [update(0, [0.0, 0.0], size=1), update(1, [4.0, 8.0], size=3)]
        assert column(fed_avg(ups)) == [3.0, 6.0]

    def test_equal_sizes_reduce_to_plain_mean(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=(5, 7))
        ups = [update(k, vals[k], size=11) for k in range(5)]
        assert np.allclose(column(fed_avg(ups)), vals.mean(axis=0), atol=1e-12)

    def test_empty(self):
        with pytest.raises(EmptyUpdateSet):
            fed_avg([])


class TestCoordinateMedian:
    def test_odd_count(self):
        ups = [update(0, [1.0]), update(1, [2.0]), update(2, [100.0])]
        assert column(coordinate_median(ups)) == [2.0]

    def test_even_count_midpoint(self):
        ups = [update(0, [1.0]), update(1, [3.0])]
        assert column(coordinate_median(ups)) == [2.0]

    def test_identical(self):
        ups = [update(k, [7.0, -1.0]) for k in range(4)]
        assert coordinate_median(ups) == ups[0].weights


class TestTrimmedMean:
    def test_no_trim_equals_mean(self):
        rng = np.random.default_rng(1)
        vals = rng.normal(size=(6, 4))
        ups = [update(k, vals[k]) for k in range(6)]
        assert np.allclose(column(trimmed_mean(ups, 0)), vals.mean(axis=0), atol=1e-12)

    def test_sorted_slice_hand_case(self):
        ups = [update(k, [v]) for k, v in enumerate([0.0, 1.0, 2.0, 3.0, 100.0])]
        assert column(trimmed_mean(ups, TrimParam(1))) == [2.0]

    def test_heavy_trim(self):
        ups = [update(k, [v]) for k, v in enumerate([-9.0, 0.0, 1.0, 2.0, 9.0])]
        assert column(trimmed_mean(ups, 2)) == [1.0]

    def test_trim_too_large(self):
        ups = [update(k, [float(k)]) for k in range(4)]
        with pytest.raises(TrimTooLarge):
            trimmed_mean(ups, 2)

    def test_ignores_dataset_sizes(self):
        ups = [
            update(0, [0.0], size=1),
            update(1, [0.0], size=3),
            update(2, [4.0], size=1),
            update(3, [100.0], size=1),
            update(4, [-100.0], size=1),
        ]
        # trimming one from each end keeps clients 0, 1, 2, each counted once
        assert column(trimmed_mean(ups, 1)) == [pytest.approx(4.0 / 3.0)]

    def test_matches_sorted_slice_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            k = int(rng.integers(3, 12))
            n = int(rng.integers(0, (k - 1) // 2 + 1))
            vals = rng.normal(size=(k, 3))
            ups = [update(i, vals[i]) for i in range(k)]
            got = column(trimmed_mean(ups, n))
            want = [
                float(np.mean(np.sort(vals[:, j])[n : k - n])) for j in range(3)
            ]
            assert np.allclose(got, want, atol=1e-12)


class TestKrum:
    def test_hand_case_tie_breaks_low_index(self):
        ups = [update(k, [v]) for k, v in enumerate([0.0, 1.0, 2.0, 10.0])]
        # neighbor count 1; scores 1, 1, 1, 64; tie -> client 0
        assert krum_select(ups, KrumParam(1)) == 0
        assert krum(ups, 1) == ups[0].weights

    def test_all_identical(self):
        ups = [update(k, [5.0, 5.0]) for k in range(5)]
        assert krum_select(ups, 1) == 0

    def test_too_few_clients(self):
        ups = [update(k, [float(k)]) for k in range(3)]
        with pytest.raises(TooFewClients):
            krum(ups, 1)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(3)
        cases = []
        for _ in range(300):
            k = int(rng.integers(4, 8))
            f = int(rng.integers(0, k - 3 + 1))
            cases.append((rng.normal(size=(k, 4)), f))
        # tie-heavy: rows repeated from three distinct ones, integer-rounded values
        for k in (4, 20, 50):
            for _ in range(10):
                vals = rng.normal(size=(k, 4))
                for tied in (vals[rng.integers(0, 3, k)], np.round(2.0 * vals)):
                    cases.append((tied, int(rng.integers(0, k - 3 + 1))))
        for vals, f in cases:
            k = len(vals)
            ups = [update(i, vals[i]) for i in range(k)]
            nn = k - f - 2
            scores = []
            for i in range(k):
                d2 = sorted(
                    float(np.sum((vals[i] - vals[j]) ** 2)) for j in range(k) if j != i
                )
                scores.append(sum(d2[:nn]))
            assert krum_select(ups, f) == int(np.argmin(scores))

    def test_memory_linear_in_client_count(self):
        # a (K, K, P) difference tensor alone would take K * K * P * 8 bytes
        k, p = 50, 20_000
        rng = np.random.default_rng(5)
        ups = [update(i, rng.normal(size=p)) for i in range(k)]
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            krum_select(ups, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * k * p * 8


class TestSharedProperties:
    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        vals = rng.normal(size=(6, 5))
        sizes = rng.integers(1, 9, size=6)
        ups = [update(k, vals[k], size=int(sizes[k])) for k in range(6)]
        perm = rng.permutation(6)
        shuffled = [ups[p] for p in perm]
        for agg, kwargs in [
            (fed_avg, {}),
            (coordinate_median, {}),
            (lambda u: trimmed_mean(u, 1), {}),
        ]:
            a, b = agg(ups), agg(shuffled)
            assert np.allclose(a.layers[0], b.layers[0], atol=1e-12)
        assert krum(ups, 1) == krum(shuffled, 1)

    def test_breakdown_sanity(self):
        vals = [0.0] * 9 + [1e6]
        ups = [update(k, [v]) for k, v in enumerate(vals)]
        assert column(coordinate_median(ups)) == [0.0]
        assert column(trimmed_mean(ups, 1)) == [0.0]
        assert column(fed_avg(ups)) == [pytest.approx(1e5)]
