import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from fedfft import aggregators

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
from fedfft.oracles import exact_krum_pick, krum_scores
from fedfft.tensors import ClientUpdate, EmptyUpdateSet, ModelWeights, pairwise_sq_distances

ROOT = Path(__file__).resolve().parent.parent


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

    def test_negative_int_count_is_refused_like_a_param(self):
        ups = [update(k, [float(k)]) for k in range(4)]
        with pytest.raises(ValueError, match="non-negative"):
            trimmed_mean(ups, -1)

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


    @pytest.mark.parametrize("kind", ["duplicates", "signed-zeros", "all-equal"])
    def test_bit_identical_to_stable_argsort_form(self, kind):
        # the mean of the kept slice of one sort, against the stable argsort
        # gather it replaced, where an unstable sort can reorder equal values
        rng = np.random.default_rng(4)
        for k in (3, 4, 5, 8, 17, 50):
            if kind == "duplicates":
                vals = np.round(rng.normal(size=(k, 500)))
            elif kind == "signed-zeros":
                vals = rng.choice([-0.0, 0.0, -0.0, 0.0, 1.5, -2.25], size=(k, 500))
            else:
                vals = np.broadcast_to(rng.normal(size=500), (k, 500)).copy()
                vals[:, :100] = -0.0
            for n in range(0, (k - 1) // 2 + 1):
                order = np.argsort(vals, axis=0, kind="stable")
                want = np.take_along_axis(vals, order[n : k - n], axis=0).mean(axis=0)
                got = column(trimmed_mean([update(i, vals[i]) for i in range(k)], n))
                assert np.asarray(got).tobytes() == want.tobytes(), (k, n)

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

    def test_negative_int_count_is_refused_like_a_param(self):
        ups = [update(k, [float(k)]) for k in range(6)]
        for f in (-1, -3):
            with pytest.raises(ValueError, match="non-negative"):
                krum_select(ups, f)

    def test_tie_heavy_rows_match_exhaustive_oracle(self):
        # random rows are the krum-exhaustive check's and criterion 3's; here
        # rows repeated from three distinct ones, and integer-rounded values
        rng = np.random.default_rng(3)
        cases = []
        for k in (4, 20, 50):
            for _ in range(10):
                vals = rng.normal(size=(k, 4))
                for tied in (vals[rng.integers(0, 3, k)], np.round(2.0 * vals)):
                    cases.append((tied, int(rng.integers(0, k - 3 + 1))))
        for vals, f in cases:
            ups = [update(i, vals[i]) for i in range(len(vals))]
            assert krum_select(ups, f) == int(np.argmin(krum_scores(vals, f)))

    def test_near_ties_on_a_large_common_offset_match_exact_pick(self):
        # the Gram estimate's own error here is of the order of the distances,
        # so a pick made from it without the margin is often another row
        rng = np.random.default_rng(11)
        for _ in range(200):
            k = int(rng.integers(4, 13))
            f = int(rng.integers(0, k - 3 + 1))
            rows = 1e3 + rng.normal(0.0, 1e-4, size=(k, int(rng.integers(200, 2000))))
            ups = [update(i, rows[i]) for i in range(k)]
            assert krum_select(ups, f) == exact_krum_pick(rows, f)

    def test_extreme_finite_inputs_match_exact_pick_without_warnings(self):
        rng = np.random.default_rng(12)
        huge = np.zeros((6, 3))
        huge[1, 0], huge[2, 0], huge[4, 1] = 1.7e308, -1.7e308, 1.7e308
        outlier = rng.normal(0.0, 0.05, size=(12, 500))
        outlier[3, 7] = 1e150
        cases = [
            (huge, 1),
            (outlier, 2),
            (rng.normal(size=(8, 50)) * 1e-310, 2),  # subnormal values
            (rng.normal(size=(8, 50)) * 1e-160, 2),  # their squares underflow
            (np.full((5, 9000), 0.25), 1),
            (rng.normal(size=(3, 9000)), 0),
        ]
        # one row, then every row, with a coordinate at 1e200: the Gram
        # entries of each such row overflow and leave its bounds (0, inf)
        one = rng.normal(0.0, 0.1, size=(12, 500))
        one[3, 7] = 1e200
        every = rng.normal(0.0, 0.1, size=(12, 500))
        every[:, 7] = 1e200
        cases += [(one, 2), (every, 2)]
        for rows, f in cases:
            ups = [update(i, rows[i]) for i in range(len(rows))]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = krum_select(ups, f)
            assert got == exact_krum_pick(rows, f)

    def test_one_exact_row_decides_a_colluded_round(self, monkeypatch):
        # honest rows around one point, twenty byte-identical colluders nearer
        rng = np.random.default_rng(13)
        rows = rng.normal(0.0, 0.05, size=(50, 9000))
        rows[10:30] = rows.mean(axis=0) + 0.01
        want = exact_krum_pick(rows, 20)
        listed = []
        monkeypatch.setattr(
            aggregators,
            "pairwise_sq_distances",
            lambda rows, which: listed.append(list(which)) or pairwise_sq_distances(rows, which),
        )
        assert krum_select([update(i, rows[i]) for i in range(50)], 20) == want == 10
        assert listed == [[10]]

    def test_pick_does_not_depend_on_blas_threads(self):
        # the Gram products go through BLAS, whose rounding may move with its
        # thread count on a 64-256-4 model's 17,668 weights; the pick and the
        # craft's diameter and gamma must not
        script = (
            "import numpy as np\n"
            "from fedfft.adversary import _sq_diameter, min_max_craft\n"
            "from fedfft.aggregators import krum_select\n"
            "from fedfft.tensors import ClientUpdate, ModelWeights, stack_flat\n"
            "shapes = [(64, 256), (256,), (256, 4), (4,)]\n"
            "for seed in range(3):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    honest = [ModelWeights([rng.normal(0.1, 0.3, s) for s in shapes]) for _ in range(12)]\n"
            "    res = min_max_craft(honest[:5])\n"
            "    print(float(_sq_diameter(stack_flat(honest[:5]))).hex(), res.gamma.hex())\n"
            "    ups = [ClientUpdate(i, res.crafted if i < 5 else w, 1) for i, w in enumerate(honest)]\n"
            "    print([krum_select(ups, f) for f in (0, 3, 5)], krum_select(ups[5:], 2))\n"
        )
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            done = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=env
            )
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]

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
