import json
import threading
import warnings

import numpy as np
import pytest

from fedfft import tensors
from fedfft.oracles import broadcast_sq_distances
from fedfft.tensors import (
    BadWeightDump,
    ClientUpdate,
    EmptyUpdateSet,
    ModelWeights,
    ShapeMismatch,
    from_dump_dict,
    layer_matrices,
    load_weight_dump,
    pairwise_sq_distances,
    save_weight_dump,
    scratch,
    sq_distance_bounds,
    stack_flat,
    to_dump_dict,
    unit_scale,
    validate_uniform,
)


def mw(*layers):
    return ModelWeights([np.asarray(a, dtype=float) for a in layers])


def update(cid, *layers, size=1):
    return ClientUpdate(client_id=cid, weights=mw(*layers), dataset_size=size)


class TestModelWeights:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            mw([1.0, np.nan])
        with pytest.raises(ValueError):
            mw([np.inf])

    def test_layers_are_read_only(self):
        w = mw([1.0, 2.0])
        with pytest.raises(ValueError):
            w.layers[0][0] = 5.0

    def test_flat_round_trip(self):
        w = mw([[1.0, 2.0], [3.0, 4.0]], [5.0])
        assert w.with_flat(w.flat()) == w

    def test_rejects_no_layers(self):
        with pytest.raises(ValueError, match="at least one layer"):
            ModelWeights([])

    def test_flat_is_the_read_only_buffer_of_the_layers(self):
        w = mw([[1.0, 2.0], [3.0, 4.0]], [5.0], [[6.0], [7.0]])
        flat = w.flat()
        assert flat is w.flat()
        assert np.array_equal(flat, np.concatenate([a.ravel() for a in w.layers]))
        assert all(np.shares_memory(flat, a) for a in w.layers)
        assert not flat.flags.writeable
        with pytest.raises(ValueError):
            flat[0] = 9.0
        assert w.shapes == ((2, 2), (1,), (2, 1)) and w.num_params == 7

    def test_constructor_and_with_flat_copy_their_input(self):
        layers = [np.array([[1.0, 2.0]]), np.array([3.0])]
        w = ModelWeights(layers)
        values = np.array([4.0, 5.0, 6.0])
        v = w.with_flat(values)
        layers[0][0, 0] = layers[1][0] = values[:] = -1.0
        assert w.flat().tolist() == [1.0, 2.0, 3.0]
        assert v.flat().tolist() == [4.0, 5.0, 6.0]
        assert not np.shares_memory(v.flat(), w.flat())

    def test_buffer_cannot_be_made_writeable_again(self):
        w = mw([[1.0, 2.0]], [3.0])
        for model in (w, w.with_flat([4.0, 5.0, 6.0]), w.with_flat(np.ones((3, 1)))):
            for a in (model.flat(), *model.layers):
                with pytest.raises(ValueError):
                    a.setflags(write=True)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("layer", [0, 1, 2])
    def test_non_finite_value_names_its_layer(self, layer, bad):
        layers = [np.ones((2, 3)), np.ones(3), np.ones((3, 2))]
        layers[layer].flat[-1] = bad
        with pytest.raises(ValueError, match=f"^layer {layer} contains non-finite values$"):
            ModelWeights(layers)
        flat = np.concatenate([a.ravel() for a in layers])
        template = ModelWeights([np.zeros(a.shape) for a in layers])
        with pytest.raises(ValueError, match=f"^layer {layer} contains non-finite values$"):
            template.with_flat(flat)


class TestValidateUniform:
    def test_identical_shapes_ok(self):
        validate_uniform([update(0, [1, 2, 3]), update(1, [4, 5, 6])])

    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatch, match="^client 7 layer 0 has shape"):
            validate_uniform([update(0, [1, 2, 3]), update(7, [1, 2, 3, 4])])

    def test_empty(self):
        with pytest.raises(EmptyUpdateSet):
            validate_uniform([])

    def test_layer_mismatch_names_client_and_layer(self):
        with pytest.raises(ShapeMismatch, match=r"^client 4 layer 1 has shape \(2,\), expected \(1, 2\)$"):
            validate_uniform([update(0, [1.0], [[2.0, 3.0]]), update(4, [1.0], [2.0, 3.0])])


class TestCoordinateViews:
    # layer_matrices' column i of layer li is coordinate (li, i) across clients
    def test_two_clients_one_layer(self):
        (mat,) = layer_matrices([update(0, [1.0, 2.0]), update(1, [3.0, 4.0])])
        assert mat[:, 0].tolist() == [1.0, 3.0]
        assert mat[:, 1].tolist() == [2.0, 4.0]

    def test_single_client(self):
        mats = layer_matrices([update(0, [7.0, 8.0], [[1.0], [2.0]])])
        assert [m.shape for m in mats] == [(1, 2), (1, 2)]

    def test_count_matches_parameter_count(self):
        # three clients, layers of sizes 2 and 1 -> exactly 3 columns of length 3
        ups = [update(k, [k, k + 1], [k * 10]) for k in range(3)]
        mats = layer_matrices(ups)
        assert sum(m.shape[1] for m in mats) == 3
        assert all(m.shape[0] == 3 for m in mats)
        assert mats[1][:, 0].tolist() == [0.0, 10.0, 20.0]

    def test_count_property_random_shapes(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            shapes = [
                tuple(rng.integers(1, 4, size=rng.integers(1, 3)))
                for _ in range(rng.integers(1, 4))
            ]
            k = int(rng.integers(1, 5))
            ups = [
                ClientUpdate(i, ModelWeights([rng.normal(size=s) for s in shapes]), 1)
                for i in range(k)
            ]
            mats = layer_matrices(ups)
            assert sum(m.shape[1] for m in mats) == ups[0].weights.num_params
            for i, u in enumerate(ups):
                assert np.array_equal(np.concatenate([m[i] for m in mats]), u.weights.flat())


    def test_columns_are_each_layers_values(self):
        rng = np.random.default_rng(1)
        ups = [update(k, rng.normal(size=(2, 3)), rng.normal(size=3), rng.normal(size=(3, 1))) for k in range(4)]
        mats = layer_matrices(ups)
        for li, mat in enumerate(mats):
            assert mat.shape == (4, ups[0].weights.layers[li].size)
            for k, u in enumerate(ups):
                assert np.array_equal(mat[k], u.weights.layers[li].ravel())


    def test_matrices_view_the_scratch_stack(self):
        ups = [update(k, [k, k + 1.0], [k * 10.0]) for k in range(3)]
        mats = layer_matrices(ups)
        assert all(np.shares_memory(m, stack_flat([u.weights for u in ups])) for m in mats)


class TestUnitScale:
    def test_largest_magnitude_lands_in_half_to_one(self):
        low = np.array([-3.0, -1e-300, 0.0, -5e300])
        high = np.array([2.0, 1e-301, 0.75, 1.0])
        scaled = np.maximum(-low, high) * unit_scale(low, high)
        assert np.all((0.5 <= scaled) & (scaled < 1.0))

    def test_exponent_is_clipped_so_the_factor_stays_normal(self):
        factor = unit_scale(np.array([-1.7e308, 0.0, -5e-324]), np.array([0.0, 5e-324, 0.0]))
        assert factor.tolist() == [2.0**-1021, 2.0**1021, 2.0**1021]


class TestScratch:
    def test_view_has_the_requested_shape_and_dtype(self):
        for shape, dtype in (((3, 4, 5), np.float64), ((7,), bool), ((2, 0, 3), np.int64), ((4, 4), np.complex128)):
            arr = scratch("test.view", shape, dtype)
            assert arr.shape == shape and arr.dtype == dtype
            assert arr.flags.c_contiguous and arr.flags.writeable and arr.flags.aligned

    def test_buffer_grows_and_is_reused(self):
        big = scratch("test.reuse", (100, 10))
        small = scratch("test.reuse", (3, 3), np.int64)
        assert np.shares_memory(big, small)
        bigger = scratch("test.reuse", (200, 10))
        assert not np.shares_memory(big, bigger)
        assert np.shares_memory(bigger, scratch("test.reuse", (100, 10)))
        assert not np.shares_memory(bigger, scratch("test.other", (100, 10)))

    def test_each_thread_has_its_own_buffers(self):
        mine = scratch("test.thread", (64,))
        theirs = []
        worker = threading.Thread(target=lambda: theirs.append(scratch("test.thread", (64,))))
        worker.start()
        worker.join()
        assert not np.shares_memory(mine, theirs[0])
        assert np.shares_memory(mine, scratch("test.thread", (64,)))


class TestPairwiseSqDistances:
    # 9001 values pass numpy's 8192-element buffer, where einsum's summation
    # order depends on how many rows an operand has
    @pytest.mark.parametrize("p", [301, 9001])
    @pytest.mark.parametrize("k", [1, 2, 3, 50])
    def test_matches_broadcast_tensor_bit_for_bit(self, k, p):
        rng = np.random.default_rng(k * p)
        rows = rng.normal(size=(k, p)) * rng.uniform(0.1, 100.0, size=(k, 1))
        if k >= 3:
            rows[k - 1] = rows[0]  # duplicate rows give exact zeros off the diagonal
        if k == 50:
            rows[20:40] = rows[5]
        got = pairwise_sq_distances(rows)
        assert got.shape == (k, k)
        assert np.array_equal(got, broadcast_sq_distances(rows))
        assert np.array_equal(got, got.T)
        assert np.all(np.diag(got) == 0.0)


def _distance_rows(k, p, seed):
    """(k, p) rows at spread scales, with duplicates, as Krum and the craft see them."""
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(k, p)) * rng.uniform(0.1, 100.0, size=(k, 1))
    rows[k - 1] = rows[0]
    rows[k // 2 : k // 2 + k // 4] = rows[1]
    return rows


class TestStackFlat:
    def test_rows_are_the_flat_models_in_reused_memory(self):
        rng = np.random.default_rng(0)
        models = [mw(rng.normal(size=(3, 4)), rng.normal(size=4)) for _ in range(5)]
        rows = stack_flat(models)
        assert np.array_equal(rows, np.stack([w.flat() for w in models]))
        assert np.shares_memory(rows, stack_flat(models[:2]))


class TestSqDistanceRow:
    # one listed row is filled with one row of differences against every row

    # around and past numpy's 8192-element einsum buffer, and the wide model's P
    @pytest.mark.parametrize("p", [8191, 8192, 8193, 9000, 17_668, 3 * 8192 + 5])
    def test_equals_pairwise_row_bit_for_bit(self, p):
        base = _distance_rows(50, p, p)
        # 9 and 17 rows leave a last difference chunk of one row
        for k in (3, 4, 5, 9, 12, 17, 27, 50):
            rows = base[:k]
            d2 = pairwise_sq_distances(rows)
            for i in range(k):
                assert np.array_equal(pairwise_sq_distances(rows, [i])[i], d2[i]), (k, i)

    @pytest.mark.parametrize("rows_per_chunk", [2, 3, 8])
    def test_last_chunk_of_one_row_matches_broadcast_tensor(self, rows_per_chunk, monkeypatch):
        monkeypatch.setattr(tensors, "_DIFF_ROWS", rows_per_chunk)
        rows = _distance_rows(2 * rows_per_chunk + 1, 9001, rows_per_chunk)
        want = broadcast_sq_distances(rows)
        for i in range(len(rows)):
            assert np.array_equal(pairwise_sq_distances(rows, [i])[i], want[i]), i
        assert np.array_equal(pairwise_sq_distances(rows), want)

    @pytest.mark.parametrize("p", [301, 9001])
    def test_listed_rows_and_columns_match_the_full_matrix(self, p):
        # up to (K-1)/2 listed rows fill only those rows and columns; more
        # fill the whole matrix through the upper triangle
        rng = np.random.default_rng(p)
        for k in (1, 2, 3, 8, 9, 20):
            rows = _distance_rows(k, p, p + k) if k >= 3 else rng.normal(size=(k, p))
            full = pairwise_sq_distances(rows)
            for size in range(k + 1):
                which = rng.choice(k, size, replace=False)
                got = pairwise_sq_distances(rows, which)
                assert np.array_equal(got[which], full[which]), (k, size)
                assert np.array_equal(got[:, which], full[:, which]), (k, size)
                listed = np.zeros(k, dtype=bool)
                listed[which] = True
                filled = listed[:, None] | listed[None, :]
                if size > (k - 1) / 2:
                    assert np.array_equal(got, full), (k, size)
                else:
                    assert np.all(got[~filled] == 0.0), (k, size)

    def test_difference_buffer_holds_one_chunk_of_rows(self):
        # scratch buffers are per thread, so a new thread starts without one
        rows = _distance_rows(50, 301, 1)
        sizes = []

        def run():
            pairwise_sq_distances(rows)
            pairwise_sq_distances(rows, [7])
            sizes.append(vars(tensors._scratch)["tensors.diff"].nbytes)

        worker = threading.Thread(target=run)
        worker.start()
        worker.join(timeout=60)
        assert sizes == [tensors._DIFF_ROWS * 301 * 8]


class TestSqDistanceBounds:
    @staticmethod
    def assert_bracket(rows):
        lo, hi = sq_distance_bounds(rows)
        d2 = pairwise_sq_distances(rows)
        assert np.all(lo <= d2) and np.all(d2 <= hi)
        assert np.all(np.diag(lo) == 0.0) and np.all(np.diag(hi) == 0.0)
        return lo, hi

    @pytest.mark.parametrize("p", [1, 3, 301, 9001])
    def test_bracket_the_exact_distances(self, p):
        self.assert_bracket(np.random.default_rng(p).normal(size=(1, p)))
        for k in (2, 3, 20):
            self.assert_bracket(_distance_rows(k, p, p + k))

    def test_bracket_near_ties_on_a_large_common_offset(self):
        # the Gram estimate's error here is of the order of the distances
        rng = np.random.default_rng(1)
        for _ in range(20):
            rows = 1e3 + rng.normal(0.0, 1e-4, size=(int(rng.integers(3, 12)), int(rng.integers(1, 400))))
            self.assert_bracket(rows)

    def test_bracket_extreme_finite_rows_without_warnings(self):
        rng = np.random.default_rng(2)
        honest = rng.normal(0.0, 0.05, size=(12, 500))
        outlier = honest.copy()
        outlier[3, 7] = 1e150
        tiny = rng.normal(size=(6, 500)) * 1e-310  # subnormal values
        small = rng.normal(size=(6, 500)) * 1e-160  # squares underflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for rows in (honest, outlier, tiny, small, np.ones((5, 40)), np.zeros((3, 2))):
                self.assert_bracket(rows)

    @staticmethod
    def assert_unbounded_exactly_at(rows, failed):
        """Bounds (0, inf) on the entries marked in ``failed``, finite
        certified bounds on every other one."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lo, hi = sq_distance_bounds(rows)
        assert np.all(lo[failed] == 0.0) and np.all(hi[failed] == np.inf)
        assert np.all(np.isfinite(hi[~failed]))
        with np.errstate(over="ignore"):
            d2 = pairwise_sq_distances(rows)
        assert np.all(lo <= d2) and np.all(d2 <= hi)

    def test_unbounded_near_overflow_without_warnings(self):
        rows = np.zeros((4, 3))
        rows[1, 0], rows[2, 0] = 1.7e308, -1.7e308
        failed = np.zeros((4, 4), dtype=bool)
        failed[[1, 2], :] = failed[:, [1, 2]] = True
        np.fill_diagonal(failed, False)
        self.assert_unbounded_exactly_at(rows, failed)
        # a finite Gram: only the pair 1.2e308 apart is left unbounded
        failed = np.zeros((4, 4), dtype=bool)
        failed[1, 2] = failed[2, 1] = True
        self.assert_unbounded_exactly_at(rows * 3.2e-155, failed)

    def test_unbounded_only_on_a_row_whose_norm_overflows(self):
        # one coordinate of one client at 1e200 overflows that row's Gram
        # entries; every other pair keeps its certified bounds
        rows = np.random.default_rng(3).normal(0.0, 0.1, size=(50, 17_668))
        rows[3, 7] = 1e200
        failed = np.zeros((50, 50), dtype=bool)
        failed[3, :] = failed[:, 3] = True
        failed[3, 3] = False
        self.assert_unbounded_exactly_at(rows, failed)


class TestWeightDump:
    def test_round_trip(self, tmp_path):
        w = mw([[1.0, 2.5], [3.0, -4.0]], [0.125])
        path = tmp_path / "w.json"
        save_weight_dump(w, str(path))
        assert load_weight_dump(str(path)) == w

    def test_document_shape(self):
        doc = to_dump_dict(mw([1.0, 2.0]))
        assert doc["version"] == 1
        assert doc["layers"][0] == {"shape": [2], "data": [1.0, 2.0]}

    def test_rejects_unknown_version(self):
        doc = to_dump_dict(mw([1.0]))
        doc["version"] = 2
        with pytest.raises(BadWeightDump):
            from_dump_dict(doc)

    def test_rejects_bad_payloads(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json {")
        with pytest.raises(BadWeightDump):
            load_weight_dump(str(path))
        with pytest.raises(BadWeightDump):
            from_dump_dict({"version": 1, "layers": [{"shape": [3], "data": [1.0]}]})
