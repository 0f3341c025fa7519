import numpy as np
import pytest

from fedfft import fft_aggregator, tensors
from fedfft.fft_aggregator import EmptyVector, FftStrategy, fft_aggregate, fft_select
from fedfft.spectral import dft_naive, kde_density_direct, silverman_bandwidth
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

    def test_literal_picks_from_the_half_spectrum(self):
        # |X_k| = |X_(K-k)| for a real row, so only bins 0..K//2 are read; the
        # picked value's rank in its sorted column is the bin it came from
        rng = np.random.default_rng(11)
        for k in (3, 7, 20, 50):
            mat = rng.normal(size=(k, 400))
            for include_dc, lowest in ((False, 1), (True, 0)):
                strategy = FftStrategy(kind="literal", include_dc=include_dc)
                out = fft_aggregate(updates_from_matrix(mat), strategy).layers[0]
                ranks = np.argmax(np.sort(mat, axis=0) == out, axis=0)
                assert ranks.min() >= lowest
                assert ranks.max() <= k // 2

    def test_literal_matches_naive_dft_half_spectrum(self):
        rng = np.random.default_rng(12)
        checked = 0
        for k in (2, 3, 4, 7, 20, 50):
            for _ in range(60):
                v = rng.normal(size=k)
                ordered = np.sort(v)
                mags = np.abs(dft_naive(ordered))[1 : k // 2 + 1]
                top = np.sort(mags)[-2:]
                if mags.size > 1 and top[1] - top[0] <= 1e-9 * top[1]:
                    continue  # a near tie: rounding may decide it either way
                bin_ = 1 + int(np.argmax(mags))
                assert fft_select(v, LITERAL).value == ordered[bin_]
                checked += 1
        assert checked > 300

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


def exhaustive_kde_values(cols, grid_size=256):
    """The kde selection evaluated at every grid point: the oracle for the pruned search."""
    k = cols.shape[1]
    values = cols[:, 0].copy()
    active = np.nonzero(np.any(cols != cols[:, :1], axis=1))[0]
    sub = cols[active]
    h = silverman_bandwidth(sub, axis=1)
    lo = sub.min(axis=1) - 3.0 * h
    hi = sub.max(axis=1) + 3.0 * h
    chunk = max(1, (1 << 18) // (grid_size * k))
    for start in range(0, active.size, chunk):
        part = slice(start, start + chunk)
        samples = sub[part]
        rows = np.arange(samples.shape[0])
        grid = np.linspace(lo[part], hi[part], grid_size, axis=1)
        z = grid[:, :, None] - samples[:, None, :]
        z /= h[part, None, None]
        z *= z
        z *= -0.5
        density = np.exp(z, out=z).sum(axis=2)
        mode_x = grid[rows, np.argmax(density, axis=1)]
        nearest = np.argmin(np.abs(samples - mode_x[:, None]), axis=1)
        values[active[part]] = samples[rows, nearest]
    return values


COLUMN_KINDS = ("random", "duplicates", "all_but_one_equal", "two_clusters", "integers", "far")


def _columns(kind, rng, k, n=30):
    """(n, k) coordinate columns of one family, for the pruned-search oracle tests."""
    if kind == "random":
        return rng.normal(0.0, rng.uniform(0.01, 3.0), (n, k)) + rng.normal(0.0, 5.0, (n, 1))
    if kind == "duplicates":
        return rng.integers(0, 3, (n, k)).astype(float) * rng.uniform(0.1, 2.0)
    if kind == "all_but_one_equal":
        cols = np.repeat(rng.normal(size=(n, 1)), k, axis=1)
        cols[np.arange(n), rng.integers(0, k, n)] += rng.normal(0.0, 3.0, n)
        return cols
    if kind == "two_clusters":
        half = np.round(rng.normal(0.0, 0.2, (n, (k + 1) // 2)), 2)
        return np.concatenate([half - 2.0, 2.0 - half], axis=1)[:, :k]
    if kind == "integers":
        return rng.integers(-4, 5, (n, k)).astype(float)
    if kind == "far":
        # like random weights: a tight honest cluster and spread-out attackers,
        # so most kernel arguments underflow
        cols = rng.normal(0.0, 0.01, (n, k))
        cols[:, : (2 * k) // 5] = rng.normal(0.0, 0.3, (n, (2 * k) // 5))
        return cols
    raise ValueError(kind)


def grid_spans(cols):
    """Each row's kde grid span hi - lo in bandwidths."""
    h = silverman_bandwidth(cols, axis=1)
    return (np.ptp(cols, axis=1) + 6.0 * h) / h


class TestKernelTerms:
    """The guarded exp of far rows is bit for bit np.exp of the same arguments."""

    @staticmethod
    def arguments(diff, h):
        z = diff / h[:, None, None]
        z *= z
        z *= -0.5
        return z

    def test_guard_is_exp_bit_for_bit(self):
        rng = np.random.default_rng(12)
        targets = np.concatenate(
            [
                [-746.0, -745.2, -745.13, -745.0, -744.4, -708.4, -708.0, -700.0, -1.0, -1e-300],
                np.linspace(-745.5, -708.0, 400),
                rng.uniform(-3000.0, 0.0, 400),
                rng.uniform(-30.0, 0.0, 400),
            ]
        )
        # each target with its neighbours a few units in the last place away
        near = np.concatenate([targets + d * np.spacing(targets) for d in (-2, -1, 0, 1, 2)])
        diff = np.concatenate([np.sqrt(-2.0 * near), [0.0, -0.0, 1e160, -1e300, np.inf, np.nan]])
        diff *= rng.choice([-1.0, 1.0], diff.size)
        diff = rng.permutation(np.resize(diff, 3 * 13 * 250)).reshape(3, 13, 250)
        with np.errstate(over="ignore"):
            args = self.arguments(diff, np.ones(3))
            assert np.isneginf(args).any() and np.isnan(args).any() and (args == 0.0).any()
            for lo, hi in ((-np.inf, -746.0), (-746.0, -745.13), (-745.13, -708.0)):
                assert ((args >= lo) & (args < hi)).any()
            for h in (np.ones(3), np.array([0.5, 1.0, 3.0])):
                want = np.exp(self.arguments(diff, h))
                for far in (False, True):
                    got = fft_aggregator._kernel_terms(diff.copy(), h, far)
                    assert got.tobytes() == want.tobytes()


class TestPrunedKdeSearch:
    """The pruned mode search picks what a full-grid argmax picks, bit for bit."""

    @pytest.mark.parametrize("kind", COLUMN_KINDS)
    def test_matches_exhaustive_search(self, kind):
        rng = np.random.default_rng(COLUMN_KINDS.index(kind))
        for k in range(2, 51):
            cols = _columns(kind, rng, k)
            assert np.array_equal(fft_aggregator._kde_values(cols, 256), exhaustive_kde_values(cols))

    @pytest.mark.parametrize("grid_size", [2, 3, 9, 17, 1000])
    def test_matches_exhaustive_search_at_other_grid_sizes(self, grid_size):
        rng = np.random.default_rng(grid_size)
        for k in (2, 7, 30):
            cols = np.round(rng.normal(size=(20, k)), 1)
            got = fft_aggregator._kde_values(cols, grid_size)
            assert np.array_equal(got, exhaustive_kde_values(cols, grid_size))

    @pytest.mark.parametrize("v", [1e4, 1e16, 1e150, 1e300, 1.7e308])
    def test_one_far_client(self, v):
        rng = np.random.default_rng(8)
        for k in (2, 3, 10, 50):
            cols = rng.normal(0.0, 0.01, (20, k))
            cols[np.arange(20), rng.integers(0, k, 20)] = v * rng.choice([-1.0, 1.0], 20)
            with np.errstate(over="ignore", invalid="ignore"):
                got = fft_aggregator._kde_values(cols, 256)
                want = exhaustive_kde_values(cols)
            assert np.array_equal(got, want)

    def test_interior_point_tying_a_later_coarse_point_wins(self):
        # isolated clients sit exactly on grid points 11 (inside a gap) and 24
        # (a coarse point), each with density 1; the first maximum is 11, so
        # the gap holding it must survive although its bound only ties
        k = 51
        col = np.concatenate([np.linspace(-0.01, 0.01, k - 4), [-1e4, 1e4, -5e3, -5e3]])
        h = silverman_bandwidth(col)
        grid = np.linspace(col.min() - 3.0 * h, col.max() + 3.0 * h, 256)
        col[-2:] = grid[11], grid[24]
        assert silverman_bandwidth(col) == h
        cols = col[None, :]
        assert fft_aggregator._kde_values(cols, 256)[0] == grid[11]
        assert np.array_equal(fft_aggregator._kde_values(cols, 256), exhaustive_kde_values(cols))

    def test_grid_rows_do_not_depend_on_each_other(self):
        # the second row's step underflows to 0; a batched np.linspace would
        # then move the other rows' grid points in their last bits
        lo = np.array([-1.3, 0.0, -1e300, 2.0])
        hi = np.array([2.7, 5e-324, 1e300, 2.0 + 1e-12])
        grid = fft_aggregator._kde_grid(lo, hi, 256)
        for i in range(4):
            assert np.array_equal(grid[i], np.linspace(lo[i], hi[i], 256))

    @pytest.mark.parametrize("chunk", [1, 3000, 1 << 40, None])
    def test_picks_do_not_depend_on_chunk_size(self, chunk, monkeypatch):
        # near and far rows interleaved: far rows go in chunks of their own
        rng = np.random.default_rng(9)
        cols = np.concatenate(
            [_columns(kind, rng, 12, n=8) for kind in ("random", "duplicates", "two_clusters", "integers", "far")]
        )
        cols = cols[rng.permutation(len(cols))]
        far = grid_spans(cols) >= fft_aggregator._KDE_FAR_SPAN
        assert 0 < np.count_nonzero(far) < len(cols)
        want = exhaustive_kde_values(cols)
        if chunk is not None:
            monkeypatch.setattr(fft_aggregator, "_KDE_CHUNK", chunk)
        assert np.array_equal(fft_aggregator._kde_values(cols, 256), want)


LAYER_SHAPES = ((7, 13), (29,), (3, 5, 4))


def layered_updates(rng, k=12):
    """K clients of a three-layer model, with planted attackers and unanimous coordinates."""
    flat = rng.normal(0.0, 1.0, (k, 180))
    flat[: k // 3, ::4] = rng.normal(0.0, 20.0, (k // 3, 45))
    flat[:, 5:9] = flat[0, 5:9]
    flat[:, 100:130] = np.round(flat[:, 100:130])
    template = ModelWeights([np.zeros(shape) for shape in LAYER_SHAPES])
    return [ClientUpdate(c, template.with_flat(row), 1) for c, row in enumerate(flat)]


def literal_reference(cols):
    """Sorted value at the largest bin 1..K//2 of each row's spectrum."""
    s = np.sort(cols, axis=1)
    mags = np.abs(np.fft.fft(s, axis=1))[:, 1 : cols.shape[1] // 2 + 1]
    return s[np.arange(len(s)), 1 + np.argmax(mags, axis=1)]


def per_layer_reference(updates, strategy):
    """Each layer's selections on their own, by the oracle of the strategy."""
    pick = exhaustive_kde_values if strategy.kind == "kde" else literal_reference
    out = []
    for li, shape in enumerate(LAYER_SHAPES):
        cols = np.stack([u.weights.layers[li].ravel() for u in updates], axis=1)
        out.append(pick(cols).reshape(shape))
    return ModelWeights(out)


def poison_scratch():
    """Overwrite every scratch buffer of this thread with NaN bytes; returns their names."""
    buffers = vars(tensors._scratch)
    for buf in buffers.values():
        buf[:] = 0xFF
    return set(buffers)


class TestWholeModelPass:
    """fft_aggregate selects every coordinate of the model in one pass."""

    @pytest.mark.parametrize("strategy", [KDE, LITERAL], ids=["kde", "literal"])
    @pytest.mark.parametrize("chunk", [1, 3000, None])
    def test_matches_each_layer_on_its_own(self, strategy, chunk, monkeypatch):
        # chunks of 1 and 3000 elements hold one or two coordinates, so they
        # straddle every layer boundary
        if chunk is not None:
            monkeypatch.setattr(fft_aggregator, "_KDE_CHUNK", chunk)
        updates = layered_updates(np.random.default_rng(50))
        assert fft_aggregate(updates, strategy) == per_layer_reference(updates, strategy)

    def test_stale_scratch_contents_change_nothing(self):
        updates = layered_updates(np.random.default_rng(51))
        for strategy in (KDE, LITERAL):
            first = fft_aggregate(updates, strategy)
            names = poison_scratch()
            assert fft_aggregate(updates, strategy) == first
        assert {"kde.terms", "kde.bound", "kde.density", "kde.grid", "kde.diff", "kde.keep"} <= names
