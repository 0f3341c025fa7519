import math
import time
import warnings

import numpy as np
import pytest

from fedfft import fft_aggregator, tensors
from fedfft.fft_aggregator import EmptyVector, FftStrategy, fft_aggregate, fft_select
from fedfft.oracles import TIE_MARGIN, dft_naive, kde_density_direct, kde_pick
from fedfft.spectral import kde_density, silverman_bandwidth
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "call, what",
        [
            (lambda v: fft_select(v, KDE), "coordinate vector"),
            (lambda v: fft_select(v, LITERAL), "coordinate vector"),
            (kde_density, "sample"),
        ],
    )
    def test_non_finite_values_raise(self, call, what, bad):
        for v in ([bad, 1.0, 2.0], [1.0, 2.0, bad], [bad]):
            with pytest.raises(ValueError, match=f"{what} has non-finite values"):
                call(np.array(v))

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

    def test_literal_returns_the_second_smallest_value(self):
        # with DC excluded, the magnitude argmax of a sorted Gaussian column
        # lands on bin 1, so literal is a fixed order statistic: every one of
        # these 5000 columns at K = 50 gives its second-smallest value
        cols = np.random.default_rng(13).normal(size=(5000, 50))
        out = fft_aggregate(updates_from_matrix(cols.T), LITERAL).layers[0]
        assert np.array_equal(out, np.sort(cols, axis=1)[:, 1])

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
        # a shift moves every value and the bandwidth by the same amount, so
        # the same client wins unless its density only nearly ties another's
        rng = np.random.default_rng(4)
        checked = 0
        for _ in range(25):
            v = rng.normal(size=12)
            shift = float(rng.normal(0.0, 10.0))
            if kde_pick(v) is None or kde_pick(v + shift) is None:
                continue
            assert fft_select(v + shift, KDE).client == fft_select(v, KDE).client
            checked += 1
        assert checked >= 20

    def test_determinism(self):
        rng = np.random.default_rng(5)
        mat = rng.normal(size=(9, 8))
        ups = updates_from_matrix(mat)
        a = fft_aggregate(ups, KDE)
        b = fft_aggregate(updates_from_matrix(mat), KDE)
        assert a == b

    def test_kde_mode_matches_direct_density_argmax(self):
        # distinct values: the pick is the argmax of the density at the sample
        rng = np.random.default_rng(6)
        checked = 0
        for _ in range(20):
            v = rng.normal(size=15)
            density = kde_density_direct(v, v)
            top = np.sort(density)[-2:]
            if top[1] - top[0] <= TIE_MARGIN * top[1]:
                continue
            assert fft_select(v, KDE).value == v[int(np.argmax(density))]
            checked += 1
        assert checked >= 15


def check_oracle(cols, got):
    """Assert every pick is a value of its row, and the oracle's where it is unambiguous; returns how many were."""
    checked = 0
    for row, value in zip(cols, got):
        assert value in row
        want = kde_pick(row)
        if want is not None:
            assert value == want, row
            checked += 1
    return checked


COLUMN_KINDS = ("random", "duplicates", "all_but_one_equal", "two_clusters", "integers", "far", "atoms", "unanimous")


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
    if kind == "atoms":
        # identical colluders: an atom of up to half the clients inside the
        # honest spread, which counts once
        cols = rng.normal(0.0, 1.0, (n, k))
        cols[:, : k // 2] = rng.normal(0.0, 0.5, (n, 1))
        return cols
    if kind == "unanimous":
        cols = np.repeat(rng.normal(size=(n, 1)), k, axis=1)
        cols[::2, -1] += 1.0
        return cols
    if kind == "far":
        # like random weights: a tight honest cluster and spread-out attackers,
        # so most kernel arguments underflow
        cols = rng.normal(0.0, 0.01, (n, k))
        cols[:, : (2 * k) // 5] = rng.normal(0.0, 0.3, (n, (2 * k) // 5))
        return cols
    raise ValueError(kind)


def spans(cols):
    """Each row's spread max - min in bandwidths (NaN for a unanimous row)."""
    with np.errstate(invalid="ignore"):
        return np.ptp(cols, axis=1) / silverman_bandwidth(np.sort(cols, axis=1), axis=1)


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
                    got = fft_aggregator._kernel_terms(diff.copy(), h[:, None, None], far)
                    assert got.tobytes() == want.tobytes()


class TestPrunedKdeSearch:
    """The banded pass, which stops a chunk once every later term is +0.0,
    picks what a direct double loop over the distinct values picks."""

    @pytest.mark.parametrize("kind", COLUMN_KINDS)
    def test_matches_exhaustive_search(self, kind):
        rng = np.random.default_rng(COLUMN_KINDS.index(kind))
        checked = total = 0
        for k in range(2, 51):
            cols = _columns(kind, rng, k)
            checked += check_oracle(cols, fft_aggregator._kde_values(cols))
            total += len(cols)
        # mirrored clusters tie by construction; the other families seldom do
        assert checked >= (0.4 if kind == "two_clusters" else 0.9) * total

    @pytest.mark.parametrize("v", [1e4, 1e8, 1e12, 1e13, 1e16, 1e150, 1e300, 1.7e308])
    def test_one_far_client(self, v):
        # 49 honest N(0, 0.01) values and one client at +-v: the far client is
        # never picked, whatever v, and no warning is raised
        rng = np.random.default_rng(8)
        cols = rng.normal(0.0, 0.01, (2000, 50))
        far = rng.integers(0, 50, 2000)
        cols[np.arange(2000), far] = v * rng.choice([-1.0, 1.0], 2000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fft_aggregator._kde_values(cols)
        assert np.all(np.abs(got) < 1.0)
        assert check_oracle(cols[:40], got[:40]) >= 36

    @pytest.mark.parametrize("chunk", [1, 3000, 1 << 40, None])
    def test_picks_do_not_depend_on_chunk_size(self, chunk, monkeypatch):
        # near and far rows interleaved: far rows go in chunks of their own
        rng = np.random.default_rng(9)
        kinds = ("random", "duplicates", "two_clusters", "integers", "far", "atoms", "unanimous")
        for k in (7, 12, 50):
            cols = np.concatenate([_columns(kind, rng, k, n=8) for kind in kinds])
            cols = cols[rng.permutation(len(cols))]
            far = spans(cols) >= fft_aggregator._KDE_FAR_SPAN
            assert 0 < np.count_nonzero(far) < len(cols)
            with monkeypatch.context() as patch:
                want = fft_aggregator._kde_values(cols)
                if chunk is not None:
                    patch.setattr(fft_aggregator, "_KDE_CHUNK", chunk)
                got = fft_aggregator._kde_values(cols)
            assert np.array_equal(got, want)
            assert check_oracle(cols, got) >= 0.75 * len(cols)  # two_clusters rows tie


def timed(f, repeats=5):
    """The least process time of ``repeats`` calls of f."""
    best = math.inf
    for _ in range(repeats):
        began = time.process_time()
        f()
        best = min(best, time.process_time() - began)
    return best


def extreme_columns(case, rng, n=676, k=50):
    """(n, k) columns of one extreme family, for the kde property tests."""
    cols = rng.normal(0.0, 0.01, (n, k))
    if case == "one_at_max":
        cols[np.arange(n), rng.integers(0, k, n)] = 1.7e308 * rng.choice([-1.0, 1.0], n)
    elif case == "twenty_at_max":
        cols[:, :20] = 1.7e308 * rng.choice([-1.0, 1.0], (n, 20))
    elif case == "subnormal":
        cols = np.round(cols * 1e4) * 5e-324
    elif case == "tiny_and_subnormal":
        cols *= 1e-300
        cols[:, :10] *= 1e-10
    elif case == "zero_bandwidth":
        # scaled by 2^-1, the quartiles 0 and 1e-323 are one subnormal step
        # apart, and Silverman's h underflows to 0
        cols[:] = 0.0
        cols[:, 0] = rng.uniform(0.5, 1.0, n)
        cols[:, 1 : k // 2 + 1] = 1e-323
    elif case == "all_but_one_equal":
        cols[:] = cols[:, :1]
        cols[np.arange(n), rng.integers(0, k, n)] = rng.normal(0.0, 1e300, n)
    return cols


EXTREME_CASES = ("one_at_max", "twenty_at_max", "subnormal", "tiny_and_subnormal", "zero_bandwidth", "all_but_one_equal")


class TestKdeExtremeValues:
    """No finite value a client sends makes the kde warn, pick a value nobody
    sent, or cost more than a fixed multiple of a clean set."""

    @pytest.mark.parametrize("case", EXTREME_CASES)
    def test_picks_a_sent_value_without_warnings(self, case):
        cols = extreme_columns(case, np.random.default_rng(EXTREME_CASES.index(case)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fft_aggregator._kde_values(cols)
        assert np.all(np.any(cols == got[:, None], axis=1))
        if case != "all_but_one_equal":
            assert np.all(np.abs(got) < 1.0)  # the honest majority wins
        else:
            assert np.all(np.count_nonzero(cols == got[:, None], axis=1) == cols.shape[1] - 1)
        check_oracle(cols[:30], got[:30])

    @pytest.mark.parametrize("case", EXTREME_CASES)
    def test_time_within_a_multiple_of_clean(self, case):
        rng = np.random.default_rng(20)
        clean = rng.normal(0.0, 0.01, (676, 50))
        cols = extreme_columns(case, rng)
        fft_aggregator._kde_values(cols)  # grow the scratch buffers first
        assert timed(lambda: fft_aggregator._kde_values(cols)) <= 4.0 * timed(
            lambda: fft_aggregator._kde_values(clean)
        )


class TestKdeRule:
    """The rule's own choices: distinct values once, ties, client order."""

    def test_identical_submissions_count_once(self):
        # an atom of identical colluders does not outweigh a spread cluster
        honest = np.linspace(-0.05, 0.05, 11)
        assert fft_select(np.concatenate([np.full(9, 0.2), honest]), KDE).value in honest

    def test_exact_tie_goes_to_the_most_clients_then_the_smallest_value(self):
        # two distinct values always tie exactly
        assert fft_select(np.array([5.0, 1.0, 1.0, 1.0, 5.0]), KDE) == (1.0, 1)
        assert fft_select(np.array([5.0, 1.0, 5.0, 1.0, 5.0]), KDE) == (5.0, 0)
        assert fft_select(np.array([2.0, 1.0, 2.0, 1.0]), KDE) == (1.0, 1)
        # so one client cannot take a coordinate the others agree on
        for odd in (-1e300, -1.0, 1e-300, 1.7e308):
            assert fft_select(np.r_[np.full(7, 0.5), odd, np.full(12, 0.5)], KDE) == (0.5, 0)
        # distinct mirrored values score alike, and the smaller one wins
        rng = np.random.default_rng(31)
        for k in (2, 4, 6, 10, 20, 50):
            half = np.cumsum(rng.uniform(0.5, 1.5, (200, k // 2)), axis=1)
            assert np.all(fft_aggregator._kde_values(np.concatenate([half, -half], axis=1)) < 0)

    @pytest.mark.parametrize("kind", COLUMN_KINDS)
    def test_client_order_does_not_matter(self, kind):
        rng = np.random.default_rng(30 + COLUMN_KINDS.index(kind))
        for k in (2, 3, 7, 20, 50):
            # enough rows that a bandwidth rounded in client order would flip
            # some near tie among the two_clusters and integers rows
            cols = _columns(kind, rng, k, n=400)
            want = fft_aggregator._kde_values(cols)
            shuffled = rng.permuted(cols, axis=1)
            assert np.array_equal(fft_aggregator._kde_values(shuffled), want)
            assert np.array_equal(fft_aggregator._kde_values(cols[:, ::-1]), want)


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


def layer_columns(updates):
    """Each layer's (coordinates x clients) matrix."""
    return [np.stack([u.weights.layers[li].ravel() for u in updates], axis=1) for li in range(len(LAYER_SHAPES))]


def per_layer_reference(updates, strategy):
    """Each layer's selections on their own, in one chunk per layer."""
    pick = fft_aggregator._kde_values if strategy.kind == "kde" else literal_reference
    return ModelWeights([pick(cols).reshape(shape) for cols, shape in zip(layer_columns(updates), LAYER_SHAPES)])


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
        # at K = 12, budgets of 1 and 3000 elements hold 1 and 250 of the 180
        # coordinates per chunk, and far rows go in chunks of their own
        updates = layered_updates(np.random.default_rng(50))
        want = per_layer_reference(updates, strategy)
        if chunk is not None:
            monkeypatch.setattr(fft_aggregator, "_KDE_CHUNK", chunk)
        got = fft_aggregate(updates, strategy)
        assert got == want
        if strategy.kind == "kde":
            checked = sum(check_oracle(cols, layer.ravel()) for cols, layer in zip(layer_columns(updates), got.layers))
            assert checked >= 0.8 * sum(len(cols) for cols in layer_columns(updates))

    def test_stale_scratch_contents_change_nothing(self):
        updates = layered_updates(np.random.default_rng(51))
        for strategy in (KDE, LITERAL):
            first = fft_aggregate(updates, strategy)
            names = poison_scratch()
            assert fft_aggregate(updates, strategy) == first
        assert {"kde.sorted", "kde.scaled", "kde.values", "kde.weight", "kde.score", "kde.diff", "kde.keep"} <= names
        assert {"literal.sorted", "literal.signal", "literal.spectrum", "literal.mags"} <= names
