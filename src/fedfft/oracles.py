"""Reference implementations that the fast paths are checked against, and
the checks that compare them.

Each reference is written to be read, not to be fast: direct sums, loops
and exhaustive searches over numpy arrays and ``math``. Each check in
``CHECKS`` drives one reference over its own input family; ``fedfft
selftest`` and the test suite both run the table. No module on a round's
path imports this one, and neither does the package's ``__init__``.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .adversary import min_max_craft
from .aggregators import krum_select
from .detector import DetectorConfig, gaussian_ks_statistic, kolmogorov_pvalue, ks_statistic, mal_test
from .fedsim import MlpModel, SyntheticTask, gen_task, local_updates
from .fft_aggregator import FftStrategy, fft_aggregate
from .spectral import fft, kde_density, silverman_bandwidth
from .tensors import ClientUpdate, ModelWeights, pairwise_sq_distances


def dft_naive(x) -> np.ndarray:
    """Textbook O(N^2) DFT along the last axis, X(k) = sum_m x(m) exp(-2*pi*i*k*m/N).

    Leading axes are a batch: every row is multiplied by the one (N, N) DFT
    matrix, which is symmetric.
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim < 1 or x.shape[-1] < 1:
        raise ValueError("dft_naive expects a non-empty sequence")
    k = np.arange(x.shape[-1])
    return x @ np.exp(-2j * np.pi * np.outer(k, k) / x.shape[-1])


def kde_density_direct(sample, grid) -> np.ndarray:
    """Direct O(n * G) Gaussian KDE of ``sample`` at every point of ``grid``,
    with the Silverman bandwidth."""
    sample = np.asarray(sample, dtype=np.float64).ravel()
    h = silverman_bandwidth(sample)
    z = (np.asarray(grid)[:, None] - sample[None, :]) / h
    return np.exp(-0.5 * z * z).sum(axis=1) / (sample.size * h * math.sqrt(2.0 * math.pi))


# Densities within this relative margin of the best one count as a near tie,
# which rounding may decide either way, so kde_pick gives no pick there.
TIE_MARGIN = 1e-9


def kde_pick(col) -> float | None:
    """The kde's pick by a direct double loop over the distinct values, or None.

    The row is scaled by 2^-e (e the exponent of its largest magnitude,
    clipped to +-1021) so that its spread cannot overflow, and h is the
    Silverman bandwidth of the sorted, scaled row. Each distinct value x
    scores sum_y exp(-((x - y) / h)^2 / 2) over the distinct values y. The
    best score wins; an exact tie goes to the value the most clients sent,
    then to the smaller value. None when some other score lies
    within TIE_MARGIN of the best (relative), since rounding decides such a
    near tie, unless the row holds two distinct values: their scores 1 + t
    and t + 1 tie exactly.
    """
    s = np.sort(np.asarray(col, dtype=np.float64))
    e = min(max(math.frexp(max(-s[0], s[-1]))[1], -1021), 1021)
    z = s * 2.0**-e
    h = max(float(silverman_bandwidth(z)), 5e-324)
    distinct = sorted(set(z.tolist()))
    scores = []
    for x in distinct:
        # |(x - y) / h| > 40 gives exp(-800) = 0.0, and could overflow on squaring
        q = [(x - y) / h for y in distinct]
        scores.append(math.fsum(math.exp(-0.5 * t * t) for t in q if abs(t) <= 40.0))
    best = max(scores)
    near = [x for x, score in zip(distinct, scores) if score >= best * (1.0 - TIE_MARGIN)]
    if len(distinct) == 2:
        # 1 + t against t + 1: an exact tie
        near = (max(near, key=lambda t: (np.count_nonzero(z == t), -t)),)
    return s[np.nonzero(z == near[0])[0][0]] if len(near) == 1 else None


def kolmogorov_series(lam: float) -> float:
    """The Kolmogorov tail Q(lambda) = 2 sum_{j>=1} (-1)^(j-1) exp(-2 j^2 lambda^2),
    199 terms summed exactly."""
    return 2.0 * math.fsum((-1) ** (j - 1) * math.exp(-2.0 * j * j * lam * lam) for j in range(1, 200))


def kolmogorov_dual_series(lam: float) -> float:
    """Q(lambda) from the dual (theta) series, 1 - sqrt(2 pi) / lambda *
    sum_{j>=1} exp(-(2j - 1)^2 pi^2 / (8 lambda^2)), 29 terms summed exactly."""
    total = math.fsum(math.exp(-((2 * j - 1) ** 2) * math.pi**2 / (8.0 * lam * lam)) for j in range(1, 30))
    return 1.0 - math.sqrt(2.0 * math.pi) / lam * total


def ecdf_distance(a, b) -> float:
    """sup_t |ECDF_a(t) - ECDF_b(t)|, evaluated at every value of either sample."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    grid = np.unique(np.concatenate([a, b]))
    return max(abs(float(np.mean(a <= t)) - float(np.mean(b <= t))) for t in grid)


def gaussian_ks_distance(sample, mu: float, sigma: float) -> float:
    """sup_x |ECDF(x) - F(x)| of a 1-D sample, F the CDF of Normal(mu, sigma > 0).

    The sup is reached at a sample point, from its left or at it; F comes
    from ``math.erf`` at every value.
    """
    s = np.asarray(sample, dtype=np.float64)
    cdf = np.array([0.5 * (1.0 + math.erf((x - mu) / sigma * (1.0 / math.sqrt(2.0)))) for x in s])
    below = np.mean(s[None, :] < s[:, None], axis=1)
    upto = np.mean(s[None, :] <= s[:, None], axis=1)
    return max(float(np.max(np.abs(cdf - below))), float(np.max(np.abs(cdf - upto))))


def floyd_held_out(u, k: int) -> set[int]:
    """The ranks of 0 .. k-1 one draw holds out: Floyd's algorithm, one uniform per step."""
    held: set[int] = set()
    for ui, j in zip(u, range(k - len(u), k)):
        t = int(ui * (j + 1))
        held.add(j if t in held else t)
    return held


def left_to_right_sum(values):
    """The values added one at a time, first to last."""
    return functools.reduce(operator.add, values)


def ks_draw_scores(
    mat: np.ndarray, cfg: DetectorConfig, rng: np.random.Generator, scaled: bool = True
) -> np.ndarray:
    """Contamination score of every column of a (K, n) matrix, every draw
    decided by its p-value.

    Draw by draw, in column then repetition order, ``cfg.subset_size``
    uniforms from ``rng`` pick the held-out ranks (:func:`floyd_held_out`);
    the draw keeps the column's sorted values at the other ranks. Its mean
    and variance are sums taken left to right over those values. A draw
    whose values are all equal does not reject, and a draw with sigma 0
    whose values are not all equal does; any other draw rejects when the
    p-value of its :func:`gaussian_ks_distance` is below
    ``cfg.reject_level``. With ``scaled``, each draw is first divided by the
    power of two that brings its largest magnitude into [0.5, 1), as far as
    a normal factor allows; without it, the draws are scored as drawn.
    """
    K, n = mat.shape
    size = K - cfg.subset_size
    uniforms = rng.random((n, cfg.repetitions, cfg.subset_size))
    reject = np.zeros((n, cfg.repetitions), dtype=bool)
    decided = np.zeros((n, cfg.repetitions), dtype=bool)
    distance = np.zeros((n, cfg.repetitions))
    for c in range(n):
        ranked = np.sort(mat[:, c])
        for r in range(cfg.repetitions):
            held = floyd_held_out(uniforms[c, r], K)
            draw = np.array([ranked[i] for i in range(K) if i not in held])
            if scaled:
                e = math.frexp(float(np.max(np.abs(draw))))[1]
                draw = draw * 2.0 ** -min(max(e, -1021), 1021)
            mu = left_to_right_sum(draw) / size
            sigma = math.sqrt(left_to_right_sum([(v - mu) * (v - mu) for v in draw]) / size)
            flat = bool(np.all(draw == draw[0]))
            if flat or sigma == 0.0:
                decided[c, r], reject[c, r] = True, not flat
            else:
                distance[c, r] = gaussian_ks_distance(draw, mu, sigma)
    # the p-values of all the other draws, elementwise in one call
    reject |= ~decided & (kolmogorov_pvalue(distance, size) < cfg.reject_level)
    return np.mean(reject, axis=-1)


def krum_scores(rows, f: int) -> list[float]:
    """Krum's score of every row by exhaustive search: the sum of its
    K - f - 2 smallest squared distances to the other rows."""
    k = len(rows)
    scores = []
    for i in range(k):
        d2 = sorted(float(np.sum((rows[i] - rows[j]) ** 2)) for j in range(k) if j != i)
        scores.append(sum(d2[: k - f - 2]))
    return scores


def exact_krum_pick(rows, f: int) -> int:
    """Krum's pick from the whole broadcast distance matrix."""
    with np.errstate(over="ignore"):
        d2 = broadcast_sq_distances(rows)
        scores = np.sort(d2, axis=1)[:, 1 : len(rows) - f - 1].sum(axis=1)
    return int(np.argmin(scores))


def broadcast_sq_distances(rows: np.ndarray, block: int = 10) -> np.ndarray:
    """Every pairwise squared distance from the (K, K, P) difference tensor,
    built ``block`` rows at a time."""
    out = []
    for i in range(0, len(rows), block):
        d = rows[i : i + block, None, :] - rows[None, :, :]
        out.append(np.einsum("ijk,ijk->ij", d, d))
    return np.concatenate(out)


def diameter(points) -> float:
    """The largest distance between two of the rows of ``points``."""
    m = len(points)
    return max(float(np.linalg.norm(points[i] - points[j])) for i in range(m) for j in range(i + 1, m))


def min_max_gamma_grid(points: np.ndarray, perturbation: np.ndarray, top: float) -> float:
    """The largest gamma of a 100,000-point grid on [0, top] whose point
    mean + gamma * perturbation lies within the diameter of every row of ``points``."""
    grid = np.linspace(0.0, top, 100_000)
    crafted = points.mean(axis=0)[None, :] + grid[:, None] * perturbation[None, :]
    worst = np.max([np.linalg.norm(crafted - row, axis=1) for row in points], axis=0)
    return float(grid[np.nonzero(worst <= diameter(points))[0][-1]])


def sgd_loop(
    weights: ModelWeights, x_train, y_train, epochs: int, batch_size: int, learning_rate: float, rng
) -> list[np.ndarray]:
    """One client's SGD as a plain loop over its batches, with a one-model
    kernel of its own (fresh arrays, a masked assignment for the ReLU)."""
    params = [a.copy() for a in weights.layers]
    n = x_train.shape[0]
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            x, y = x_train[idx], y_train[idx]
            w1, b1, w2, b2 = params
            hidden = np.maximum(x @ w1 + b1, 0.0)
            logits = hidden @ w2 + b2
            logits = logits - logits.max(axis=1, keepdims=True)
            expl = np.exp(logits)
            dlogits = expl / expl.sum(axis=1, keepdims=True)
            dlogits[np.arange(x.shape[0]), y] -= 1.0
            dlogits /= x.shape[0]
            gw2 = hidden.T @ dlogits
            gb2 = dlogits.sum(axis=0)
            dhidden = dlogits @ w2.T
            dhidden[hidden <= 0.0] = 0.0
            gw1 = x.T @ dhidden
            gb1 = dhidden.sum(axis=0)
            for p, g in zip(params, [gw1, gb1, gw2, gb2]):
                p -= learning_rate * g
    return params


def grad_check(
    model: MlpModel,
    weights: ModelWeights,
    x: np.ndarray,
    y: np.ndarray,
    step: float = 1e-5,
) -> float:
    """Max relative error between backprop and central finite differences.

    Relative error per parameter is |analytic - numeric| divided by
    max(|analytic|, |numeric|, 1e-8), so exactly matching (including both
    zero) scores 0, and a NaN on either side makes the result NaN.
    """
    analytic = model.gradients(weights, x, y)
    errors = []
    layers = [a.copy() for a in weights.layers]
    for li, layer in enumerate(layers):
        flat = layer.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            loss_hi = model.loss(ModelWeights(layers), x, y)
            flat[i] = orig - step
            loss_lo = model.loss(ModelWeights(layers), x, y)
            flat[i] = orig
            numeric = (loss_hi - loss_lo) / (2.0 * step)
            a = float(analytic[li].ravel()[i])
            errors.append(abs(a - numeric) / max(abs(a), abs(numeric), 1e-8))
    # np.max, not max(): Python's max drops a NaN that is not its first argument
    return float(np.max(errors))


# ---------------------------------------------------------------------------
# Checks: each drives one oracle over its own input family and returns None
# when every case passes, or a string that names the first failing case.
# ``fedfft selftest`` and the test suite both run CHECKS.
# ---------------------------------------------------------------------------

def _one_layer_updates(rows: np.ndarray) -> list[ClientUpdate]:
    return [ClientUpdate(k, ModelWeights([row]), 1) for k, row in enumerate(rows)]


def shelf_rows(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """(n, k) rows of a shelf attack on the kde: k - k // 5 honest N(0, 1)
    values and k // 5 attackers 36.6-39.6 bandwidths above the honest
    median, so that many kernel arguments land in (-746, -708), where
    numpy's ``exp`` leaves its fast path.

    The attackers sit above the upper quartile, so they leave the IQR, and
    with it the row's Silverman bandwidth, as it is wherever they are.
    """
    honest = k - k // 5
    rows = rng.normal(0.0, 1.0, (n, k))
    rows[:, honest:] = 1e6
    h = silverman_bandwidth(rows, axis=1)
    shelf = rng.uniform(36.6, 39.6, (n, k - honest)) * h[:, None]
    rows[:, honest:] = np.median(rows[:, :honest], axis=1, keepdims=True) + shelf
    return rows


def far_colluder_rows(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """(n, k) rows of 2k // 5 identical colluders 50-500 standard deviations
    from k - 2k // 5 honest N(0, 1) values: runs of equal values and far
    spread at once."""
    rows = rng.normal(0.0, 1.0, (n, k))
    rows[:, : (2 * k) // 5] = rng.choice([-1.0, 1.0], (n, 1)) * rng.uniform(50.0, 500.0, (n, 1))
    return rows


def check_fft() -> str | None:
    """``spectral.fft`` against :func:`dft_naive`, three normal rows at every
    length 1-128 and at 257, and each row of a batch bit for bit as alone."""
    rng = np.random.default_rng(7)
    for n in [*range(1, 129), 257]:
        x = rng.normal(size=(3, n))
        err = float(np.max(np.abs([fft(row) for row in x] - dft_naive(x))))
        if not err < 1e-9:
            return f"n={n}: max error {err:.3e}"
    # literal's batched selection agrees with fft_select only if every row of
    # a batch transforms bit for bit as it does alone
    batch = rng.normal(size=(37, 50))
    for r, (got, row) in enumerate(zip(fft(batch), batch)):
        if not np.array_equal(got, fft(row)):
            return f"row {r} of a (37, 50) batch differs from its own transform"
    return None


def check_ks() -> str | None:
    """The two-sample KS statistic against :func:`ecdf_distance` on integer
    samples of size 1-8 over {0..4}; the detector's one-sample distance
    against :func:`gaussian_ks_distance`, exactly, on 1-40 rows of 1-60
    values with ties; and mal_test's scores under a power-of-two scaling."""
    rng = np.random.default_rng(8)
    for _ in range(200):
        a = rng.integers(0, 5, rng.integers(1, 9)).astype(float)
        b = rng.integers(0, 5, rng.integers(1, 9)).astype(float)
        if ks_statistic(a, b) != ecdf_distance(a, b):
            return f"a={a.tolist()} b={b.tolist()}"
    for _ in range(20):
        rows, n = int(rng.integers(1, 41)), int(rng.integers(1, 61))
        batch = np.round(rng.normal(size=(rows, n)), 1)
        mu = rng.normal(0.0, 0.3, rows)
        sigma = rng.uniform(0.5, 2.0, rows)
        got = gaussian_ks_statistic(batch, mu, sigma)
        if got.shape != (rows,):
            return f"rows={rows} n={n}: shape {got.shape}"
        for r in range(rows):
            if got[r] != gaussian_ks_distance(batch[r], mu[r], sigma[r]):
                return f"rows={rows} n={n}: row {r}"
    # the detector scores each draw at unit scale, so a power-of-two factor
    # on every client, even one whose squares overflow or underflow, moves
    # no score bit
    mat = rng.normal(size=(30, 40))
    mat[:8, ::2] += 4.0
    scores = mal_test(_one_layer_updates(mat), DetectorConfig(), seed=1)
    for power in (600, -600):
        if not np.array_equal(mal_test(_one_layer_updates(mat * 2.0**power), DetectorConfig(), seed=1), scores):
            return f"scores move when every client is scaled by 2**{power}"
    return None


def check_ks_band() -> str | None:
    """mal_test's bulk pass (Floyd draws in rank space, decided by the
    critical band) against :func:`ks_draw_scores`, every draw by its p-value."""
    # a quarter of the clients is shifted on half of the coordinates, with
    # tied and unanimous coordinates among them; 7 retained values at level
    # 0.9 take the band's widest bounds
    rng = np.random.default_rng(12)
    for k, cfg in (
        (8, DetectorConfig(subset_size=2, reject_level=0.5)),
        (20, DetectorConfig(reject_level=0.2)),
        (50, DetectorConfig()),
        (12, DetectorConfig(reject_level=0.9)),
    ):
        mat = rng.normal(size=(k, 14))
        mat[: k // 4, ::2] += rng.uniform(3.0, 8.0, 7)
        mat[:, 3] = np.round(mat[:, 3])
        mat[:, 5] = mat[0, 5]
        seed = int(rng.integers(1 << 30))
        got = mal_test(_one_layer_updates(mat), cfg, seed)
        # a one-layer model's draws come from the stream keyed (seed, 0)
        want = ks_draw_scores(mat, cfg, np.random.default_rng([seed, 0]))
        case = f"K={k} s={cfg.subset_size} level={cfg.reject_level}"
        if not np.array_equal(got, want):
            return f"{case}: coordinates {np.nonzero(got != want)[0].tolist()}"
        if not (got.max() > 0.0 and got.min() == 0.0):
            return f"{case}: scores span [{got.min()}, {got.max()}], not a shifted and a clean coordinate"
    return None


def check_krum() -> str | None:
    """Krum's pick against :func:`krum_scores` at K 4-7, every f in [0, K-3];
    its distance kernel against :func:`broadcast_sq_distances`; and its
    Gram-bounded pick against :func:`exact_krum_pick` on duplicated rows and
    near ties."""
    rng = np.random.default_rng(9)
    for _ in range(100):
        K = int(rng.integers(4, 8))
        f = int(rng.integers(0, K - 2))
        flat = rng.normal(size=(K, int(rng.integers(1, 5))))
        if krum_select(_one_layer_updates(flat), f) != int(np.argmin(krum_scores(flat, f))):
            return f"K={K} f={f} P={flat.shape[1]}"
    # duplicates included, on row subsets of every size; 9000 values pass
    # numpy's 8192-element einsum buffer
    for K, P in ((1, 40), (2, 40), (3, 9000), (6, 9000), (11, 9000)):
        rows = rng.normal(size=(K, P))
        rows[K // 2] = rows[0]
        want = broadcast_sq_distances(rows)
        for which in [rng.choice(K, size, replace=False) for size in range(K + 1)]:
            got = pairwise_sq_distances(rows, which)
            if not np.array_equal(got[which], want[which]) or not np.array_equal(got.T[which], want.T[which]):
                return f"distances K={K} P={P} rows {sorted(which.tolist())}"
    for _ in range(20):
        K = int(rng.integers(4, 13))
        f = int(rng.integers(0, K - 2))
        rows = rng.normal(size=(K, 9000))
        rows[K // 2 :] = rows[rng.integers(0, K // 2)]
        for offset, cand in (("", rows), (" near ties on 1e3", 1e3 + 1e-4 * rows)):
            if krum_select(_one_layer_updates(cand), f) != exact_krum_pick(cand, f):
                return f"K={K} f={f} P=9000{offset}"
    return None


def check_min_max() -> str | None:
    """The min-max craft's gamma against :func:`min_max_gamma_grid`, on 2-4
    points in 1 or 2 dimensions, scaled by 0.25-4."""
    rng = np.random.default_rng(10)
    for _ in range(30):
        dim = int(rng.integers(1, 3))
        m = int(rng.integers(2, 5))
        pts = rng.normal(size=(m, dim)) * rng.uniform(0.25, 4.0)
        res = min_max_craft([ModelWeights([row]) for row in pts])
        best = min_max_gamma_grid(pts, res.perturbation_vec.flat(), max(4.0 * diameter(pts), 1.0))
        if not abs(res.gamma - best) <= 1e-4 * max(1.0, best):
            return f"m={m} dim={dim}: gamma {res.gamma!r}, grid {best!r}"
    return None


def check_gradients() -> str | None:
    """Backprop against :func:`grad_check`'s finite differences on a 4-5-3
    MLP at five initial weights."""
    model = MlpModel(dim=4, hidden=5, classes=3)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(8, 4))
        y = rng.integers(0, 3, 8)
        err = grad_check(model, model.init_weights(seed), x, y)
        if not err < 1e-5:
            return f"seed={seed}: relative error {err:.2e}"
    return None


def check_local_sgd() -> str | None:
    """``local_updates`` against :func:`sgd_loop` on each shard alone, bit for bit."""
    # 23 training rows per shard: batches of 8, 8 and a short 7, over three
    # classes, and over 2, 8 and 10 (numpy's class-axis sum turns pairwise at 8)
    cases = [(clients, hidden, 8, 3) for clients, hidden in ((1, 4), (3, 4), (7, 4), (5, 64))]
    cases += [(4, 8, 8, classes) for classes in (2, 8, 10)]
    # and batches of one through a unit that no input reaches (its bias is
    # -1e300) but whose outgoing weights overflow its gradient: the ReLU mask
    # must give 0.0 there, where a multiply by the mask gives inf * 0 = NaN
    cases.append((3, 8, 1, 3))
    epochs, lr = 2, 0.1
    for clients, hidden, batch, classes in cases:
        task = SyntheticTask(dim=3, classes=classes, per_client=29, clients=clients, seed=clients)
        data = gen_task(task)
        model = MlpModel(dim=3, hidden=hidden, classes=classes)
        start = model.init_weights(clients)
        if batch == 1:
            w1, b1, w2, b2 = (a.copy() for a in start.layers)
            b1[0] = -1e300
            w2[0] = [1.7e308, -1.7e308, 1.7e308]
            start = ModelWeights([w1, b1, w2, b2])
        rng = lambda k: np.random.default_rng([clients, k])  # noqa: E731
        # gen_task's contiguous stack, and the copy of the odd shards that
        # run_experiment trains once the attackers drop out
        everyone = list(range(clients))
        inputs = [(everyone, data.train_x, data.train_y)]
        odd = everyone[1::2]
        if odd:
            inputs.append((odd, data.train_x[odd], data.train_y[odd]))
        for ids, xs, ys in inputs:
            case = f"clients={clients} hidden={hidden} batch={batch} classes={classes} ids={ids}"
            with np.errstate(over="ignore"):
                try:
                    batched = local_updates(model, start, xs, ys, epochs, batch, lr, [rng(k) for k in ids], ids)
                except ValueError as exc:
                    return f"{case}: {exc}"
                for k, update in zip(ids, batched):
                    shard = data.clients[k]
                    want = sgd_loop(start, shard.train_x, shard.train_y, epochs, batch, lr, rng(k))
                    got = update.weights.layers
                    if update.client_id != k or any(a.tobytes() != b.tobytes() for a, b in zip(got, want)):
                        return f"{case}: client {k}"
    return None


def check_kde() -> str | None:
    """``kde_density`` against :func:`kde_density_direct` on normal, uniform
    and two-cluster samples of 2-64 values, and kde's pick against
    :func:`kde_pick` on tie-heavy, far-spread, shelf and far-colluder
    columns."""
    rng = np.random.default_rng(11)
    for trial in range(30):
        n = int(rng.integers(2, 65))
        if trial % 3 == 0:
            s = rng.normal(0.0, rng.uniform(0.3, 3.0), n)
        elif trial % 3 == 1:
            s = rng.uniform(-5.0, 5.0, n)
        else:
            s = np.concatenate([rng.normal(-2.0, 0.4, n // 2), rng.normal(2.0, 0.4, n - n // 2)])
        if np.all(s == s[0]):
            continue
        est = kde_density(s, 256)
        ref = kde_density_direct(s, est.grid)
        err = float(np.max(np.abs(est.density - ref) / ref))
        if not err < 1e-6:
            return f"n={n} sample {('normal', 'uniform', 'two-cluster')[trial % 3]}: relative error {err:.2e}"
    # the banded pass against a double loop over the distinct values, on
    # tie-heavy columns (repeated integers, mirrored clusters, one odd value),
    # on far-spread ones shaped like a random-weights attack, on a shelf of
    # attackers about 37 bandwidths out, and on far identical colluders; the
    # last three take the guarded exp
    checked = total = 0
    for k in range(2, 51, 3):
        spread = (2 * k) // 5
        cols = np.stack(
            [
                rng.integers(-3, 4, k).astype(float),
                np.resize(np.concatenate([[-1.5, 1.5], np.round(rng.normal(0.0, 0.1, 4), 1)]), k),
                np.concatenate([np.full(k - 1, rng.normal()), [rng.normal(0.0, 5.0)]]),
                np.concatenate([-np.abs(rng.normal(2.0, 0.2, k // 2)), np.abs(rng.normal(2.0, 0.2, k - k // 2))]),
                np.concatenate([rng.normal(0.0, 0.3, spread), rng.normal(0.0, 0.01, k - spread)]),
                np.concatenate([rng.normal(0.0, 0.3, spread), rng.normal(0.0, 0.01, k - spread)]),
                shelf_rows(rng, 1, k)[0],
                far_colluder_rows(rng, 1, k)[0],
            ],
            axis=1,
        )
        picked = fft_aggregate(_one_layer_updates(cols), FftStrategy()).layers[0]
        for j, (col, got) in enumerate(zip(cols.T, picked)):
            want = kde_pick(col)
            total += 1
            if want is not None:
                checked += 1
                if got != want:
                    return f"K={k} column {j}: picked {float(got)!r}, want {float(want)!r}"
    if checked < 0.8 * total:
        return f"only {checked} of {total} columns have a pick to compare"
    return None


CHECKS = {
    "fft-vs-naive-dft": check_fft,
    "ks-brute-force": check_ks,
    "ks-band-vs-exact": check_ks_band,
    "krum-exhaustive": check_krum,
    "minmax-gamma-grid": check_min_max,
    "gradient-finite-difference": check_gradients,
    "local-sgd-loop": check_local_sgd,
    "kde-direct-sum": check_kde,
}
