"""Reference implementations that the fast paths are checked against.

Each is written to be read, not to be fast: direct sums, loops and
exhaustive searches over numpy arrays and ``math``. ``fedfft selftest`` and
the test suite both take them from here. No module on a round's path
imports this one, and neither does the package's ``__init__``.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .detector import DetectorConfig, kolmogorov_pvalue
from .fedsim import MlpModel
from .spectral import silverman_bandwidth
from .tensors import ModelWeights


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
    worst = np.max(np.linalg.norm(crafted[:, None, :] - points[None, :, :], axis=2), axis=1)
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
    zero) scores 0.
    """
    analytic = model.gradients(weights, x, y)
    worst = 0.0
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
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst
