"""Two-sample Kolmogorov-Smirnov machinery, the per-coordinate contamination
test, and the dynamic FedAvg/FFT switch.

``ks_statistic`` / ``ks_pvalue`` are the classic two-sample pieces (exact
sup-distance over merged samples; asymptotic tail probability with the
small-sample corrected scaling). They back the ``ks-test`` CLI command and
are usable on their own.

The contamination score behind the dynamic switch works per coordinate: C
times, hold out a random subset of size S and ask how well the retained
values fit a Gaussian law fitted on those same retained values, measured by
the one-sample KS distance and the same asymptotic tail law. Every
coordinate of the model is scored in one batched pass, chunk by chunk,
with the chunks' large temporaries in reused per-thread scratch buffers;
the held-out subsets of a layer's coordinates come from one random stream
keyed by ``(seed, layer)``, S uniforms per draw. A subset is drawn by rank:
Floyd's algorithm turns the S uniforms into S distinct ranks of the
coordinate's sorted values, so one sort per coordinate gives every draw's
retained values in ascending order, and a draw's score depends only on the
values, not on the order of the clients. The draws are laid out
position-major (one column per draw), so that the scaling, the sums over
positions and the band checks below each run along long rows. Fitting and
testing on the same values makes the check strongly conservative on clean
unimodal data (rejections are far rarer than the nominal level), while
cross-client contamination (planted constants, off-cluster weights) inflates
the distance past rejection almost surely. A plain two-sample test between a
random subset and its complement cannot do this job: its statistic depends
only on the subset's ranks, whose distribution is identical with and without
contamination, so its rejection rate never moves off the null rate.

Each draw is first multiplied by 2^-e, with e the binary exponent of its
largest magnitude (clipped to [-1021, 1021], so that the factor is a normal
float; ``tensors.unit_scale``, which the kde shares). A KS test against a
Gaussian fitted on the draw itself does not depend on the draw's scale,
and scaling by a power of two is exact, so a draw whose mean, sigma and
standardised values stay in the normal range scores bit for bit as it
would unscaled. Yet no draw's squares overflow or
underflow: every draw of finite values that are not all equal has a finite
positive sigma and finite standardised values, whatever the clients sent.
The one-sample distance evaluates the Gaussian CDF with ``math.erf`` at
every position. Its Kolmogorov tail below lambda = 0.5 comes from the dual
(theta) series, which converges there in three terms.

The score only asks whether each draw's p-value is below ``reject_level``,
and most draws are answered without one. For n retained values the critical
distance d* at which the p-value equals the level is found once per (n,
level), by bisection. As the Gaussian CDF Phi is monotone, a draw's sorted
standardised values z = (s - mu) / sigma lie farther than d from the fit
exactly when some position i has z_i > Phi^-1(i/n + d) or z_i <
Phi^-1((i+1)/n - d). Bounds at d* + 1e-9 mark the draws that surely reject,
bounds at d* - 1e-9 those that surely do not. A draw whose values are all
equal never rejects, even when their mean rounds an ulp off them and sigma
comes out positive, and a flat draw (sigma 0) whose values are not all
equal always does; a draw of finite values of either kind is decided
directly. The rest take the exact path (distance, then p-value): draws
between the two edges, draws whose sigma is not finite and positive or
whose z is not finite (after the scaling, only draws whose values are not
all finite), and every draw at a level where no such band exists, whose
bounds are then all infinite. Every reject bit is therefore the
draw-by-draw reference's (``oracles.ks_draw_scores``).

Scores aggregate to a scalar per round; at or below the threshold the server
averages (FedAvg), above it the server switches to FFT-density aggregation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .aggregators import fed_avg
from .fft_aggregator import FftStrategy, fft_aggregate
from .tensors import (
    ClientUpdate,
    ModelWeights,
    layer_slices,
    scratch,
    stack_flat,
    unit_scale,
    validate_uniform,
)

DECISION_FEDAVG = "fedavg"
DECISION_FFT = "fft"

# most (coordinates x repetitions x clients) elements one scoring chunk holds
_SCORE_CHUNK = 1 << 16


class EmptySample(ValueError):
    """KS statistics need non-empty samples."""


class SubsetTooLarge(ValueError):
    """The held-out subset must be smaller than the client count."""


class KsResult(NamedTuple):
    statistic: float
    p_value: float


def ks_statistic(a, b) -> float:
    """Two-sided two-sample KS distance, sup_x |ECDF_a(x) - ECDF_b(x)|.

    Computed exactly by evaluating both empirical CDFs at every sample point
    of the merged samples.
    """
    a = np.sort(np.asarray(a, dtype=np.float64).ravel())
    b = np.sort(np.asarray(b, dtype=np.float64).ravel())
    if a.size == 0 or b.size == 0:
        raise EmptySample("both samples must be non-empty")
    merged = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, merged, side="right") / a.size
    cdf_b = np.searchsorted(b, merged, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


# below this lambda the Kolmogorov tail uses the dual (theta) series, whose
# terms fall fast there; at and above it the alternating series, whose values
# at and above 0.5 agree with the dual series to 1e-15
_KOLMOGOROV_CROSSOVER = 0.5


def _kolmogorov_sf(lam):
    """Q(lambda) = 2 * sum_{j>=1} (-1)^(j-1) exp(-2 j^2 lambda^2), clamped to [0, 1].

    Elementwise over an array of lambdas; a scalar gives a scalar. At lambda
    >= 0.5 each element adds terms of this series until one falls below
    1e-12. Below 0.5 its terms decay too slowly, so the value comes from the
    equivalent dual series Q = 1 - sqrt(2 pi) / lambda * sum_{j>=1}
    exp(-(2j - 1)^2 pi^2 / (8 lambda^2)), whose fourth term is below 1e-50
    of the first there. A NaN lambda gives 0.
    """
    lam = np.asarray(lam, dtype=np.float64)
    small = lam < _KOLMOGOROV_CROSSOVER
    total = np.zeros(lam.shape)
    active = lam >= _KOLMOGOROV_CROSSOVER
    for j in range(1, 1001):
        if not active.any():
            break
        term = np.exp(-2.0 * j * j * lam * lam)
        total += np.where(active, term if j % 2 else -term, 0.0)
        active &= term >= 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / np.where(small, lam, 1.0)
        dual = sum(np.exp(-((2 * j - 1) * math.pi * inv) ** 2 / 8.0) for j in (1, 2, 3))
        dual = 1.0 - math.sqrt(2.0 * math.pi) * inv * dual
    return np.clip(np.where(small, np.where(lam > 0.0, dual, 1.0), 2.0 * total), 0.0, 1.0)[()]


def kolmogorov_pvalue(d, n: float):
    """Asymptotic p-value of KS distance ``d`` at effective sample size ``n``.

    Stephens' small-sample scaling lambda = (sqrt(n) + 0.12 + 0.11/sqrt(n))
    * d, then the Kolmogorov tail Q(lambda). Elementwise over an array of
    distances; a scalar gives a scalar. A one-sample test passes its sample
    size, a two-sample test n*m/(n+m).
    """
    sq = math.sqrt(n)
    return _kolmogorov_sf((sq + 0.12 + 0.11 / sq) * d)


def ks_pvalue(d: float, n: int, m: int) -> float:
    """Asymptotic two-sample p-value for distance ``d`` at sizes ``n``, ``m``:
    :func:`kolmogorov_pvalue` at the effective size n*m/(n+m)."""
    if n < 1 or m < 1:
        raise EmptySample("sample sizes must be >= 1")
    if not 0.0 <= d <= 1.0:
        raise ValueError("KS distance must lie in [0, 1]")
    return float(kolmogorov_pvalue(d, n * m / (n + m)))


def ks_test(a, b) -> KsResult:
    """Statistic and p-value of the two-sample test in one call."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    d = ks_statistic(a, b)
    return KsResult(d, ks_pvalue(d, a.size, b.size))


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_erf = np.frompyfunc(math.erf, 1, 1)


def gaussian_ks_statistic(sample, mu, sigma):
    """One-sample KS distance between a sample's ECDF and Normal(mu, sigma).

    Works along the last axis of ``sample``; ``mu`` and ``sigma`` broadcast
    against its leading axes, and the result has their shape (a 1-D sample
    gives a scalar). A row with ``sigma <= 0`` scores 0 when every value
    equals ``mu`` and 1 otherwise.

    The distance is the largest deviation max(F - i/n, (i+1)/n - F) over
    sorted positions i, with F the Gaussian CDF there, evaluated with
    ``math.erf`` at every position.
    """
    s = np.sort(np.asarray(sample, dtype=np.float64), axis=-1)
    n = s.shape[-1]
    if n == 0:
        raise EmptySample("sample must be non-empty")
    mu = np.asarray(mu, dtype=np.float64)[..., None]
    sigma = np.asarray(sigma, dtype=np.float64)[..., None]
    degenerate = sigma <= 0
    z = (s - mu) / np.where(degenerate, 1.0, sigma) * _INV_SQRT2
    # rows with sigma <= 0 score by the flat rule below, so they need no CDF
    live = np.broadcast_to(~degenerate, z.shape)
    cdf = np.zeros(z.shape)
    cdf[live] = 0.5 * (1.0 + _erf(z[live]).astype(np.float64))
    # max(|F - l|, |F - u|) for l < u, the same value as max(F - l, u - F)
    dev = np.maximum(cdf - np.arange(n) / n, np.arange(1, n + 1) / n - cdf)
    flat = np.where(np.all(s == mu, axis=-1), 0.0, 1.0)
    return np.where(degenerate[..., 0], flat, dev.max(axis=-1))[()]


@dataclass(frozen=True)
class DetectorConfig:
    """Knobs of the contamination test and the switch.

    The test cannot reject when n = K - subset_size, the number of retained
    values, is so small that the widest distance n values reach from a
    Gaussian fitted on those same values (:func:`_widest_self_fit`) has a
    p-value at or above ``reject_level`` (:meth:`cannot_reject`). At the
    default level 0.05 that holds for n <= 6, so with the defaults the
    dynamic rule is plain FedAvg at K <= 11 whatever the attack.
    """

    repetitions: int = 10
    subset_size: int = 5
    reject_level: float = 0.05
    threshold: float = 0.02

    def __post_init__(self):
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.subset_size < 1:
            raise ValueError("subset_size must be >= 1")
        if not 0.0 < self.reject_level < 1.0:
            raise ValueError("reject_level must lie in (0, 1)")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")

    def cannot_reject(self, clients: int) -> bool:
        """Whether the test is blind at this client count, by the rule above."""
        n = clients - self.subset_size
        return n <= 1 or bool(kolmogorov_pvalue(_widest_self_fit(n), n) >= self.reject_level)


def _widest_self_fit(n: int) -> float:
    """(n-1)/n - Phi(-1/sqrt(n-1)), n >= 2: the KS distance of n - 1 equal
    values (at z = -1/sqrt(n-1)) and one other from the Gaussian fitted on
    them. No n values are known to lie farther from their own fit."""
    return (n - 1) / n - 0.5 * math.erfc(1.0 / math.sqrt(2.0 * (n - 1)))


# the band's two edges lie this far either side of the critical distance d*;
# a draw between them takes the exact path
_BAND_MARGIN = 1e-9
_BAND_BISECTION_STEPS = 60


def _normal_quantile(p: float) -> float:
    """Phi^-1(p), with -inf at and below 0 and +inf at and above 1."""
    # imported here: statistics pulls in fractions and decimal, about 4 ms
    # that every import of the package would pay otherwise
    from statistics import NormalDist

    if p <= 0.0:
        return -math.inf
    if p >= 1.0:
        return math.inf
    return NormalDist().inv_cdf(p)


@functools.lru_cache
def _critical_band(n: int, level: float) -> np.ndarray:
    """Bounds on n sorted standardised values that decide ``p-value < level``.

    The critical distance d* solves ``kolmogorov_pvalue(d, n) =
    level`` by bisection (the p-value falls as d grows). As Phi is monotone,
    a sorted row z lies farther than d from Normal(0, 1) exactly when some
    position i has z_i < Phi^-1((i+1)/n - d) or z_i > Phi^-1(i/n + d).

    Returns a read-only (4, n) array: the lower and upper bounds at d* +
    ``_BAND_MARGIN``, which a row that surely rejects crosses, then those at
    d* - ``_BAND_MARGIN``, within which a row surely does not reject. When
    d* -+ the margin leaves (0, 1) or the p-value does not bracket ``level``
    at d* -+ half the margin (a tiny level at small n, say), they are the
    bounds at 1 and -1, all infinite: a band that decides no row.
    """
    lo, hi = 0.0, 1.0
    for _ in range(_BAND_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if kolmogorov_pvalue(mid, n) < level:
            hi = mid
        else:
            lo = mid
    inner, outer = hi - _BAND_MARGIN, hi + _BAND_MARGIN
    p_inner = kolmogorov_pvalue(hi - 0.5 * _BAND_MARGIN, n)
    p_outer = kolmogorov_pvalue(hi + 0.5 * _BAND_MARGIN, n)
    if not (0.0 < inner and outer < 1.0 and p_outer < level <= p_inner):
        inner, outer = -1.0, 1.0
    band = np.array(
        [
            [_normal_quantile(bound) for bound in bounds]
            for d in (outer, inner)
            for bounds in (np.arange(1, n + 1) / n - d, np.arange(n) / n + d)
        ]
    )
    band.flags.writeable = False
    return band


def _band_decisions(s: np.ndarray, dev: np.ndarray, sigma: np.ndarray, band: np.ndarray):
    """Reject bits of sorted draws ``s``, and the mask of draws the band leaves open.

    ``s`` is position-major: column j holds draw j's values in ascending
    order, so every operation below runs along one long row per position.
    ``dev`` holds ``s`` minus each draw's mean and is overwritten with the
    standardised values. Positions whose lower bound is -inf or upper bound
    +inf can decide nothing and are skipped.

    A draw of finite values that are all equal never rejects, whatever its
    sigma rounds to (the mean of equal values can be an ulp off them), and a
    flat draw (sigma 0, finite values) rejects exactly when its values are
    not all equal; both are decided here, whatever the band. Any
    other draw is left open when it lies between the band's two edges, when
    its sigma is not finite and positive (or so small that 1/sigma
    overflows), or when its standardised values are not all finite. Its
    reject bit must then come from the exact path.
    """
    with np.errstate(all="ignore"):
        inv = 1.0 / sigma
        z = np.multiply(dev, inv, out=dev)
    hit = scratch("ks.band", z.shape, bool)
    # the lower bounds are -inf on a leading run of positions, the upper
    # bounds +inf on a trailing one
    first = np.count_nonzero(band[0::2] == -np.inf, axis=1)
    last = np.count_nonzero(band[1::2] != np.inf, axis=1)
    rows = slice(first[0], None)
    reject = np.less(z[rows], band[0, rows, None], out=hit[rows]).any(axis=0)
    rows = slice(last[0])
    reject |= np.greater(z[rows], band[1, rows, None], out=hit[rows]).any(axis=0)
    rows = slice(first[1], None)
    inside = np.greater_equal(z[rows], band[2, rows, None], out=hit[rows]).all(axis=0)
    rows = slice(last[1])
    inside &= np.less_equal(z[rows], band[3, rows, None], out=hit[rows]).all(axis=0)
    # with 0 < 1/sigma < inf each column of z is sorted, so its two ends are
    # finite exactly when all of it is
    valid = np.isfinite(inv) & (inv > 0.0) & np.isfinite(z[0]) & np.isfinite(z[-1])
    # a sorted draw's values are finite exactly when its two ends are, and
    # all equal exactly when its two ends are
    finite = np.isfinite(s[0]) & np.isfinite(s[-1])
    unanimous = s[0] == s[-1]
    decided = finite & (unanimous | (sigma == 0.0))
    reject = np.where(decided, ~unanimous, reject)
    return reject, ((reject == inside) | ~valid) & ~decided


def _mean_and_std(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean and standard deviation along the first axis of ``x`` (2-D or more),
    each sum taken left to right, and the deviations from the mean.

    The same ufunc sequence as numpy's ``x.mean(axis=0)`` and ``x.std(axis=0)``,
    and bit for bit their results when the other axes hold two or more
    elements: numpy then adds one long row at a time. A lone column would be
    summed pairwise instead, so it goes through as two copies of itself. The
    deviations are returned in the scratch buffer ``ks.z``; their squares go
    to ``ks.square``.
    """
    if x[0].size == 1:
        mean, std, dev = _mean_and_std(np.concatenate([x, x], axis=-1))
        return mean[..., :1], std[..., :1], dev[..., :1]
    n = x.shape[0]
    mean = np.add.reduce(x, axis=0)
    mean /= n
    dev = np.subtract(x, mean, out=scratch("ks.z", x.shape))
    square = np.multiply(dev, dev, out=scratch("ks.square", x.shape))
    var = np.add.reduce(square, axis=0)
    var /= n
    return mean, np.sqrt(var, out=var), dev


def _retained_mask(u: np.ndarray, k: int) -> np.ndarray:
    """Which of k ranks each draw retains, from S uniforms per draw.

    ``u`` is (draws, S), in [0, 1). Floyd's algorithm (Bentley & Floyd,
    CACM 1987) holds out S distinct ranks of 0 .. k-1, every S-subset with
    the same probability: for j = k-S .. k-1 it takes t = floor(u * (j + 1))
    from the next uniform, and j itself if t is already held out. Returns a
    (draws, k) bool array in scratch ``ks.keep``, False at the held-out ranks.
    """
    draws, size = u.shape
    keep = scratch("ks.keep", (draws, k), bool)
    keep.fill(True)
    flat = keep.reshape(-1)
    rows = np.arange(0, draws * k, k)
    for i, j in enumerate(range(k - size, k)):
        # u * (j + 1) rounds below j + 1 for every u < 1, so t <= j
        t = np.multiply(u[:, i], j + 1).astype(np.intp)
        t += rows
        np.copyto(t, rows + j, where=~flat[t])
        flat[t] = False
    return keep


def _coordinate_scores(cols: np.ndarray, cfg: DetectorConfig, uniforms: np.ndarray) -> np.ndarray:
    """Contamination score of every coordinate (row) of a (P, K) matrix.

    ``uniforms`` is (P, repetitions, subset_size), in [0, 1): row i holds
    the S uniforms of each of coordinate i's draws. Rows go in chunks, and
    the scores do not depend on the chunk size. A draw's subset is a set of
    ranks (:func:`_retained_mask`), so its score depends only on the values
    it retains, not on the order of the clients. A draw rejects when its
    p-value is below ``cfg.reject_level``. Each draw is scored at unit scale
    (see the module notes). :func:`_band_decisions` decides almost every
    draw, from the critical band of :func:`_critical_band`; the draws it
    leaves open take the exact path through their p-value.
    """
    P, K = cols.shape
    reps = cfg.repetitions
    size = K - cfg.subset_size
    band = _critical_band(size, cfg.reject_level)
    step = max(1, _SCORE_CHUNK // (reps * K))
    scores = np.empty(P)
    for lo in range(0, P, step):
        block = cols[lo : lo + step]
        n = block.shape[0]
        draws = n * reps
        ranked = scratch("ks.sorted", block.shape)
        np.copyto(ranked, block)
        ranked.sort(axis=1)
        keep = _retained_mask(uniforms[lo : lo + n].reshape(draws, -1), K).reshape(n, reps, K)
        # each draw's retained values in ascending order, one column per draw
        s = scratch("ks.retained", (size, draws))
        np.copyto(s, np.broadcast_to(ranked[:, None, :], keep.shape)[keep].reshape(draws, size).T)
        s *= unit_scale(s[0], s[-1])
        mu, sigma, dev = _mean_and_std(s)
        reject, exact = _band_decisions(s, dev, sigma, band)
        if exact.any():
            s, mu, sigma = s[:, exact].T, mu[exact], sigma[exact]
            pvals = kolmogorov_pvalue(gaussian_ks_statistic(s, mu, sigma), size)
            reject[exact] = pvals < cfg.reject_level
        scores[lo : lo + n] = np.mean(reject.reshape(n, reps), axis=-1)
    return scores


def mal_test(
    updates: Sequence[ClientUpdate],
    cfg: DetectorConfig = DetectorConfig(),
    seed: int = 0,
) -> np.ndarray:
    """Per-coordinate contamination scores for one round of client updates.

    Every coordinate of the model is scored in one pass, in flattened order.
    Each layer's held-out subsets are drawn in coordinate order from one
    random stream keyed by ``(seed, layer)``, S uniforms per draw, all of
    them in one call into the layer's rows of one scratch block;
    coordinates are processed in chunks, and the scores depend neither on
    the chunk size nor on the order of ``updates``.
    """
    validate_uniform(updates)
    K = len(updates)
    if cfg.subset_size >= K:
        raise SubsetTooLarge(f"subset_size {cfg.subset_size} must be < K={K}")
    cols = stack_flat([u.weights for u in updates]).T
    uniforms = scratch("ks.uniforms", (len(cols), cfg.repetitions, cfg.subset_size))
    for li, part in enumerate(layer_slices(updates[0].weights.shapes)):
        np.random.default_rng([seed, li]).random(out=uniforms[part])
    return _coordinate_scores(cols, cfg, uniforms)


def dynamic_aggregate(
    updates: Sequence[ClientUpdate],
    cfg: DetectorConfig = DetectorConfig(),
    strategy: FftStrategy = FftStrategy(),
    seed: int = 0,
) -> tuple[ModelWeights, str, float]:
    """Score the round, then aggregate with FedAvg or FFT-density selection.

    Returns ``(weights, decision, score)`` where decision is ``"fedavg"``
    when the mean contamination score is at or below ``cfg.threshold`` and
    ``"fft"`` otherwise.
    """
    score = float(np.mean(mal_test(updates, cfg, seed)))
    if score <= cfg.threshold:
        return fed_avg(updates), DECISION_FEDAVG, score
    return fft_aggregate(updates, strategy), DECISION_FFT, score
