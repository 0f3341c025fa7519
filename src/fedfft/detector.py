"""Two-sample Kolmogorov-Smirnov machinery, the per-coordinate contamination
test, and the dynamic FedAvg/FFT switch.

``ks_statistic`` / ``ks_pvalue`` are the classic two-sample pieces (exact
sup-distance over merged samples; asymptotic tail probability with the
small-sample corrected scaling). They back the ``ks-test`` CLI command and
are usable on their own.

The contamination score behind the dynamic switch works per coordinate: C
times, hold out a random subset of size S and ask how well the retained
values fit a Gaussian law fitted on those same retained values, measured by
the one-sample KS distance and the same asymptotic tail law. Fitting and
testing on the same values makes the check strongly conservative on clean
unimodal data (rejections are far rarer than the nominal level), while
cross-client contamination (planted constants, off-cluster weights) inflates
the distance past rejection almost surely. A plain two-sample test between a
random subset and its complement cannot do this job: its statistic depends
only on the subset's ranks, whose distribution is identical with and without
contamination, so its rejection rate never moves off the null rate.

Scores aggregate to a scalar per round; at or below the threshold the server
averages (FedAvg), above it the server switches to FFT-density aggregation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .aggregators import fed_avg
from .fft_aggregator import FftStrategy, fft_aggregate
from .tensors import ClientUpdate, ModelWeights, layer_matrices

DECISION_FEDAVG = "fedavg"
DECISION_FFT = "fft"

_COORD_SUBSET_SALT = 0x5EED


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


def _kolmogorov_sf(lam: float) -> float:
    """Q(lambda) = 2 * sum_{j>=1} (-1)^(j-1) exp(-2 j^2 lambda^2), clamped to [0, 1]."""
    if lam < 1e-3:
        return 1.0
    total = 0.0
    for j in range(1, 1001):
        term = math.exp(-2.0 * j * j * lam * lam)
        total += term if j % 2 else -term
        if term < 1e-12:
            break
    return min(1.0, max(0.0, 2.0 * total))


def _pvalue_from_effective_size(d: float, ne: float) -> float:
    sq = math.sqrt(ne)
    return _kolmogorov_sf((sq + 0.12 + 0.11 / sq) * d)


def ks_pvalue(d: float, n: int, m: int) -> float:
    """Asymptotic two-sample p-value for distance ``d`` at sizes ``n``, ``m``.

    Uses the effective size ne = n*m/(n+m) with the Stephens small-sample
    scaling lambda = (sqrt(ne) + 0.12 + 0.11/sqrt(ne)) * d.
    """
    if n < 1 or m < 1:
        raise EmptySample("sample sizes must be >= 1")
    if not 0.0 <= d <= 1.0:
        raise ValueError("KS distance must lie in [0, 1]")
    return _pvalue_from_effective_size(d, n * m / (n + m))


def ks_test(a, b) -> KsResult:
    """Statistic and p-value of the two-sample test in one call."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    d = ks_statistic(a, b)
    return KsResult(d, ks_pvalue(d, a.size, b.size))


_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def gaussian_ks_statistic(sample: np.ndarray, mu: float, sigma: float) -> float:
    """One-sample KS distance between a sample's ECDF and Normal(mu, sigma)."""
    s = np.sort(np.asarray(sample, dtype=np.float64).ravel())
    n = s.size
    if n == 0:
        raise EmptySample("sample must be non-empty")
    if sigma <= 0:
        return 0.0 if np.all(s == mu) else 1.0
    cdf = 0.5 * (1.0 + np.array([math.erf((x - mu) / sigma * _INV_SQRT2) for x in s]))
    below = np.max(np.abs(cdf - np.arange(n) / n))
    above = np.max(np.abs(cdf - np.arange(1, n + 1) / n))
    return float(max(below, above))


@dataclass(frozen=True)
class DetectorConfig:
    """Knobs of the contamination test and the switch.

    ``coordinate_fraction`` < 1 scores only a uniformly sampled fixed subset
    of coordinates, a speed knob for large models; 1.0 scores all of them.
    """

    repetitions: int = 10
    subset_size: int = 5
    reject_level: float = 0.05
    threshold: float = 0.02
    coordinate_fraction: float = 1.0

    def __post_init__(self):
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.subset_size < 1:
            raise ValueError("subset_size must be >= 1")
        if not 0.0 < self.reject_level < 1.0:
            raise ValueError("reject_level must lie in (0, 1)")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")
        if not 0.0 < self.coordinate_fraction <= 1.0:
            raise ValueError("coordinate_fraction must lie in (0, 1]")


def _coordinate_score(values: np.ndarray, cfg: DetectorConfig, rng: np.random.Generator) -> float:
    """Contamination score of one coordinate vector."""
    k = values.size
    pvals = np.empty(cfg.repetitions)
    for c in range(cfg.repetitions):
        held_out = rng.choice(k, size=cfg.subset_size, replace=False)
        retained = np.delete(values, held_out)
        mu = float(retained.mean())
        sigma = float(retained.std())
        if sigma == 0.0:
            pvals[c] = 1.0 if np.all(retained == retained[0]) else 0.0
            continue
        d = gaussian_ks_statistic(retained, mu, sigma)
        pvals[c] = _pvalue_from_effective_size(d, float(retained.size))
    return float(np.mean(pvals < cfg.reject_level))


def mal_test(
    updates: Sequence[ClientUpdate],
    cfg: DetectorConfig = DetectorConfig(),
    seed: int = 0,
) -> np.ndarray:
    """Per-coordinate contamination scores for one round of client updates.

    Each scored coordinate draws its own random stream from
    ``(seed, layer, index)``, so results are identical no matter how the
    coordinates are scheduled or parallelized. With ``coordinate_fraction``
    below 1, the scored subset is itself drawn deterministically from the
    seed, and only those scores are returned.
    """
    mats = layer_matrices(updates)
    K = len(updates)
    if cfg.subset_size >= K:
        raise SubsetTooLarge(f"subset_size {cfg.subset_size} must be < K={K}")

    coords = [(li, i) for li, mat in enumerate(mats) for i in range(mat.shape[1])]
    if cfg.coordinate_fraction < 1.0:
        count = max(1, int(math.ceil(cfg.coordinate_fraction * len(coords))))
        picker = np.random.default_rng([seed, _COORD_SUBSET_SALT])
        chosen = picker.choice(len(coords), size=count, replace=False)
        chosen.sort()
        coords = [coords[j] for j in chosen]

    scores = np.empty(len(coords))
    for out_idx, (li, i) in enumerate(coords):
        rng = np.random.default_rng([seed, li, i])
        scores[out_idx] = _coordinate_score(mats[li][:, i], cfg, rng)
    return scores


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
