"""Baseline robust aggregation rules: FedAvg, coordinate median, trimmed mean, Krum.

All rules consume a list of :class:`~fedfft.tensors.ClientUpdate` with uniform
shapes and produce one :class:`~fedfft.tensors.ModelWeights`. Ties anywhere
are broken toward the lowest client index so results are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tensors import (
    ClientUpdate,
    ModelWeights,
    layer_matrices,
    pairwise_sq_distances,
    sq_distance_bounds,
    stack_flat,
    validate_uniform,
)


class TrimTooLarge(ValueError):
    """Trimmed mean requires 2n < K."""


class TooFewClients(ValueError):
    """Krum requires K - f - 2 >= 1."""


@dataclass(frozen=True)
class TrimParam:
    """Number of values trimmed from each end of every coordinate."""

    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("trim count must be non-negative")


@dataclass(frozen=True)
class KrumParam:
    """Declared attacker count f; Krum scores over the K-f-2 nearest neighbors."""

    f: int

    def __post_init__(self):
        if self.f < 0:
            raise ValueError("declared attacker count must be non-negative")


def fed_avg(updates: Sequence[ClientUpdate]) -> ModelWeights:
    """Dataset-size weighted mean: W = sum_k (D_k / D) * W^k."""
    validate_uniform(updates)
    total = float(sum(u.dataset_size for u in updates))
    coeffs = np.array([u.dataset_size / total for u in updates])
    return ModelWeights(
        np.tensordot(coeffs, np.stack([u.weights.layers[li] for u in updates]), axes=1)
        for li in range(len(updates[0].weights.layers))
    )


def coordinate_median(updates: Sequence[ClientUpdate]) -> ModelWeights:
    """Per-coordinate median; even K takes the midpoint of the central pair."""
    mats = layer_matrices(updates)
    return updates[0].weights.with_flat(np.concatenate([np.median(mat, axis=0) for mat in mats]))


def trimmed_mean(updates: Sequence[ClientUpdate], trim: TrimParam | int) -> ModelWeights:
    """Per coordinate: sort, drop the n smallest and n largest, mean the rest."""
    n = (trim if isinstance(trim, TrimParam) else TrimParam(int(trim))).n
    mats = layer_matrices(updates)
    K = mats[0].shape[0]
    if 2 * n >= K:
        raise TrimTooLarge(f"2*{n} >= {K} clients")
    # equal values are interchangeable here: only a zero's sign can tell them
    # apart, and numpy's sum starts from +0.0, so no order of them changes
    # the mean
    means = [np.sort(mat, axis=0)[n : K - n].mean(axis=0) for mat in mats]
    return updates[0].weights.with_flat(np.concatenate(means))


def krum_select(updates: Sequence[ClientUpdate], param: KrumParam | int) -> int:
    """Index (position in the list) of the update Krum selects.

    score(k) = sum of the K-f-2 smallest squared L2 distances ||W^k - W^j||^2
    over j != k, all layers flattened jointly; the minimal score wins and ties
    go to the lowest index. The pick is always the one the exact distances of
    :func:`~fedfft.tensors.pairwise_sq_distances` give, in O(K * P) memory.

    It is found from the certified bounds of
    :func:`~fedfft.tensors.sq_distance_bounds` (one Gram product): each row's
    score lies between the sums of its smallest lower and of its smallest
    upper bounds, and only a row whose lower score reaches the least upper
    score can win. Each group of equal candidate rows shares one exact row of
    distances, and the candidates are ranked by those exact scores.
    """
    f = (param if isinstance(param, KrumParam) else KrumParam(int(param))).f
    validate_uniform(updates)
    K = len(updates)
    neighbors = K - f - 2
    if neighbors < 1:
        raise TooFewClients(f"K - f - 2 = {neighbors} < 1 (K={K}, f={f})")
    rows = stack_flat([u.weights for u in updates])
    lo, hi = sq_distance_bounds(rows)
    # Lower, upper and exact scores are sums of at most K nonnegative terms,
    # each rounded within a factor 1 +- gamma_K <= 1 +- 2Ku, so a minimal
    # row's lower score stays below the least upper score times this slack.
    slack = 1.0 + 16.0 * K * 2.0**-53
    # scores may overflow to inf on rows near +-1.7e308; inf still ranks
    with np.errstate(over="ignore"):
        least = _krum_scores(hi, neighbors).min()
        candidates = np.flatnonzero(_krum_scores(lo, neighbors) <= slack * least)
        # equal rows have equal exact distances, so equal scores: a candidate
        # shares the exact row of the first candidate whose every 64th value
        # has the same bytes, once the two rows compare equal
        first: dict[bytes, int] = {}
        group = []
        for k in candidates:
            r = first.setdefault(rows[k, ::64].tobytes(), k)
            group.append(r if r == k or np.array_equal(rows[k], rows[r]) else k)
        # whole exact rows, so each score is summed as the whole exact
        # matrix's would be, bit for bit
        exact = _krum_scores(pairwise_sq_distances(rows, sorted(set(group))), neighbors)
    # candidates ascend, so argmin's first minimum is the lowest index
    return int(candidates[np.argmin(exact[group])])


def _krum_scores(d2: np.ndarray, neighbors: int) -> np.ndarray:
    # each row's own zero distance sorts first; dropping it leaves the others
    return np.sort(d2, axis=1)[:, 1 : neighbors + 1].sum(axis=1)


def krum(updates: Sequence[ClientUpdate], param: KrumParam | int) -> ModelWeights:
    """Krum aggregation: return the selected client's weights."""
    return updates[krum_select(updates, param)].weights
