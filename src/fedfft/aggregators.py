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
    template = updates[0].weights
    return ModelWeights(
        np.median(mat, axis=0).reshape(layer.shape)
        for mat, layer in zip(mats, template.layers)
    )


def trimmed_mean(updates: Sequence[ClientUpdate], trim: TrimParam | int) -> ModelWeights:
    """Per coordinate: sort, drop the n smallest and n largest, mean the rest."""
    n = trim.n if isinstance(trim, TrimParam) else int(trim)
    if n < 0:
        raise TrimTooLarge("trim count must be non-negative")
    mats = layer_matrices(updates)
    K = mats[0].shape[0]
    if 2 * n >= K:
        raise TrimTooLarge(f"2*{n} >= {K} clients")
    template = updates[0].weights
    out = []
    for mat, layer in zip(mats, template.layers):
        order = np.argsort(mat, axis=0, kind="stable")
        kept = order[n : K - n, :]
        vals = np.take_along_axis(mat, kept, axis=0)
        out.append(vals.mean(axis=0).reshape(layer.shape))
    return ModelWeights(out)


def krum_select(updates: Sequence[ClientUpdate], param: KrumParam | int) -> int:
    """Index (position in the list) of the update Krum selects.

    score(k) = sum of the K-f-2 smallest squared L2 distances ||W^k - W^j||^2
    over j != k, all layers flattened jointly; the minimal score wins and ties
    go to the lowest index. The distances are exact (one difference per pair,
    :func:`~fedfft.tensors.pairwise_sq_distances`) and need O(K * P) memory.
    """
    f = param.f if isinstance(param, KrumParam) else int(param)
    validate_uniform(updates)
    K = len(updates)
    neighbors = K - f - 2
    if neighbors < 1:
        raise TooFewClients(f"K - f - 2 = {neighbors} < 1 (K={K}, f={f})")
    d2 = pairwise_sq_distances(np.stack([u.weights.flat() for u in updates]))
    # each row's own zero distance sorts first; dropping it leaves the others
    scores = np.sort(d2, axis=1)[:, 1 : neighbors + 1].sum(axis=1)
    return int(np.argmin(scores))


def krum(updates: Sequence[ClientUpdate], param: KrumParam | int) -> ModelWeights:
    """Krum aggregation: return the selected client's weights."""
    return updates[krum_select(updates, param)].weights
