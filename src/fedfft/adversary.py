"""Model-poisoning attacks: random Gaussian weights and the colluding min-max
crafting rule with three perturbation directions.

Attackers operate online, each round, on the updates they control. Random
attackers submit fresh Glorot-initialized weights, which makes them
distributionally camouflaged against a freshly initialized model. Min-max
attackers pool their honestly trained weights, take the mean, and push it as
far as possible along a perturbation direction while staying within the
attackers' own mutual diameter, so the crafted point never looks farther
from any colluder than the colluders are from each other.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tensors import (
    ClientUpdate,
    ModelWeights,
    check_layer_shapes,
    pairwise_sq_distances,
    sq_distance_bounds,
    stack_flat,
    unit_scale,
)

ATTACK_NONE = "none"
ATTACK_RANDOM_WEIGHTS = "random_weights"
ATTACK_MIN_MAX = "min_max"

# Every attack kind, and whether its submission reads the attackers' own
# trained updates. Random weights take only the layer shapes, so any model of
# those shapes may stand in for an attacker's update without changing a byte.
READS_TRAINED = {ATTACK_NONE: True, ATTACK_RANDOM_WEIGHTS: False, ATTACK_MIN_MAX: True}

INVERSE_UNIT_VECTOR = "inverse_unit_vector"
INVERSE_STD = "inverse_std"
INVERSE_SIGN = "inverse_sign"

_GAMMA_CAP = 2.0 ** 60


class ZeroNorm(ValueError):
    """The inverse-unit-vector direction is undefined for a zero mean."""


class UnknownClientId(ValueError):
    """An attacker id does not occur among the submitted updates."""


@dataclass(frozen=True)
class AttackSpec:
    """Which attack runs, with which perturbation, against what fraction.

    ``start_round`` lets a simulation keep the attack dormant until a given
    round (1-based), which is how sudden-onset scenarios are built.
    """

    kind: str = ATTACK_NONE
    perturbation: str = INVERSE_UNIT_VECTOR
    attacker_fraction: float = 0.0
    start_round: int = 1

    def __post_init__(self):
        if self.kind not in READS_TRAINED:
            raise ValueError(f"unknown attack kind {self.kind!r}")
        if self.perturbation not in (INVERSE_UNIT_VECTOR, INVERSE_STD, INVERSE_SIGN):
            raise ValueError(f"unknown perturbation {self.perturbation!r}")
        if not 0.0 <= self.attacker_fraction < 0.5:
            raise ValueError("attacker_fraction must lie in [0, 0.5)")
        if self.start_round < 1:
            raise ValueError("start_round must be >= 1")

    def attacker_count(self, clients: int) -> int:
        return int(np.floor(self.attacker_fraction * clients))


@dataclass(frozen=True)
class MinMaxResult:
    crafted: ModelWeights
    gamma: float
    perturbation_vec: ModelWeights


def _glorot_sigma(shape: tuple[int, ...]) -> float:
    if len(shape) >= 2:
        fan_in = int(np.prod(shape[:-1]))
        fan_out = shape[-1]
    else:
        fan_in, fan_out = shape[0], 1
    return float(np.sqrt(2.0 / (fan_in + fan_out)))


@functools.lru_cache(maxsize=16)
def _glorot_sigmas(shapes: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """The read-only (P,) vector of each coordinate's layer sigma."""
    sigmas = np.concatenate([np.full(math.prod(s), _glorot_sigma(s)) for s in shapes])
    sigmas.setflags(write=False)
    return sigmas


def random_weights(template: ModelWeights, rng: np.random.Generator) -> ModelWeights:
    """Fresh Glorot-normal weights with the template's layer shapes.

    One standard-normal draw over all coordinates, scaled by each layer's
    sigma: the stream and the bytes of ``rng.normal(0.0, sigma, shape)``
    layer by layer, which computes 0.0 + sigma * z (so -0.0 becomes 0.0).
    """
    sigmas = _glorot_sigmas(template.shapes)
    flat = rng.standard_normal(sigmas.size)
    flat *= sigmas
    flat += 0.0
    return ModelWeights.from_rows(flat[None], template.shapes)[0]


def _direction(stack: np.ndarray, mean: np.ndarray, kind: str) -> np.ndarray:
    """Attack direction from the colluders' (M, P) stack and its mean row.

    ``inverse_unit_vector``: -mean / ||mean|| over all coordinates jointly.
    ``inverse_std``: per-coordinate negative population std across colluders.
    ``inverse_sign``: per-coordinate -sign(mean), with sign(0) = 0.
    """
    if kind == INVERSE_UNIT_VECTOR:
        # the norm of the mean at unit magnitude, which no square overflows;
        # a power of two cancels out of the quotient exactly. numpy's own
        # pairwise sum, not BLAS's dot, whose threads split the sum and move
        # its last bit with the thread count
        scaled = mean * unit_scale(mean.min(), mean.max())
        norm = float(np.sqrt(np.sum(scaled * scaled)))
        if norm == 0.0:
            raise ZeroNorm("mean of malicious weights has zero norm")
        return -scaled / norm
    if kind == INVERSE_STD:
        return -stack.std(axis=0)
    if kind == INVERSE_SIGN:
        return -np.sign(mean)
    raise ValueError(f"unknown perturbation {kind!r}")


def _sq_diameter(stack: np.ndarray) -> float:
    """The largest entry of ``pairwise_sq_distances(stack)``, bit for bit.

    Only the pairs whose certified upper bound (:func:`sq_distance_bounds`)
    reaches the largest lower bound can hold it; their exact distances come
    from one exact row per distinct lower endpoint.
    """
    lo, hi = sq_distance_bounds(stack)
    first, second = np.nonzero(np.triu(hi >= lo.max(), 1))
    d2 = pairwise_sq_distances(stack, np.unique(first))
    return float(d2[first, second].max(initial=0.0))


def _largest_feasible(feasible, cap: float) -> float:
    """The search of :func:`min_max_craft`: bracket by doubling, then bisect."""
    lo, hi = 0.0, 1.0
    while feasible(hi):
        lo, hi = hi, 2.0 * hi
        if hi > cap:
            warnings.warn("min-max gamma search hit its cap; perturbation is degenerate")
            return cap
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if feasible(mid) else (lo, mid)
    return lo


def min_max_craft(malicious: Sequence[ModelWeights], kind: str = INVERSE_UNIT_VECTOR) -> MinMaxResult:
    """Craft the common submission mean + gamma * perturbation.

    gamma is pushed as high as the colluders' mutual diameter allows:
    max_m ||crafted - W^m|| <= max_{m,l} ||W^m - W^l||. gamma = 0 is always
    feasible, so the search doubles from 1 until the constraint breaks, then
    bisects 60 times. The cap is 2^60 over the scale s below (2^60 times the
    colluders' largest magnitude, to within a factor 2); if it is reached
    without a violation (a degenerate near-zero perturbation direction) the
    cap is returned with a warning.

    Every probe reads the expansion ||mean - W^m + gamma * p||^2 =
    c_m + 2 gamma b_m + gamma^2 q, whose terms (c_m = ||mean - W^m||^2,
    b_m = <mean - W^m, p>, q = ||p||^2) are computed once per craft, so a
    probe costs O(M) rather than O(M * P). The diameter is the square root of
    the largest exact pairwise squared distance, which one Gram product's
    certified bounds narrow to a few pairs, rechecked exactly
    (:func:`_sq_diameter`). The terms and the diameter are taken of the
    colluders scaled by the power of two s that brings them to unit
    magnitude (:func:`tensors.unit_scale`), and a probe of gamma reads them
    at gamma * s, so no distance overflows; in the normal range every
    rounding scales exactly, so each probe decides as the unscaled one.
    """
    if not malicious:
        raise ValueError("need at least one malicious update")
    check_layer_shapes(malicious, lambda m: f"colluder {m}")
    stack = stack_flat(malicious)
    mean = stack.mean(axis=0)
    pvec = _direction(stack, mean, kind)
    pert = malicious[0].with_flat(pvec)

    scale = float(unit_scale(stack.min(), stack.max()))
    stack *= scale  # stack_flat's own copy
    diameter = float(np.sqrt(_sq_diameter(stack)))
    offs = mean * scale - stack
    c = np.einsum("ij,ij->i", offs, offs)
    # numpy's own reductions, as BLAS's results depend on its thread count
    b = np.einsum("ij,j->i", offs, pvec)
    q = float(np.sum(pvec * pvec))

    def feasible(gamma: float) -> bool:
        g = gamma * scale
        worst = float(np.sqrt(np.max(c + 2.0 * g * b + g * g * q)))
        return worst <= diameter

    # coinciding colluders leave no room; a zero direction would pass every probe
    gamma = 0.0 if diameter == 0.0 else _largest_feasible(feasible, _GAMMA_CAP / scale)
    crafted = malicious[0].with_flat(mean + gamma * pvec)
    return MinMaxResult(crafted=crafted, gamma=gamma, perturbation_vec=pert)


def apply_attack(
    updates: Sequence[ClientUpdate],
    spec: AttackSpec,
    attacker_ids: set[int],
    rng: np.random.Generator,
) -> list[ClientUpdate]:
    """Replace the attackers' submissions per the attack spec.

    Benign updates pass through unmodified (same objects); dataset sizes are
    never touched. Random attackers draw from per-attacker substreams of
    ``rng`` in ascending id order, so the result is independent of list
    order. A kind that does not read trained updates (:data:`READS_TRAINED`)
    reads an attacker's entry only for its layer shapes.
    """
    known = {u.client_id for u in updates}
    missing = set(attacker_ids) - known
    if missing:
        raise UnknownClientId(f"attacker ids {sorted(missing)} not among updates")
    if spec.kind == ATTACK_NONE or not attacker_ids:
        return list(updates)

    by_id = {u.client_id: u for u in updates}
    ordered = sorted(attacker_ids)
    replacements: dict[int, ModelWeights] = {}
    if spec.kind == ATTACK_RANDOM_WEIGHTS:
        streams = rng.spawn(len(ordered))
        for cid, stream in zip(ordered, streams):
            replacements[cid] = random_weights(by_id[cid].weights, stream)
    else:
        pooled = [by_id[cid].weights for cid in ordered]
        crafted = min_max_craft(pooled, spec.perturbation).crafted
        for cid in ordered:
            replacements[cid] = crafted

    out = []
    for u in updates:
        if u.client_id in replacements:
            out.append(ClientUpdate(u.client_id, replacements[u.client_id], u.dataset_size))
        else:
            out.append(u)
    return out
