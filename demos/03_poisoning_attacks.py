"""The two model-poisoning attacks on a toy population of trained weights.

The min-max craft maximizes its push subject to staying within the
colluders' own mutual diameter; the demo prints the geometry so the
constraint is visible.
"""

import numpy as np

from fedfft import (
    AttackSpec,
    ClientUpdate,
    ModelWeights,
    apply_attack,
    min_max_craft,
)

rng = np.random.default_rng(2)


def distance(a, b):
    return np.linalg.norm(a.flat() - b.flat())


# ten clients' "trained" weights clustered around a common point
base = rng.normal(0.0, 1.0, 8)
updates = [
    ClientUpdate(k, ModelWeights([base + rng.normal(0.0, 0.2, 8)]), dataset_size=50)
    for k in range(10)
]

# --- random-weights attack -------------------------------------------------
spec = AttackSpec(kind="random_weights", attacker_fraction=0.3)
poisoned = apply_attack(updates, spec, {1, 4, 7}, np.random.default_rng(3))
for k in (0, 1):
    print(f"client {k} ({'attacker' if k == 1 else 'honest  '}): "
          f"weights moved by {distance(poisoned[k].weights, updates[k].weights):.3f}")

# --- min-max craft ----------------------------------------------------------
colluders = [updates[k].weights for k in (1, 4, 7)]
for kind in ("inverse_unit_vector", "inverse_std", "inverse_sign"):
    res = min_max_craft(colluders, kind)
    worst = max(distance(res.crafted, w) for w in colluders)
    diam = max(
        distance(colluders[i], colluders[j])
        for i in range(3)
        for j in range(i + 1, 3)
    )
    print(f"{kind:>20}: gamma={res.gamma:.4f}  worst dist {worst:.4f} <= diameter {diam:.4f}")

print("\nperturbation (inverse sign):",
      min_max_craft(colluders, "inverse_sign").perturbation_vec.layers[0])
