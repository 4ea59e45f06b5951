"""Exact enumeration versus Monte Carlo on a small occupancy chain.

At n <= 18 nodes (the sizes whose tables fit in 4 GiB) the full
distribution over {0,1}^n can be iterated exactly, which turns the simulator into a falsifiable object: empirical
state frequencies must match the enumerated law to sampling accuracy.
This script runs both on a random product-form rule and reports the total
variation gap at several horizons.
"""

import numpy as np

from occlab.models import random_product_rule
from occlab.simulate import (empirical_law, exact_law, law_mean,
                             simulate_ensemble, total_variation)

rule = random_product_rule(4, seed=7)
X0 = np.array([1, 0, 0, 1], dtype=np.uint8)
T, R = 4, 200_000

laws = exact_law(rule, X0, T)
ens = simulate_ensemble(rule, X0, T, R, seed=42)

print(f"rule: {rule.name}, start {X0.tolist()}, R = {R:,} replicates")
print(f"{'t':>2} {'TV(empirical, exact)':>22} {'allowance 4*sqrt(2^n/R)':>24}")
for t in range(1, T + 1):
    emp = empirical_law(ens.states[:, t, :], rule.n)
    tv = total_variation(emp, laws[t])
    print(f"{t:>2} {tv:>22.5f} {4 * np.sqrt(2 ** rule.n / R):>24.5f}")

print("\nexact per-node occupancy at t =", T)
print("  ", np.round(law_mean(laws[T], rule.n), 4))
print("empirical:")
print("  ", np.round(ens.states[:, T, :].mean(axis=0), 4))
