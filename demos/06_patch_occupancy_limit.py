"""Distance-weighted patch occupancy and its continuum limit.

Patches live on [0, 1]; colonization pressure on a patch integrates the
occupied patches against a dispersal kernel.  As the number of patches
grows, the empirical occupancy measure converges to a deterministic
density advanced by an explicit recursion on a quadrature grid, with a
matching variance functional for the Gaussian field of fluctuations.
"""

import numpy as np

from occlab.deterministic import det_trajectory
from occlab.gaussian import GaussianApprox
from occlab.models import equidistributed, hanski_limit, hanski_rule
from occlab.simulate import simulate_projections

T = 3
lim = hanski_limit(equidistributed(8), lambda z: np.full_like(z, 0.5), T, G=1024)
h_fn = lambda z: 1.0 + 0.5 * np.sin(2 * np.pi * z)
target = lim.integrate(h_fn(lim.grid) * lim.rho[T])
print(f"limit value of the measure integral at t = {T}: {target:.6f}")

print(f"\n{'patches':>8} {'E |<mu_t, h> - limit|':>22}")
for n in (200, 800, 3200):
    model = equidistributed(n)
    rule = hanski_rule(model)
    X0 = (np.arange(n) % 2).astype(np.uint8)
    traj = det_trajectory(rule, X0.astype(float), T)
    h = h_fn(model.z)
    res = simulate_projections(rule, X0, T, 120, seed=10, h=h, p_traj=traj.p)
    mu_vals = res["proj"][:, T] / np.sqrt(n) + h @ traj.p[T] / n
    print(f"{n:>8} {np.abs(mu_vals - target).mean():>22.5f}")

n = 800
model = equidistributed(n)
rule = hanski_rule(model)
X0 = (np.arange(n) % 2).astype(np.uint8)
ga = GaussianApprox.from_rule(rule, X0.astype(float), T)
grid_v = lim.projected_variance(h_fn, T)
print(f"\nfluctuation variance of sqrt(n) <mu_t - rho_t, h> at n = {n}:")
print(f"  finite-chain recursion : {ga.projected_variance(h_fn(model.z), T):.5f}")
print(f"  continuum functional   : {grid_v:.5f}")
