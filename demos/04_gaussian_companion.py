"""The autoregressive Gaussian companion and its variance recursion.

Fluctuations of the chain around its deterministic path are approximated
by a linear Gaussian recursion whose injected noise per step is the
conditional variance p S(1-S) + (1-p) C(1-C), propagated through the rule
Jacobian.  This script checks the three computable faces of that object
against each other and against the chain itself, then watches the
Kolmogorov distance to the normal limit shrink with system size.
"""

import numpy as np

from occlab.analysis import NormalTarget, ks_distance
from occlab.gaussian import GaussianApprox, simulate_gaussian
from occlab.models import mean_field, spreading_rule
from occlab.simulate import simulate_projections

n, T = 500, 5
rule = spreading_rule(mean_field(n, rbar=0.5, mu=0.5))
X0 = np.zeros(n, dtype=np.uint8)
X0[: n // 2] = 1
ga = GaussianApprox.from_rule(rule, X0.astype(float), T)
h = np.ones(n)

res = simulate_projections(rule, X0, T, 50_000, seed=5, h=h, p_traj=ga.base.p)
Z = simulate_gaussian(ga, 50_000, seed=6)
print(f"{'t':>2} {'chain Var':>10} {'recursion':>10} {'Gaussian paths':>14}")
for t in range(1, T + 1):
    chain_v = res["proj"][:, t].var()
    path_v = ((Z[:, t, :] - ga.base.p[t]) @ h / np.sqrt(n)).var()
    print(f"{t:>2} {chain_v:>10.4f} {ga.projected_variance(h, t):>10.4f} "
          f"{path_v:>14.4f}")

print("\nKolmogorov distance of <zeta_3, 1> to its normal limit:")
for m in (100, 400, 1600):
    r_m = spreading_rule(mean_field(m, rbar=0.5, mu=0.5))
    x0 = np.zeros(m, dtype=np.uint8); x0[: m // 2] = 1
    gm = GaussianApprox.from_rule(r_m, x0.astype(float), 3)
    pr = simulate_projections(r_m, x0, 3, 50_000, seed=7, h=np.ones(m),
                              p_traj=gm.base.p)
    target = NormalTarget(0.0, gm.projected_variance(np.ones(m), 3))
    rep = ks_distance(pr["proj"][:, 3], target)
    print(f"  n={m:>5}: KS = {rep.value:.4f} (+- {rep.stderr:.4f})")
