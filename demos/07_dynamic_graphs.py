"""Edge-Markov random graphs, kernel limits, and the triangle-density CLT.

Edges of a host graph appear and disappear with degree-dependent rates, so
the graph chain is an occupancy process on host edges.  Its kernel (step
graphon) follows a deterministic recursion; the cut norm measures how fast
the random graph concentrates around it, and the triangle density obeys a
normal limit whose variance comes from the kernel variance functionals.
"""

import numpy as np

from occlab.models import complete_host, graph_rule
from occlab.models import graphdyn as gd
from occlab.simulate import simulate_ensemble

q, slope = 0.6, 0.5
f = lambda y: slope * np.asarray(y, dtype=np.float64)
fp = lambda y: np.full_like(np.asarray(y, dtype=np.float64), slope)

print("cut distance of the simulated graph to its kernel limit:")
c = 1.0
for _ in range(3):
    c = q * c + (1 - c) * f(c)
print(f"  limit edge density after 3 steps: {c:.4f}")
for v in (8, 16):
    model = complete_host(v, q=q, f=f, f_prime=fp,
                          f_derivative_sups=(slope, 0.0, 0.0))
    rule = graph_rule(model)
    ea, eb = model.host_edges[:, 0], model.host_edges[:, 1]
    x0 = model.host_adjacency()[ea, eb].astype(np.uint8)
    ens = simulate_ensemble(rule, x0, 3, 10, seed=11)
    vals = [gd.cut_norm_exact(
        gd.edge_state_to_adjacency(model, ens.states[r, 3, :].astype(float)) - c)
        for r in range(10)]
    print(f"  v = {v:>3}: mean exact cut distance {np.mean(vals):.4f}")

v = 48
model = complete_host(v, q=q, f=f, f_prime=fp, f_derivative_sups=(slope, 0.0, 0.0))
rule = graph_rule(model)
A0 = model.host_adjacency()
ea, eb = model.host_edges[:, 0], model.host_edges[:, 1]
x0 = A0[ea, eb].astype(np.uint8)
t, R = 3, 4000
P = gd.deterministic_edge_matrices(model, A0, t)
det_tri, pred = gd.triangle_clt(model, A0, t)

ens = simulate_ensemble(rule, x0, t, R, seed=12)
As = gd.edge_state_to_adjacency(model, ens.states[:, t, :].astype(float))
tri = np.einsum("rij,rjk,rik->r", As, As, As) / v ** 3
stat = v * (tri - det_tri) / np.sqrt(model.n_edges)

print(f"\ntriangle density at t = {t} on K_{v}:")
print(f"  deterministic value  : {det_tri:.5f}")
print(f"  empirical mean       : {tri.mean():.5f}")
print(f"  normalized variance  : {stat.var():.5f} vs functional {pred:.5f}")
print(f"  homomorphism density of a 4-cycle in the kernel: "
      f"{gd.homomorphism_density([(0, 1), (1, 2), (2, 3), (0, 3)], 4, P[t]):.5f}")
