"""Sensors that form a DAG instead of a chain: solve routing and stopping.

Each node is a detector; after observing a node's feature the system either
censors the frame or routes it to one child (terminals declare). The same
backward induction as the chain case applies node by node in post-order,
except the continue value is now a minimum over children. The fixture is a
diamond: a cheap wake node can hand off to either a light or a heavy branch
before a final confirmer.
"""

import numpy as np

from guidedproc.fixtures import diamond_graph
from guidedproc.graph import downstream_off_costs, solve_graph
from guidedproc.models import BeliefGrid

g = diamond_graph()
print("nodes:", {k: f"on={v.on_cost}" for k, v in sorted(g.nodes.items())})
print("edges:", dict(sorted(g.edges.items())))

gp = solve_graph(g, miss_cost=3.0, fa_cost=1.0, energy_weight=0.002, prior=0.1)
print(f"\nroot value at prior 0.1: {gp.v0:.6f}")
print("idle cost charged when stopping at a node:",
      {k: round(v, 3) for k, v in sorted(downstream_off_costs(g).items())})

# routes[node]: the node's cut points (the grid beliefs where its action
# changes) and one action per interval: 0 = censor, child id = route,
# 1 on a terminal = declare.
b = gp.grid.points
cuts, actions = gp.routes[1]
print("\nrouting at the wake node as belief grows:")
edges_at = [0] + np.searchsorted(b, cuts).tolist()
for lo, hi, act in zip(edges_at, edges_at[1:] + [len(b)], actions):
    action = {0: "censor", 2: "route to cheap branch", 3: "route to strong branch"}[int(act)]
    print(f"  belief in [{b[lo]:.3f}, {b[hi - 1]:.3f}]: {action}")

# A chain is the special case with one child everywhere; the dedicated
# cascade solver and the graph solver agree to machine precision on it
# (the tests pin that down to 1e-12 per grid point).
