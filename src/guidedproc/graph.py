"""Censoring policies on a DAG of detectors.

Generalizes the chain: after a node's symbol updates the belief, the policy
either stops (declares target-absent, paying idle costs for every detector
downstream of the node) or hands off to exactly one successor and pays that
successor's processing cost.  Terminal nodes declare.  Values are computed
on the shared belief grid in post-order, so every successor's table exists
before it is consumed.

Every node of a deployed policy keeps its cut points, the sorted beliefs
where its action changes, and one action per interval, read by ``route``.
Actions are node ids: the chosen successor id, or 0 for stop; a terminal
declares its label (0 or 1).  Node ids must therefore be positive integers.
The solver cuts at the grid beliefs where its decision changes, so every
belief in [b_j, b_{j+1}) takes grid point j's action.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ModelFormatError
from .models import BeliefGrid, BeliefTable, belief_transition, expected_next

if TYPE_CHECKING:  # cascade imports this module to solve its path graph
    from .cascade import StageSpec

__all__ = [
    "DetectionGraph",
    "GraphPolicy",
    "post_order",
    "downstream_off_costs",
    "check_energy_weight",
    "declaration_table",
    "route",
    "solve_graph",
]


@dataclass(frozen=True)
class DetectionGraph:
    """DAG of censoring detectors rooted at the always-on node."""

    nodes: dict[int, StageSpec]
    edges: dict[int, tuple[int, ...]]
    root: int

    def __post_init__(self):
        if not self.nodes:
            raise ModelFormatError("graph needs at least one node")
        for i in self.nodes:
            if not (isinstance(i, int) and i > 0):
                raise ModelFormatError("node ids must be positive integers")
        if self.root not in self.nodes:
            raise ModelFormatError("root must be a node")
        edges = {}
        for i, succ in self.edges.items():
            if i not in self.nodes:
                raise ModelFormatError(f"edge source {i} is not a node")
            succ = tuple(sorted(succ))
            if len(set(succ)) != len(succ):
                raise ModelFormatError(f"duplicate successor on node {i}")
            for n in succ:
                if n not in self.nodes:
                    raise ModelFormatError(f"successor {n} of node {i} is not a node")
            if succ:
                edges[i] = succ
        object.__setattr__(self, "edges", edges)
        order = post_order(self)
        if set(order) != set(self.nodes):
            unreachable = sorted(set(self.nodes) - set(order))
            raise ModelFormatError(f"nodes unreachable from root: {unreachable}")

    def successors(self, i: int) -> tuple[int, ...]:
        return self.edges.get(i, ())

    def is_terminal(self, i: int) -> bool:
        return not self.edges.get(i, ())


def post_order(graph: DetectionGraph) -> list[int]:
    """Finish order of a DFS from the root, successors taken ascending.

    Shared nodes appear once; a back edge is a cycle and is rejected.
    """
    seen, done, order = set(), set(), []
    stack = [(graph.root, iter(graph.successors(graph.root)))]
    seen.add(graph.root)
    path = {graph.root}
    while stack:
        node, it = stack[-1]
        advanced = False
        for n in it:
            if n in path:
                raise ModelFormatError(f"cycle through node {n}")
            if n not in seen:
                seen.add(n)
                path.add(n)
                stack.append((n, iter(graph.successors(n))))
                advanced = True
                break
        if not advanced:
            stack.pop()
            path.discard(node)
            if node not in done:
                done.add(node)
                order.append(node)
    return order


def downstream_off_costs(graph: DetectionGraph) -> dict[int, float]:
    """Idle cost charged when stopping at each node: the sum of off costs
    over all distinct nodes reachable strictly below it (shared descendants
    counted once)."""
    descendants: dict[int, frozenset[int]] = {}
    for i in post_order(graph):
        acc: set[int] = set()
        for n in graph.successors(i):
            acc.add(n)
            acc |= descendants[n]
        descendants[i] = frozenset(acc)
    return {
        i: float(sum(graph.nodes[n].off_cost for n in descendants[i]))
        for i in graph.nodes
    }


def check_energy_weight(energy_weight: float, nodes, miss_cost: float, fa_cost: float) -> None:
    """Refuse a weight that is negative or that overflows the costs.

    No value or stream risk exceeds the larger price plus every node's
    weighted on and off costs; twice that must stay finite, so the sums
    over classes and frames do too.
    """
    costs = sum(n.on_cost + n.off_cost for n in nodes)
    ceiling = 2.0 * (energy_weight * costs + max(miss_cost, fa_cost))
    if not (energy_weight >= 0.0 and math.isfinite(ceiling)):
        raise ModelFormatError("energy_weight must be nonnegative and keep the costs finite")


def declaration_table(grid: BeliefGrid, miss_cost: float, fa_cost: float) -> np.ndarray:
    """A terminal node's value: the cheaper declaration at each grid belief,
    positive (fa * (1 - b)) from fa / (fa + miss) up, else negative
    (miss * b).  It does not depend on the energy weight."""
    b = grid.points
    return np.where(b >= fa_cost / (fa_cost + miss_cost), fa_cost * (1.0 - b), miss_cost * b)


def route(cuts: np.ndarray, actions: np.ndarray, beliefs) -> np.ndarray:
    """actions[j] at each belief with j of the sorted `cuts` at or below it:
    actions[0] plus, per cut passed, the step to the next action, summed in
    the actions' dtype (in an unsigned one the steps wrap and the sum
    telescopes modulo its range).  A scalar belief gives a scalar."""
    out = np.full(np.shape(beliefs), actions[0], actions.dtype)
    for c, step in zip(cuts, np.diff(actions)):
        out += (beliefs >= c) * step
    return out[()]


@dataclass(frozen=True)
class GraphPolicy:
    grid: BeliefGrid
    order: tuple[int, ...]
    value_tables: dict[int, BeliefTable]
    routes: dict[int, tuple[np.ndarray, np.ndarray]]  # (cuts, actions) per node
    stop_off_costs: dict[int, float]
    stop_thresholds: dict[int, float]
    miss_cost: float
    fa_cost: float
    energy_weight: float
    prior: float
    v0: float

    def decision_at(self, node: int, belief) -> np.ndarray:
        """Deployed action at any belief: the action of the largest grid
        point not above it (within a grid step the decision is constant
        between threshold crossings, so this reproduces the threshold rule)."""
        return route(*self.routes[node], belief)


def solve_graph(
    graph: DetectionGraph,
    miss_cost: float,
    fa_cost: float,
    energy_weight: float,
    prior: float,
    grid: BeliefGrid | None = None,
    transitions=None,
    propagated=None,
) -> GraphPolicy:
    """Exact-on-the-grid value iteration over the DAG.

    Terminal nodes price the two declarations; internal nodes compare
    stopping (miss risk plus weighted downstream idle energy) against each
    successor (its processing cost plus expected continuation value).  Ties
    between stop and the best successor continue; ties among successors go
    to the smallest id.  For callers that solve one graph at many weights,
    `transitions` may map node ids to their ``belief_transition`` at the
    grid points, and `propagated` may map terminal ids to their
    ``declaration_table`` carried through that transition by
    ``expected_next``, which no weight changes.
    """
    if not (0.0 < miss_cost < math.inf and 0.0 < fa_cost < math.inf):
        raise ModelFormatError("miss_cost and fa_cost must be positive and finite")
    if not 0.0 <= prior <= 1.0:
        raise ModelFormatError("prior must lie in [0, 1]")
    check_energy_weight(energy_weight, graph.nodes.values(), miss_cost, fa_cost)
    grid = BeliefGrid() if grid is None else grid
    b = grid.points
    lam = energy_weight
    dstop = downstream_off_costs(graph)
    order = post_order(graph)
    tables: dict[int, BeliefTable] = {}
    routes: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    thresholds: dict[int, float] = {}
    transitions = transitions or {}
    propagated = propagated or {}
    # continuation table of each node, computed when a first predecessor
    # needs it: a shared successor is propagated once
    onward: dict[int, np.ndarray] = {}

    tau_term = fa_cost / (fa_cost + miss_cost)
    for i in order:
        node = graph.nodes[i]
        succ = graph.successors(i)
        if not succ:
            v = declaration_table(grid, miss_cost, fa_cost)
            key, labels = b >= tau_term, (0, 1)  # per grid point, an index into labels
            thresholds[i] = tau_term
        else:
            stop = miss_cost * b + lam * dstop[i]
            # cont: the cheapest successor's cost at each grid point; key:
            # its 1-based position in succ (ascending ids), the first on ties
            cont, key = np.full(grid.size, np.inf), np.zeros(grid.size, np.intp)
            for j, n in enumerate(succ, start=1):
                assert n in tables, "post-order violated"
                if n not in onward:
                    nxt = graph.nodes[n]
                    ahead = propagated.get(n)
                    if ahead is None:
                        pair = transitions.get(n) or belief_transition(nxt.model, b)
                        ahead = expected_next(grid, tables[n].values, pair)
                        del pair  # 16·C·M bytes: freed before the next node's pair is built
                    onward[n] = lam * nxt.on_cost + ahead
                key[onward[n] < cont] = j
                cont = np.minimum(cont, onward[n])
            go = cont <= stop
            v = np.where(go, cont, stop)
            key, labels = key * go, (0, *succ)  # 0 where the node stops
            hits = np.flatnonzero(go)
            thresholds[i] = float(b[hits[0]]) if hits.size else np.inf
        tables[i] = BeliefTable(grid, v)
        change = np.flatnonzero(key[1:] != key[:-1]) + 1  # the cut points' grid indices
        actions = np.array(labels, dtype=np.min_scalar_type(max(labels)))
        routes[i] = (b[change], actions.take(key.take(np.concatenate(([0], change)))))

    root = graph.nodes[graph.root]
    at_prior = belief_transition(root.model, [prior])
    v0 = lam * root.on_cost + float(expected_next(grid, tables[graph.root].values, at_prior)[0])
    return GraphPolicy(
        grid=grid,
        order=tuple(order),
        value_tables=tables,
        routes=routes,
        stop_off_costs=dstop,
        stop_thresholds=thresholds,
        miss_cost=miss_cost,
        fa_cost=fa_cost,
        energy_weight=lam,
        prior=prior,
        v0=v0,
    )
