"""Censoring policies on a DAG of detectors.

Generalizes the chain: after a node's symbol updates the belief, the policy
either stops (declares target-absent, paying idle costs for every detector
downstream of the node) or hands off to exactly one successor and pays that
successor's processing cost.  Terminal nodes declare.  Values are computed
on the shared belief grid in post-order, so every successor's table exists
before it is consumed.

Decision tables use node ids as actions: an internal node's entry is the
chosen successor id, or 0 for stop; a terminal node's entry is the declared
label (0 or 1).  Node ids must therefore be positive integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ModelFormatError
from .models import BeliefGrid, BeliefTable, expected_next

if TYPE_CHECKING:  # cascade imports this module to solve its path graph
    from .cascade import StageSpec

__all__ = [
    "DetectionGraph",
    "GraphPolicy",
    "post_order",
    "downstream_off_costs",
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

    @property
    def terminal_ids(self) -> tuple[int, ...]:
        return tuple(i for i in sorted(self.nodes) if self.is_terminal(i))


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


@dataclass(frozen=True)
class GraphPolicy:
    grid: BeliefGrid
    order: tuple[int, ...]
    value_tables: dict[int, BeliefTable]
    decisions: dict[int, np.ndarray]
    stop_off_costs: dict[int, float]
    stop_thresholds: dict[int, float]
    miss_cost: float
    fa_cost: float
    energy_weight: float
    prior: float
    v0: float

    def decision_at(self, node: int, belief) -> np.ndarray:
        """Deployed action at an off-grid belief: the action of the largest
        grid point not above it (within a grid step the tables are constant
        between threshold crossings, so this reproduces the threshold rule)."""
        idx = self.grid.floor_index(belief)
        return self.decisions[node][idx]


def solve_graph(
    graph: DetectionGraph,
    miss_cost: float,
    fa_cost: float,
    energy_weight: float,
    prior: float,
    grid: BeliefGrid | None = None,
) -> GraphPolicy:
    """Exact-on-the-grid value iteration over the DAG.

    Terminal nodes price the two declarations; internal nodes compare
    stopping (miss risk plus weighted downstream idle energy) against each
    successor (its processing cost plus expected continuation value).  Ties
    between stop and the best successor continue; ties among successors go
    to the smallest id.
    """
    if not (0.0 < miss_cost < math.inf and 0.0 < fa_cost < math.inf):
        raise ModelFormatError("miss_cost and fa_cost must be positive and finite")
    if not 0.0 <= prior <= 1.0:
        raise ModelFormatError("prior must lie in [0, 1]")
    if not 0.0 <= energy_weight < math.inf:
        raise ModelFormatError("energy_weight must be finite and nonnegative")
    grid = BeliefGrid() if grid is None else grid
    b = grid.points
    lam = energy_weight
    dstop = downstream_off_costs(graph)
    order = post_order(graph)
    tables: dict[int, BeliefTable] = {}
    decisions: dict[int, np.ndarray] = {}
    thresholds: dict[int, float] = {}

    tau_term = fa_cost / (fa_cost + miss_cost)
    for i in order:
        node = graph.nodes[i]
        succ = graph.successors(i)
        if not succ:
            declare_pos = b >= tau_term
            v = np.where(declare_pos, fa_cost * (1.0 - b), miss_cost * b)
            decisions[i] = declare_pos.astype(np.int64)
            thresholds[i] = tau_term
        else:
            stop = miss_cost * b + lam * dstop[i]
            cand = np.empty((len(succ), grid.size))
            for j, n in enumerate(succ):
                assert n in tables, "post-order violated"
                nxt = graph.nodes[n]
                cand[j] = lam * nxt.on_cost + expected_next(nxt.model, grid, tables[n].values)
            best = np.argmin(cand, axis=0)  # first minimum: lowest successor id
            cont = cand[best, np.arange(grid.size)]
            go = cont <= stop
            v = np.where(go, cont, stop)
            decisions[i] = np.where(go, np.asarray(succ)[best], 0)
            hits = np.flatnonzero(go)
            thresholds[i] = float(b[hits[0]]) if hits.size else np.inf
        tables[i] = BeliefTable(grid, v)
        decisions[i].setflags(write=False)

    root = graph.nodes[graph.root]
    at_prior = expected_next(root.model, grid, tables[graph.root].values, [prior])
    v0 = lam * root.on_cost + float(at_prior[0])
    return GraphPolicy(
        grid=grid,
        order=tuple(order),
        value_tables=tables,
        decisions=decisions,
        stop_off_costs=dstop,
        stop_thresholds=thresholds,
        miss_cost=miss_cost,
        fa_cost=fa_cost,
        energy_weight=lam,
        prior=prior,
        v0=v0,
    )
