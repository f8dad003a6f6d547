"""Energy-weighted censoring cascade: backward DP and risk accounting.

A cascade runs K feature stages in a fixed order.  Stage 1 always runs;
after observing stage i's feature the system either censors the frame
(declares state 0, idles every remaining stage at its off-cost) or pays the
next stage's on-cost to continue.  Only the last stage may declare state 1.
The objective is the Bayes detection risk plus ``energy_weight`` times the
expected per-frame energy.

A cascade is the detection graph in which every node has one successor,
so ``solve`` is ``graph.solve_graph`` on the path graph 1 -> 2 -> ... -> K:
one backward DP over a uniform belief grid serves both.  Stage values are
piecewise-linear concave in the belief, so the continue region at each
intermediate stage is an upper interval of beliefs: the policy is a single
threshold per stage.  Ties continue: the threshold is the smallest grid
belief at which continuing costs no more than stopping, matching the
deployed rule, which continues when the belief is at or above it.
Thresholds are reported clamped to each stage's admissible posterior
interval (the deployed rule); the pre-clamp grid thresholds are kept
alongside because the risk decomposition must follow the optimizer's
stop/continue partition on the whole grid, including belief values no
trajectory can reach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InfeasibleBudgetError, ModelFormatError
from .graph import DetectionGraph, solve_graph
from .models import (
    BeliefGrid,
    BeliefTable,
    FeatureModel,
    UncertaintyParams,
    expected_next,
)
from .robust import (
    BeliefInterval,
    RobustBand,
    least_favorable,
    model_posterior_bounds,
    solve_band,
)

__all__ = [
    "StageSpec",
    "SystemSpec",
    "Policy",
    "RiskReport",
    "CascadeOptimality",
    "tail_off_costs",
    "path_graph",
    "solve",
    "evaluate",
    "calibrate_lambda",
    "check_cascade_optimality",
    "robustify_stages",
    "build_system",
]


@dataclass(frozen=True)
class StageSpec:
    """One stage: its feature model, on/off energy costs, belief bounds."""

    model: FeatureModel
    on_cost: float
    off_cost: float = 0.0
    bounds: BeliefInterval = BeliefInterval(0.0, 1.0)

    def __post_init__(self):
        if not (self.on_cost > 0.0 and np.isfinite(self.on_cost)):
            raise ModelFormatError("on_cost must be positive and finite")
        if not (self.off_cost >= 0.0 and np.isfinite(self.off_cost)):
            raise ModelFormatError("off_cost must be nonnegative and finite")


@dataclass(frozen=True)
class SystemSpec:
    """A K-stage cascade with costs, prior, and exactly one energy knob."""

    stages: tuple[StageSpec, ...]
    miss_cost: float
    fa_cost: float
    prior: float
    energy_weight: float | None = None
    energy_budget: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))
        if len(self.stages) < 2:
            raise ModelFormatError("a cascade needs at least 2 stages")
        if not (0.0 < self.miss_cost < math.inf and 0.0 < self.fa_cost < math.inf):
            raise ModelFormatError("miss_cost and fa_cost must be positive and finite")
        if not 0.0 <= self.prior <= 1.0:
            raise ModelFormatError("prior must lie in [0, 1]")
        if (self.energy_weight is None) == (self.energy_budget is None):
            raise ModelFormatError("set exactly one of energy_weight or energy_budget")
        if self.energy_weight is not None and not 0.0 <= self.energy_weight < math.inf:
            raise ModelFormatError("energy_weight must be finite and nonnegative")
        if self.energy_budget is not None and not math.isfinite(self.energy_budget):
            raise ModelFormatError("energy_budget must be finite")
        for k, st in enumerate(self.stages[1:], start=1):
            if not st.off_cost < st.on_cost:
                raise ModelFormatError(f"stage {k + 1}: off_cost must be below on_cost")

    @property
    def n_stages(self) -> int:
        return len(self.stages)


@dataclass(frozen=True)
class Policy:
    """Solved cascade policy: thresholds plus the value tables behind them.

    thresholds[i] applies to the belief after stage i's update; the frame is
    censored when the belief falls strictly below it, and the last entry is
    the positive-declaration threshold fa/(fa+miss).  raw_thresholds are the
    pre-clamp grid values (see module docstring).
    """

    grid: BeliefGrid
    thresholds: tuple[float, ...]
    raw_thresholds: tuple[float, ...]
    value_tables: tuple[BeliefTable, ...]
    v0: float
    energy_weight: float


@dataclass(frozen=True)
class RiskReport:
    """Additive decomposition of the optimized objective."""

    total: float
    inter_miss: float
    final_miss: float
    final_fa: float
    energy: float
    weighted_energy: float


@dataclass(frozen=True)
class CascadeOptimality:
    """Per intermediate stage: largest belief where the cascade's value still
    beats an immediate positive declaration, and whether that belief clears
    the stage's admissible upper bound (in which case adding early positive
    decisions cannot improve the system)."""

    positive_thresholds: tuple[float, ...]
    per_stage: tuple[bool, ...]

    @property
    def all_hold(self) -> bool:
        return all(self.per_stage)


def tail_off_costs(stages) -> np.ndarray:
    """tail[i] = sum of off_costs of stages[i:]; tail[K] = 0.

    A stop after stage i idles stages i+1..K and charges tail[i+1].
    """
    offs = np.array([st.off_cost for st in stages], dtype=np.float64)
    tail = np.zeros(len(stages) + 1)
    tail[:-1] = offs[::-1].cumsum()[::-1]
    return tail


def path_graph(spec: SystemSpec) -> DetectionGraph:
    """The cascade as a detection graph: stage k is node k + 1, with edges
    k -> k + 1 and root 1."""
    ids = range(1, spec.n_stages + 1)
    return DetectionGraph(
        nodes=dict(zip(ids, spec.stages)), edges={i: (i + 1,) for i in ids[:-1]}, root=1
    )


def solve(spec: SystemSpec, grid: BeliefGrid | None = None) -> Policy:
    """Backward DP over the belief grid; returns the threshold policy.

    Solves the path graph of the stages, then clamps each intermediate
    threshold to its stage's admissible posterior interval.
    """
    if spec.energy_weight is None:
        raise ModelFormatError("solve needs energy_weight; use calibrate_lambda for budgets")
    grid = grid or BeliefGrid()
    lam = float(spec.energy_weight)
    ids = range(1, spec.n_stages + 1)
    gp = solve_graph(path_graph(spec), spec.miss_cost, spec.fa_cost, lam, spec.prior, grid)
    raw = tuple(gp.stop_thresholds[i] for i in ids)
    clamped = [min(max(t, st.bounds.lo), st.bounds.hi) for t, st in zip(raw, spec.stages)]
    return Policy(
        grid=grid,
        thresholds=(*clamped[:-1], raw[-1]),
        raw_thresholds=raw,
        value_tables=tuple(gp.value_tables[i] for i in ids),
        v0=gp.v0,
        energy_weight=lam,
    )


def evaluate(spec: SystemSpec, policy: Policy) -> RiskReport:
    """Risk decomposition of the fixed policy: no minimization anywhere.

    Four component tables are carried backwards as one stack (censoring
    miss, final miss, final false alarm, raw energy), each following the
    optimizer's grid stop/continue partition, so that weighted energy plus
    the three risk parts reproduces the solver's value tables identically.
    """
    grid = policy.grid
    b = grid.points
    lam = policy.energy_weight
    stages = spec.stages
    K = len(stages)
    tail = tail_off_costs(stages)

    positive = b >= policy.thresholds[K - 1]
    zero = np.zeros_like(b)
    final_m = np.where(positive, 0.0, spec.miss_cost * b)
    final_fa = np.where(positive, spec.fa_cost * (1.0 - b), 0.0)
    tables = np.stack([zero, final_m, final_fa, zero])
    for k in range(K - 2, -1, -1):
        nxt = stages[k + 1]
        cont = expected_next(nxt.model, grid, tables)
        cont[3] += nxt.on_cost
        stop = np.stack([spec.miss_cost * b, zero, zero, np.full_like(b, tail[k + 1])])
        tables = np.where(b >= policy.raw_thresholds[k], cont, stop)

    first = stages[0]
    at_prior = expected_next(first.model, grid, tables, [spec.prior])[:, 0]
    r_inter, r_final_m, r_final_fa, e = at_prior.tolist()
    e += first.on_cost
    return RiskReport(
        total=lam * e + r_inter + r_final_m + r_final_fa,
        inter_miss=r_inter,
        final_miss=r_final_m,
        final_fa=r_final_fa,
        energy=e,
        weighted_energy=lam * e,
    )


def achievable_energy_range(spec: SystemSpec) -> tuple[float, float]:
    """[stop-everything energy, run-everything energy]."""
    tail = tail_off_costs(spec.stages)
    floor = spec.stages[0].on_cost + float(tail[1])
    ceil = float(sum(st.on_cost for st in spec.stages))
    return floor, ceil


# calibrate_lambda stops bisecting once the weight bracket is this narrow
# relative to the weight, or once a feasible policy's energy is this close
# to the budget.
CALIBRATE_REL_TOL = 1e-6
CALIBRATE_ENERGY_TOL = 1e-4


def calibrate_lambda(spec: SystemSpec, grid: BeliefGrid | None = None) -> tuple[float, Policy]:
    """Smallest-energy-weight policy whose expected energy meets the budget.

    Expected energy is nonincreasing in the weight, so plain bisection works:
    the upper end always satisfies the budget, the lower end violates it.
    """
    grid = grid or BeliefGrid()
    if spec.energy_budget is None:
        raise ModelFormatError("calibrate_lambda needs a spec with energy_budget")
    target = float(spec.energy_budget)
    floor, ceil = achievable_energy_range(spec)
    if not floor <= target <= ceil:
        raise InfeasibleBudgetError(
            f"budget {target!r} outside achievable energy range [{floor!r}, {ceil!r}]"
        )

    def solved(lam: float) -> tuple[Policy, float]:
        pol = solve(replace(spec, energy_weight=lam, energy_budget=None), grid)
        rep = evaluate(replace(spec, energy_weight=lam, energy_budget=None), pol)
        return pol, rep.energy

    pol, e = solved(0.0)
    if e <= target:
        return 0.0, pol

    lo = 0.0
    hi = 1.0
    pol_hi, e_hi = solved(hi)
    while e_hi > target:
        lo, hi = hi, hi * 4.0
        pol_hi, e_hi = solved(hi)
        if hi > 1e30:
            raise InfeasibleBudgetError("energy weight bracketing diverged")

    while hi - lo > CALIBRATE_REL_TOL * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        pol_mid, e_mid = solved(mid)
        if e_mid <= target:
            hi, pol_hi, e_hi = mid, pol_mid, e_mid
            if abs(e_mid - target) <= CALIBRATE_ENERGY_TOL:
                break
        else:
            lo = mid
    return hi, pol_hi


def check_cascade_optimality(spec: SystemSpec, policy: Policy) -> CascadeOptimality:
    """Would letting intermediate stages declare state 1 ever help?

    For each intermediate stage, find the largest grid belief at which the
    cascade's value still strictly beats declaring positive on the spot
    (paying the false-alarm risk plus the idle tail).  If that belief exceeds
    the stage's admissible upper bound, no reachable belief prefers the
    early positive, so the censoring-only cascade is already optimal there.
    """
    lam = policy.energy_weight
    b = policy.grid.points
    tail = tail_off_costs(spec.stages)
    betas = []
    verdicts = []
    for k in range(spec.n_stages - 1):
        declare_pos = spec.fa_cost * (1.0 - b) + lam * tail[k + 1]
        better = np.flatnonzero(policy.value_tables[k].values - declare_pos < 0.0)
        beta = float(b[better[-1]]) if better.size else -np.inf
        betas.append(beta)
        verdicts.append(beta > spec.stages[k].bounds.hi)
    return CascadeOptimality(tuple(betas), tuple(verdicts))


def robustify_stages(models, uncertainties, prior: float):
    """Deployed model, robustness band and admissible belief interval per stage.

    Intermediate stages with nonzero uncertainty are replaced by their
    least-favorable versions; the last stage is taken as exact.  Admissible
    belief intervals are propagated from the prior through each deployed
    stage model (the last stage keeps the full interval since its threshold
    is never clamped).  `uncertainties` may be None or hold None entries
    for exact stages.
    """
    models = list(models)
    K = len(models)
    if uncertainties is None:
        uncertainties = [None] * K
    uncertainties = [u or UncertaintyParams() for u in uncertainties]
    if len(uncertainties) != K:
        raise ModelFormatError("need one uncertainty entry per stage")
    if not uncertainties[-1].is_zero:
        raise ModelFormatError("the last stage is exact; its uncertainty must be zero")

    out = []
    interval = BeliefInterval.point(prior)
    for model, u in zip(models[:-1], uncertainties):
        deployed, band = least_favorable(model, u)
        # Bounds must track the deployed (renormalized) model, not the
        # band ends: the simulator compares beliefs to clamped thresholds
        # exactly, and the band drifts by the normalization residual.
        interval = model_posterior_bounds(interval, deployed)
        out.append((deployed, band, interval))
    out.append((models[-1], solve_band(models[-1], UncertaintyParams()), BeliefInterval.full()))
    return out


def build_system(
    models,
    on_costs,
    off_costs,
    miss_cost: float,
    fa_cost: float,
    prior: float,
    uncertainties=None,
    energy_weight: float | None = None,
    energy_budget: float | None = None,
) -> tuple[SystemSpec, tuple[RobustBand, ...]]:
    """Assemble a cascade from nominal models, robustifying stages 1..K-1
    as ``robustify_stages`` does.  Returns the spec plus the per-stage bands.
    """
    deployed = robustify_stages(models, uncertainties, prior)
    stages = tuple(
        StageSpec(
            model=model, on_cost=float(on_costs[k]), off_cost=float(off_costs[k]), bounds=bounds
        )
        for k, (model, _, bounds) in enumerate(deployed)
    )
    spec = SystemSpec(
        stages=stages,
        miss_cost=miss_cost,
        fa_cost=fa_cost,
        prior=prior,
        energy_weight=energy_weight,
        energy_budget=energy_budget,
    )
    return spec, tuple(band for _, band, _ in deployed)
