"""Energy-weighted censoring cascade: backward DP and risk accounting.

A cascade runs K feature stages in a fixed order.  Stage 1 always runs;
after observing stage i's feature the system either censors the frame
(declares state 0, idles every remaining stage at its off-cost) or pays the
next stage's on-cost to continue.  Only the last stage may declare state 1.
The objective is the Bayes detection risk plus ``energy_weight`` times the
expected per-frame energy.

A cascade is the detection graph in which every node has one successor,
so ``solve`` is ``graph.solve_graph`` on the path graph 1 -> 2 -> ... -> K:
one backward DP over a uniform belief grid serves both, and the last
stage's declaration table, carried through its transition, comes from the
graph module's process-wide memo of terminal tables.  Stage values are
piecewise-linear concave in the belief, so the continue region at each
intermediate stage is an upper interval of beliefs: the policy is a single
threshold per stage.  Ties continue: the threshold is the smallest grid
belief at which continuing costs no more than stopping, matching the
deployed rule, ``Policy.routes``, which continues at or above it.
Deployed thresholds are the grid thresholds mapped onto each stage's
admissible posterior interval so that both choose the same action at every
reachable belief: a threshold below the interval is raised to its lower
end, and a stage that never continues gets the smallest float above its
upper end.  The grid thresholds are kept alongside because the risk
decomposition must follow the optimizer's stop/continue partition at every
grid node that interpolation reads, and those nodes bracket the reachable
beliefs rather than equal them.  ``evaluate`` carries the decomposition
back over that read set only, which a forward pass from the prior collects,
and takes the last stage's miss and false-alarm parts, carried through its
transition, from the same memo: like the declaration table, they depend on
no weight, prior or earlier threshold.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InfeasibleBudgetError, ModelFormatError
from .graph import (
    DetectionGraph, _terminal_onward, check_prices, check_prior, downstream_off_costs, solve_graph
)
from .models import (
    BeliefGrid,
    BeliefTable,
    FeatureModel,
    UncertaintyParams,
    belief_transition,
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
    "check_off_costs",
    "Policy",
    "RiskReport",
    "CascadeOptimality",
    "path_graph",
    "solve",
    "evaluate",
    "achievable_energy_range",
    "calibrate_lambda",
    "check_cascade_optimality",
    "robustify_stages",
    "build_system",
]

logger = logging.getLogger("guidedproc")


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


def check_off_costs(stages) -> None:
    """Refuse a stage after the first whose off cost is not below its on cost."""
    for k, st in enumerate(stages[1:], start=2):
        if not st.off_cost < st.on_cost:
            raise ModelFormatError(f"stage {k}: off_cost must be below on_cost")


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
        check_prices(self.miss_cost, self.fa_cost, self.prior)
        if (self.energy_weight is None) == (self.energy_budget is None):
            raise ModelFormatError("set exactly one of energy_weight or energy_budget")
        if self.energy_weight is not None and not 0.0 <= self.energy_weight < math.inf:
            raise ModelFormatError("energy_weight must be finite and nonnegative")
        if self.energy_budget is not None and not math.isfinite(self.energy_budget):
            raise ModelFormatError("energy_budget must be finite")
        check_off_costs(self.stages)

    @property
    def n_stages(self) -> int:
        return len(self.stages)


@dataclass(frozen=True)
class Policy:
    """Solved cascade policy: thresholds plus the value tables behind them.

    thresholds[i] applies to the belief after stage i's update; the frame is
    censored when the belief falls strictly below it, and the last entry is
    the positive-declaration threshold fa/(fa+miss).  Deployed thresholds
    are finite; raw_thresholds are the grid values, +inf for a stage that
    never continues (see module docstring).
    """

    grid: BeliefGrid
    thresholds: tuple[float, ...]
    raw_thresholds: tuple[float, ...]
    value_tables: tuple[BeliefTable, ...]
    v0: float
    energy_weight: float

    @property
    def routes(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """``graph.route`` tables of the path graph: stage k cuts at
        thresholds[k - 1], going on to node k + 1 or, last, declaring 1."""
        n = len(self.thresholds)
        label = np.min_scalar_type(n)  # holds every stage id
        return {
            k: (np.array([t]), np.array([0, k % n + 1], label))
            for k, t in enumerate(self.thresholds, start=1)
        }


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


def path_graph(spec: SystemSpec) -> DetectionGraph:
    """The cascade as a detection graph: stage k is node k + 1, with edges
    k -> k + 1 and root 1."""
    ids = range(1, spec.n_stages + 1)
    return DetectionGraph(
        nodes=dict(zip(ids, spec.stages)), edges={i: (i + 1,) for i in ids[:-1]}, root=1
    )


def solve(spec: SystemSpec, grid: BeliefGrid | None = None, transitions=None) -> Policy:
    """Backward DP over the belief grid; returns the threshold policy.

    Solves the path graph of the stages, then maps each intermediate
    threshold onto its stage's admissible posterior interval: a threshold
    below it is raised to its lower end, and a stage that never continues
    gets the smallest float above its upper end.  `transitions` is
    ``graph.solve_graph``'s cache of grid transitions, keyed by node (stage
    k is node k + 1), for callers that solve one cascade at many weights.
    """
    if spec.energy_weight is None:
        raise ModelFormatError("solve needs energy_weight; use calibrate_lambda for budgets")
    grid = grid or BeliefGrid()
    lam = float(spec.energy_weight)
    ids = range(1, spec.n_stages + 1)
    gp = solve_graph(
        path_graph(spec), spec.miss_cost, spec.fa_cost, lam, spec.prior, grid, transitions
    )
    raw = tuple(gp.stop_thresholds[i] for i in ids)
    # a finite raw threshold above the interval already stops every
    # reachable belief; only "never continue" (inf) needs a finite stand-in
    deployed = [
        max(t, st.bounds.lo) if math.isfinite(t) else float(np.nextafter(st.bounds.hi, math.inf))
        for t, st in zip(raw, spec.stages)
    ]
    return Policy(
        grid=grid,
        thresholds=(*deployed[:-1], raw[-1]),
        raw_thresholds=raw,
        value_tables=tuple(gp.value_tables[i] for i in ids),
        v0=gp.v0,
        energy_weight=lam,
    )


def _read_set(b: np.ndarray, beliefs: np.ndarray) -> np.ndarray:
    """Grid nodes ``np.interp`` reads to interpolate at the beliefs: the
    two ends of each belief's bracket, j <= x < j + 1, in ascending order."""
    j = np.searchsorted(b, beliefs.ravel(), "right") - 1
    hit = np.zeros(b.size + 1, dtype=bool)  # the top node's bracket end j + 1 = M
    hit[j] = hit[j + 1] = True
    return np.flatnonzero(hit[:-1])


def evaluate(spec: SystemSpec, policy: Policy) -> RiskReport:
    """Risk decomposition of the fixed policy: no minimization anywhere.

    Four component tables are carried backwards as one stack (censoring
    miss, final miss, final false alarm, raw energy), each following the
    optimizer's grid stop/continue partition, so that weighted energy plus
    the three risk parts reproduces the solver's value tables identically.
    Only the read set is carried: a forward pass from the prior collects,
    stage by stage, the grid nodes that interpolation at the reachable
    posteriors reads, and which of them continue; the backward pass fills
    each table on those nodes alone, so every entry it reads is the value
    the whole-grid recursion would hold there.  The last stage's two
    nonzero parts, final miss and final false alarm, depend on no weight,
    prior or earlier threshold, so they are not carried per call: stage
    K-1's continue nodes read them, already carried through the last
    stage's transition, from ``graph``'s process-wide memo of terminal
    tables, under the policy's last threshold.  On a cold memo this builds
    the last stage's whole-grid transition, as ``solve`` does.  Logs one
    DEBUG record on the ``guidedproc`` logger: per stage, the read-set
    size, and for the last stage the number of continue nodes read from
    the memo.
    """
    grid = policy.grid
    b = grid.points
    lam = policy.energy_weight
    stages = spec.stages
    K = len(stages)
    dstop = downstream_off_costs(path_graph(spec))

    root = belief_transition(stages[0].model, [spec.prior])
    reads = [_read_set(b, root[0])]
    splits, pairs = [], []
    for k in range(K - 1):
        go = b[reads[k]] >= policy.raw_thresholds[k]
        cont, stop = reads[k][go], reads[k][~go]
        splits.append((cont, stop))
        if k < K - 2:
            # numpy sums one column pairwise but several row by row, as on
            # the whole grid: a lone continue node is carried twice
            cols = np.repeat(cont, 2) if cont.size == 1 else cont
            pairs.append(belief_transition(stages[k + 1].model, b[cols]))
            reads.append(_read_set(b, pairs[k][0]))

    # stage K-1's continue nodes read the last stage's risk parts in the memo
    into_last = splits[-1][0]
    values = np.zeros((4, into_last.size))
    values[1:3] = _terminal_onward(
        stages[-1].model, grid.size, spec.miss_cost, spec.fa_cost, policy.thresholds[K - 1]
    )[1:, into_last]
    for k in range(K - 2, -1, -1):
        cont, stop = splits[k]
        values[3] += stages[k + 1].on_cost
        tables = np.zeros((4, b.size))
        tables[0, stop] = spec.miss_cost * b[stop]
        tables[3, stop] = dstop[k + 1]
        tables[:, cont] = values[:, : cont.size]
        if k:
            values = expected_next(grid, tables, pairs[k - 1])

    if logger.isEnabledFor(logging.DEBUG):
        logger.debug(
            "evaluate: grid nodes read per stage %s of %d, the last stage's at the"
            " continue nodes from the terminal memo",
            [*(int(r.size) for r in reads), int(into_last.size)], b.size,
        )
    at_prior = expected_next(grid, tables, root)[:, 0]
    r_inter, r_final_m, r_final_fa, e = at_prior.tolist()
    e += stages[0].on_cost
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
    floor = spec.stages[0].on_cost + downstream_off_costs(path_graph(spec))[1]
    ceil = float(sum(st.on_cost for st in spec.stages))
    return floor, ceil


# calibrate_lambda narrows its weight bracket [lo, hi] until hi - lo is at
# most this share of hi.
CALIBRATE_REL_TOL = 1e-6


def calibrate_lambda(spec: SystemSpec, grid: BeliefGrid | None = None) -> tuple[float, Policy]:
    """Smallest energy weight whose policy meets the energy budget.

    On the grid, v0(lambda) is the least of risk + lambda * energy over the
    stop/continue partitions, so it is concave and piecewise linear with
    slope equal to the energy ``evaluate`` reports: energy falls below the
    budget at one breakpoint (Everett's generalized Lagrange multipliers).
    The search steps the weight up x4 from 1 until the budget is met, then
    cuts the bracket where v0's tangents at its ends cross (Kelley's cutting
    plane), at least CALIBRATE_REL_TOL / 2 inside it.  lo breaks the budget
    and hi meets it throughout.

    Returns (hi, its policy) once hi - lo <= CALIBRATE_REL_TOL * hi, so every
    weight up to hi * (1 - CALIBRATE_REL_TOL) breaks the budget; 0 when zero
    weight meets it; and hi as it stands when the tangents show that hi's
    policy is optimal on all of (0, hi], or when three cuts in a row return
    the same (risk, energy): ties continue at weight 0 and stop at any
    positive weight, so the end policies' risks can differ by rounding alone
    and their tangents cross where no cut moves them.  The step-up also
    stops at the first weight whose policy never continues past stage 1,
    and returns it: no weight spends less, and its energy is the floor of
    ``achievable_energy_range`` up to the rounding of ``evaluate``'s sum
    over ratio classes, so it may exceed a budget at the floor by that
    rounding.  The grid transitions of stages 2..K-1 are built once per
    call and reused by every solve; the last stage's declaration table and
    risk parts, which no weight changes, come from ``graph``'s process-wide
    memo, so neither ``solve`` nor ``evaluate`` propagates through it.  Logs
    one DEBUG record on the ``guidedproc`` logger: solve count, final
    bracket, weight, energy and budget slack.
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
    # posteriors and evidence depend on the grid and the stage models only;
    # the first stage is read at the prior alone
    transitions = {
        k: belief_transition(st.model, grid.points)
        for k, st in enumerate(spec.stages[1:-1], start=2)
    }
    solves = 0

    def solved(lam: float) -> tuple[Policy, float, float]:
        nonlocal solves
        solves += 1
        run = replace(spec, energy_weight=lam, energy_budget=None)
        pol = solve(run, grid, transitions)
        rep = evaluate(run, pol)
        # the risk parts of a partition do not depend on the weight
        return pol, rep.inter_miss + rep.final_miss + rep.final_fa, rep.energy

    lo = hi = 0.0
    pol, r_hi, e_hi = solved(hi)
    while e_hi > target:
        if pol.raw_thresholds[0] == math.inf:  # stops at stage 1: no weight spends less
            lo = hi
            break
        lo, r_lo, e_lo = hi, r_hi, e_hi
        hi = 4.0 * hi if hi else 1.0
        pol, r_hi, e_hi = solved(hi)
        if hi > 1e30:
            raise InfeasibleBudgetError("energy weight bracketing diverged")

    margin = 0.5 * CALIBRATE_REL_TOL
    last, repeats = None, 0  # the previous cut's (risk, energy), and its run length
    while hi - lo > CALIBRATE_REL_TOL * hi and repeats < 3:
        # the tangents r + lambda * e of the two end policies cross at
        # (v_hi - v_lo + lo * e_lo - hi * e_hi) / (e_lo - e_hi)
        cut = (r_hi - r_lo) / (e_lo - e_hi)
        lam = min(max(cut, lo * (1.0 + margin)), hi * (1.0 - margin))
        if lam <= lo:  # lo == 0 and hi's line passes through v0(0)
            break
        pol_c, r_c, e_c = solved(lam)
        repeats = repeats + 1 if (r_c, e_c) == last else 1
        last = (r_c, e_c)
        if e_c <= target:
            hi, pol, r_hi, e_hi = lam, pol_c, r_c, e_c
        else:
            lo, r_lo, e_lo = lam, r_c, e_c

    if logger.isEnabledFor(logging.DEBUG):
        logger.debug(
            "calibrate_lambda: %d solves, bracket [%r, %r], energy_weight %r, "
            "energy %r, budget slack %r",
            solves, lo, hi, hi, e_hi, target - e_hi,
        )
    return hi, pol


def check_cascade_optimality(spec: SystemSpec, policy: Policy) -> CascadeOptimality:
    """Would letting intermediate stages declare state 1 ever help?

    For each intermediate stage, find the largest grid belief at which the
    cascade's value still strictly beats declaring positive on the spot
    (paying the false-alarm risk plus the idle tail).  If that belief exceeds
    the stage's admissible upper bound, no reachable belief prefers the
    early positive, so the censoring-only cascade is already optimal there.
    Needs a solved policy: one loaded from a file carries no value tables.
    """
    if len(policy.value_tables) != spec.n_stages:
        raise ModelFormatError(
            "the optimality check needs a solved policy, with one value table per stage"
        )
    lam = policy.energy_weight
    b = policy.grid.points
    dstop = downstream_off_costs(path_graph(spec))
    betas = []
    verdicts = []
    for k in range(spec.n_stages - 1):
        declare_pos = spec.fa_cost * (1.0 - b) + lam * dstop[k + 1]
        better = np.flatnonzero(policy.value_tables[k].values - declare_pos < 0.0)
        beta = float(b[better[-1]]) if better.size else -np.inf
        betas.append(beta)
        verdicts.append(beta > spec.stages[k].bounds.hi)
    return CascadeOptimality(tuple(betas), tuple(verdicts))


def robustify_stages(stages, prior: float) -> list[tuple[StageSpec, RobustBand]]:
    """Deployed stage and robustness band per (stage, uncertainty) pair.

    Intermediate stages with nonzero uncertainty get their least-favorable
    models; the last stage is taken as exact.  Each deployed stage carries
    its admissible belief interval, propagated from the prior through the
    deployed models (the last stage keeps the full interval since its
    threshold is never clamped).
    """
    *front, (last, u_last) = stages
    if not u_last.is_zero:
        raise ModelFormatError("the last stage is exact; its uncertainty must be zero")

    check_prior(prior)
    out = []
    interval = BeliefInterval(prior, prior)
    for stage, u in front:
        deployed, band = least_favorable(stage.model, u)
        # Bounds must track the deployed (renormalized) model, not the
        # band ends: the simulator compares beliefs to clamped thresholds
        # exactly, and the band drifts by the normalization residual.
        interval = model_posterior_bounds(interval, deployed)
        out.append((replace(stage, model=deployed, bounds=interval), band))
    full = replace(last, bounds=BeliefInterval(0.0, 1.0))
    out.append((full, solve_band(last.model, UncertaintyParams())))
    return out


def build_system(
    stages,
    miss_cost: float,
    fa_cost: float,
    prior: float,
    energy_weight: float | None = None,
    energy_budget: float | None = None,
) -> tuple[SystemSpec, tuple[RobustBand, ...]]:
    """Assemble a cascade from (nominal stage, uncertainty) pairs,
    robustifying stages 1..K-1 as ``robustify_stages`` does.  Returns the
    spec plus the per-stage bands.
    """
    deployed = robustify_stages(stages, prior)
    spec = SystemSpec(
        stages=tuple(stage for stage, _ in deployed),
        miss_cost=miss_cost,
        fa_cost=fa_cost,
        prior=prior,
        energy_weight=energy_weight,
        energy_budget=energy_budget,
    )
    return spec, tuple(band for _, band in deployed)
