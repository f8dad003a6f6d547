"""Stream simulation with reproducible, order-independent randomness.

Frames are generated in fixed 65536-frame chunks; chunk c draws from a
counter-based generator keyed by the seed with its counter parked at
c * 2**128, so the stream for a given (seed, frame index) never depends on
chunk processing order or worker count.  Within a chunk every frame draws
the same layout of variates (state, then one uniform per stage or node, in
ascending node id) whether or not the policy ends up consuming them, which
keeps the stream aligned across policies sharing a seed.

Symbols come from the inverse CDF, y = searchsorted(c, u, side="right"),
with each state's CDF c divided by its last entry so that it ends at
exactly 1 (a float cumsum short of 1 would hand u near 1 to a zero-mass
last symbol).  The draw goes through a guide table (Chen & Asau, 1974)
built once per stream for each model: [0, 1) is cut into L = GUIDE_CELLS
equal cells, and since L is a power of two, k = int(u * L) is exact and
k/L <= u < (k+1)/L.  The draw is nondecreasing in u, so throughout cell k
it equals lo[k] = searchsorted(c, k/L, "right") unless a CDF entry lies
strictly inside the cell; frames in such cells (at most Q - 1 per state)
take the binary search.  Every draw thus equals the plain binary search,
and the variate layout is untouched.

Belief-rule cascades and graphs share one walker: a cascade runs as its
path graph (``cascade.path_graph``).  Nodes are visited root first in
topological order, and each node sees only the frames routed to it.

Energy accounting mirrors the optimizer's: the root is always paid,
continuing into a node pays its processing cost, and censoring pays the
idle cost of everything downstream.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .adaptive import prepare_adaptive
from .cascade import Policy, SystemSpec, path_graph
from .dutycycle import DutyCycleSpec
from .errors import ModelFormatError
from .graph import DetectionGraph, GraphPolicy, downstream_off_costs, post_order
from .models import FeatureModel, symbol_posteriors

__all__ = ["StreamConfig", "SimReport", "simulate", "CHUNK_FRAMES"]

CHUNK_FRAMES = 1 << 16


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


@dataclass(frozen=True)
class StreamConfig:
    """What to stream and how to drive the rule under test."""

    system: object  # SystemSpec | DetectionGraph | DutyCycleSpec
    n_frames: int
    seed: int
    mode: str = "belief"  # "belief" | "adaptive"
    mu: float = 1e-3  # adaptive step size
    burn_in: int = 0  # adaptive frames discarded before measuring
    prior: float | None = None  # stream prior override
    energy_weight: float = 0.0  # risk weight where no policy supplies one

    def __post_init__(self):
        if not (_is_int(self.n_frames) and self.n_frames >= 1):
            raise ModelFormatError("n_frames must be a positive integer")
        if not (_is_int(self.seed) and 0 <= self.seed < 1 << 128):
            raise ModelFormatError("seed must be an integer in [0, 2**128)")
        if self.mode not in ("belief", "adaptive"):
            raise ModelFormatError("mode must be 'belief' or 'adaptive'")
        if not (_is_int(self.burn_in) and self.burn_in >= 0):
            raise ModelFormatError("burn_in must be a nonnegative integer")
        if self.prior is not None and not 0.0 <= self.prior <= 1.0:
            raise ModelFormatError("prior must lie in [0, 1]")


@dataclass(frozen=True)
class SimReport:
    """Empirical counterpart of a risk report, with standard errors.

    miss_rate and fa_rate are conditional on the frame state; the joint
    frequencies used by the risk reconstruction are exposed separately.
    """

    n_frames: int
    n_target: int
    miss_count: int
    fa_count: int
    energy: float
    energy_se: float
    empirical_risk: float
    risk_se: float
    miss_rate: float
    miss_rate_se: float
    fa_rate: float
    fa_rate_se: float
    final_eta: tuple | None = None
    rate_errors: tuple | None = None

    @property
    def miss_frequency(self) -> float:
        return self.miss_count / self.n_frames

    @property
    def fa_frequency(self) -> float:
        return self.fa_count / self.n_frames


def _generator(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed, counter=chunk_index << 128))


def _chunks(n_frames: int, first_chunk: int = 0):
    done, c = 0, first_chunk
    while done < n_frames:
        count = min(CHUNK_FRAMES, n_frames - done)
        yield c, count
        done += count
        c += 1


GUIDE_CELLS = 1 << 12  # a power of two, so u * GUIDE_CELLS is exact


class _SymbolSampler:
    """Exact inverse-CDF symbol draws for one feature model, by guide table
    (see the module docstring)."""

    def __init__(self, model: FeatureModel):
        edges = np.arange(GUIDE_CELLS + 1) / GUIDE_CELLS
        self._cdfs, lo, ambiguous = [], [], []
        for p in (model.p0, model.p1):
            c = np.cumsum(p)
            c = c / c[-1]
            first = np.searchsorted(c, edges[:-1], side="right")
            self._cdfs.append(c)
            lo.append(first)
            # a CDF entry strictly inside the cell: the draw is not constant
            ambiguous.append(first != np.searchsorted(c, edges[1:], side="left"))
        # one table for both states: state x owns cells x*L .. x*L + L - 1
        self._lo = np.concatenate(lo)
        self._ambiguous = np.concatenate(ambiguous)

    def __call__(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """One symbol per frame, from p1 where x is set and p0 elsewhere."""
        cell = (u * GUIDE_CELLS).astype(np.intp)
        cell += x * GUIDE_CELLS
        y = self._lo.take(cell)
        hard = np.flatnonzero(self._ambiguous.take(cell))
        if hard.size:
            c0, c1 = self._cdfs
            uh = u[hard]
            y0 = np.searchsorted(c0, uh, side="right")
            y[hard] = np.where(x[hard], np.searchsorted(c1, uh, side="right"), y0)
        return y


def _posterior_step(pi, p0v, p1v):
    num = p1v * pi
    den = num + p0v * (1.0 - pi)
    safe = np.where(den > 0.0, den, 1.0)
    return np.where(den > 0.0, num / safe, pi)


class _Accumulator:
    """Streaming sums for the report; merge order is fixed by chunk index."""

    def __init__(self, miss_cost, fa_cost, energy_weight):
        self.miss_cost = miss_cost
        self.fa_cost = fa_cost
        self.energy_weight = energy_weight
        self.n = 0
        self.n_target = 0
        self.miss = 0
        self.fa = 0
        self.sum_e = 0.0
        self.sumsq_e = 0.0
        self.sum_e_miss = 0.0
        self.sum_e_fa = 0.0

    def add(self, x, declared, energy):
        miss = x & ~declared
        fa = ~x & declared
        self.n += x.size
        self.n_target += int(np.count_nonzero(x))
        self.miss += int(np.count_nonzero(miss))
        self.fa += int(np.count_nonzero(fa))
        self.sum_e += float(energy.sum())
        self.sumsq_e += float((energy * energy).sum())
        self.sum_e_miss += float(energy[miss].sum())
        self.sum_e_fa += float(energy[fa].sum())

    def report(self, **extra) -> SimReport:
        n = self.n
        mean_e = self.sum_e / n
        var_e = max(self.sumsq_e / n - mean_e * mean_e, 0.0)
        miss_f = self.miss / n
        fa_f = self.fa / n
        risk = self.energy_weight * mean_e + self.miss_cost * miss_f + self.fa_cost * fa_f
        # per-frame risk is lam*e + C_M*1{miss} + C_A*1{fa}; the error
        # indicators are mutually exclusive so these cross terms are exact
        lam = self.energy_weight
        sumsq_r = (
            lam * lam * self.sumsq_e
            + self.miss_cost**2 * self.miss
            + self.fa_cost**2 * self.fa
            + 2.0 * lam * (self.miss_cost * self.sum_e_miss + self.fa_cost * self.sum_e_fa)
        )
        var_r = max(sumsq_r / n - risk * risk, 0.0)
        n1 = self.n_target
        n0 = n - n1
        miss_rate = self.miss / n1 if n1 else 0.0
        fa_rate = self.fa / n0 if n0 else 0.0
        return SimReport(
            n_frames=n,
            n_target=n1,
            miss_count=self.miss,
            fa_count=self.fa,
            energy=mean_e,
            energy_se=math.sqrt(var_e / n),
            empirical_risk=risk,
            risk_se=math.sqrt(var_r / n),
            miss_rate=miss_rate,
            miss_rate_se=math.sqrt(miss_rate * (1.0 - miss_rate) / n1) if n1 else 0.0,
            fa_rate=fa_rate,
            fa_rate_se=math.sqrt(fa_rate * (1.0 - fa_rate) / n0) if n0 else 0.0,
            **extra,
        )


def simulate(config: StreamConfig, policy=None) -> SimReport:
    """Run the configured stream against a solved policy.

    Cascades accept belief or adaptive mode; graphs and duty cyclers are
    belief-rule only.  Identical configs produce identical reports.
    """
    system = config.system
    if isinstance(system, SystemSpec):
        if not isinstance(policy, Policy):
            raise ModelFormatError("cascade simulation needs a solved Policy")
        if len(policy.thresholds) != system.n_stages:
            raise ModelFormatError("policy does not match the system's stage count")
        if config.mode == "adaptive":
            return _simulate_adaptive(config, system, policy)
        prior = system.prior if config.prior is None else config.prior
        tau, n = policy.thresholds, system.n_stages

        def route(node, beliefs):  # node i + 1 follows node i; the last declares 1
            return np.where(beliefs >= tau[node - 1], node % n + 1, 0)

        acc = _Accumulator(system.miss_cost, system.fa_cost, policy.energy_weight)
        return _walk(config, path_graph(system), prior, route, acc)
    if isinstance(system, DetectionGraph):
        if not isinstance(policy, GraphPolicy):
            raise ModelFormatError("graph simulation needs a GraphPolicy")
        if config.mode != "belief":
            raise ModelFormatError("adaptive mode applies to cascade systems")
        # root prior: the graph policy was solved for one; allow stream override
        prior = policy.prior if config.prior is None else config.prior
        acc = _Accumulator(policy.miss_cost, policy.fa_cost, policy.energy_weight)
        return _walk(config, system, prior, policy.decision_at, acc)
    if isinstance(system, DutyCycleSpec):
        return _simulate_duty_cycle(config, system)
    raise ModelFormatError(f"cannot simulate a {type(system).__name__}")


def _walk(config: StreamConfig, graph: DetectionGraph, prior: float, route, acc) -> SimReport:
    """Belief-rule stream through a detection graph.

    route(node, beliefs) maps the updated beliefs of the frames at a node
    to 0 (stop), a successor id, or at a terminal the declared label.
    """
    topo = list(reversed(post_order(graph)))  # root first
    dstop = downstream_off_costs(graph)
    row = {nid: j for j, nid in enumerate(sorted(graph.nodes))}
    sampler = {nid: _SymbolSampler(node.model) for nid, node in graph.nodes.items()}
    for c, count in _chunks(config.n_frames):
        gen = _generator(config.seed, c)
        x = gen.random(count) < prior
        u = gen.random((len(row), count))
        declared = np.zeros(count, dtype=bool)
        energy = np.full(count, graph.nodes[graph.root].on_cost)
        # frontier[node]: (frame indices, beliefs) handed over by each parent
        frontier = {graph.root: [(np.arange(count), np.full(count, prior))]}
        for nid in topo:
            if nid not in frontier:
                continue
            idx, pi = (np.concatenate(a) for a in zip(*frontier.pop(nid)))
            node = graph.nodes[nid]
            y = sampler[nid](x[idx], u[row[nid], idx])
            pi = _posterior_step(pi, node.model.p0[y], node.model.p1[y])
            action = route(nid, pi)
            if graph.is_terminal(nid):
                declared[idx] = action == 1
                continue
            energy[idx[action == 0]] += dstop[nid]
            for s in graph.successors(nid):
                go = action == s
                energy[idx[go]] += graph.nodes[s].on_cost
                frontier.setdefault(s, []).append((idx[go], pi[go]))
        acc.add(x, declared, energy)
    return acc.report()


def _simulate_adaptive(config: StreamConfig, spec: SystemSpec, policy: Policy) -> SimReport:
    """Cascade stream under the adaptive feature-domain rule.  Fallback
    stages decide on the belief, which carries every earlier stage's
    evidence, feature-rule stages included."""
    state = prepare_adaptive(spec, policy, config.mu)
    prior = spec.prior if config.prior is None else config.prior
    n_stages = spec.n_stages
    dstop = downstream_off_costs(path_graph(spec))  # stage k is node k + 1
    on_costs = [s.on_cost for s in spec.stages]
    samplers = [_SymbolSampler(s.model) for s in spec.stages]
    feature_rule = state.feature_rule.tolist()
    # the belief must carry every stage's evidence up to the last fallback
    n_belief = max((k + 1 for k, f in enumerate(feature_rule) if not f), default=0)
    targets = state.targets.tolist()
    limits = state.eta_limits.tolist()
    eta = state.eta.tolist()
    rates = state.rate_estimates.tolist()
    mu = config.mu
    acc = _Accumulator(spec.miss_cost, spec.fa_cost, policy.energy_weight)
    visits = [0] * n_stages
    acts = [0] * n_stages
    total = config.burn_in + config.n_frames
    done = 0
    for c, count in _chunks(total):
        gen = _generator(config.seed, c)
        x_arr = gen.random(count) < prior
        u = gen.random((n_stages, count))
        ys = [sample(x_arr, u[k]) for k, sample in enumerate(samplers)]
        # beliefs depend on the symbols alone, so the fallback decisions of
        # the whole chunk are settled here, ahead of the scalar loop
        pi, belief_act = prior, []
        for k in range(n_belief):
            model = spec.stages[k].model
            pi = _posterior_step(pi, model.p0[ys[k]], model.p1[ys[k]])
            belief_act.append((pi >= policy.thresholds[k]).tolist())
        ys = [y.tolist() for y in ys]
        xs = x_arr.tolist()
        # scalar loop: the thresholds adapt frame by frame
        chunk_x = np.empty(count, dtype=bool)
        chunk_decl = np.empty(count, dtype=bool)
        chunk_energy = np.empty(count)
        measuring_from = config.burn_in - done  # local index; may be <= 0
        for t in range(count):
            measured = t >= measuring_from
            energy = on_costs[0]
            declared = False
            for k in range(n_stages):
                act = ys[k][t] >= eta[k] if feature_rule[k] else belief_act[k][t]
                rates[k] += mu * ((1.0 if act else 0.0) - rates[k])
                nxt = eta[k] + mu * (rates[k] - targets[k])
                eta[k] = 0.0 if nxt < 0.0 else (limits[k] if nxt > limits[k] else nxt)
                if measured:
                    visits[k] += 1
                    acts[k] += act
                if k < n_stages - 1:
                    if not act:
                        energy += dstop[k + 1]
                        break
                    energy += on_costs[k + 1]
                else:
                    declared = act
            chunk_x[t] = xs[t]
            chunk_decl[t] = declared
            chunk_energy[t] = energy
        if measuring_from < count:
            keep = slice(max(measuring_from, 0), None)
            acc.add(chunk_x[keep], chunk_decl[keep], chunk_energy[keep])
        done += count
    rate_errors = tuple(
        abs(acts[k] / visits[k] - targets[k]) if visits[k] else 0.0 for k in range(n_stages)
    )
    return acc.report(final_eta=tuple(eta), rate_errors=rate_errors)


def _simulate_duty_cycle(config: StreamConfig, dc_spec: DutyCycleSpec) -> SimReport:
    """Stream the duty cycler: a coin gates the detector each frame."""
    prior = dc_spec.prior if config.prior is None else config.prior
    tau = dc_spec.fa_cost / (dc_spec.fa_cost + dc_spec.miss_cost)
    post = symbol_posteriors(dc_spec.detector, np.array([prior]))[:, 0]
    positive_symbol = post >= tau  # decision per symbol at fixed prior
    sample = _SymbolSampler(dc_spec.detector)
    acc = _Accumulator(dc_spec.miss_cost, dc_spec.fa_cost, config.energy_weight)
    for c, count in _chunks(config.n_frames):
        gen = _generator(config.seed, c)
        x = gen.random(count) < prior
        on = gen.random(count) < dc_spec.rho
        y = sample(x, gen.random(count))
        declared = on & positive_symbol[y]
        energy = np.where(on, dc_spec.on_cost, dc_spec.off_cost)
        acc.add(x, declared, energy)
    return acc.report()
