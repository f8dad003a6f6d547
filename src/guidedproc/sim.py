"""Stream simulation with reproducible, order-independent randomness.

Frames are generated in fixed 65536-frame chunks; chunk c draws from a
counter-based generator keyed by the seed with its counter parked at
c * 2**128, so the stream for a given (seed, frame index) never depends on
chunk processing order or worker count.  Within a chunk every frame draws
the same layout of variates (state, then one uniform per stage or node)
whether or not the policy ends up consuming them, which keeps the stream
aligned across policies sharing a seed.

Energy accounting mirrors the optimizer's: the first stage is always paid,
continuing into a stage pays its processing cost, and censoring pays the
idle cost of everything downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adaptive import prepare_adaptive
from .cascade import Policy, SystemSpec, tail_off_costs
from .dutycycle import DutyCycleSpec
from .errors import ModelFormatError
from .graph import DetectionGraph, GraphPolicy, downstream_off_costs, post_order
from .models import FeatureModel, symbol_posteriors

__all__ = ["StreamConfig", "SimReport", "simulate", "simulate_duty_cycle", "CHUNK_FRAMES"]

CHUNK_FRAMES = 1 << 16


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
        if self.n_frames < 1:
            raise ModelFormatError("n_frames must be positive")
        if self.mode not in ("belief", "adaptive"):
            raise ModelFormatError("mode must be 'belief' or 'adaptive'")
        if self.burn_in < 0:
            raise ModelFormatError("burn_in must be nonnegative")


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


def _sample_symbols(model: FeatureModel, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw of one symbol per frame from p1 or p0 as x dictates.

    Each CDF is divided by its last entry so that it ends at exactly 1: a
    float cumsum short of 1 would hand u near 1 to a zero-mass last symbol.
    """
    c0 = np.cumsum(model.p0)
    c1 = np.cumsum(model.p1)
    y0 = np.searchsorted(c0 / c0[-1], u, side="right")
    y1 = np.searchsorted(c1 / c1[-1], u, side="right")
    return np.where(x, y1, y0)


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
        return _simulate_cascade(config, system, policy)
    if isinstance(system, DetectionGraph):
        if not isinstance(policy, GraphPolicy):
            raise ModelFormatError("graph simulation needs a GraphPolicy")
        if config.mode != "belief":
            raise ModelFormatError("adaptive mode applies to cascade systems")
        return _simulate_graph(config, system, policy)
    if isinstance(system, DutyCycleSpec):
        return simulate_duty_cycle(config, system)
    raise ModelFormatError(f"cannot simulate a {type(system).__name__}")


def _simulate_cascade(config: StreamConfig, spec: SystemSpec, policy: Policy) -> SimReport:
    prior = spec.prior if config.prior is None else config.prior
    k_last = spec.n_stages - 1
    tau = policy.thresholds
    tail = tail_off_costs(spec.stages)
    acc = _Accumulator(spec.miss_cost, spec.fa_cost, policy.energy_weight)
    for c, count in _chunks(config.n_frames):
        gen = _generator(config.seed, c)
        x = gen.random(count) < prior
        u = gen.random((spec.n_stages, count))
        pi = np.full(count, prior)
        alive = np.ones(count, dtype=bool)
        declared = np.zeros(count, dtype=bool)
        energy = np.full(count, spec.stages[0].on_cost)
        for k, stage in enumerate(spec.stages):
            y = _sample_symbols(stage.model, x, u[k])
            post = _posterior_step(pi, stage.model.p0[y], stage.model.p1[y])
            pi = np.where(alive, post, pi)
            if k < k_last:
                stop = alive & (pi < tau[k])
                energy[stop] += tail[k + 1]
                alive &= ~stop
                energy[alive] += spec.stages[k + 1].on_cost
            else:
                declared = alive & (pi >= tau[k])
        acc.add(x, declared, energy)
    return acc.report()


def _simulate_graph(config: StreamConfig, graph: DetectionGraph, policy: GraphPolicy) -> SimReport:
    # root prior: the graph policy was solved for one; allow stream override
    prior = policy.prior if config.prior is None else config.prior
    topo = list(reversed(post_order(graph)))  # root first
    dstop = downstream_off_costs(graph)
    acc = _Accumulator(policy.miss_cost, policy.fa_cost, policy.energy_weight)
    node_ids = sorted(graph.nodes)
    row = {nid: j for j, nid in enumerate(node_ids)}
    for c, count in _chunks(config.n_frames):
        gen = _generator(config.seed, c)
        x = gen.random(count) < prior
        u = gen.random((len(node_ids), count))
        pi = np.full(count, prior)
        at = np.full(count, graph.root, dtype=np.int64)
        alive = np.ones(count, dtype=bool)
        declared = np.zeros(count, dtype=bool)
        energy = np.full(count, graph.nodes[graph.root].on_cost)
        for nid in topo:
            m = alive & (at == nid)
            if not m.any():
                continue
            node = graph.nodes[nid]
            y = _sample_symbols(node.model, x[m], u[row[nid], m])
            pi_m = _posterior_step(pi[m], node.model.p0[y], node.model.p1[y])
            pi[m] = pi_m
            action = policy.decisions[nid][policy.grid.floor_index(pi_m)]
            if graph.is_terminal(nid):
                declared[m] = action == 1
                alive[m] = False
            else:
                idx = np.flatnonzero(m)
                stopped = idx[action == 0]
                energy[stopped] += dstop[nid]
                alive[stopped] = False
                for s in graph.successors(nid):
                    moved = idx[action == s]
                    energy[moved] += graph.nodes[s].on_cost
                    at[moved] = s
        acc.add(x, declared, energy)
    return acc.report()


def _simulate_adaptive(config: StreamConfig, spec: SystemSpec, policy: Policy) -> SimReport:
    state = prepare_adaptive(spec, policy, config.mu)
    prior = spec.prior if config.prior is None else config.prior
    n_stages = spec.n_stages
    tau = list(policy.thresholds)
    tail = tail_off_costs(spec.stages).tolist()
    on_costs = [s.on_cost for s in spec.stages]
    p0s = [s.model.p0.tolist() for s in spec.stages]
    p1s = [s.model.p1.tolist() for s in spec.stages]
    feature_rule = state.feature_rule.tolist()
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
        ys = [
            _sample_symbols(spec.stages[k].model, x_arr, u[k]).tolist()
            for k in range(n_stages)
        ]
        xs = x_arr.tolist()
        # scalar loop: the thresholds adapt frame by frame
        chunk_x = np.empty(count, dtype=bool)
        chunk_decl = np.empty(count, dtype=bool)
        chunk_energy = np.empty(count)
        measuring_from = config.burn_in - done  # local index; may be <= 0
        for t in range(count):
            measured = t >= measuring_from
            energy = on_costs[0]
            pi = prior
            declared = False
            for k in range(n_stages):
                y = ys[k][t]
                if feature_rule[k]:
                    act = y >= eta[k]
                else:
                    p1v = p1s[k][y]
                    p0v = p0s[k][y]
                    num = p1v * pi
                    den = num + p0v * (1.0 - pi)
                    if den > 0.0:
                        pi = num / den
                    act = pi >= tau[k]
                rates[k] += mu * ((1.0 if act else 0.0) - rates[k])
                nxt = eta[k] + mu * (rates[k] - targets[k])
                eta[k] = 0.0 if nxt < 0.0 else (limits[k] if nxt > limits[k] else nxt)
                if measured:
                    visits[k] += 1
                    acts[k] += act
                if k < n_stages - 1:
                    if not act:
                        energy += tail[k + 1]
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


def simulate_duty_cycle(config: StreamConfig, dc_spec: DutyCycleSpec) -> SimReport:
    """Stream the duty cycler: a coin gates the detector each frame."""
    prior = dc_spec.prior if config.prior is None else config.prior
    tau = dc_spec.fa_cost / (dc_spec.fa_cost + dc_spec.miss_cost)
    post = symbol_posteriors(dc_spec.detector, np.array([prior]))[:, 0]
    positive_symbol = post >= tau  # decision per symbol at fixed prior
    acc = _Accumulator(dc_spec.miss_cost, dc_spec.fa_cost, config.energy_weight)
    for c, count in _chunks(config.n_frames):
        gen = _generator(config.seed, c)
        x = gen.random(count) < prior
        on = gen.random(count) < dc_spec.rho
        y = _sample_symbols(dc_spec.detector, x, gen.random(count))
        declared = on & positive_symbol[y]
        energy = np.where(on, dc_spec.on_cost, dc_spec.off_cost)
        acc.add(x, declared, energy)
    return acc.report()
