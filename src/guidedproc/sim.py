"""Stream simulation with reproducible, order-independent randomness.

Frames are generated in fixed 65536-frame chunks; chunk c draws from a
counter-based generator keyed by the seed with its counter parked at
c * 2**128, so the stream for a given (seed, frame index) never depends on
chunk processing order or worker count.  Within a chunk every frame draws
the same layout of variates (state, then one uniform per stage or node, in
ascending node id) whether or not the policy ends up consuming them, which
keeps the stream aligned across policies sharing a seed.

Symbols versus classes: a stream draws symbols and updates beliefs on
their ratio classes (see ``models``).  Sampling runs on the full alphabet,
so the map from variates to symbols does not depend on how symbols group.
The update reads the masses of the drawn symbol's class, as the solver's
tables and the belief bounds do, so stream and solver beliefs agree bit
for bit.

Symbols come from the inverse CDF, y = searchsorted(c, u, side="right"),
with each state's CDF c divided by its last entry so that it ends at
exactly 1 (a float cumsum short of 1 would hand u near 1 to a zero-mass
last symbol).  A symbol row is drawn as raw 64-bit Philox words w, the
same stream as ``Generator.random``, which returns u = (w >> 11) * 2**-53
of the same words.  The draw goes through a guide table (Chen & Asau,
1974) built once per stream for each model by counting: [0, 1) is cut
into L = GUIDE_CELLS = 2**12 equal cells, so a frame's cell k = int(u * L)
is w >> 52 and k/L <= u < (k+1)/L.  The draw is nondecreasing in u, so
throughout cell k it equals #{j: c_j <= k/L} = #{j: ceil(c_j L) <= k}, a
cumulative count of ceil(c L), unless a CDF entry lies strictly inside the
cell.  Frames in such cells (at most Q - 1 per state) take one binary
search of their 53-bit numerator m = w >> 11, with the state bit at 2**53,
in both states' integer CDFs ceil(c * 2**53): c_j <= m * 2**-53 exactly
when ceil(c_j * 2**53) <= m.  Every draw thus equals the plain binary
search on u, and the variate layout is untouched.

Belief-rule cascades, graphs and adaptive mode share one walker: a cascade
runs as its path graph (``cascade.path_graph``).  Nodes are visited root
first in topological order, each taking the frames its parents handed it;
the root is handed every frame, in order, with the one stream prior.  A
node handed that very list (tested by identity: a join node's
concatenation can hold every frame in another order) reads the states and
its variate row in place, and a node that hands all of its frames to one
successor passes its list and beliefs on as they are, so a stage that
continues every frame costs no gathers.  ``models.posterior_update`` runs
the root's Bayes step once per class and gathers; every later node updates
each frame with its class's masses.  A route returns one small integer per
frame (0 stop, a successor id, or the declared label) with no branching
select: the belief rule is ``graph.route`` on the policy's ``routes``,
where a cascade stage's one cut is its deployed threshold.  The stopped
frames and each successor's frames become index lists (``np.flatnonzero``)
and every per-frame array is gathered through them with ``take``, never
through a boolean mask: frames arrive in random order, so a mask is a
random bit pattern and masked selection pays a branch miss per frame.
Energy is a scatter-add through the same lists.

Adaptive mode routes a stage's frames through that stage's rate and eta
recursion; a stage's state depends only on the frames that reach it, so
this is the frame-by-frame rule exactly.  The recursion steps in blocks
over which no decision can change.  The sampler draws only support
symbols, so a feature stage whose eta stays between the same two of them,
lo < eta <= hi, acts exactly on the symbols >= hi; a fallback stage's
decisions do not depend on eta.  The rate estimate moves by at most mu a
frame, so m frames move eta by at most mu*m*g + mu**2*m**2, g the rate's
distance to its target.  A block is as long as that stays within half of
eta's distance to lo and hi (the other half absorbs rounding); one array
compare decides it, and its frames run the two float updates with no
compare and no clamp, which cannot fire inside the bracket.  These are
the frame-by-frame rule's operations in its order, so the stream matches
it bit for bit.  Where the safe block is short (eta near a symbol or
pinned at a clamp, or a large mu) the frame-by-frame body runs a fixed
batch.  Burn-in frames are walked but not reported; belief-rule streams
ignore burn_in.

Energy accounting mirrors the optimizer's: the root is always paid,
continuing into a node pays its processing cost, and censoring pays the
idle cost of everything downstream.
"""

from __future__ import annotations

import bisect
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .adaptive import is_monotone_ratio, stationary_targets
from .cascade import Policy, SystemSpec, path_graph
from .dutycycle import DutyCycleSpec, positive_symbols
from .errors import ModelFormatError
from .graph import DetectionGraph, GraphPolicy, downstream_off_costs, post_order, route
from .models import FeatureModel, posterior_update

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
        if self.mode == "adaptive" and not 0.0 < self.mu < 1.0:
            raise ModelFormatError("mu must lie in (0, 1)")


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


def _generator(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed, counter=chunk_index << 128))


def _chunks(n_frames: int):
    for c, start in enumerate(range(0, n_frames, CHUNK_FRAMES)):
        yield c, min(CHUNK_FRAMES, n_frames - start)


GUIDE_CELLS = 1 << 12  # a raw word's top 12 bits: its cell int(u * GUIDE_CELLS)


class _SymbolSampler:
    """Exact inverse-CDF symbol draws for one feature model, from raw
    64-bit Philox words, by guide table (see the module docstring)."""

    def __init__(self, model: FeatureModel):
        L, q = GUIDE_CELLS, model.alphabet_size
        c = np.cumsum([model.p0, model.p1], axis=1)
        c /= c[:, -1:]
        scaled = c * L  # exact: L is a power of two
        top = np.ceil(scaled)
        # cell k draws #{j: c_j <= k/L} = #{j: ceil(c_j L) <= k} unless a CDF
        # entry lies strictly inside it, k < c_j L < k + 1; counted per state
        # over L + 1 bins (ceil(c_j L) reaches L), state 1's after state 0's
        cells = top.astype(np.intp) + [[0], [L + 1]]
        counts = np.cumsum(np.bincount(cells.ravel(), minlength=2 * (L + 1)))
        table = counts.reshape(2, L + 1) - [[0], [q]]
        table.ravel()[cells[top != scaled] - 1] = -1  # ambiguous: search
        self._q = q
        self._table = table[:, :L].T.ravel()  # entry 2k + x: state x, cell k
        # c_j <= m * 2**-53 exactly when ceil(c_j * 2**53) <= m; state 1's
        # keys sit above every state-0 key, past the state bit 2**53
        keys = np.ceil(c * 2.0**53).astype(np.uint64) + np.array([[0], [1 << 53]], np.uint64)
        self._keys = keys.ravel()

    def __call__(self, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        """One symbol per frame from its raw word, from p1 where x is set
        and p0 elsewhere."""
        entry = w >> 52
        entry <<= 1
        entry |= x
        y = self._table.take(entry.view(np.intp))
        hard = np.flatnonzero(y < 0)
        if hard.size:
            xh = x.take(hard)
            key = w.take(hard) >> 11  # the uniform's 53-bit numerator
            key |= xh.astype(np.uint64) << 53
            y[hard] = np.searchsorted(self._keys, key, side="right") - xh * self._q
        return y


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
        self.sum_e_miss += float(energy.take(np.flatnonzero(miss)).sum())
        self.sum_e_fa += float(energy.take(np.flatnonzero(fa)).sum())

    def report(self) -> SimReport:
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
        )


def simulate(config: StreamConfig, policy=None) -> SimReport:
    """Run the configured stream against a solved policy.

    Cascades accept belief or adaptive mode; graphs and duty cyclers are
    belief-rule only.  Identical configs produce identical reports.
    """
    system = config.system
    if config.mode == "adaptive" and not isinstance(system, SystemSpec):
        raise ModelFormatError("adaptive mode applies to cascade systems")
    if isinstance(system, SystemSpec):
        if not isinstance(policy, Policy):
            raise ModelFormatError("cascade simulation needs a solved Policy")
        if len(policy.thresholds) != system.n_stages:
            raise ModelFormatError("policy does not match the system's stage count")
        graph, prior, costs, weight = path_graph(system), system.prior, system, policy.energy_weight
    elif isinstance(system, DetectionGraph):
        if not isinstance(policy, GraphPolicy):
            raise ModelFormatError("graph simulation needs a GraphPolicy")
        # root prior: the graph policy was solved for one
        graph, prior, costs, weight = system, policy.prior, policy, policy.energy_weight
    elif isinstance(system, DutyCycleSpec):
        graph, prior, costs, weight = None, system.prior, system, config.energy_weight
    else:
        raise ModelFormatError(f"cannot simulate a {type(system).__name__}")
    prior = prior if config.prior is None else config.prior
    acc = _Accumulator(costs.miss_cost, costs.fa_cost, weight)
    if graph is None:  # the duty cycler's variate layout is its own
        return _simulate_duty_cycle(config, system, prior, acc)
    if config.mode == "adaptive":
        return _simulate_adaptive(config, system, policy, graph, prior, acc)
    routes = policy.routes
    deployed = lambda node, idx, beliefs, symbols, first: route(*routes[node], beliefs)
    return _walk(config, graph, prior, deployed, acc)


def _walk(
    config: StreamConfig, graph: DetectionGraph, prior: float, route, acc, skip: int = 0
) -> SimReport:
    """Stream through a detection graph.

    route(node, idx, beliefs, symbols, first) maps the frames at a node
    (their chunk indices, ascending on a path graph, updated beliefs and
    this node's symbols) to 0 (stop), a successor id, or at a terminal the
    declared label.  The first `skip` frames are walked but not reported:
    `first` is the chunk index of the first reported frame.
    """
    topo = list(reversed(post_order(graph)))  # root first
    dstop = downstream_off_costs(graph)
    row = {nid: j for j, nid in enumerate(sorted(graph.nodes))}
    sampler = {nid: _SymbolSampler(node.model) for nid, node in graph.nodes.items()}
    for c, count in _chunks(skip + config.n_frames):
        gen = _generator(config.seed, c)
        x = gen.random(count) < prior
        words = gen.bit_generator.random_raw((len(row), count))
        declared = np.zeros(count, dtype=bool)
        energy = np.zeros(count)
        every = np.arange(count)
        first = max(skip - c * CHUNK_FRAMES, 0)  # chunk index of the first reported frame
        # frontier[node]: (frame indices, beliefs) handed over by each parent
        frontier = {graph.root: [(every, prior)]}
        for nid in topo:
            parts = frontier.pop(nid)
            idx, pi = parts[0] if len(parts) == 1 else (np.concatenate(a) for a in zip(*parts))
            node, w = graph.nodes[nid], words[row[nid]]
            if idx is every:  # every frame, in order: read in place
                energy += node.on_cost
                y = sampler[nid](x, w)
            else:
                np.add.at(energy, idx, node.on_cost)
                y = sampler[nid](x.take(idx), w.take(idx))
            pi = posterior_update(pi, node.model, y)
            action = route(nid, idx, pi, y, first)
            if graph.is_terminal(nid):
                declared[idx] = action == 1
                continue
            np.add.at(energy, idx.take(np.flatnonzero(action == 0)), dstop[nid])
            for s in graph.successors(nid):
                go = np.flatnonzero(action == s)
                # a successor taking all of the frames takes the lists as they are
                frontier.setdefault(s, []).append(
                    (idx, pi) if go.size == idx.size else (idx.take(go), pi.take(go))
                )
            del go  # the hand-offs hold the frames now
        if first < count:
            acc.add(x[first:], declared[first:], energy[first:])
    return acc.report()


# Safe blocks shorter than this run the scalar body instead.  Measured on
# CPython 3.11 (2-CPU x86-64), a block costs about 2.3 us more to set up
# than a scalar batch (bracket, horizon, slice compare, float copy) and
# about 90 ns less per frame (70 vs 160 ns), so it pays from about 25
# frames.  Whole trigger streams at mu = 1e-2 ran within 8% of each other
# at 24-48, and 10% (64) and 30% (96) slower than at 24.
_MIN_BLOCK = 32
# Frames the scalar body runs before the horizon is tried again.  A failed
# try costs about 1.5 us, under 1% of 1024 scalar frames; whole streams at
# mu from 1e-3 to 3e-2 ran within noise of each other at 256-4096 and up
# to 20% slower at 64.
_SCALAR_BATCH = 1024


def _safe_horizon(eta: float, r: float, target: float, mu: float, lo: float, hi: float) -> int:
    """How many adaptive steps from (eta, r) surely keep eta in (lo, hi].

    The rate estimate moves by at most mu per step (|a - r| <= 1), so at
    step t eta moves by at most mu*(g + mu*t), g = |r - target|, and m steps
    move it by at most mu*m*g + mu**2*m**2.  The largest m that keeps this,
    plus an allowance of one ulp(hi) per step for rounding, within half of
    eta's distance to either end is returned: the other half absorbs the
    rounding of every other operation.
    """
    half = 0.5 * min(eta - lo, hi - eta)
    if not half > 0.0:
        return 0
    g, u = abs(r - target), math.ulp(hi)
    b = mu * g + u
    # the positive root of mu**2*m**2 + b*m = half, in the form that keeps
    # its precision (and stays finite) when mu*mu is tiny
    m = int(2.0 * half / (b + math.sqrt(b * b + 4.0 * mu * mu * half)))
    while m and mu * m * g + mu * mu * m * m + m * u > half:
        m -= 1
    return m


def _simulate_adaptive(
    config: StreamConfig, spec: SystemSpec, policy: Policy, graph: DetectionGraph, prior, acc
) -> SimReport:
    """Cascade stream under the adaptive feature-domain rule, a route through
    the walker, stepped in safe blocks (see the module docstring).  Fallback
    stages decide on the belief, which carries every earlier stage's
    evidence, by its route.

    A feature stage's bracket (lo, hi] holds eta between its neighbouring
    support symbols (p0 + p1 > 0), with the clamp bound 0 or limit where a
    side has none.  A fallback stage is given no support symbols, so its
    bracket is the clamp range, and its route's decisions enter as symbols
    that clear every eta in [0, limit] (limit) or none (-1).  A block of
    ``_safe_horizon`` frames keeps eta inside its bracket, never clamping,
    and acts on the symbols >= hi.
    """
    n, mu, routes = spec.n_stages, config.mu, policy.routes
    # non-monotone stages fall back to the belief rule; thresholds start
    # mid-alphabet and rate estimates at their targets, so the first
    # updates react to data, not initialization
    feature_rule = [is_monotone_ratio(s.model) for s in spec.stages]
    supports = [
        np.flatnonzero(s.model.p0 + s.model.p1 > 0.0).tolist() if feature else []
        for s, feature in zip(spec.stages, feature_rule)
    ]
    limits = [float(s.model.alphabet_size) for s in spec.stages]
    targets = stationary_targets(spec, policy)[0].tolist()
    eta = [limit / 2.0 for limit in limits]
    rates = list(targets)
    visits, acts = [0] * n, [0] * n

    def adapt(node, idx, beliefs, symbols, first):
        k = node - 1
        e, r, target, limit, support = eta[k], rates[k], targets[k], limits[k], supports[k]
        if feature_rule[k]:
            rule = symbols
        else:
            rule = np.where(route(*routes[node], beliefs) != 0, limit, -1.0)
        acted = np.empty(idx.size, dtype=bool)
        i = 0
        while i < idx.size:
            j = bisect.bisect_left(support, e)
            lo = support[j - 1] if j else 0.0
            hi = support[j] if j < len(support) else limit
            m = min(_safe_horizon(e, r, target, mu, lo, hi), idx.size - i)
            if m >= _MIN_BLOCK:
                block = np.greater_equal(rule[i : i + m], hi, out=acted[i : i + m])
                for a in memoryview(block.astype(float)):
                    r += mu * (a - r)
                    e += mu * (r - target)
            else:
                m = min(_SCALAR_BATCH, idx.size - i)
                batch = []  # the frame-by-frame rule, a = 1.0 or 0.0 by branch
                for v in rule[i : i + m].tolist():
                    if v >= e:
                        r += mu * (1.0 - r)
                        batch.append(True)
                    else:
                        r += mu * (0.0 - r)
                        batch.append(False)
                    nxt = e + mu * (r - target)
                    e = 0.0 if nxt < 0.0 else (limit if nxt > limit else nxt)
                acted[i : i + m] = np.fromiter(batch, bool, m)
            i += m
        eta[k], rates[k] = e, r
        m = int(np.searchsorted(idx, first))  # idx[m:] are measured
        visits[k] += idx.size - m
        acts[k] += int(np.count_nonzero(acted[m:]))
        return acted.view(np.uint8) * routes[node][1][1]  # the go label: next node, or 1

    report = _walk(config, graph, prior, adapt, acc, skip=config.burn_in)
    rate_errors = tuple(
        abs(acts[k] / visits[k] - targets[k]) if visits[k] else 0.0 for k in range(n)
    )
    return replace(report, final_eta=tuple(eta), rate_errors=rate_errors)


def _simulate_duty_cycle(config: StreamConfig, dc_spec: DutyCycleSpec, prior, acc) -> SimReport:
    """Stream the duty cycler: a coin gates the detector each frame."""
    positive = positive_symbols(dc_spec.detector, prior, dc_spec.miss_cost, dc_spec.fa_cost)
    sample = _SymbolSampler(dc_spec.detector)
    for c, count in _chunks(config.n_frames):
        gen = _generator(config.seed, c)
        x = gen.random(count) < prior
        on = gen.random(count) < dc_spec.rho
        y = sample(x, gen.bit_generator.random_raw(count))
        declared = on & positive.take(y)
        energy = np.where(on, dc_spec.on_cost, dc_spec.off_cost)
        acc.add(x, declared, energy)
    return acc.report()
