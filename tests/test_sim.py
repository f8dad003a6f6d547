import bisect
import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from guidedproc import (
    CHUNK_FRAMES,
    BeliefGrid,
    DutyCycleSpec,
    FeatureModel,
    ModelFormatError,
    StageSpec,
    StreamConfig,
    SystemSpec,
    UncertaintyParams,
    belief_transition,
    build_system,
    dc_risk,
    energy_equivalent_rho,
    evaluate,
    ideal_duty_cycle,
    posterior_update,
    simulate,
    solve,
    solve_graph,
)
from guidedproc import io, sim as sim_module
from guidedproc.adaptive import stationary_targets
from guidedproc.cascade import Policy
from guidedproc.graph import route
from guidedproc.sim import GUIDE_CELLS, _SymbolSampler
from guidedproc.fixtures import (
    DUTY_OFF_MJ,
    DUTY_ON_MJ,
    trigger_system,
    detector_suite,
    diamond_graph,
    monitoring_system,
)
from conftest import random_model, random_system, tail_off_costs
from test_adaptive import class_system, dict_enumeration

# ---------------------------------------------------------------------------
# Oracle: replay the documented stream contract frame by frame in scalar
# Python.  Chunk c uses a Philox generator with its counter parked at
# c * 2**128; each chunk draws the state vector first, then one uniform row
# per stage or node (ascending id); symbols come from the inverse CDF.  Decisions, Bayes updates
# and energy accounting are re-derived here with plain floats, so agreement
# with the vectorized engine is exact in every count.
# ---------------------------------------------------------------------------


def replay_chunks(seed, n_frames, prior, n_rows):
    """Per chunk: index of its first frame, the frame states, and one
    uniform row per stage or node, drawn as the simulator draws them."""
    done, c = 0, 0
    while done < n_frames:
        count = min(CHUNK_FRAMES, n_frames - done)
        gen = np.random.Generator(np.random.Philox(key=seed, counter=c << 128))
        x = (gen.random(count) < prior).tolist()
        yield done, x, gen.random((n_rows, count)).tolist()
        done += count
        c += 1


def cdfs(model):
    """Both states' CDFs, each divided by its last entry so that it ends at 1."""
    return tuple((c / c[-1]).tolist() for c in (np.cumsum(model.p0), np.cumsum(model.p1)))


def draw(cdf, x, u):
    return bisect.bisect_right(cdf[x], u)


def bayes(pi, model, y):
    # the masses of y's ratio class, which the walker reads: on a model with
    # tied ratios, y's own masses can land an ulp away from a threshold
    c = model.class_of[y]
    num = model.class_p1[c] * pi
    den = num + model.class_p0[c] * (1.0 - pi)
    return num / den if den > 0.0 else pi


class Tally:
    """Counts and energies of the measured frames."""

    def __init__(self):
        self.counts = {"n": 0, "n_target": 0, "miss": 0, "fa": 0}
        self.energies = []

    def add(self, x, declared, energy):
        self.counts["n"] += 1
        self.counts["n_target"] += int(x)
        self.counts["miss"] += int(x and not declared)
        self.counts["fa"] += int((not x) and declared)
        self.energies.append(energy)

    def result(self):
        return self.counts, math.fsum(self.energies) / len(self.energies)


def oracle_cascade_stream(spec, policy, n_frames, seed):
    k_last = spec.n_stages - 1
    tau = [float(t) for t in policy.thresholds]
    tail = tail_off_costs(spec.stages).tolist()
    on = [s.on_cost for s in spec.stages]
    cdf = [cdfs(s.model) for s in spec.stages]
    tally = Tally()
    for _, x, u in replay_chunks(seed, n_frames, spec.prior, spec.n_stages):
        for t in range(len(x)):
            pi = spec.prior
            energy = on[0]
            declared = False
            for k, stage in enumerate(spec.stages):
                pi = bayes(pi, stage.model, draw(cdf[k], x[t], u[k][t]))
                if k < k_last:
                    if pi < tau[k]:
                        energy += tail[k + 1]
                        break
                    energy += on[k + 1]
                else:
                    declared = pi >= tau[k]
            tally.add(x[t], declared, energy)
    return tally.result()


def oracle_graph_stream(graph, policy, n_frames, seed, prior):
    """Scalar replay of a graph stream: one uniform row per node in
    ascending id order, decisions from the policy's routes.  Also
    returns the set of (node, action) pairs taken."""
    ids = sorted(graph.nodes)
    row = {nid: j for j, nid in enumerate(ids)}
    cdf = {i: cdfs(graph.nodes[i].model) for i in ids}
    tally, actions = Tally(), set()
    for _, x, u in replay_chunks(seed, n_frames, prior, len(ids)):
        for t in range(len(x)):
            node, pi = graph.root, prior
            energy = graph.nodes[node].on_cost
            while True:
                m = graph.nodes[node].model
                pi = bayes(pi, m, draw(cdf[node], x[t], u[row[node]][t]))
                action = int(route(*policy.routes[node], pi))
                actions.add((node, action))
                if graph.is_terminal(node):
                    declared = action == 1
                    break
                if action == 0:
                    energy += policy.stop_off_costs[node]
                    declared = False
                    break
                energy += graph.nodes[action].on_cost
                node = action
            tally.add(x[t], declared, energy)
    return (*tally.result(), actions)


def scalar_feature_rule(spec):
    """Per stage, whether p1/p0 never decreases along the alphabet (0/0
    counts as 1, x/0 as infinity): such stages run the feature rule."""
    rule = []
    for stage in spec.stages:
        r = [
            1.0 if p0 == p1 == 0.0 else math.inf if p0 == 0.0 else p1 / p0
            for p0, p1 in zip(stage.model.p0.tolist(), stage.model.p1.tolist())
        ]
        rule.append(all(a <= b for a, b in zip(r, r[1:])))
    return rule


def oracle_adaptive_stream(spec, policy, n_frames, seed, mu, burn_in):
    """Scalar replay of adaptive mode.

    Feature stages activate when the symbol clears eta; non-monotone stages
    keep the belief rule.  Each eta starts at half its stage's alphabet size
    and each rate estimate at its stage's target, the activation rate that
    dict enumeration of the reachable beliefs gives.  After every stage
    visit, burn-in included, the rate estimate moves by mu toward the
    activation indicator and eta by mu times the tracking error, clamped to
    [0, alphabet size].  Returns the counts and mean energy of the measured
    frames, the final etas, the per-stage rate errors and the set of clamps
    hit ("low", "high").
    """
    feature = scalar_feature_rule(spec)
    targets = dict_enumeration(class_system(spec), policy.thresholds)[0].tolist()
    limits = [float(s.model.alphabet_size) for s in spec.stages]
    eta = [limit / 2.0 for limit in limits]
    rates = list(targets)
    n = spec.n_stages
    tau = [float(t) for t in policy.thresholds]
    tail = tail_off_costs(spec.stages).tolist()
    on = [s.on_cost for s in spec.stages]
    cdf = [cdfs(s.model) for s in spec.stages]
    tally = Tally()
    visits, acts = [0] * n, [0] * n
    clamps = set()
    for first, x, u in replay_chunks(seed, burn_in + n_frames, spec.prior, n):
        for t in range(len(x)):
            measured = first + t >= burn_in
            pi = spec.prior
            energy = on[0]
            declared = False
            for k, stage in enumerate(spec.stages):
                y = draw(cdf[k], x[t], u[k][t])
                pi = bayes(pi, stage.model, y)
                act = y >= eta[k] if feature[k] else pi >= tau[k]
                rates[k] += mu * (float(act) - rates[k])
                nxt = eta[k] + mu * (rates[k] - targets[k])
                if nxt < 0.0:
                    clamps.add("low")
                elif nxt > limits[k]:
                    clamps.add("high")
                eta[k] = min(max(nxt, 0.0), limits[k])
                if measured:
                    visits[k] += 1
                    acts[k] += act
                if k == n - 1:
                    declared = act
                elif not act:
                    energy += tail[k + 1]
                    break
                else:
                    energy += on[k + 1]
            if measured:
                tally.add(x[t], declared, energy)
    rate_errors = tuple(
        abs(acts[k] / visits[k] - targets[k]) if visits[k] else 0.0 for k in range(n)
    )
    return (*tally.result(), tuple(eta), rate_errors, clamps)


def fallback_system():
    """A non-monotone first stage (belief fallback) ahead of a monotone one."""
    bad = FeatureModel(p0=[0.2, 0.3, 0.5], p1=[0.5, 0.3, 0.2])
    good = FeatureModel(p0=[0.4, 0.3, 0.2, 0.1], p1=[0.1, 0.2, 0.3, 0.4])
    stages = (StageSpec(model=bad, on_cost=1.0), StageSpec(model=good, on_cost=5.0, off_cost=0.1))
    return SystemSpec(stages=stages, miss_cost=3.0, fa_cost=1.0, prior=0.2, energy_weight=0.03)


def feature_then_fallback_system():
    """A monotone first stage ahead of a non-monotone one, whose belief rule
    must see the first stage's evidence as well as its own."""
    good = FeatureModel(p0=[0.4, 0.3, 0.2, 0.1], p1=[0.1, 0.2, 0.3, 0.4])
    bad = FeatureModel(p0=[0.2, 0.3, 0.5], p1=[0.5, 0.3, 0.2])
    stages = (StageSpec(model=good, on_cost=1.0), StageSpec(model=bad, on_cost=5.0, off_cost=0.1))
    return SystemSpec(stages=stages, miss_cost=3.0, fa_cost=1.0, prior=0.2, energy_weight=0.01)


def middle_fallback_system():
    """A non-monotone stage between two monotone ones: it is neither first
    nor last, and its belief rule sees the first stage's evidence."""
    good = FeatureModel(p0=[0.4, 0.3, 0.2, 0.1], p1=[0.1, 0.2, 0.3, 0.4])
    bad = FeatureModel(p0=[0.2, 0.3, 0.5], p1=[0.5, 0.3, 0.2])
    last = FeatureModel(p0=[0.5, 0.3, 0.15, 0.05], p1=[0.05, 0.15, 0.3, 0.5])
    stages = (
        StageSpec(model=good, on_cost=1.0),
        StageSpec(model=bad, on_cost=3.0, off_cost=0.1),
        StageSpec(model=last, on_cost=8.0, off_cost=0.2),
    )
    return SystemSpec(stages=stages, miss_cost=3.0, fa_cost=1.0, prior=0.2, energy_weight=0.01)


def assert_counts_match(report, counts, mean_e):
    assert report.n_frames == counts["n"]
    assert report.n_target == counts["n_target"]
    assert report.miss_count == counts["miss"]
    assert report.fa_count == counts["fa"]
    assert report.energy == pytest.approx(mean_e, rel=1e-12)


def assert_adaptive_matches_replay(spec, n_frames, seed, mu, burn_in):
    """Adaptive mode against ``oracle_adaptive_stream``: counts, final etas
    and rate errors equal; returns the clamps the replay hit."""
    policy = solve(spec)
    cfg = StreamConfig(
        system=spec, n_frames=n_frames, seed=seed, mode="adaptive", mu=mu, burn_in=burn_in
    )
    report = simulate(cfg, policy)
    counts, mean_e, eta, rate_errors, clamps = oracle_adaptive_stream(
        spec, policy, n_frames, seed, mu, burn_in
    )
    assert_counts_match(report, counts, mean_e)
    assert report.final_eta == eta
    assert report.rate_errors == rate_errors
    return clamps


def oracle_duty_stream(dc, n_frames, seed):
    tau = dc.fa_cost / (dc.fa_cost + dc.miss_cost)
    positive = [
        posterior_update(dc.prior, dc.detector, y) >= tau
        for y in range(dc.detector.alphabet_size)
    ]
    cdf = cdfs(dc.detector)
    counts = {"n": 0, "n_target": 0, "miss": 0, "fa": 0}
    energies = []
    done, c = 0, 0
    while done < n_frames:
        count = min(CHUNK_FRAMES, n_frames - done)
        gen = np.random.Generator(np.random.Philox(key=seed, counter=c << 128))
        x = (gen.random(count) < dc.prior).tolist()
        on = (gen.random(count) < dc.rho).tolist()
        u = gen.random(count).tolist()
        for t in range(count):
            y = draw(cdf, x[t], u[t])
            declared = on[t] and positive[y]
            counts["n"] += 1
            counts["n_target"] += int(x[t])
            counts["miss"] += int(x[t] and not declared)
            counts["fa"] += int((not x[t]) and declared)
            energies.append(dc.on_cost if on[t] else dc.off_cost)
        done += count
        c += 1
    return counts, math.fsum(energies) / n_frames


@pytest.fixture(scope="module")
def trigger():
    spec = trigger_system()
    return spec, solve(spec)


class TestStreamContract:
    def test_cascade_counts_match_scalar_replay(self, trigger):
        spec, policy = trigger
        cfg = StreamConfig(system=spec, n_frames=3000, seed=7)
        report = simulate(cfg, policy)
        counts, mean_e = oracle_cascade_stream(spec, policy, 3000, 7)
        assert report.n_frames == counts["n"]
        assert report.n_target == counts["n_target"]
        assert report.miss_count == counts["miss"]
        assert report.fa_count == counts["fa"]
        assert report.energy == pytest.approx(mean_e, rel=1e-12)

    def test_chunk_boundary_spanning(self, trigger):
        # Frames past the first 65536 come from a generator whose counter is
        # parked one chunk further; the replay crosses the same boundary.
        spec, policy = trigger
        n = CHUNK_FRAMES + 700
        cfg = StreamConfig(system=spec, n_frames=n, seed=11)
        report = simulate(cfg, policy)
        counts, mean_e = oracle_cascade_stream(spec, policy, n, 11)
        assert report.miss_count == counts["miss"]
        assert report.fa_count == counts["fa"]
        assert report.n_target == counts["n_target"]
        assert report.energy == pytest.approx(mean_e, rel=1e-12)

    def test_three_stage_cascade_matches_scalar_replay(self):
        # The intermediate stage both stops and hands over frames.
        spec, _ = monitoring_system()
        policy = solve(spec)
        report = simulate(StreamConfig(system=spec, n_frames=3000, seed=7), policy)
        assert_counts_match(report, *oracle_cascade_stream(spec, policy, 3000, 7))

    def test_stage_ids_past_one_byte_route_exactly(self):
        # routes return each successor's id as a small integer; 260 stages
        # need ids past 255, and frames must still reach the last stage
        m = FeatureModel(p0=[0.6, 0.3, 0.1], p1=[0.2, 0.3, 0.5])
        stages = tuple(StageSpec(model=m, on_cost=0.01) for _ in range(260))
        spec = SystemSpec(stages=stages, miss_cost=3.0, fa_cost=1.0, prior=0.5, energy_weight=1e-3)
        policy = solve(spec, BeliefGrid(101))
        report = simulate(StreamConfig(system=spec, n_frames=500, seed=1), policy)
        assert_counts_match(report, *oracle_cascade_stream(spec, policy, 500, 1))
        assert report.fa_count + report.n_target - report.miss_count > 0  # declared at stage 260

    def test_graph_counts_match_scalar_replay(self):
        g = diamond_graph()
        gp = solve_graph(g, miss_cost=3.0, fa_cost=1.0, energy_weight=0.02, prior=0.1)
        n = CHUNK_FRAMES + 700
        report = simulate(StreamConfig(system=g, n_frames=n, seed=5, prior=0.5), gp)
        counts, mean_e, actions = oracle_graph_stream(g, gp, n, 5, 0.5)
        assert_counts_match(report, counts, mean_e)
        # the stream stops at, and leaves through, every internal node
        assert {(1, 0), (1, 2), (1, 3), (2, 0), (2, 4), (3, 0), (3, 4)} <= actions

    def test_join_node_holding_every_frame_matches_scalar_replay(self):
        # The root splits the frames between nodes 2 and 3 and both hand all
        # of theirs to node 4, which thus holds every frame of a chunk, but in
        # the order of its parents' lists, not in frame order.
        g = diamond_graph()
        gp = solve_graph(g, miss_cost=3.0, fa_cost=1.0, energy_weight=0.02, prior=0.1)
        none, u8 = np.array([]), np.uint8
        routes = {
            **gp.routes,
            1: (np.array([0.3]), np.array([2, 3], u8)),
            2: (none, np.array([4], u8)),
            3: (none, np.array([4], u8)),
        }
        policy = replace(gp, routes=routes)
        n = CHUNK_FRAMES + 701
        report = simulate(StreamConfig(system=g, n_frames=n, seed=6, prior=0.3), policy)
        counts, mean_e, actions = oracle_graph_stream(g, policy, n, 6, 0.3)
        assert_counts_match(report, counts, mean_e)
        assert {(1, 2), (1, 3), (2, 4), (3, 4)} <= actions
        assert not {(1, 0), (2, 0), (3, 0)} & actions

    @pytest.mark.parametrize(
        "system, mu, burn_in, n_frames",
        [
            (trigger_system, 1e-3, CHUNK_FRAMES + 500, 2000),
            (fallback_system, 0.5, 1000, 4000),
            (feature_then_fallback_system, 1e-3, 1000, 4000),
            (middle_fallback_system, 1e-2, 1000, 4000),
            (trigger_system, 1e-3, 0, CHUNK_FRAMES + 500),
            (middle_fallback_system, 1e-3, CHUNK_FRAMES, 3000),
        ],
        ids=[
            "trigger-long-burn-in", "fallback-clamped", "feature-then-fallback",
            "middle-fallback", "no-burn-in-across-chunks", "burn-in-one-chunk",
        ],
    )
    def test_adaptive_matches_scalar_replay(self, system, mu, burn_in, n_frames):
        spec = system()
        clamps = assert_adaptive_matches_replay(spec, n_frames, 3, mu, burn_in)
        if system is fallback_system:
            assert scalar_feature_rule(spec) == [False, True]
            assert clamps == {"low", "high"}
        if system is feature_then_fallback_system:
            assert scalar_feature_rule(spec) == [True, False]
        if system is middle_fallback_system:
            assert scalar_feature_rule(spec) == [True, False, True]

    def test_duty_cycle_counts_match_scalar_replay(self):
        dc = DutyCycleSpec(
            detector=detector_suite()[2],
            rho=0.35,
            on_cost=DUTY_ON_MJ,
            off_cost=DUTY_OFF_MJ,
            miss_cost=3.0,
            fa_cost=1.0,
            prior=0.1,
        )
        cfg = StreamConfig(system=dc, n_frames=5000, seed=3, energy_weight=0.001)
        report = simulate(cfg)
        counts, mean_e = oracle_duty_stream(dc, 5000, 3)
        assert report.miss_count == counts["miss"]
        assert report.fa_count == counts["fa"]
        assert report.n_target == counts["n_target"]
        assert report.energy == pytest.approx(mean_e, rel=1e-12)


    def test_short_cdf_never_draws_a_zero_mass_tail_symbol(self):
        # The float cumsum of ten 0.1 masses ends at 0.9999999999999999, so
        # a uniform just below 1 lies past it; the zero-mass symbol 10 must
        # still never be drawn.  The last word, 2**64 - 1, is that uniform.
        p = [0.1] * 10 + [0.0]
        model = FeatureModel(p0=p, p1=p[::-1])
        assert np.cumsum(model.p0)[-1] < 1.0
        w = np.array([0, int(0.55 * 2**64), int(0.95 * 2**64), 2**64 - 1], dtype=np.uint64)
        assert uniforms(w)[-1] == np.nextafter(1.0, 0.0)
        y = _SymbolSampler(model)(np.zeros(w.size, dtype=bool), w)
        assert y.tolist() == [0, 5, 9, 9]
        assert np.all(model.p0[y] > 0.0)


def sorted_symbols(spec):
    """The system with each stage's symbols put in nondecreasing
    likelihood-ratio order, so every stage runs the feature rule."""
    def reorder(model):
        order = np.argsort(model.ratios(), kind="stable")
        return FeatureModel(p0=model.p0[order], p1=model.p1[order])

    return replace(spec, stages=tuple(replace(s, model=reorder(s.model)) for s in spec.stages))


def pinned_system(miss_cost, fa_cost):
    """A weak first stage that every frame passes (activation target 1)
    ahead of a detector that declares every frame (miss_cost >> fa_cost,
    target 1) or none (fa_cost >> miss_cost, target 0)."""
    weak = FeatureModel(p0=[0.3, 0.25, 0.25, 0.2], p1=[0.2, 0.25, 0.25, 0.3])
    good = FeatureModel(p0=[0.4, 0.3, 0.2, 0.1], p1=[0.1, 0.2, 0.3, 0.4])
    stages = (StageSpec(model=weak, on_cost=1.0), StageSpec(model=good, on_cost=1.0))
    return SystemSpec(
        stages=stages, miss_cost=miss_cost, fa_cost=fa_cost, prior=0.3, energy_weight=0.0
    )


@pytest.fixture
def horizons(monkeypatch):
    """Every safe horizon adaptive mode computes, as (lo, hi, m)."""
    seen = []
    real = sim_module._safe_horizon

    def spy(eta, r, target, mu, lo, hi):
        m = real(eta, r, target, mu, lo, hi)
        seen.append((lo, hi, m))
        return m

    monkeypatch.setattr(sim_module, "_safe_horizon", spy)
    return seen


class TestAdaptiveBlocks:
    """Adaptive mode steps a stage's frames in blocks over which no decision
    can change; every report must still be the frame-by-frame rule's."""

    @pytest.mark.parametrize("mu", [1e-3, 1e-2, 0.2, 0.9])
    def test_random_cascades_match_scalar_replay(self, mu, horizons):
        rng = np.random.default_rng(int(mu * 1e4))
        cases = [(random_system(rng), 0, 1500) for _ in range(3)]
        cases += [(sorted_symbols(random_system(rng)), 0, 1500) for _ in range(3)]
        # a burn-in that ends just past the first chunk edge
        cases.append((sorted_symbols(random_system(rng)), CHUNK_FRAMES - 300, 600))
        for i, (spec, burn_in, n_frames) in enumerate(cases):
            assert_adaptive_matches_replay(spec, n_frames, i, mu, burn_in)
        if mu <= 1e-2:  # the block path ran
            assert max(m for _, _, m in horizons) >= sim_module._MIN_BLOCK

    def test_eta_crossing_levels_in_burn_in(self, horizons):
        # the detector's eta starts at 6.0, in (5, 6], and crosses symbol 5
        assert_adaptive_matches_replay(trigger_system(), 200, 3, 3e-3, 12_000)
        brackets = {(lo, hi) for lo, hi, m in horizons if m >= sim_module._MIN_BLOCK}
        assert {(5, 6), (4, 5)} <= brackets

    def test_trigger_zero_mass_gap(self, horizons):
        # symbols 3 and 4 carry no mass: the trigger's bracket is (2, 5]
        assert_adaptive_matches_replay(trigger_system(), 3000, 3, 1e-3, 0)
        assert any(
            (lo, hi) == (2, 5) and m >= sim_module._MIN_BLOCK for lo, hi, m in horizons
        )

    def test_fallback_stage_clamps_both_ways(self, horizons):
        spec = fallback_system()
        assert assert_adaptive_matches_replay(spec, 4000, 3, 0.5, 1000) == {"low", "high"}
        assert (0.0, 3.0, 0) in horizons  # the fallback stage's range, [0, limit]

    def test_target_one_pins_eta_at_zero(self, horizons):
        spec = pinned_system(miss_cost=100.0, fa_cost=0.01)
        assert stationary_targets(spec, solve(spec))[0].tolist() == [1.0, 1.0]
        assert assert_adaptive_matches_replay(spec, 2000, 3, 0.2, 0) == {"low"}
        assert horizons[-1] == (0.0, 0, 0)  # eta == 0: no safe step

    def test_target_zero_lifts_eta_past_every_symbol(self, horizons):
        # the detector's eta climbs past its top symbol 3, where the clamp
        # bound 4.0 closes the bracket: a feature stage's eta can come near
        # that clamp (within the last rate estimate) but not reach it
        spec = pinned_system(miss_cost=0.01, fa_cost=100.0)
        assert stationary_targets(spec, solve(spec))[0].tolist() == [1.0, 0.0]
        assert assert_adaptive_matches_replay(spec, 4000, 3, 3e-3, 0) == {"low"}
        assert any(
            (lo, hi) == (3, 4.0) and m >= sim_module._MIN_BLOCK for lo, hi, m in horizons
        )


def scalar_steps(eta, r, target, mu, acts, limit):
    """The frame-by-frame update over a sequence of acts, every eta after
    each step, and whether any step clamped."""
    path, clamped = [], False
    for a in acts:
        r += mu * (a - r)
        nxt = eta + mu * (r - target)
        clamped |= not 0.0 <= nxt <= limit
        eta = min(max(nxt, 0.0), limit)
        path.append(eta)
    return path, clamped


class TestSafeHorizon:
    @pytest.mark.parametrize("mu", [1e-4, 1e-3, 1e-2, 0.1, 0.5, 0.9])
    @pytest.mark.parametrize("lo, hi, limit", [(0.0, 1, 12.0), (2, 5, 6.0), (10, 12.0, 12.0)])
    def test_steps_keep_eta_inside_its_bracket(self, mu, lo, hi, limit):
        # all ones and all zeros drive the rate estimate, and so eta, as far
        # up and as far down as any act sequence can
        safe = 0
        for f in (1e-9, 0.01, 0.3, 0.5, 0.9, 1.0):
            eta = lo + f * (hi - lo)
            for r in (0.0, 0.3, 1.0):
                for target in (0.0, 0.3, 1.0):
                    m = sim_module._safe_horizon(eta, r, target, mu, lo, hi)
                    g, u, half = abs(r - target), math.ulp(hi), 0.5 * min(eta - lo, hi - eta)
                    drift = lambda k: mu * k * g + mu * mu * k * k + k * u
                    assert drift(m) <= half < drift(m + 1)  # the largest such m
                    for a in (0.0, 1.0):
                        path, clamped = scalar_steps(eta, r, target, mu, [a] * m, limit)
                        assert not clamped
                        assert all(lo < e <= hi for e in path)
                    safe += m > 0
        assert safe or mu >= 0.5  # small steps leave room for some

    def test_no_room_no_steps(self):
        assert sim_module._safe_horizon(5.0, 0.3, 0.3, 1e-3, 2, 5) == 0  # eta at hi
        assert sim_module._safe_horizon(0.0, 0.3, 0.3, 1e-3, 0.0, 1) == 0  # clamped low


def uniforms(words):
    """The doubles Generator.random makes of raw Philox words."""
    return (words >> np.uint64(11)) * 2.0**-53


@st.composite
def sampler_pmfs(draw):
    """Two PMFs over 2-100 symbols: free masses (zeros included), zero
    first and last masses, or all mass on one symbol."""
    q = draw(st.integers(2, 100))

    def pmf():
        shape = draw(st.sampled_from(["free", "zero-ends", "one-hot"]))
        w = np.zeros(q)
        if shape == "one-hot":
            w[draw(st.integers(0, q - 1))] = 1.0
            return w
        w[:] = draw(st.lists(st.integers(0, 10**6), min_size=q, max_size=q))
        if shape == "zero-ends":
            w[0] = w[-1] = 0.0
        if not w.any():
            w[q // 2] = 1.0
        return w / w.sum()

    return FeatureModel(p0=pmf(), p1=pmf())


class TestSymbolSampler:
    @settings(max_examples=150, deadline=None)
    @given(sampler_pmfs(), st.lists(st.integers(0, 2**64 - 1), max_size=64))
    def test_guide_table_matches_binary_search(self, model, randoms):
        cdf = [np.array(c) for c in cdfs(model)]
        low_bits = np.uint64((1 << 52) - 1)  # a word's bits below its guide cell
        first = np.arange(GUIDE_CELLS, dtype=np.uint64) << np.uint64(52)
        # K_j = ceil(c_j * 2**53) is the least 53-bit numerator whose uniform
        # reaches c_j; K_j - 1 is the greatest below it
        keys = np.concatenate([np.ceil(c * 2.0**53) for c in cdf]).astype(np.uint64)
        near = np.concatenate([keys - np.uint64(1), keys])
        near = near[near < np.uint64(1 << 53)] << np.uint64(11)
        w = np.concatenate([
            np.array([0, 2**64 - 1] + randoms, dtype=np.uint64),
            first, first | low_bits, near, near | np.uint64(2**11 - 1),
        ])
        want = [np.searchsorted(c, uniforms(w), side="right") for c in cdf]
        sample = _SymbolSampler(model)
        for state, p in enumerate((model.p0, model.p1)):
            y = sample(np.full(w.size, bool(state)), w)
            assert np.array_equal(y, want[state])
            assert np.all(p[y] > 0.0)
        # mixed states in one call: each frame draws from its own state's CDF
        x = np.arange(w.size) % 3 == 0
        assert np.array_equal(sample(x, w), np.where(x, want[1], want[0]))
        # the counted table is the searched one: entry 2k + x holds state x's
        # draw throughout cell k, or -1 where a CDF entry lies strictly inside
        edges = np.arange(GUIDE_CELLS + 1) / GUIDE_CELLS
        lo = np.array([np.searchsorted(c, edges[:-1], side="right") for c in cdf])
        ambiguous = lo != [np.searchsorted(c, edges[1:], side="left") for c in cdf]
        assert np.array_equal(sample._table, np.where(ambiguous, -1, lo).T.ravel())
        # only cells holding a CDF entry strictly inside need the binary search
        searched = (sample._table.reshape(GUIDE_CELLS, 2) < 0).sum(axis=0)
        assert np.all(searched <= model.alphabet_size - 1)


class TestDeterminism:
    def test_identical_configs_identical_reports(self, trigger):
        spec, policy = trigger
        cfg = StreamConfig(system=spec, n_frames=50_000, seed=42)
        assert simulate(cfg, policy) == simulate(cfg, policy)

    def test_seed_changes_stream(self, trigger):
        spec, policy = trigger
        a = simulate(StreamConfig(system=spec, n_frames=50_000, seed=1), policy)
        b = simulate(StreamConfig(system=spec, n_frames=50_000, seed=2), policy)
        assert (a.miss_count, a.fa_count) != (b.miss_count, b.fa_count)

    def test_belief_streams_ignore_burn_in(self, trigger):
        # burn_in belongs to adaptive mode; belief-rule walks measure every frame
        g = diamond_graph()
        gp = solve_graph(g, miss_cost=3.0, fa_cost=1.0, energy_weight=0.02, prior=0.1)
        for system, policy in (trigger, (g, gp)):
            a, b = (
                simulate(StreamConfig(system=system, n_frames=5000, seed=2, burn_in=n), policy)
                for n in (0, 1000)
            )
            assert a == b and a.n_frames == 5000

    def test_adaptive_runs_are_reproducible(self, trigger):
        spec, policy = trigger
        cfg = StreamConfig(
            system=spec, n_frames=30_000, seed=5, mode="adaptive", mu=1e-3, burn_in=5_000
        )
        a = simulate(cfg, policy)
        b = simulate(cfg, policy)
        assert a == b
        assert a.final_eta is not None and len(a.final_eta) == 2
        assert a.n_frames == 30_000


def golden_streams(n=2 * CHUNK_FRAMES + 700):
    """The pinned streams, each of n frames: the reference monitor at two
    priors, the diamond (node 4 takes both parents' frames), the real duty
    cycler, and an adaptive trigger stream whose burn-in crosses a chunk
    edge."""
    for prior in (0.05, 0.25):
        spec, _ = monitoring_system(prior=prior)
        yield f"monitor-{prior}", StreamConfig(system=spec, n_frames=n, seed=21), solve(spec)
    g = diamond_graph()
    gp = solve_graph(g, miss_cost=3.0, fa_cost=1.0, energy_weight=0.002, prior=0.1)
    yield "diamond", StreamConfig(system=g, n_frames=n, seed=22, prior=0.3), gp
    spec, _ = monitoring_system()
    policy = solve(spec)
    rho, _ = energy_equivalent_rho(evaluate(spec, policy).energy, DUTY_ON_MJ, DUTY_OFF_MJ)
    dc = replace(ideal_duty_cycle(spec, rho), on_cost=DUTY_ON_MJ, off_cost=DUTY_OFF_MJ)
    yield "real-duty", StreamConfig(
        system=dc, n_frames=n, seed=23, energy_weight=policy.energy_weight
    ), None
    spec = trigger_system()
    yield "adaptive-trigger", StreamConfig(
        system=spec, n_frames=n, seed=24, mode="adaptive", mu=1e-3, burn_in=CHUNK_FRAMES + 500
    ), solve(spec)


def pinned(value):
    """A report field as pinned below: floats by float.hex."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return tuple(pinned(v) for v in value)
    return value


class TestGoldenReports:
    """Every report field, bit for bit.  The scalar oracles check energy
    with fsum and approx only; these pins also hold the order of the float
    sums behind energy, energy_se and risk_se."""

    GOLDEN = {
        "monitor-0.05": {
            "n_frames": 131772,
            "n_target": 6776,
            "miss_count": 3040,
            "fa_count": 131,
            "energy": "0x1.f2a006924a45fp+4",
            "energy_se": "0x1.7806c265fadeep-3",
            "empirical_risk": "0x1.9f34bfb3a45f0p-4",
            "risk_se": "0x1.47bf293fec46ep-10",
            "miss_rate": "0x1.cb68e0de7374fp-2",
            "miss_rate_se": "0x1.8bf7cd118af7ap-8",
            "fa_rate": "0x1.12bc57113ea57p-10",
            "fa_rate_se": "0x1.7fdbe826e331bp-14",
            "final_eta": None,
            "rate_errors": None,
        },
        "monitor-0.25": {
            "n_frames": 131772,
            "n_target": 33061,
            "miss_count": 2252,
            "fa_count": 745,
            "energy": "0x1.1ad0edd0e3729p+7",
            "energy_se": "0x1.1ff93ef58468fp-2",
            "empirical_risk": "0x1.962f29f13aaa3p-3",
            "risk_se": "0x1.1df5760560216p-10",
            "miss_rate": "0x1.170156ef00e7fp-4",
            "miss_rate_se": "0x1.6b3c6d69dbc00p-10",
            "fa_rate": "0x1.ee9e6c16c5330p-8",
            "fa_rate_se": "0x1.20d8c1555443ap-12",
            "final_eta": None,
            "rate_errors": None,
        },
        "diamond": {
            "n_frames": 131772,
            "n_target": 39842,
            "miss_count": 2081,
            "fa_count": 3726,
            "energy": "0x1.69e6f10f39fb9p+5",
            "energy_se": "0x1.48966527d9699p-4",
            "empirical_risk": "0x1.543b67938da30p-3",
            "risk_se": "0x1.2996a69b06b98p-10",
            "miss_rate": "0x1.abe10103e4cedp-5",
            "miss_rate_se": "0x1.243432d2658aep-10",
            "fa_rate": "0x1.4c075453be091p-5",
            "fa_rate_se": "0x1.54ff09b9d8268p-11",
            "final_eta": None,
            "rate_errors": None,
        },
        "real-duty": {
            "n_frames": 131772,
            "n_target": 13159,
            "miss_count": 6551,
            "fa_count": 366,
            "energy": "0x1.d054e44a81e0fp+6",
            "energy_se": "0x1.3685938e4d1efp-2",
            "empirical_risk": "0x1.126fbf064e256p-2",
            "risk_se": "0x1.cd4578f418dffp-10",
            "miss_rate": "0x1.fdc83e68dbe98p-2",
            "miss_rate_se": "0x1.1da66e88d89adp-8",
            "fa_rate": "0x1.9471bdc798745p-9",
            "fa_rate_se": "0x1.51ba5ee5ee8aap-13",
            "final_eta": None,
            "rate_errors": None,
        },
        "adaptive-trigger": {
            "n_frames": 131772,
            "n_target": 26292,
            "miss_count": 7270,
            "fa_count": 8812,
            "energy": "0x1.03c135d86229dp+3",
            "energy_se": "0x1.eafb885b8e28cp-6",
            "empirical_risk": "0x1.178636817af9ep-2",
            "risk_se": "0x1.03c581dec96a4p-9",
            "miss_rate": "0x1.1b256da2ea8a4p-2",
            "miss_rate_se": "0x1.698d1a397f012p-9",
            "fa_rate": "0x1.563009024f7d3p-4",
            "fa_rate_se": "0x1.bead3f70f36c2p-11",
            "final_eta": ("0x1.8fe413131b235p+1", "0x1.28da0f4b13cc1p+2"),
            "rate_errors": ("0x1.8fc8f0660c000p-14", "0x1.1fae96fcc6700p-9"),
        },
    }

    # The same streams at 2 * CHUNK_FRAMES + 703 frames, not a multiple of 4:
    # Philox yields its 64-bit words four at a time, so every row after
    # the first starts inside a block of four.
    GOLDEN_ODD = {
        "monitor-0.05": {
            "n_frames": 131775,
            "n_target": 6776,
            "miss_count": 3042,
            "fa_count": 130,
            "energy": "0x1.f2cc00cef0287p+4",
            "energy_se": "0x1.781a2e846d6dbp-3",
            "empirical_risk": "0x1.9f661e2544dcfp-4",
            "risk_se": "0x1.47d59634f3f4bp-10",
            "miss_rate": "0x1.cbb640ae17933p-2",
            "miss_rate_se": "0x1.8bfdfeb674eb0p-8",
            "fa_rate": "0x1.10a1c6e3967e9p-10",
            "fa_rate_se": "0x1.7e6229eb56905p-14",
            "final_eta": None,
            "rate_errors": None,
        },
        "monitor-0.25": {
            "n_frames": 131775,
            "n_target": 33061,
            "miss_count": 2255,
            "fa_count": 744,
            "energy": "0x1.1acaa0c4dde5dp+7",
            "energy_se": "0x1.1ffa2aa3e8979p-2",
            "empirical_risk": "0x1.9647dc8a8f319p-3",
            "risk_se": "0x1.1e1c7b8ece210p-10",
            "miss_rate": "0x1.17607d219129bp-4",
            "miss_rate_se": "0x1.6b75d04508a6fp-10",
            "fa_rate": "0x1.edf09dc239f4dp-8",
            "fa_rate_se": "0x1.20a54049597a0p-12",
            "final_eta": None,
            "rate_errors": None,
        },
        "diamond": {
            "n_frames": 131775,
            "n_target": 39842,
            "miss_count": 2080,
            "fa_count": 3724,
            "energy": "0x1.69f035ae4b2fcp+5",
            "energy_se": "0x1.489389da8cc39p-4",
            "empirical_risk": "0x1.542b5a816c728p-3",
            "risk_se": "0x1.2984c00a16226p-10",
            "miss_rate": "0x1.abac5e0423506p-5",
            "miss_rate_se": "0x1.242336a665afap-10",
            "fa_rate": "0x1.4bd6eea3463e1p-5",
            "fa_rate_se": "0x1.54e5cecf1ee2bp-11",
            "final_eta": None,
            "rate_errors": None,
        },
        "real-duty": {
            "n_frames": 131775,
            "n_target": 13159,
            "miss_count": 6554,
            "fa_count": 365,
            "energy": "0x1.d0591dcf17465p+6",
            "energy_se": "0x1.36849c1037be3p-2",
            "empirical_risk": "0x1.127fd5ef64e74p-2",
            "risk_se": "0x1.cd58b000f87d7p-10",
            "miss_rate": "0x1.fe0401f20821cp-2",
            "miss_rate_se": "0x1.1da6919023406p-8",
            "fa_rate": "0x1.93543d65ada46p-9",
            "fa_rate_se": "0x1.51425cb4cdeecp-13",
            "final_eta": None,
            "rate_errors": None,
        },
        "adaptive-trigger": {
            "n_frames": 131775,
            "n_target": 26293,
            "miss_count": 7289,
            "fa_count": 8823,
            "energy": "0x1.03b244baa1befp+3",
            "energy_se": "0x1.eaef2ff92c70ep-6",
            "empirical_risk": "0x1.1809b5b53f149p-2",
            "risk_se": "0x1.040dc5e3b06d7p-9",
            "miss_rate": "0x1.1be01a7bac127p-2",
            "miss_rate_se": "0x1.69d4d3c4cea68p-9",
            "fa_rate": "0x1.569bb91d0f733p-4",
            "fa_rate_se": "0x1.beec04142c65bp-11",
            "final_eta": ("0x1.8f2009db192e6p+1", "0x1.28d5c881b8753p+2"),
            "rate_errors": ("0x1.5e1f441208000p-16", "0x1.1f8a511d2e300p-9"),
        },
    }

    def test_reports_match_the_pins(self):
        got = {}
        for name, cfg, policy in golden_streams():
            report = simulate(cfg, policy)
            got[name] = {f.name: pinned(getattr(report, f.name)) for f in fields(report)}
        assert got == self.GOLDEN

    def test_reports_at_an_odd_frame_count_match_the_pins(self):
        got = {}
        for name, cfg, policy in golden_streams(2 * CHUNK_FRAMES + 703):
            report = simulate(cfg, policy)
            got[name] = {f.name: pinned(getattr(report, f.name)) for f in fields(report)}
        assert got == self.GOLDEN_ODD


class TestReportInternals:
    def test_risk_reconstruction_identity(self, trigger):
        spec, policy = trigger
        report = simulate(StreamConfig(system=spec, n_frames=80_000, seed=9), policy)
        lam = policy.energy_weight
        want = (
            lam * report.energy
            + spec.miss_cost * report.miss_count / report.n_frames
            + spec.fa_cost * report.fa_count / report.n_frames
        )
        assert report.empirical_risk == pytest.approx(want, abs=1e-12)

    def test_conditional_rates(self, trigger):
        spec, policy = trigger
        r = simulate(StreamConfig(system=spec, n_frames=80_000, seed=9), policy)
        assert r.miss_rate == pytest.approx(r.miss_count / r.n_target, abs=1e-15)
        assert r.fa_rate == pytest.approx(r.fa_count / (r.n_frames - r.n_target), abs=1e-15)
        assert 0.0 < r.risk_se < 1.0

    def test_prior_override(self, trigger):
        spec, policy = trigger
        base = simulate(StreamConfig(system=spec, n_frames=60_000, seed=4), policy)
        heavy = simulate(
            StreamConfig(system=spec, n_frames=60_000, seed=4, prior=0.6), policy
        )
        assert heavy.n_target > base.n_target * 2


class TestStatisticalAgreement:
    def test_cascade_tracks_analytic_risk(self):
        spec, _ = monitoring_system()
        policy = solve(spec)
        analytic = evaluate(spec, policy)
        r = simulate(StreamConfig(system=spec, n_frames=400_000, seed=1), policy)
        assert abs(r.empirical_risk - analytic.total) <= 3.0 * r.risk_se
        assert abs(r.energy - analytic.energy) <= 3.0 * r.energy_se

    def test_duty_cycle_tracks_analytic_risk(self):
        dc = DutyCycleSpec(
            detector=detector_suite()[2],
            rho=0.5,
            on_cost=DUTY_ON_MJ,
            off_cost=DUTY_OFF_MJ,
            miss_cost=3.0,
            fa_cost=1.0,
            prior=0.1,
        )
        lam = 0.001
        analytic = dc_risk(dc, lam)
        r = simulate(StreamConfig(system=dc, n_frames=400_000, seed=2, energy_weight=lam))
        assert abs(r.empirical_risk - analytic.total) <= 3.0 * r.risk_se

    def test_graph_tracks_exact_deployed_risk(self):
        from test_graph import exact_policy_risk

        g = diamond_graph()
        gp = solve_graph(g, miss_cost=3.0, fa_cost=1.0, energy_weight=0.002, prior=0.1)
        exact = exact_policy_risk(g, gp, 0.1)
        r = simulate(StreamConfig(system=g, n_frames=400_000, seed=3), gp)
        assert abs(r.empirical_risk - exact) <= 3.0 * r.risk_se


class TestBeliefBounds:
    def test_walker_posteriors_stay_inside_the_bounds(self, monkeypatch):
        # deployed thresholds are clamped to bounds computed with the class
        # arithmetic the walker updates with; on models with ratio ties and
        # zero masses every belief the walker produces must lie inside them
        from test_cascade import with_zero_masses
        from conftest import duplicate_columns, random_system

        seen = []

        def recording(pi, model, y):
            out = posterior_update(pi, model, y)
            seen.append((model, out))
            return out

        monkeypatch.setattr(sim_module, "posterior_update", recording)
        rng = np.random.default_rng(31)
        monitor, _ = monitoring_system()
        systems = [monitor]
        for _ in range(12):
            spec = with_zero_masses(rng, random_system(rng, n_stages=3, energy_weight=2e-3))
            spec, _ = build_system(
                [
                    (replace(st, model=duplicate_columns(rng, st.model)), UncertaintyParams())
                    for st in spec.stages
                ],
                spec.miss_cost, spec.fa_cost, spec.prior, energy_weight=spec.energy_weight,
            )
            systems.append(spec)
        for spec in systems:
            seen.clear()
            simulate(StreamConfig(system=spec, n_frames=30_000, seed=4), solve(spec))
            bounds = {id(st.model): st.bounds for st in spec.stages}
            assert {id(m) for m, _ in seen} <= set(bounds)
            # every frame's root belief, updated from the one stream prior
            root = spec.stages[0].model
            assert sum(b.size for m, b in seen if m is root) == 30_000
            for model, beliefs in seen:
                b = bounds[id(model)]
                assert b.lo <= beliefs.min() and beliefs.max() <= b.hi


class TestValidation:
    def test_cascade_needs_policy(self, trigger):
        spec, _ = trigger
        with pytest.raises(ModelFormatError):
            simulate(StreamConfig(system=spec, n_frames=100, seed=1))

    def test_threshold_count_checked(self, trigger):
        spec, _ = trigger
        other = solve(monitoring_system()[0])
        with pytest.raises(ModelFormatError):
            simulate(StreamConfig(system=spec, n_frames=100, seed=1), other)

    def test_graph_rejects_adaptive_mode(self):
        g = diamond_graph()
        gp = solve_graph(g, miss_cost=3.0, fa_cost=1.0, energy_weight=0.002, prior=0.1)
        cfg = StreamConfig(system=g, n_frames=100, seed=1, mode="adaptive")
        with pytest.raises(ModelFormatError):
            simulate(cfg, gp)

    def test_duty_cycler_rejects_adaptive_mode(self, monkeypatch):
        # refused before any frame is drawn, as for a graph
        spec, _ = monitoring_system()
        cfg = StreamConfig(
            system=ideal_duty_cycle(spec, 0.3), n_frames=1000, seed=1, mode="adaptive", burn_in=5
        )
        monkeypatch.setattr(sim_module, "_generator", None)
        with pytest.raises(ModelFormatError, match="adaptive mode applies to cascade systems"):
            simulate(cfg)

    def test_bad_mu_rejected(self, trigger):
        # adaptive mode steps by mu; belief streams ignore it
        spec, _ = trigger
        for mu in (0.0, 1.0, -0.1, math.nan, math.inf):
            with pytest.raises(ModelFormatError, match="mu must lie in"):
                StreamConfig(system=spec, n_frames=100, seed=1, mode="adaptive", mu=mu)
            assert StreamConfig(system=spec, n_frames=100, seed=1, mu=mu).mu is mu

    def test_bad_mode_rejected(self, trigger):
        spec, _ = trigger
        with pytest.raises(ModelFormatError):
            StreamConfig(system=spec, n_frames=100, seed=1, mode="turbo")

    def test_nonpositive_frames_rejected(self, trigger):
        spec, _ = trigger
        with pytest.raises(ModelFormatError):
            StreamConfig(system=spec, n_frames=0, seed=1)

    @pytest.mark.parametrize(
        "fields",
        [
            {"n_frames": 2.5},
            {"n_frames": True},
            {"burn_in": 1.5},
            {"burn_in": False},
            {"seed": -1},
            {"seed": 2**128},
            {"seed": 1.0},
            {"prior": 1.5},
            {"prior": -0.1},
            {"prior": float("nan")},
        ],
    )
    def test_bad_stream_fields_rejected(self, trigger, fields):
        spec, _ = trigger
        with pytest.raises(ModelFormatError):
            StreamConfig(system=spec, **{"n_frames": 100, "seed": 1, **fields})

    def test_widest_seed_and_numpy_integers_accepted(self, trigger):
        spec, policy = trigger
        for seed in (2**128 - 1, np.int64(7)):
            cfg = StreamConfig(system=spec, n_frames=np.int64(10), seed=seed, prior=1.0)
            assert simulate(cfg, policy).n_target == 10


def round_trip(policy, spec):
    """The policy as ``simulate --policy`` reads it back from a file."""
    return io.policy_from_payload(json.loads(io.write_json(io.policy_payload(policy), None)), spec)


def assert_same_routes(a, b):
    assert a.keys() == b.keys()
    for node in a:
        for x, y in zip(a[node], b[node], strict=True):
            assert x.dtype == y.dtype
            np.testing.assert_array_equal(x, y)


class TestDeployedRoutes:
    """A cascade's deployed rule is its ``Policy.routes``: one cut per
    stage at the deployed threshold, read through ``graph.route`` by the
    stream, the adaptive fallback and ``stationary_targets``."""

    def test_bundled_routes_survive_a_file_round_trip(self):
        spec, _ = monitoring_system()
        policy = solve(spec)
        routes = policy.routes
        assert sorted(routes) == [1, 2, 3]
        for node, (cuts, actions) in routes.items():
            assert cuts.tolist() == [policy.thresholds[node - 1]]
            assert actions.tolist() == [0, node + 1 if node < 3 else 1]
            assert actions.dtype == np.uint8
        assert_same_routes(round_trip(policy, spec).routes, routes)

    def test_a_260_stage_cascade_routes_with_uint16_labels(self):
        # at weight 0 every belief continues, so each frame reaches stage
        # 260, past the 255 that a uint8 label could name
        rng = np.random.default_rng(5)
        stages = tuple(
            StageSpec(model=random_model(rng), on_cost=1.0 + k / 100, off_cost=0.5)
            for k in range(260)
        )
        spec = SystemSpec(stages=stages, miss_cost=2.0, fa_cost=1.0, prior=0.3, energy_weight=0.0)
        policy = solve(spec)
        loaded = round_trip(policy, spec)
        assert_same_routes(loaded.routes, policy.routes)
        assert policy.routes[255][1].tolist() == [0, 256]
        assert policy.routes[255][1].dtype == np.uint16
        report = simulate(StreamConfig(system=spec, n_frames=200, seed=3), policy)
        assert report == simulate(StreamConfig(system=spec, n_frames=200, seed=3), loaded)
        assert_counts_match(report, *oracle_cascade_stream(spec, policy, 200, 3))
        assert report.energy == pytest.approx(sum(s.on_cost for s in stages), rel=1e-12)

    def test_stream_and_targets_read_the_property(self, monkeypatch):
        spec, _ = monitoring_system()
        policy = solve(spec)
        reads, deployed = [], Policy.routes.fget
        monkeypatch.setattr(Policy, "routes", property(lambda p: reads.append(p) or deployed(p)))
        simulate(StreamConfig(system=spec, n_frames=100, seed=1), policy)
        assert reads == [policy]
        simulate(StreamConfig(system=spec, n_frames=100, seed=1, mode="adaptive"), policy)
        assert reads == [policy] * 3  # the adaptive route's and its targets'

    def test_a_threshold_on_a_reachable_posterior_continues(self):
        # stage 1's threshold set exactly on a class's posterior from the
        # prior: the stream and the exact targets both continue it, as they
        # do one ulp lower, and stop it one ulp higher.  Some classes' ratios
        # differ by ulps, so the class is the likeliest of those whose
        # posterior has no other within 1e-12.
        spec, _ = monitoring_system()
        policy = solve(spec)
        post, ev = belief_transition(spec.stages[0].model, np.array([spec.prior]))
        post, ev = post[:, 0], ev[:, 0]
        alone = [np.count_nonzero(np.abs(post - p) < 1e-12) == 1 for p in post]
        tie = float(post[np.argmax(np.where(alone, ev, 0.0))])

        def at(t):
            p = replace(policy, thresholds=(t, *policy.thresholds[1:]))
            cfg = StreamConfig(system=spec, n_frames=20_000, seed=9)
            return simulate(cfg, p), stationary_targets(spec, p)[0].tolist()

        on, below, above = at(tie), at(np.nextafter(tie, 0.0)), at(np.nextafter(tie, 1.0))
        assert on == below
        assert on[0] != above[0] and on[1] != above[1]
