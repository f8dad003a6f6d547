from dataclasses import replace

import numpy as np
import pytest

from guidedproc import (
    FeatureModel,
    ModelFormatError,
    Policy,
    StageSpec,
    SystemSpec,
    evidence,
    feature_cut,
    is_monotone_ratio,
    posterior_update,
    solve,
    stationary_targets,
    WorkSizeError,
)
from guidedproc import adaptive, fixtures
from conftest import duplicate_columns, random_model, random_system, sorted_model
from test_models import bayes_by_hand, class_model

# ---------------------------------------------------------------------------
# Oracle: long-run activation rates by explicit tree enumeration.  Every
# (stage, symbol history) path is walked with scalar Bayes updates; no
# matrices, no grids, no belief deduplication.
# ---------------------------------------------------------------------------


def oracle_rates(spec, thresholds):
    n = spec.n_stages
    act_mass = [0.0] * n
    reach_mass = [0.0] * n

    def walk(k, belief, weight):
        if weight <= 0.0 or k == n:
            return
        reach_mass[k] += weight
        stage = spec.stages[k]
        for y in range(stage.model.alphabet_size):
            ev = evidence(belief, stage.model, y)
            if ev == 0.0:
                continue
            post = posterior_update(belief, stage.model, y)
            if post >= thresholds[k]:
                act_mass[k] += weight * ev
                walk(k + 1, post, weight * ev)

    walk(0, spec.prior, 1.0)
    targets = [a / r if r > 0 else 0.0 for a, r in zip(act_mass, reach_mass)]
    return np.array(targets), np.array(reach_mass)


def small_system(rng, monotone=True, n_stages=3):
    maker = sorted_model if monotone else random_model
    stages = []
    on = 1.0
    for i in range(n_stages):
        stages.append(
            StageSpec(model=maker(rng, 6), on_cost=on, off_cost=0.0 if i == 0 else on * 0.05)
        )
        on *= 5.0
    return SystemSpec(
        stages=tuple(stages), miss_cost=3.0, fa_cost=1.0, prior=0.15, energy_weight=5e-3
    )


def dict_enumeration(spec, thresholds):
    """Oracle for the atom aggregation: the reachable beliefs kept in a dict
    from belief to weight, filled one continuing (symbol, belief) pair at a
    time in np.nonzero's order, then sorted for the next stage."""
    n = spec.n_stages
    targets = np.zeros(n)
    reach = np.zeros(n)
    dist = {float(spec.prior): 1.0}
    p_reach = 1.0
    for k, stage in enumerate(spec.stages):
        if not dist:
            break
        reach[k] = p_reach
        beliefs = np.array(sorted(dist))
        weights = np.array([dist[b] for b in beliefs])
        post, ev = bayes_by_hand(stage.model, beliefs)
        go = post >= thresholds[k]
        act = float(weights @ np.sum(ev * go, axis=0))
        targets[k] = act
        if k == n - 1 or act <= 0.0:
            break
        nxt = {}
        ys, bs = np.nonzero(go)
        for y, j in zip(ys, bs):
            w = weights[j] * ev[y, j]
            if w > 0.0:
                key = float(post[y, j])
                nxt[key] = nxt.get(key, 0.0) + w
        dist = {b: w / act for b, w in nxt.items()}
        p_reach *= act
    return targets, reach


def zero_some_masses(rng, model):
    """About a third of the masses zeroed: some symbols impossible under one
    state or both, some posteriors exactly 0 or 1."""
    p0, p1 = (p * (rng.random(p.size) > 0.35) for p in (model.p0, model.p1))
    p0[0] += p0.sum() == 0.0
    p1[-1] += p1.sum() == 0.0
    return FeatureModel(p0=p0 / p0.sum(), p1=p1 / p1.sum())


def class_system(spec):
    """The system with each stage model replaced by its class model: one
    symbol per ratio class, carrying the class masses, in class order."""
    return replace(spec, stages=tuple(replace(st, model=class_model(st.model)) for st in spec.stages))


class TestTargetsBitForBit:
    @staticmethod
    def check(spec, thresholds):
        policy = Policy(None, tuple(thresholds), tuple(thresholds), (), 0.0, 0.0)
        got = stationary_targets(spec, policy)
        # the Bayes step runs on ratio classes, so the oracle enumerates the
        # class models; a model whose ratios are all distinct is its own
        want = dict_enumeration(class_system(spec), thresholds)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    @staticmethod
    def thresholds(rng, spec):
        # solved ones, and random ones that continue more often
        solved = solve(spec).thresholds
        return solved, tuple(rng.choice([0.0, *rng.uniform(0.0, 0.6, 3)], spec.n_stages))

    @pytest.mark.parametrize("remodel", [zero_some_masses, duplicate_columns])
    def test_random_systems(self, rng, remodel):
        for _ in range(25):
            spec = random_system(rng, n_stages=int(rng.integers(2, 5)))
            stages = tuple(replace(st, model=remodel(rng, st.model)) for st in spec.stages)
            spec = replace(spec, stages=stages)
            for thresholds in self.thresholds(rng, spec):
                self.check(spec, thresholds)

    def test_reference_systems(self, rng):
        monitor, _ = fixtures.monitoring_system()
        for spec in (monitor, fixtures.trigger_system()):
            for thresholds in self.thresholds(rng, spec):
                self.check(spec, thresholds)

    def test_atom_guard(self, monkeypatch, rng):
        spec = small_system(rng, monotone=False)
        thresholds = (0.0,) * spec.n_stages  # every frame continues
        self.check(spec, thresholds)
        monkeypatch.setattr(adaptive, "_MAX_BELIEF_STATES", 5)
        policy = Policy(None, thresholds, thresholds, (), 0.0, 0.0)
        with pytest.raises(WorkSizeError, match="too large"):
            stationary_targets(spec, policy)


class TestMonotonicity:
    def test_sorted_model_is_monotone(self, rng):
        assert is_monotone_ratio(sorted_model(rng, 12))

    def test_decreasing_ratio_detected(self):
        m = FeatureModel(p0=np.array([0.2, 0.3, 0.5]), p1=np.array([0.5, 0.3, 0.2]))
        assert not is_monotone_ratio(m)

    def test_flat_model_counts_as_monotone(self):
        p = np.array([0.25, 0.75])
        assert is_monotone_ratio(FeatureModel(p0=p, p1=p.copy()))


class TestTargets:
    def test_stationary_targets_match_tree_enumeration(self, rng):
        for _ in range(5):
            spec = small_system(rng, monotone=False)
            policy = solve(spec)
            got_t, got_r = stationary_targets(spec, policy)
            want_t, want_r = oracle_rates(spec, policy.thresholds)
            np.testing.assert_allclose(got_t, want_t, atol=1e-12)
            np.testing.assert_allclose(got_r, want_r, atol=1e-12)

    def test_first_stage_always_reached(self, rng):
        spec = small_system(rng)
        targets, reach = stationary_targets(spec, solve(spec))
        assert reach[0] == 1.0
        assert np.all(reach[1:] <= reach[:-1] + 1e-15)


class TestFeatureCut:
    def test_cut_reproduces_belief_rule(self, rng):
        for _ in range(10):
            m = sorted_model(rng, 9)
            belief = float(rng.uniform(0.05, 0.9))
            tau = float(rng.uniform(0.05, 0.95))
            for model in (m, duplicate_columns(rng, m)):  # copies tie in ratio
                cut = feature_cut(model, belief, tau)
                for y in range(model.alphabet_size):
                    above = posterior_update(belief, model, y) >= tau
                    assert above == (y >= cut)

    def test_unreachable_threshold_maps_to_alphabet_size(self, rng):
        m = sorted_model(rng, 5)
        assert feature_cut(m, 1e-9, 0.999999) == 5

    def test_non_monotone_rejected(self):
        m = FeatureModel(p0=np.array([0.2, 0.3, 0.5]), p1=np.array([0.5, 0.3, 0.2]))
        with pytest.raises(ModelFormatError):
            feature_cut(m, 0.5, 0.5)
