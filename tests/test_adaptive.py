import numpy as np
import pytest

from guidedproc import (
    FeatureModel,
    ModelFormatError,
    StageSpec,
    SystemSpec,
    evidence,
    feature_cut,
    is_monotone_ratio,
    posterior_update,
    prepare_adaptive,
    solve,
    stationary_targets,
)
from conftest import random_model, sorted_model

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
            cut = feature_cut(m, belief, tau)
            for y in range(m.alphabet_size):
                above = posterior_update(belief, m, y) >= tau
                assert above == (y >= cut)

    def test_unreachable_threshold_maps_to_alphabet_size(self, rng):
        m = sorted_model(rng, 5)
        assert feature_cut(m, 1e-9, 0.999999) == 5

    def test_non_monotone_rejected(self):
        m = FeatureModel(p0=np.array([0.2, 0.3, 0.5]), p1=np.array([0.5, 0.3, 0.2]))
        with pytest.raises(ModelFormatError):
            feature_cut(m, 0.5, 0.5)


class TestRuntimeState:
    def test_prepare_defaults(self, rng):
        spec = small_system(rng)
        policy = solve(spec)
        state = prepare_adaptive(spec, policy, mu=1e-3)
        np.testing.assert_array_equal(state.eta, state.eta_limits / 2.0)
        np.testing.assert_array_equal(state.rate_estimates, state.targets)
        assert state.feature_rule.all()

    def test_bad_mu_rejected(self, rng):
        spec = small_system(rng)
        with pytest.raises(ModelFormatError):
            prepare_adaptive(spec, solve(spec), mu=0.0)
